"""Dilation map, factorability, associated tuples, existence, counterexample."""

import json
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import cnplab as cl
from cnplab import cli
from cnplab.coeffs import graded_count
from cnplab.tuples import TuplePowers
from model_reference import (AmbiguousRankError, dense_associated_tuple, dense_check_factorability,
                             dense_existence, dense_intertwining, projected_associated_defect,
                             qr_associated_defect, qr_counterexample_form, reports_agree,
                             restricted_associated_defect, split_rank, zero_tuple_probe)
from series_reference import dense_shifts, stack_power, tensored_shifts, tuple_power
from random_inputs import diff_kernel, finite_b_kernel, random_commuting_tuple
from cnplab._linalg import hermitize
from cnplab.model import _compressed_shift_forms, span_spectrum


def P(n, tol=1e-9, window=3):
    return cl.TruncationParams(N=n, tol=tol, tail_window=window)


# ---------------------------------------------------------------------------
# dilation map
# ---------------------------------------------------------------------------

def test_every_stage_reads_the_defect_it_is_given():
    # a defect records the tuple, table and truncation it was computed from, and the stages
    # after it read them from there: the shipped DA pair's verdicts from its defect alone
    path = Path(__file__).resolve().parents[1] / "configs" / "drury_arveson_pair.json"
    cfg = cli.parse_config(json.loads(path.read_text()))
    t = cfg.ops
    table, p = cl.build_table(cfg.kernel, cfg.n_table), cfg.truncation
    dd = cl.defect(t, table, p)
    assert dd.ops is t and dd.table is table and dd.params is p
    v = cl.build_dilation(dd)
    assert v.defect_data is dd and v.ops is t and v.table is table and v.params is p
    reported = {s["name"]: s["verdict"] for s in cli.run(cfg)["suites"]}
    assert cl.is_contraction(dd).status == reported["contraction"] == "yes"
    assert cl.is_pure(dd).status == reported["purity"] == "pure"
    assert cl.admits_charfn(v, cl.is_pure(dd)).status == reported["existence"] == "admits"


def test_dilation_zero_tuple():
    table = cl.build_table(cl.szego(), 12)
    v = cl.build_dilation(cl.defect(cl.OperatorTuple.zero(2, 1), table, P(10)))
    assert v.isometry_defect <= 1e-14
    assert np.array_equal(v.matrix[:2, :], np.eye(2))
    assert np.all(v.matrix[2:, :] == 0.0)


def test_dilation_scalar_szego_column():
    t = 0.5
    table = cl.build_table(cl.szego(), 62)
    v = cl.build_dilation(cl.defect(cl.OperatorTuple.from_scalars(t), table, P(60)))
    expected = np.sqrt(1 - t * t) * t ** np.arange(61)
    assert np.max(np.abs(v.matrix[:, 0] - expected)) <= 1e-14
    assert v.isometry_defect <= 1e-9


def test_dilation_degenerate():
    table = cl.build_table(cl.szego(), 12)
    unit = cl.OperatorTuple.from_scalars(1.0)
    with pytest.raises(cl.DegenerateDilationError):
        cl.build_dilation(cl.defect(unit, table, P(10)))


def test_intertwining_zero_tuple():
    table = cl.build_table(cl.drury_arveson(2), 10)
    zero = cl.OperatorTuple.zero(2, 2)
    p = P(8)
    v = cl.build_dilation(cl.defect(zero, table, p))
    res = cl.check_intertwining(v, [(1, 0), (0, 1), (1, 1)])
    assert res == 0.0
    # |alpha| > N reaches no column inside the truncated space
    assert cl.check_intertwining(v, [(9, 0), (1, 1)]) == 0.0


def test_intertwining_scalar_and_truncation_trend():
    table = cl.build_table(cl.szego(), 82)
    t = cl.OperatorTuple.from_scalars(0.5)
    residuals = {}
    for n in (40, 60):
        v = cl.build_dilation(cl.defect(t, table, P(n)))
        residuals[n] = cl.check_intertwining(v, [(3,)])
    assert residuals[60] <= 1e-9
    assert residuals[60] <= residuals[40] + 1e-13


@given(seed=st.integers(min_value=0, max_value=2**31), d=st.sampled_from([1, 2, 3]),
       h=st.integers(min_value=1, max_value=3),
       rule=st.sampled_from(["szego", "drury_arveson", "dirichlet_t", "bergman"]),
       param=st.floats(min_value=0.0, max_value=2.0), exact=st.booleans())
@settings(max_examples=30, deadline=None)
def test_intertwining_matches_dense_reference(seed, d, h, rule, param, exact):
    # the adjoint gathers on V's columns against M^alpha x I formed densely;
    # a random V makes the residual of order one, so the comparison is sharp
    rng = np.random.default_rng(seed)
    n = {1: 10, 2: 6, 3: 4}[d]
    table = cl.build_table(diff_kernel(rule, d, param), n + 1)
    v = cl.build_dilation(cl.defect(random_commuting_tuple(rng, d, h, 0.35), table, P(n)))
    if not exact:
        shape = v.matrix.shape
        v = v._replace(matrix=rng.standard_normal(shape) + 1j * rng.standard_normal(shape))
    alphas = [alpha for alpha in cl.graded_indices(d, 3) if any(alpha)]
    alphas.append((n + 1,) + (0,) * (d - 1))
    want = dense_intertwining(v, alphas)
    scale = max(1.0, np.max(np.abs(v.matrix)))
    assert abs(cl.check_intertwining(v, alphas) - want) <= 1e-12 * scale
    if exact:
        assert want <= 1e-12


def test_dilation_carries_its_tuple_and_shifts():
    table = cl.build_table(cl.drury_arveson(2), 10)
    t = cl.OperatorTuple.zero(2, 2)
    p = P(8)
    v = cl.build_dilation(cl.defect(t, table, p))
    assert v.ops is t and v.table is table and v.params is p
    assert all(np.array_equal(stack_power(v.powers, alpha), tuple_power(t, alpha))
               for alpha in v.indices)
    assert (v.N, v.indices) == (8, cl.graded_indices(2, 8))
    assert v.codomain_dims[1] == 2 and v.tensored.h == v.big_dim == v.matrix.shape[0]


# ---------------------------------------------------------------------------
# factorability
# ---------------------------------------------------------------------------

def assert_matches_reference(report, want, name=""):
    """The report against the dense reference: same decision, the same cond1 counts, and
    cond2 to 1e-12."""
    assert (report.verdict, report.failed_condition) == (want.verdict, want.failed_condition), name
    assert reports_agree(report, want), name


def test_factorability_zero_operator():
    table = cl.build_table(cl.szego(), 12)
    shifts = cl.shift_matrices(table, 8)
    # V = I gives X = I - V V^* = 0
    report = cl.check_factorability(cl.defect_span(np.eye(shifts.index.h), shifts.index, table),
                                    1e-9)
    assert report.verdict == "factorable"
    x = np.zeros((shifts.index.h, shifts.index.h))
    # the reference sums to top + tail_window: the same finite series
    assert_matches_reference(report, dense_check_factorability(x, dense_shifts(table, 8), table, P(8 + 3)))


def test_factorability_identity_on_szego_shift():
    table = cl.build_table(cl.szego(), 12)
    shifts = cl.shift_matrices(table, 8)
    p = P(8)
    # V with no columns gives X = I
    span = cl.defect_span(np.zeros((shifts.index.h, 0)), shifts.index, table)
    report = cl.check_factorability(span, p.tol)
    assert report.verdict == "factorable"
    assert report.cond2_min_eig >= -1e-12
    want = dense_check_factorability(np.eye(shifts.index.h), dense_shifts(table, p.N), table,
                                     P(p.N + 3))
    assert want.cond3_residual <= 1e-12
    assert_matches_reference(report, want)
    # the gap X - P(X) is exactly the rank-one projection onto the constants
    powers = TuplePowers(dense_shifts(table, p.N), p.N)
    gap = np.eye(shifts.index.h, dtype=complex)
    for alpha in cl.graded_indices(1, p.N):
        if sum(alpha) == 0:
            continue
        b = cl.multi_coeff(table, alpha, "b")
        m = stack_power(powers, alpha)
        gap -= b * (m @ m.conj().T)
    e0 = np.zeros_like(gap)
    e0[0, 0] = 1.0
    assert np.max(np.abs(gap - e0)) <= 1e-12


def test_factorability_bergman_projection_fails_cond2():
    table = cl.build_table(cl.bergman(2), 20)
    p = P(12)
    t0 = dense_shifts(table, 0)  # compression to the constants
    v = cl.build_dilation(cl.defect(t0, table, p))
    report = cl.check_factorability(v.span, p.tol)
    assert report.verdict == "not_factorable"
    assert report.failed_condition == 2
    assert report.cond2_min_eig <= -(1.0 / 3.0) + 1e-10
    x = np.eye(v.big_dim) - v.matrix @ v.matrix.conj().T
    assert_matches_reference(report, dense_check_factorability(
        x, tensored_shifts(v.table, v.N, v.codomain_dims[1]), table, P(p.N + 3)))


def test_factorability_rejects_a_non_contractive_v():
    # I - V V^* is PSD up to tol exactly when |V|^2 <= 1 + tol
    table = cl.build_table(cl.szego(), 12)
    shifts = cl.shift_matrices(table, 6)
    v = np.zeros((shifts.index.h, 2))
    v[0, 0] = v[3, 1] = 1.0
    v[:, 1] *= np.sqrt(1.0 + 2e-9)
    with pytest.raises(ValueError, match="PSD up to tol"):
        cl.check_factorability(cl.defect_span(v, shifts.index, table), 1e-9)
    v[3, 1] = np.sqrt(1.0 + 0.5e-9)  # within tol: checked, not rejected
    x = np.eye(shifts.index.h) - v @ v.T
    assert_matches_reference(cl.check_factorability(cl.defect_span(v, shifts.index, table), 1e-9),
                             dense_check_factorability(x, dense_shifts(table, 6), table, P(6 + 3)))
    with pytest.raises(ValueError, match="does not map into"):
        cl.defect_span(v[1:], shifts.index, table)


@pytest.mark.parametrize("kernel, want", [(cl.drury_arveson(2), (0, 1)),
                                          (cl.szego(), (1,)),
                                          (cl.drury_arveson(3), (0, 0, 1))])
def test_factorability_fails_cond1(kernel, want):
    # V = e(e_d), the unit column at graded position 1.  With c = 1 and
    # M_d M_d^* = 1 at e(e_d), cond1 at the last coordinate has the diagonal
    # entry 1 - 1 - |V|^2 = -1 there, and (M_d V)(M_d V)^* vanishes on e(e_d);
    # at any other coordinate that entry is 1 - 0 - 1 = 0: one eigenvalue
    # below -tol at the last coordinate, none elsewhere.  The minimiser lies
    # in the eigenspace of c - M_d M_d^* at 0, the rows e(k e_d), k = 1..6:
    # more rows than the 2 columns of [V, M_d V], so that set is collapsed
    table = cl.build_table(kernel, 10)
    shifts = cl.shift_matrices(table, 6)
    v = np.zeros((shifts.index.h, 1))
    v[1, 0] = 1.0
    report = cl.check_factorability(cl.defect_span(v, shifts.index, table), 1e-9)
    assert (report.verdict, report.failed_condition) == ("not_factorable", 1)
    assert report.cond1_negative_counts == want
    x = np.eye(shifts.index.h) - v @ v.T
    assert_matches_reference(report, dense_check_factorability(x, dense_shifts(table, 6), table,
                                                               P(6 + 3), c_degree=6))


def eigenspace_spectrum(cols: np.ndarray, weights: np.ndarray) -> np.ndarray:
    """The eigenvalues of C diag(w) C^*: with more rows than columns, those of R diag(w) R^*,
    C = Q R (unpivoted QR), then one 0 per row past the columns.  The package read cond2 and
    the model factorization this way, each from a QR of its own, before `DefectSpan`."""
    c = np.linalg.qr(cols, mode="r") if len(cols) > cols.shape[1] else cols
    return np.append(np.linalg.eigvalsh(hermitize((c * weights) @ c.conj().T)),
                     np.zeros(len(cols) - len(c)))


@given(seed=st.integers(min_value=0, max_value=2**31), n=st.integers(min_value=1, max_value=40),
       cols=st.integers(min_value=0, max_value=4))
@settings(max_examples=60, deadline=None)
def test_eigenspace_spectrum_matches_the_dense_spectrum(seed, n, cols):
    # C diag(w) C^* with fewer, as many or more columns than rows: the returned
    # values are its eigenvalues, each as often as it occurs (a nonzero, repeated
    # diagonal is covered by test_negative_count_matches_the_dense_count)
    rng = np.random.default_rng(seed)
    c = rng.standard_normal((n, cols)) + 1j * rng.standard_normal((n, cols))
    w = rng.uniform(-2.0, 2.0, cols)
    got = eigenspace_spectrum(c, w)
    dense = np.linalg.eigvalsh((c * w) @ c.conj().T)
    scale = 1.0 + np.abs(dense).max()
    assert len(got) == n and np.abs(np.sort(got) - dense).max() <= 1e-12 * scale


def dense_count_cases(ev):
    """(shift, count) pairs: eigenvalues of ev below each midpoint m between consecutive
    ones more than 1e-8 apart (shift -m), and below -1e-9, -1e-6 and -1e-3."""
    mids = (ev[:-1] + ev[1:])[np.diff(ev) > 1e-8] / 2.0
    return [(-m, int(np.count_nonzero(ev < m))) for m in mids] + \
        [(s, int(np.count_nonzero(ev < -s))) for s in (1e-9, 1e-6, 1e-3)]


COUNT_SOURCES = ["random", "szego", "drury_arveson", "bergman2", "bergman3", "dirichlet"]


@given(seed=st.integers(min_value=0, max_value=2**31), source=st.sampled_from(COUNT_SOURCES),
       d=st.sampled_from([1, 2, 3]), r=st.sampled_from([1, 2]),
       cols=st.integers(min_value=0, max_value=3))
@settings(max_examples=80, deadline=None)
def test_negative_count_matches_the_dense_count(seed, source, d, r, cols):
    # the inertia count of diag(delta) + C diag(w) C^* against dense eigvalsh counts,
    # at shifts between its eigenvalues and at tol-like ones.  "random" draws delta
    # with repeated values, zeros and nonzero values below theta = 1e-3 max delta,
    # and any nonzero weights; the rest are cond1 at a coordinate of the tensored
    # shifts of a kernel, with a V of |V| <= 1
    rng = np.random.default_rng(seed)
    if source == "random":
        n = int(rng.integers(1, 40))
        delta = rng.choice([0.0, 1e-6, 2e-4, 0.25, 0.5, 0.75, 1.0], n)
        c = rng.standard_normal((n, 2 * cols)) + 1j * rng.standard_normal((n, 2 * cols))
        w = rng.choice([-1.0, 1.0], 2 * cols) * rng.uniform(0.1, 2.0, 2 * cols)
    else:
        n = {1: 8, 2: 5, 3: 3}[d]
        spec = {"szego": cl.KernelSpec(d=d, rule="szego"), "drury_arveson": cl.drury_arveson(d),
                "bergman2": cl.bergman(2, d=d), "bergman3": cl.bergman(3, d=d),
                "dirichlet": cl.dirichlet_t(1.0, d=d)}[source]
        table = cl.build_table(spec, n + 4)
        shifts = cl.shift_matrices(table, n).index.tensor(r)
        v = rng.standard_normal((shifts.h, cols)) + 1j * rng.standard_normal((shifts.h, cols))
        if cols:
            v *= rng.uniform(0.0, 1.0) / np.linalg.norm(v, 2)
        i = int(rng.integers(d))
        top = cl.shift_norm_sq(table, n)
        delta = top - shifts.outer_diagonal(i)
        c = np.hstack([v, shifts.apply(i, v)])
        w = np.repeat([-top, 1.0], cols)
    ev = np.linalg.eigvalsh(np.diag(delta) + (c * w) @ c.conj().T)
    for shift, want in dense_count_cases(ev):
        assert cl.model.negative_count(delta, c, w, shift) == want, (shift, ev)


@given(seed=st.integers(min_value=0, max_value=2**31), d=st.sampled_from([1, 2, 3]),
       r=st.sampled_from([1, 2]), cols=st.integers(min_value=1, max_value=3),
       kernel=st.sampled_from(["szego", "drury_arveson", "dirichlet"]))
@settings(max_examples=40, deadline=None)
def test_cond2_bounds_cond1_under_a_cnp_kernel(seed, d, r, cols, kernel):
    # for b_k >= 0 and |V| <= 1, X - sum_k b_k sigma^k(X) >= m = min(0, cond2_min)
    # drops to X - a_1 M_i X M_i^* >= m (b_1 = a_1, X >= 0), and c >= a_0 / a_1 =
    # 1 / a_1, so c X - M_i X M_i^* >= m / a_1: no eigenvalue of cond1 lies below
    # -max(0, -cond2_min) / a_1 at any coordinate
    rng = np.random.default_rng(seed)
    n = {1: 8, 2: 5, 3: 3}[d]
    spec = {"szego": cl.KernelSpec(d=d, rule="szego"), "drury_arveson": cl.drury_arveson(d),
            "dirichlet": cl.dirichlet_t(rng.uniform(0.0, 2.0), d=d)}[kernel]
    assert cond1_below_cond2_bound(spec, n, r, cols, rng) == (0,) * d


def test_cond2_need_not_bound_cond1_under_bergman():
    # the bound needs b_k >= 0: under Bergman 2 (b_2 < 0) it fails at this draw
    rng = np.random.default_rng(11)
    assert cond1_below_cond2_bound(cl.bergman(2), 8, 1, 1, rng) == (1,)


def cond1_below_cond2_bound(spec, n, r, cols, rng):
    """cond1 counts below -max(0, -cond2_min) / a_1 - 1e-12, for a random V with |V| <= 1."""
    table = cl.build_table(spec, n + 4)
    shifts = cl.shift_matrices(table, n).index.tensor(r)
    v = rng.standard_normal((shifts.h, cols)) + 1j * rng.standard_normal((shifts.h, cols))
    v *= rng.uniform(0.0, 1.0) / np.linalg.norm(v, 2)
    report = cl.check_factorability(cl.defect_span(v, shifts, table), 1e-9)
    c = cl.shift_norm_sq(table, n)
    bound = max(0.0, -report.cond2_min_eig) / table.require_a(1)[1] + 1e-12
    return tuple(cl.model.negative_count(c - shifts.outer_diagonal(i),
                                         np.hstack([v, shifts.apply(i, v)]),
                                         np.repeat([-c, 1.0], cols), bound)
                 for i in range(spec.d))


def test_cond1_collapses_on_the_drury_arveson_triple(monkeypatch):
    # (A, A/2 + A^2, A^2 - A/2) at N = 8: big_dim 495.  Each cond1 count is one
    # solve of the collapsed |S| + 2h dimensions (the eigenspaces of cond1's
    # diagonal below theta cut to the 2h columns, plus the 2h border), not
    # the 138 of the collapsed eigenspaces of the whole diagonal, and it equals
    # the count of the dense c X - M_i X M_i^*; cond2's solve is on its span
    a = np.array([[0.1, 0.2, 0.0], [0.0, -0.1, 0.2], [0.0, 0.0, 0.1]])
    t = cl.OperatorTuple((a, a / 2 + a @ a, a @ a - a / 2))
    v = cl.build_dilation(cl.defect(t, cl.build_table(cl.drury_arveson(3), 12), P(8)))
    sizes = []
    eigvalsh = np.linalg.eigvalsh
    monkeypatch.setattr(np.linalg, "eigvalsh", lambda g: sizes.append(len(g)) or eigvalsh(g))
    report = cl.check_factorability(v.span, 1e-9)
    monkeypatch.undo()
    c = cl.shift_norm_sq(v.table, 8)
    bordered = []
    for i in range(3):
        delta = c - v.tensored.outer_diagonal(i)
        _, counts = np.unique(delta[delta < 1e-3 * delta.max()], return_counts=True)
        bordered.append(int(np.minimum(counts, 6).sum()) + 6)
    assert v.big_dim == 495 and sizes[:3] == bordered == [12, 12, 12] and sizes[3] < v.big_dim
    assert report.verdict == "factorable"
    x = np.eye(v.big_dim) - v.matrix @ v.matrix.conj().T
    dense = tuple(int(np.count_nonzero(np.linalg.eigvalsh(c * x - m @ x @ m.conj().T) < -1e-9))
                  for m in tensored_shifts(v.table, v.N, v.codomain_dims[1]).mats)
    assert report.cond1_negative_counts == dense == (0, 0, 0)


COND3_DEGREE = {1: 10, 2: 5, 3: 3}


@given(seed=st.integers(min_value=0, max_value=2**31), d=st.sampled_from([1, 2, 3]),
       r=st.sampled_from([1, 2]), cols=st.integers(min_value=0, max_value=3),
       kernel=st.sampled_from(["szego", "drury_arveson", "bergman2", "bergman3", "dirichlet",
                               "custom", "finite_b"]))
@settings(max_examples=60, deadline=None)
def test_factorability_cond3_is_an_identity_on_the_finite_space(seed, d, r, cols, kernel):
    # A(t) (1 - B(t)) = 1 and sigma^(N+1) = 0 on the truncated space, so the
    # a-series of X - P(X) gives back X for every X: condition 3 measures
    # rounding only, under any kernel (CNP or not) and any V with |V| <= 1,
    # which is why the package does not evaluate it.  cond1 and cond2 match
    # the dense solves: under Szego and Drury-Arveson large eigenspaces of
    # cond1's diagonal collapse, under dirichlet in one variable every one is
    # small, and with no columns cond1's matrix is its diagonal
    rng = np.random.default_rng(seed)
    n = COND3_DEGREE[d]
    spec = {
        "szego": lambda: cl.KernelSpec(d=d, rule="szego"),
        "drury_arveson": lambda: cl.drury_arveson(d),
        "bergman2": lambda: cl.bergman(2, d=d),
        "bergman3": lambda: cl.bergman(3, d=d),
        "dirichlet": lambda: cl.dirichlet_t(rng.uniform(0.0, 2.0), d=d),
        "custom": lambda: cl.custom_kernel([1.0, *rng.uniform(0.5, 1.5, n + 4)], d=d),
        "finite_b": lambda: finite_b_kernel(rng, d, n + 4),
    }[kernel]()
    table = cl.build_table(spec, n + 4)
    shifts = cl.shift_matrices(table, n).index.tensor(r)
    v = rng.standard_normal((shifts.h, cols)) + 1j * rng.standard_normal((shifts.h, cols))
    if cols:
        v *= rng.uniform(0.0, 1.0) / np.linalg.norm(v, 2)
    # the reference sums to n + tail_window: the same finite series
    want = dense_check_factorability(np.eye(shifts.h) - v @ v.conj().T,
                                     tensored_shifts(table, n, r), table, P(n + 3), c_degree=n)
    assert want.cond3_residual <= 1e-12
    assert_matches_reference(cl.check_factorability(cl.defect_span(v, shifts, table), 1e-9), want)


# ---------------------------------------------------------------------------
# associated tuple
# ---------------------------------------------------------------------------

def test_ambiguous_rank_fails_loudly():
    clean = np.array([1.0, 0.9, 1e-14])
    assert split_rank(clean) == 2
    straddling = np.array([1.0, 0.9, 5e-10])  # within a factor 10 of 1e-10
    with pytest.raises(AmbiguousRankError):
        split_rank(straddling)


def test_associated_tuple_full_range_is_empty():
    # the truncated shifts dilate to themselves: the embedding is the identity
    table = cl.build_table(cl.dirichlet_t(1.0), 14)
    p = P(10)
    v = cl.build_dilation(cl.defect(dense_shifts(table, p.N), table, p))
    assoc = cl.associated_tuple(v)
    assert assoc.dim == 0 and assoc.range_basis.shape == (v.big_dim, v.big_dim)
    assert cl.admits_charfn(v, cl.is_pure(v.defect_data)).value == 0.0


def test_associated_tuple_scalar_szego():
    table = cl.build_table(cl.szego(), 82)
    p = P(80)
    t = cl.OperatorTuple.from_scalars(0.5)
    v = cl.build_dilation(cl.defect(t, table, p))
    assoc = cl.associated_tuple(v)
    assert assoc.dim == 80
    assert assoc.invariance_residual <= 1e-10
    _, ops, _ = dense_associated_tuple(v)
    assert np.linalg.norm(ops.mats[0], 2) <= 1.0 + 1e-10


def test_associated_tuple_bergman_kernel_structure():
    # kernel of the adjoint embedding of the constants-compression spans the
    # positive degrees
    table = cl.build_table(cl.bergman(2), 20)
    p = P(12)
    t0 = dense_shifts(table, 0)
    v = cl.build_dilation(cl.defect(t0, table, p))
    assoc = cl.associated_tuple(v)
    assert assoc.dim == p.N
    # the constants lie in Ran V, so Ker V^* has no component on them
    assert abs(np.linalg.norm(assoc.range_basis[0]) - 1.0) <= 1e-12


def da_pair_dilation(spec):
    """The dilation of the shipped DA pair at N = 10 under the kernel spec."""
    path = Path(__file__).resolve().parents[1] / "configs" / "drury_arveson_pair.json"
    cfg = cli.parse_config(json.loads(path.read_text()))
    dd = cl.defect(cfg.ops, cl.build_table(spec, 14), P(10))
    return cl.build_dilation(dd)


@pytest.mark.parametrize("spec, cols", [(cl.drury_arveson(2), 12), (cl.dirichlet_t(1.0, d=2), 201)],
                         ids=["narrow-da", "wide-dirichlet"])
def test_range_basis_is_the_span_q1(spec, cols):
    # U = V R_11^-1 from the span's R-only QR is the Q_1 a reduced QR of its columns forms;
    # the span's spectrum pads one 0 per row past len(R): big_dim - 12 on the DA pair, none
    # on the Dirichlet span, 201 columns on 198 rows
    v = da_pair_dilation(spec)
    h, span = v.ops.h, v.span
    assert span.columns.shape == (v.big_dim, cols) and v.big_dim == 198
    u = cl.associated_tuple(v).range_basis
    q1 = np.linalg.qr(span.columns)[0][:, :h]
    assert np.linalg.norm(u - q1, 2) <= 1e-12
    assert np.linalg.norm(u.conj().T @ u - np.eye(h), 2) <= 1e-12
    assert len(span.r) == min(v.big_dim, cols)
    eigs = span_spectrum(span, np.append(np.ones(h), span.weights))
    assert len(eigs) == v.big_dim and not eigs[len(span.r):].any()
    assert v.big_dim - len(span.r) == (v.big_dim - 12 if cols == 12 else 0)


# ---------------------------------------------------------------------------
# existence test
# ---------------------------------------------------------------------------

def admits(t, table, p):
    dd = cl.defect(t, table, p)
    return cl.admits_charfn(cl.build_dilation(dd), cl.is_pure(dd))


def test_admits_zero_tuple_drury_arveson():
    table = cl.build_table(cl.drury_arveson(2), 14)
    report = admits(cl.OperatorTuple.zero(1, 2), table, P(8))
    assert report.status == "admits"


def test_does_not_admit_zero_tuple_bergman():
    table = cl.build_table(cl.bergman(2), 24)
    report = admits(cl.OperatorTuple.zero(1, 1), table, P(16))
    assert report.status == "does_not_admit"
    assert abs(report.value + 1.0 / 3.0) <= 1e-12
    # witness concentrates on the degree-2 basis vector
    assert abs(abs(report.witness[2]) - 1.0) <= 1e-8


def test_witness_value_t0_bergman():
    table = cl.build_table(cl.bergman(2), 20)
    t0 = dense_shifts(table, 0)
    report = admits(t0, table, P(12))
    assert report.status == "does_not_admit"
    assert abs(report.value + 1.0 / 3.0) <= 1e-12


def test_admits_requires_purity():
    # the unitary part of diag(1, 0.5) never leaves, so the tuple is not pure,
    # yet its defect is nonzero and it has a dilation map to test
    table = cl.build_table(cl.szego(), 22)
    t = cl.OperatorTuple((np.diag([1.0, 0.5]),))
    assert cl.is_pure(cl.defect(t, table, P(20))).status == "not_pure"
    with pytest.raises(cl.PrerequisiteError):
        admits(t, table, P(20))
    # a verdict handed on is read, not decided again: a non-pure one raises
    v = cl.build_dilation(cl.defect(cl.OperatorTuple((np.diag([0.5, 0.25]),)), table, P(20)))
    assert cl.admits_charfn(v, cl.is_pure(v.defect_data)).status == "admits"
    not_pure = cl.is_pure(cl.defect(t, table, P(20)))
    with pytest.raises(cl.PrerequisiteError, match="'not_pure'"):
        cl.admits_charfn(v, not_pure)


def test_existence_factorability_consistency(existence_examples):
    for ex in existence_examples:
        table = ex.table()
        v = cl.build_dilation(cl.defect(ex.ops, table, ex.p))
        report = cl.admits_charfn(v, cl.is_pure(v.defect_data))
        r = v.codomain_dims[1]
        x = np.eye(v.big_dim) - v.matrix @ v.matrix.conj().T
        p_series = P(ex.p.N + ex.p.tail_window, tol=ex.p.tol, window=ex.p.tail_window)
        fact = cl.check_factorability(v.span, ex.p.tol)
        assert_matches_reference(fact, dense_check_factorability(
            x, tensored_shifts(v.table, v.N, r), table, p_series), ex.name)
        assert report.status in ("admits", "does_not_admit"), ex.name
        assert fact.verdict in ("factorable", "not_factorable"), ex.name
        assert (report.status == "admits") == (fact.verdict == "factorable"), ex.name


def test_factorability_on_index_shifts_matches_dense(existence_examples):
    # the existence suite runs the check on index-map shifts; the dense
    # reference on the Kronecker tuple must give the same report up to rounding
    for ex in existence_examples:
        table = ex.table()
        v = cl.build_dilation(cl.defect(ex.ops, table, ex.p))
        r = v.codomain_dims[1]
        x = np.eye(v.big_dim) - v.matrix @ v.matrix.conj().T
        p_series = P(ex.p.N + ex.p.tail_window, tol=ex.p.tol, window=ex.p.tail_window)
        dense = dense_check_factorability(x, tensored_shifts(v.table, v.N, r), table, p_series)
        span = cl.defect_span(v.matrix, v.tensored, table)
        gather = cl.check_factorability(span, ex.p.tol)
        assert_matches_reference(gather, dense, ex.name)


def test_associated_tuple_purity_follows_contractivity(pure_examples):
    # whenever the associated tuple is a contraction it is itself pure
    for ex in pure_examples[:5]:
        table = ex.table()
        v = cl.build_dilation(cl.defect(ex.ops, table, ex.p))
        if cl.associated_tuple(v).dim == 0:
            continue
        _, ops, _ = dense_associated_tuple(v)
        p_series = P(ex.p.N + ex.p.tail_window, tol=ex.p.tol, window=ex.p.tail_window)
        if cl.is_contraction(cl.defect(ops, table, p_series)).status == "yes":
            verdict = cl.is_pure(cl.defect(ops, table, p_series))
            assert verdict.status == "pure", (ex.name, verdict)


EXISTENCE_DEGREE = {1: 14, 2: 7}


@given(seed=st.integers(min_value=0, max_value=2**31), d=st.sampled_from([1, 2]),
       h=st.integers(min_value=1, max_value=3),
       rule=st.sampled_from(["szego", "drury_arveson", "dirichlet_t", "bergman"]),
       t=st.floats(min_value=0.25, max_value=2.0))
@settings(max_examples=40, deadline=None)
def test_existence_matches_dense_reference(seed, d, h, rule, t):
    # the defect summed on the model space against the dense associated tuple;
    # dirichlet_t has b_k != 0 for every k, so its tail window is not an exact
    # zero, and bergman(2) must not admit
    rng = np.random.default_rng(seed)
    n = EXISTENCE_DEGREE[d]
    kernel = cl.bergman(2, d=d) if rule == "bergman" else diff_kernel(rule, d, t)
    table = cl.build_table(kernel, n + 4)
    v = cl.build_dilation(cl.defect(random_commuting_tuple(rng, d, h, 0.1), table, P(n)))
    report = cl.admits_charfn(v, cl.is_pure(v.defect_data))
    ref, dd, ref_witness = dense_existence(v)
    k, _, ref_invariance = dense_associated_tuple(v)
    assert report.status == {"yes": "admits", "no": "does_not_admit"}[ref.status]
    assert rule != "bergman" or report.status == "does_not_admit"
    assert abs(report.value - ref.min_eig) <= 1e-12
    assert ref.tail_norm <= 1e-12
    assert abs(report.invariance_residual - ref_invariance) <= 1e-12
    if report.status == "does_not_admit":
        vals = np.linalg.eigvalsh(dd.delta_sq)
        if vals[1] - vals[0] > 1e-6:  # a simple eigenvalue fixes the witness up to phase
            assert abs(abs(np.vdot(report.witness, ref_witness)) - 1.0) <= 1e-9
        coords = k.conj().T @ report.witness
        assert abs(np.real(np.vdot(coords, dd.delta_sq @ coords)) - ref.min_eig) <= 1e-12
    else:
        assert report.witness is None


SPAN_DEGREE = {1: 14, 2: 7, 3: 5}
SPAN_KERNELS = ["szego", "drury_arveson", "bergman2", "bergman3", "finite_b", "dirichlet_t"]


def span_case(seed, d, h, kernel, scale):
    """A dilation of a random commuting h-tuple (defect rank r <= h) under the named kernel."""
    rng = np.random.default_rng(seed)
    n = SPAN_DEGREE[d]
    spec = {
        "szego": lambda: cl.KernelSpec(d=d, rule="szego"),
        "drury_arveson": lambda: cl.drury_arveson(d),
        "bergman2": lambda: cl.bergman(2, d=d),
        "bergman3": lambda: cl.bergman(3, d=d),
        "finite_b": lambda: finite_b_kernel(rng, d, n + 4),
        "dirichlet_t": lambda: cl.dirichlet_t(rng.uniform(0.25, 2.0), d=d),
    }[kernel]()
    table = cl.build_table(spec, n + 4)
    return cl.build_dilation(cl.defect(random_commuting_tuple(rng, d, h, scale), table, P(n)))


@given(seed=st.integers(min_value=0, max_value=2**31), d=st.sampled_from([1, 2, 3]),
       h=st.sampled_from([1, 2]), kernel=st.sampled_from(SPAN_KERNELS))
@settings(max_examples=60, deadline=None)
def test_reached_span_decides_as_the_dense_forms(seed, d, h, kernel):
    # cond2 and the associated defect are decided on the span their operator
    # reaches; the dense forms take big_dim eigensolves.  dirichlet_t has b_k
    # != 0 at every degree, so there the span is the whole space
    v = span_case(seed, d, h, kernel, 0.1)
    n, tol = v.N, v.params.tol
    fact = cl.check_factorability(v.span, tol)
    x = np.eye(v.big_dim) - v.matrix @ v.matrix.conj().T
    assert_matches_reference(fact, dense_check_factorability(
        x, tensored_shifts(v.table, v.N, v.codomain_dims[1]), v.table, P(n + 3), c_degree=n))
    report = cl.admits_charfn(v, cl.is_pure(v.defect_data))
    k, delta_sq, tail = projected_associated_defect(v)
    vals, vecs = np.linalg.eigh(delta_sq)
    ref = float(vals[0]) if len(vals) else 0.0
    assert report.status == ("does_not_admit" if ref < -tol else "admits")
    assert kernel not in ("bergman2", "bergman3") or report.status == "does_not_admit"
    assert abs(report.value - ref) <= 1e-12 and max(tail) <= 1e-12
    _, restricted = restricted_associated_defect(v)
    vals_r = np.linalg.eigvalsh(restricted)
    assert abs(report.value - (vals_r[0] if len(vals_r) else 0.0)) <= 1e-12
    if report.status == "does_not_admit":
        if vals[1] - vals[0] > 1e-6:  # a simple eigenvalue fixes the witness up to phase
            assert abs(abs(np.vdot(report.witness, k @ vecs[:, 0])) - 1.0) <= 1e-9
    else:
        assert report.witness is None
    assoc = cl.associated_tuple(v)
    basis, qr_delta_sq = qr_associated_defect(v.tensored, v.table, assoc.range_basis)
    assert kernel != "dirichlet_t" or len(v.span.r) - h == basis.shape[1] == assoc.dim
    qr_vals = np.linalg.eigvalsh(qr_delta_sq)
    assert abs(report.value - min([*qr_vals, 0.0] if basis.shape[1] < assoc.dim else qr_vals,
                                  default=0.0)) <= 1e-12
    assert (report.status == "admits") == (fact.verdict == "factorable")


@given(seed=st.integers(min_value=0, max_value=2**31), d=st.sampled_from([1, 2, 3]),
       h=st.sampled_from([1, 2]), kernel=st.sampled_from(SPAN_KERNELS))
@settings(max_examples=30, deadline=None)
def test_associated_defect_matches_the_restriction_at_any_leak(seed, d, h, kernel):
    # larger tuples leave mass on the top degree, where Ker V^* stops being
    # invariant (invariance_residual up to about 3e-5 on the pure ones here).
    # The package takes the defect of the restriction of the shifts to Ker V^*,
    # which it matches at any leak; the compression's defect (the projected
    # recursion) moves away from it by about the square of that residual,
    # 1.3e-9 at the largest
    v = span_case(seed, d, h, kernel, 0.6)
    purity = cl.is_pure(v.defect_data)
    if purity.status != "pure":
        return
    report = cl.admits_charfn(v, purity)
    _, restricted = restricted_associated_defect(v)
    vals = np.linalg.eigvalsh(restricted)
    assert abs(report.value - (vals[0] if len(vals) else 0.0)) <= 1e-12


def test_invariance_matches_dense_reference():
    # tuples far from pure at this truncation put mass on the top degree, where
    # the leak must be excluded; the residual is computed from a rank-h factor
    rng = np.random.default_rng(1)
    for spec, t, n in ((cl.szego(), cl.OperatorTuple.from_scalars(0.9), 10),
                       (cl.drury_arveson(2), random_commuting_tuple(rng, 2, 3, 0.6), 5)):
        v = cl.build_dilation(cl.defect(t, cl.build_table(spec, n + 4), P(n)))
        _, _, ref = dense_associated_tuple(v)
        assert ref > 1e-4
        assert abs(cl.associated_tuple(v).invariance_residual - ref) <= 1e-12 * ref


def test_invariance_residual_is_the_top_degree_leak(pure_examples):
    # V^*(M_i x I) = T_i V^* + E_i^* with E_i = -V T_i^* on the degree-N rows and 0 above,
    # so on Ker V^* the leak U^*(M_i x I)P is E_i^* read through U^* and
    # |U^*(M_i x I)P| <= |T_i| |V_N| / sigma_min(V), V_N the degree-N rows of V
    table = cl.build_table(cl.drury_arveson(2), 12)
    cases = [cl.build_dilation(cl.defect(ex.ops, ex.table(), ex.p)) for ex in pure_examples]
    cases += [cl.build_dilation(cl.defect(random_commuting_tuple(np.random.default_rng(seed), 2, 3,
                                                                 0.6), table, P(10)))
              for seed in range(10)]
    for v in cases:
        top = v.matrix[v.tensored.ends[v.N - 1]:]
        bound = (max(np.linalg.norm(m, 2) for m in v.ops.mats) * np.linalg.norm(top, 2)
                 / np.linalg.svd(v.matrix, compute_uv=False)[-1])
        assert cl.associated_tuple(v).invariance_residual <= bound * (1.0 + 1e-9) + 1e-15


LEADING_BLOCK_KERNELS = {
    "szego": lambda rng, d, n: cl.szego(d),
    "drury_arveson": lambda rng, d, n: cl.drury_arveson(d),
    "bergman2": lambda rng, d, n: cl.bergman(2, d=d),
    "bergman3": lambda rng, d, n: cl.bergman(3, d=d),
    "dirichlet_t": lambda rng, d, n: cl.dirichlet_t(1.0, d=d),
    "finite_b": lambda rng, d, n: finite_b_kernel(rng, d, max(n, 3)),  # it may draw b_3
}


@pytest.mark.parametrize("kernel", sorted(LEADING_BLOCK_KERNELS))
@pytest.mark.parametrize("d", [1, 2, 3])
def test_compressed_shifts_dilate_to_the_leading_block_inclusion(kernel, d):
    # the counterexample and the probe take V of the shifts compressed to degrees <= n as
    # the inclusion of that leading block into the model space, without building it
    rng = np.random.default_rng(d)
    for n in range(4):
        for big_n in sorted({n + 1, n + 3, 6}):
            spec = LEADING_BLOCK_KERNELS[kernel](rng, d, big_n + 1)
            table = cl.build_table(spec, big_n + 1)
            v = cl.build_dilation(cl.defect(dense_shifts(table, n), table, P(big_n)))
            assert v.defect_data.rank == 1, (n, big_n)
            inclusion = np.eye(v.big_dim, graded_count(d, n))
            assert np.max(np.abs(v.matrix - inclusion)) <= 1e-14, (n, big_n)


def test_counterexample_matches_dense_reference():
    for m, n, d in ((2, 0, 1), (3, 2, 1), (2, 1, 2), (3, 3, 2), (2, 2, 3)):
        big_n = n + 3
        table = cl.build_table(cl.bergman(m, d=d), big_n + 1)
        v = cl.build_dilation(cl.defect(dense_shifts(table, n), table, P(big_n)))
        k, _, _ = dense_associated_tuple(v)
        _, dd, _ = dense_existence(v, n=big_n)
        e = np.zeros(v.big_dim, dtype=complex)
        e[v.indices.index((n + 2,) + (0,) * (d - 1)) * v.codomain_dims[1]] = 1.0
        coords = k.conj().T @ e
        ref = float(np.real(np.vdot(coords, dd.delta_sq @ coords)))
        [point] = cl.bergman_counterexample(m, [n], d=d)
        assert abs(point.numeric - ref) <= 1e-12, (m, n, d)


def orbit_closure(shifts, v0, thr=1e-10):
    """Orthonormal basis of the smallest shift-invariant subspace containing v0.

    Breadth-first closure with doubled Gram-Schmidt; a candidate direction is
    declined only when its out-of-span component is below thr relative to its
    own norm, so the result is invariant up to ~thr by construction.
    """
    q = np.asarray(v0, dtype=complex)
    q = q / np.linalg.norm(q)
    basis = q.reshape(-1, 1)
    queue = [q]
    while queue:
        q = queue.pop(0)
        for m in shifts.mats:
            w = m @ q
            nw = np.linalg.norm(w)
            if nw <= 1e-14:
                continue
            r = w - basis @ (basis.conj().T @ w)
            r = r - basis @ (basis.conj().T @ r)
            nr = np.linalg.norm(r)
            if nr > thr * nw:
                newq = r / nr
                basis = np.hstack([basis, newq.reshape(-1, 1)])
                queue.append(newq)
    return basis


def test_invariant_subspaces_stay_contractive():
    # restrictions of the tensored shifts to shift-invariant subspaces remain
    # contractive for a CNP kernel; orbit closures are invariant by construction
    table = cl.build_table(cl.drury_arveson(2), 12)
    p = P(8)
    shifts = dense_shifts(table, p.N)
    rng = np.random.default_rng(314159)
    for trial in range(20):
        v0 = rng.standard_normal(shifts.h) + 1j * rng.standard_normal(shifts.h)
        k = orbit_closure(shifts, v0)
        defect = max(
            np.linalg.norm((np.eye(shifts.h) - k @ k.conj().T) @ (m @ k), 2)
            for m in shifts.mats
        )
        assert defect <= 1e-8, (trial, defect)
        restricted = cl.OperatorTuple(tuple(k.conj().T @ m @ k for m in shifts.mats),
                                      commutator_tol=max(1e-12, 10.0 * defect))
        verdict = cl.is_contraction(cl.defect(restricted, table, p))
        assert verdict.status == "yes", (trial, verdict)


# ---------------------------------------------------------------------------
# the counterexample
# ---------------------------------------------------------------------------

def test_counterexample_closed_forms():
    m2, m3 = cl.bergman_counterexample(2, [0, 1]), cl.bergman_counterexample(3, [0, 1])
    assert abs(m2[0].closed_form + 1.0 / 3.0) <= 1e-15
    assert abs(m2[1].closed_form + 0.5) <= 1e-15
    assert abs(m3[0].closed_form + 0.5) <= 1e-15
    assert abs(m3[1].closed_form + 0.8) <= 1e-15


def test_counterexample_sweep():
    for m in (2, 3, 4):
        for n, point in zip((0, 1, 2, 3), cl.bergman_counterexample(m, (0, 1, 2, 3))):
            assert point.N == n
            assert point.match_error <= 1e-12, (m, n, point)
            assert point.closed_form < 0.0
            assert point.bound_value > 1.0


def test_counterexample_dimension_invariance():
    for d in (1, 2, 3, 4, 5):
        [point] = cl.bergman_counterexample(2, [0], d=d)
        assert abs(point.numeric + 1.0 / 3.0) <= 1e-12


def test_counterexample_bound_value():
    assert abs(cl.bergman_counterexample(2, [0])[0].bound_value - 4.0 / 3.0) <= 1e-15


def test_counterexample_rejects_m1():
    with pytest.raises(cl.PrerequisiteError):
        cl.bergman_counterexample(1, [0])


def test_counterexample_against_direct_quadratic_form():
    # independent route: no embedding, no basis compression; the projection
    # onto degrees > n is written down structurally and the form evaluated
    # with plain matrix-vector products
    for m, n in ((2, 0), (2, 2), (3, 1), (4, 3)):
        big_n = n + 3
        table = cl.build_table(cl.bergman(m), big_n + 1)
        indices = cl.graded_indices(1, big_n)
        proj = np.diag([1.0 if sum(alpha) > n else 0.0 for alpha in indices])
        e = np.zeros(len(indices), dtype=complex)
        e[indices.index((n + 2,))] = 1.0
        q = 1.0
        mat = dense_shifts(table, big_n).mats[0]
        w = e
        for i in range(1, big_n + 1):
            w = mat.conj().T @ w
            pw = proj @ w
            q -= table.b[i] * float(np.real(np.vdot(pw, pw)))
        [point] = cl.bergman_counterexample(m, [n])
        assert abs(q - point.numeric) <= 1e-12, (m, n, q, point.numeric)
        assert abs(q - point.closed_form) <= 1e-12


@pytest.mark.parametrize("d", [1, 2, 3])
@pytest.mark.parametrize("m", [2, 3, 5])
def test_counterexample_rows_match_the_qr_route(m, d):
    # the form summed at e against the QR of [U, C] and S, rebuilt per degree
    for point in cl.bergman_counterexample(m, range(8), d=d):
        assert abs(point.numeric - qr_counterexample_form(m, point.N, d)) <= 1e-14, point


@pytest.mark.parametrize("d", [1, 2, 3])
@pytest.mark.parametrize("m", [3, 5])
def test_a_batched_n_list_matches_one_degree_at_a_time(m, d):
    # at n < m - 2 a lone row gathers to degree n + 2 < m, the batch to m
    batch = cl.bergman_counterexample(m, range(8), d=d)
    for n, point in enumerate(batch):
        [single] = cl.bergman_counterexample(m, [n], d=d)
        assert point.N == single.N == n
        assert abs(point.numeric - single.numeric) <= 4 * np.spacing(abs(single.numeric)), n


def test_counterexample_rows_follow_the_n_list():
    points = cl.bergman_counterexample(2, [3, 0, 3])
    assert [p.N for p in points] == [3, 0, 3]
    assert points[0] == points[2]
    assert abs(points[1].numeric + 1.0 / 3.0) <= 1e-15


def test_counterexample_rejects_bad_degrees():
    for ns in ([], [0, -1]):
        with pytest.raises(ValueError):
            cl.bergman_counterexample(2, ns)
    table = cl.build_table(cl.bergman(2), 8)
    for pair in ((2, 2), (3, 2), (-1, 2)):
        with pytest.raises(ValueError):
            _compressed_shift_forms(table, 6, [(0, 2), pair])


@pytest.mark.parametrize("d", [2, 3, 5])
@pytest.mark.parametrize("m", [2, 3, 5])
def test_d_variable_forms_equal_the_one_variable_rows(m, d):
    # bergman_counterexample computes its rows in one variable; the d-variable gather,
    # which reads only the first coordinate axis, gives the same forms, exactly at m = 2
    # and 3 and to rounding at m = 5 (b_2 .. b_5 all nonzero)
    ns = range(12 if d < 5 else 6)
    big_n = max(ns) + 3
    forms = _compressed_shift_forms(cl.build_table(cl.bergman(m, d=d), big_n + 1), big_n,
                                    [(n, n + 2) for n in ns])
    for form, point in zip(forms, cl.bergman_counterexample(m, ns, d=d), strict=True):
        assert point.d == d
        ulps = 0 if m < 5 else 4
        assert abs(form - point.numeric) <= ulps * np.spacing(abs(point.numeric)), (point, form)


def test_counterexample_memory_stays_small_at_d5():
    # one adjoint gather of the six target columns; the QR route gathered M^alpha U for
    # every degree and took the QR of [U, C], a 467 MB peak at d = 5
    tracemalloc.start()
    try:
        points = cl.bergman_counterexample(2, range(6), d=5)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert max(p.match_error for p in points) <= 1e-12
    assert peak < 32 * 2 ** 20, peak


# ---------------------------------------------------------------------------
# operator-level CNP probe
# ---------------------------------------------------------------------------

def test_probe_szego_all_zero():
    table = cl.build_table(cl.szego(), 40)
    probe = cl.cnp_zero_tuple_probe(table, 10)
    assert np.max(np.abs(probe)) <= 1e-14


def test_probe_bergman_value():
    table = cl.build_table(cl.bergman(2), 40)
    probe = cl.cnp_zero_tuple_probe(table, 10)
    assert abs(probe[0] + 1.0 / 3.0) <= 1e-12  # n = 2 entry is b_2 / a_2


@pytest.mark.parametrize("spec", [cl.szego(), cl.drury_arveson(2), cl.bergman(2), cl.bergman(3),
                                  cl.dirichlet_t(0.5)], ids=lambda spec: spec.label)
def test_probe_matches_the_embedded_zero_tuple(spec):
    # the probe reads the compressed shifts at degree 0; the reference embeds
    # the zero tuple on the constants directly
    table = cl.build_table(spec, 40)
    probe = cl.cnp_zero_tuple_probe(table, 30)
    assert np.max(np.abs(probe - zero_tuple_probe(table, 30))) <= 1e-15


def test_probe_matches_coefficient_ratios():
    for spec in (cl.szego(), cl.drury_arveson(2), cl.bergman(2), cl.bergman(3),
                 cl.dirichlet_t(0.5), cl.dirichlet_t(1.0), cl.dirichlet_t(2.0)):
        table = cl.build_table(spec, 40)
        probe = cl.cnp_zero_tuple_probe(table, 30)
        for k, n in enumerate(range(2, 31)):
            expected = table.b[n] / table.a[n]
            assert abs(probe[k] - expected) <= 1e-12, (spec.label, n)


def test_probe_sign_agreement_with_classifier():
    for spec in (cl.szego(), cl.drury_arveson(2), cl.bergman(2), cl.bergman(4),
                 cl.dirichlet_t(1.0)):
        table = cl.build_table(spec, 40)
        probe = cl.cnp_zero_tuple_probe(table, 30)
        cls = cl.is_cnp(table, 30)
        probe_negative = [n for n, q in zip(range(2, 31), probe) if q < -1e-12]
        if cls.consistent:
            assert not probe_negative, spec.label
        else:
            assert probe_negative and probe_negative[0] == cls.first_failure, spec.label
