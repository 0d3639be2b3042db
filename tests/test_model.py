"""Dilation map, factorability, associated tuples, existence, counterexample."""

import dataclasses

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import cnplab as cl
from cnplab.tuples import TuplePowers
from model_reference import dense_associated_tuple, dense_existence, dense_intertwining
from series_reference import tuple_power
from random_inputs import diff_kernel, random_commuting_tuple


def P(n, tol=1e-9, window=3):
    return cl.TruncationParams(N=n, tol=tol, tail_window=window)


def tensored_shifts(shifts, r):
    return cl.OperatorTuple(tuple(np.kron(m, np.eye(r, dtype=complex)) for m in shifts.ops.mats))


# ---------------------------------------------------------------------------
# dilation map
# ---------------------------------------------------------------------------

def test_dilation_zero_tuple():
    table = cl.build_table(cl.szego(), 12)
    v = cl.build_dilation(cl.OperatorTuple.zero(2, 1), table, P(10))
    assert v.isometry_defect <= 1e-14
    assert np.array_equal(v.matrix[:2, :], np.eye(2))
    assert np.all(v.matrix[2:, :] == 0.0)


def test_dilation_scalar_szego_column():
    t = 0.5
    table = cl.build_table(cl.szego(), 62)
    v = cl.build_dilation(cl.OperatorTuple.from_scalars(t), table, P(60))
    expected = np.sqrt(1 - t * t) * t ** np.arange(61)
    assert np.max(np.abs(v.matrix[:, 0] - expected)) <= 1e-14
    assert v.isometry_defect <= 1e-9


def test_dilation_degenerate():
    table = cl.build_table(cl.szego(), 12)
    unit = cl.OperatorTuple.from_scalars(1.0)
    with pytest.raises(cl.DegenerateDilationError):
        cl.build_dilation(unit, table, P(10))


def test_intertwining_zero_tuple():
    table = cl.build_table(cl.drury_arveson(2), 10)
    zero = cl.OperatorTuple.zero(2, 2)
    p = P(8)
    v = cl.build_dilation(zero, table, p)
    res = cl.check_intertwining(v, [(1, 0), (0, 1), (1, 1)])
    assert res == 0.0
    # |alpha| > N reaches no column inside the truncated space
    assert cl.check_intertwining(v, [(9, 0), (1, 1)]) == 0.0


def test_intertwining_scalar_and_truncation_trend():
    table = cl.build_table(cl.szego(), 82)
    t = cl.OperatorTuple.from_scalars(0.5)
    residuals = {}
    for n in (40, 60):
        v = cl.build_dilation(t, table, P(n))
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
    v = cl.build_dilation(random_commuting_tuple(rng, d, h, 0.35), table, P(n))
    if not exact:
        shape = v.matrix.shape
        v = dataclasses.replace(v, matrix=rng.standard_normal(shape)
                                + 1j * rng.standard_normal(shape))
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
    v = cl.build_dilation(t, table, p)
    assert v.ops is t and v.table is table and v.params is p
    assert all(np.array_equal(v.powers.power(alpha), tuple_power(t, alpha))
               for alpha in v.indices)
    assert (v.N, v.indices) == (v.shifts.N, v.shifts.indices) == (8, cl.graded_indices(2, 8))
    assert v.codomain_dims == (v.shifts.dim, 2) and v.big_dim == v.matrix.shape[0]


# ---------------------------------------------------------------------------
# factorability
# ---------------------------------------------------------------------------

def test_factorability_zero_operator():
    table = cl.build_table(cl.szego(), 12)
    shifts = cl.shift_matrices(table, 8)
    x = np.zeros((shifts.dim, shifts.dim))
    report = cl.check_factorability(x, shifts.ops, table, P(8))
    assert report.verdict == "factorable"


def test_factorability_identity_on_szego_shift():
    table = cl.build_table(cl.szego(), 12)
    shifts = cl.shift_matrices(table, 8)
    p = P(8)
    report = cl.check_factorability(np.eye(shifts.dim), shifts.ops, table, p)
    assert report.verdict == "factorable"
    assert report.cond2_min_eig >= -1e-12
    assert report.cond3_residual <= 1e-12
    # the gap X - P(X) is exactly the rank-one projection onto the constants
    powers = TuplePowers(shifts.ops, p.N)
    gap = np.eye(shifts.dim, dtype=complex)
    for alpha in cl.graded_indices(1, p.N):
        if sum(alpha) == 0:
            continue
        b = cl.multi_coeff(table, alpha, "b")
        m = powers.power(alpha)
        gap -= b * (m @ m.conj().T)
    e0 = np.zeros_like(gap)
    e0[0, 0] = 1.0
    assert np.max(np.abs(gap - e0)) <= 1e-12


def test_factorability_bergman_projection_fails_cond2():
    table = cl.build_table(cl.bergman(2), 20)
    p = P(12)
    t0 = cl.shift_matrices(table, 0).ops  # compression to the constants
    v = cl.build_dilation(t0, table, p)
    x = np.eye(v.big_dim) - v.matrix @ v.matrix.conj().T
    report = cl.check_factorability(x, tensored_shifts(v.shifts, v.codomain_dims[1]), table,
                                    P(p.N + 3))
    assert report.verdict == "not_factorable"
    assert report.failed_condition == 2
    assert report.cond2_min_eig <= -(1.0 / 3.0) + 1e-10


def test_factorability_rejects_non_hermitian():
    table = cl.build_table(cl.szego(), 12)
    shifts = cl.shift_matrices(table, 6)
    x = np.zeros((shifts.dim, shifts.dim))
    x[0, 1] = 1.0
    with pytest.raises(ValueError):
        cl.check_factorability(x, shifts.ops, table, P(6))


# ---------------------------------------------------------------------------
# associated tuple
# ---------------------------------------------------------------------------

def test_ambiguous_rank_fails_loudly():
    from cnplab._linalg import split_rank

    clean = np.array([1.0, 0.9, 1e-14])
    assert split_rank(clean) == 2
    straddling = np.array([1.0, 0.9, 5e-10])  # within a factor 10 of 1e-10
    with pytest.raises(cl.AmbiguousRankError):
        split_rank(straddling)


def test_associated_tuple_full_range_is_empty():
    # the truncated shifts dilate to themselves: the embedding is the identity
    table = cl.build_table(cl.dirichlet_t(1.0), 14)
    p = P(10)
    v = cl.build_dilation(cl.shift_matrices(table, p.N).ops, table, p)
    assoc = cl.associated_tuple(v)
    assert assoc.dim == 0 and assoc.basis.shape[1] == 0


def test_associated_tuple_scalar_szego():
    table = cl.build_table(cl.szego(), 82)
    p = P(80)
    t = cl.OperatorTuple.from_scalars(0.5)
    v = cl.build_dilation(t, table, p)
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
    t0 = cl.shift_matrices(table, 0).ops
    v = cl.build_dilation(t0, table, p)
    assoc = cl.associated_tuple(v)
    assert assoc.dim == p.N
    # basis columns have no component on the constants
    assert np.max(np.abs(assoc.basis[0, :])) <= 1e-12


# ---------------------------------------------------------------------------
# existence test
# ---------------------------------------------------------------------------

def admits(t, table, p):
    return cl.admits_charfn(cl.build_dilation(t, table, p))


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
    t0 = cl.shift_matrices(table, 0).ops
    report = admits(t0, table, P(12))
    assert report.status == "does_not_admit"
    assert abs(report.value + 1.0 / 3.0) <= 1e-12


def test_admits_requires_purity():
    # the unitary part of diag(1, 0.5) never leaves, so the tuple is not pure,
    # yet its defect is nonzero and it has a dilation map to test
    table = cl.build_table(cl.szego(), 22)
    t = cl.OperatorTuple((np.diag([1.0, 0.5]),))
    assert cl.is_pure(t, table, P(20)).status == "not_pure"
    with pytest.raises(cl.PrerequisiteError):
        admits(t, table, P(20))


def test_existence_factorability_consistency(existence_examples):
    for ex in existence_examples:
        table = ex.table()
        v = cl.build_dilation(ex.ops, table, ex.p)
        report = cl.admits_charfn(v)
        r = v.codomain_dims[1]
        x = np.eye(v.big_dim) - v.matrix @ v.matrix.conj().T
        p_series = P(ex.p.N + ex.p.tail_window, tol=ex.p.tol, window=ex.p.tail_window)
        fact = cl.check_factorability(x, tensored_shifts(v.shifts, r), table, p_series)
        assert report.status in ("admits", "does_not_admit"), ex.name
        assert fact.verdict in ("factorable", "not_factorable"), ex.name
        assert (report.status == "admits") == (fact.verdict == "factorable"), ex.name


def test_factorability_on_index_shifts_matches_dense(existence_examples):
    # the existence suite runs the check on index-map shifts; the dense
    # Kronecker tuple must give the same report up to rounding
    for ex in existence_examples:
        table = ex.table()
        v = cl.build_dilation(ex.ops, table, ex.p)
        r = v.codomain_dims[1]
        x = np.eye(v.big_dim) - v.matrix @ v.matrix.conj().T
        p_series = P(ex.p.N + ex.p.tail_window, tol=ex.p.tol, window=ex.p.tail_window)
        dense = cl.check_factorability(x, tensored_shifts(v.shifts, r), table, p_series)
        gather = cl.check_factorability(x, v.shifts.index.tensor(r), table, p_series)
        assert (gather.verdict, gather.failed_condition) == \
            (dense.verdict, dense.failed_condition), ex.name
        for got, want in ((gather.cond1_min_eigs, dense.cond1_min_eigs),
                          ((gather.cond2_min_eig, gather.cond2_tail, gather.cond3_residual,
                            gather.cond3_tail),
                           (dense.cond2_min_eig, dense.cond2_tail, dense.cond3_residual,
                            dense.cond3_tail))):
            assert np.max(np.abs(np.subtract(got, want))) <= 1e-12, ex.name


def test_associated_tuple_purity_follows_contractivity(pure_examples):
    # whenever the associated tuple is a contraction it is itself pure
    for ex in pure_examples[:5]:
        table = ex.table()
        v = cl.build_dilation(ex.ops, table, ex.p)
        if cl.associated_tuple(v).dim == 0:
            continue
        _, ops, _ = dense_associated_tuple(v)
        p_series = P(ex.p.N + ex.p.tail_window, tol=ex.p.tol, window=ex.p.tail_window)
        if cl.is_contraction(ops, table, p_series).status == "yes":
            verdict = cl.is_pure(ops, table, p_series)
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
    v = cl.build_dilation(random_commuting_tuple(rng, d, h, 0.1), table, P(n))
    report = cl.admits_charfn(v)
    ref, dd, ref_witness = dense_existence(v)
    k, _, ref_invariance = dense_associated_tuple(v)
    assert report.status == {"yes": "admits", "no": "does_not_admit"}[ref.status]
    assert rule != "bergman" or report.status == "does_not_admit"
    assert abs(report.value - ref.min_eig) <= 1e-12
    assert abs(report.contraction.tail_norm - ref.tail_norm) <= 1e-12
    assert abs(report.invariance_residual - ref_invariance) <= 1e-12
    if report.status == "does_not_admit":
        vals = np.linalg.eigvalsh(dd.delta_sq)
        if vals[1] - vals[0] > 1e-6:  # a simple eigenvalue fixes the witness up to phase
            assert abs(abs(np.vdot(report.witness, ref_witness)) - 1.0) <= 1e-9
        coords = k.conj().T @ report.witness
        assert abs(np.real(np.vdot(coords, dd.delta_sq @ coords)) - ref.min_eig) <= 1e-12
    else:
        assert report.witness is None


def test_invariance_matches_dense_reference():
    # tuples far from pure at this truncation put mass on the top degree, where
    # the leak must be excluded; the residual is computed from a rank-h factor
    rng = np.random.default_rng(1)
    for spec, t, n in ((cl.szego(), cl.OperatorTuple.from_scalars(0.9), 10),
                       (cl.drury_arveson(2), random_commuting_tuple(rng, 2, 3, 0.6), 5)):
        v = cl.build_dilation(t, cl.build_table(spec, n + 4), P(n))
        _, _, ref = dense_associated_tuple(v)
        assert ref > 1e-4
        assert abs(cl.associated_tuple(v).invariance_residual - ref) <= 1e-12 * ref


def test_counterexample_matches_dense_reference():
    for m, n, d in ((2, 0, 1), (3, 2, 1), (2, 1, 2), (3, 3, 2)):
        big_n = n + 3
        table = cl.build_table(cl.bergman(m, d=d), big_n + 1)
        v = cl.build_dilation(cl.shift_matrices(table, n).ops, table, P(big_n))
        k, _, _ = dense_associated_tuple(v)
        _, dd, _ = dense_existence(v, n=big_n)
        e = np.zeros(v.big_dim, dtype=complex)
        e[v.indices.index((n + 2,) + (0,) * (d - 1)) * v.codomain_dims[1]] = 1.0
        coords = k.conj().T @ e
        ref = float(np.real(np.vdot(coords, dd.delta_sq @ coords)))
        assert abs(cl.bergman_counterexample(m, n, d=d).numeric - ref) <= 1e-12, (m, n, d)


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
        for m in shifts.ops.mats:
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
    shifts = cl.shift_matrices(table, p.N)
    rng = np.random.default_rng(314159)
    for trial in range(20):
        v0 = rng.standard_normal(shifts.dim) + 1j * rng.standard_normal(shifts.dim)
        k = orbit_closure(shifts, v0)
        defect = max(
            np.linalg.norm((np.eye(shifts.dim) - k @ k.conj().T) @ (m @ k), 2)
            for m in shifts.ops.mats
        )
        assert defect <= 1e-8, (trial, defect)
        restricted = cl.OperatorTuple(tuple(k.conj().T @ m @ k for m in shifts.ops.mats),
                                      commutator_tol=max(1e-12, 10.0 * defect))
        verdict = cl.is_contraction(restricted, table, p)
        assert verdict.status == "yes", (trial, verdict)


# ---------------------------------------------------------------------------
# the counterexample
# ---------------------------------------------------------------------------

def test_counterexample_closed_forms():
    assert abs(cl.bergman_counterexample(2, 0).closed_form + 1.0 / 3.0) <= 1e-15
    assert abs(cl.bergman_counterexample(2, 1).closed_form + 0.5) <= 1e-15
    assert abs(cl.bergman_counterexample(3, 0).closed_form + 0.5) <= 1e-15
    assert abs(cl.bergman_counterexample(3, 1).closed_form + 0.8) <= 1e-15


def test_counterexample_sweep():
    for m in (2, 3, 4):
        for n in (0, 1, 2, 3):
            point = cl.bergman_counterexample(m, n)
            assert point.match_error <= 1e-12, (m, n, point)
            assert point.closed_form < 0.0
            assert point.bound_value > 1.0


def test_counterexample_dimension_invariance():
    for d in (1, 2, 3):
        point = cl.bergman_counterexample(2, 0, d=d)
        assert abs(point.numeric + 1.0 / 3.0) <= 1e-12


def test_counterexample_bound_value():
    assert abs(cl.bergman_counterexample(2, 0).bound_value - 4.0 / 3.0) <= 1e-15


def test_counterexample_rejects_m1():
    with pytest.raises(cl.PrerequisiteError):
        cl.bergman_counterexample(1, 0)


def test_counterexample_against_direct_quadratic_form():
    # independent route: no embedding, no basis compression; the projection
    # onto degrees > n is written down structurally and the form evaluated
    # with plain matrix-vector products
    for m, n in ((2, 0), (2, 2), (3, 1), (4, 3)):
        big_n = n + 3
        table = cl.build_table(cl.bergman(m), big_n + 1)
        shifts = cl.shift_matrices(table, big_n)
        proj = np.diag([1.0 if sum(alpha) > n else 0.0 for alpha in shifts.indices])
        e = np.zeros(shifts.dim, dtype=complex)
        e[shifts.indices.index((n + 2,))] = 1.0
        q = 1.0
        mat = shifts.ops.mats[0]
        w = e
        for i in range(1, big_n + 1):
            w = mat.conj().T @ w
            pw = proj @ w
            q -= table.b[i] * float(np.real(np.vdot(pw, pw)))
        point = cl.bergman_counterexample(m, n)
        assert abs(q - point.numeric) <= 1e-12, (m, n, q, point.numeric)
        assert abs(q - point.closed_form) <= 1e-12


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
