"""Operator tuples: powers, defect operators, contractivity, purity, shifts."""

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import cnplab as cl
from cnplab.coeffs import graded_indices
from cnplab.tuples import TuplePowers, _weighted_series
from random_inputs import diff_kernel, random_commuting_tuple
from series_reference import enumerated_series, enumerated_shift_norm_sq, ix_sandwich, tuple_power


def P(n, tol=1e-9, window=3):
    return cl.TruncationParams(N=n, tol=tol, tail_window=window)


# ---------------------------------------------------------------------------
# construction and powers
# ---------------------------------------------------------------------------

def test_commutation_check():
    a = np.array([[0.0, 1.0], [0.0, 0.0]])
    b = np.array([[0.0, 0.0], [1.0, 0.0]])
    with pytest.raises(cl.CommutationError):
        cl.OperatorTuple((a, b))
    cl.OperatorTuple((a, 2.0 * a))  # multiples commute


def test_shape_check():
    with pytest.raises(ValueError):
        cl.OperatorTuple((np.zeros((2, 2)), np.zeros((3, 3))))


def test_tuple_power_trivials():
    t = cl.OperatorTuple((np.diag([1.0, 2.0]), np.diag([3.0, 4.0])))
    powers = TuplePowers(t, 2)
    assert np.array_equal(powers.power((0, 0)), np.eye(2))
    assert np.array_equal(powers.power((1, 1)), np.diag([3.0, 8.0]))
    assert powers.stack.shape == (6, 2, 2) and np.array_equal(powers.stack[0], np.eye(2))
    with pytest.raises(ValueError):
        powers.power((-1, 3))  # not a multi-index of the stack
    with pytest.raises(ValueError):
        powers.power((2, 1))  # past its degree
    jordan = cl.OperatorTuple((np.array([[0.0, 1.0], [0.0, 0.0]]),))
    assert np.all(TuplePowers(jordan, 2).power((2,)) == 0.0)


def test_tuple_power_multiplicative():
    # commuting tuples built as polynomials in one matrix
    rng = np.random.default_rng(12)
    a = rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4))
    a *= 0.8 / np.linalg.norm(a, 2)
    t = cl.OperatorTuple((a, 0.5 * a @ a + 0.1 * np.eye(4)))
    powers = TuplePowers(t, 5)
    for alpha, beta in (((1, 0), (0, 1)), ((2, 1), (1, 1)), ((0, 2), (3, 0))):
        combined = powers.power(tuple(x + y for x, y in zip(alpha, beta)))
        split = powers.power(alpha) @ powers.power(beta)
        assert np.max(np.abs(combined - split)) <= 1e-12


@given(d=st.sampled_from([1, 2, 3]), h=st.integers(min_value=1, max_value=4),
       seed=st.integers(min_value=0, max_value=2**31))
@settings(max_examples=40, deadline=None)
def test_power_stack_matches_matrix_power_reference(d, h, seed):
    t = random_commuting_tuple(np.random.default_rng(seed), d, h, 0.9)
    n = {1: 10, 2: 7, 3: 5}[d]
    powers = TuplePowers(t, n)
    want = np.array([tuple_power(t, alpha) for alpha in graded_indices(d, n)])
    assert powers.stack.shape == want.shape
    assert np.max(np.abs(powers.stack - want)) <= 1e-12


def test_power_stack_of_a_nilpotent_jordan_block():
    jordan = np.eye(4, k=1).astype(complex)
    t = cl.OperatorTuple((jordan, 2.0 * jordan))
    powers = TuplePowers(t, 5)
    for alpha, got in zip(graded_indices(2, 5), powers.stack):
        assert np.array_equal(got, tuple_power(t, alpha))
        assert got.any() == (sum(alpha) <= 3)


# ---------------------------------------------------------------------------
# defect
# ---------------------------------------------------------------------------

def test_defect_zero_tuple():
    table = cl.build_table(cl.szego(), 12)
    dd = cl.defect(cl.OperatorTuple.zero(3, 1), table, P(10))
    assert np.array_equal(dd.delta_sq, np.eye(3))
    assert dd.tail_norm == 0.0 and dd.positive and dd.rank == 3


def test_defect_scalar_szego():
    table = cl.build_table(cl.szego(), 12)
    dd = cl.defect(cl.OperatorTuple.from_scalars(0.5), table, P(10))
    assert abs(dd.delta_sq[0, 0] - 0.75) <= 1e-15
    assert abs(dd.delta[0, 0] - np.sqrt(0.75)) <= 1e-15


def test_defect_scalar_bergman_by_hand():
    # 1 - 2 t^2 + t^4 = (1 - t^2)^2
    table = cl.build_table(cl.bergman(2), 12)
    for t in (0.2, 0.6, 0.95):
        dd = cl.defect(cl.OperatorTuple.from_scalars(t), table, P(10))
        assert abs(dd.delta_sq[0, 0] - (1 - t * t) ** 2) <= 1e-12


def test_defect_flags_indefinite():
    table = cl.build_table(cl.szego(), 12)
    dd = cl.defect(cl.OperatorTuple.from_scalars(2.0), table, P(10))
    assert not dd.positive
    assert abs(dd.min_eig + 3.0) <= 1e-12
    assert dd.delta[0, 0] == 0.0  # clipped square root


def test_defect_structure_invariants():
    # delta is the square root of delta_sq and the range basis is orthonormal
    rng = np.random.default_rng(3)
    m = rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4))
    m *= 0.7 / np.linalg.norm(m, 2)
    table = cl.build_table(cl.szego(), 12)
    dd = cl.defect(cl.OperatorTuple((m,)), table, P(10))
    assert dd.positive
    assert np.max(np.abs(dd.delta @ dd.delta - dd.delta_sq)) <= 1e-10
    c = dd.ran_delta_basis
    assert np.max(np.abs(c.conj().T @ c - np.eye(c.shape[1]))) <= 1e-12


def test_truncation_params_validation():
    with pytest.raises(ValueError):
        cl.TruncationParams(N=0)
    for tol in (0.0, -1e-9, float("nan"), float("inf")):
        with pytest.raises(ValueError, match="finite and positive"):
            cl.TruncationParams(N=5, tol=tol)
    with pytest.raises(ValueError):
        cl.TruncationParams(N=5, tail_window=0)


# ---------------------------------------------------------------------------
# contractivity
# ---------------------------------------------------------------------------

def test_contraction_examples():
    sz = cl.build_table(cl.szego(), 12)
    assert cl.is_contraction(cl.OperatorTuple.zero(2, 1), sz, P(10)).status == "yes"
    bad = cl.is_contraction(cl.OperatorTuple.from_scalars(2.0), sz, P(10))
    assert bad.status == "no" and abs(bad.min_eig + 3.0) <= 1e-12
    di = cl.build_table(cl.dirichlet_t(1.0), 82)
    assert cl.is_contraction(cl.OperatorTuple.from_scalars(0.9), di, P(80)).status == "yes"


def test_contraction_inconclusive_when_tail_lives():
    # dirichlet coefficients decay slowly: at a short truncation the tail
    # window is still moving for a scalar close to the boundary
    di = cl.build_table(cl.dirichlet_t(1.0), 12)
    verdict = cl.is_contraction(cl.OperatorTuple.from_scalars(0.98), di, P(10))
    assert verdict.status == "inconclusive"


def test_contraction_random_oracle():
    # szego kernel in one variable: contractivity is exactly a singular-value
    # statement, which gives an independent oracle
    table = cl.build_table(cl.szego(), 12)
    p = P(10)
    rng = np.random.default_rng(20240917)
    for _ in range(50):
        h = int(rng.integers(2, 6))
        u, _ = np.linalg.qr(rng.standard_normal((h, h)) + 1j * rng.standard_normal((h, h)))
        v, _ = np.linalg.qr(rng.standard_normal((h, h)) + 1j * rng.standard_normal((h, h)))
        svals = rng.uniform(0.3, 1.5, size=h)
        t = cl.OperatorTuple((u @ np.diag(svals) @ v.conj().T,))
        verdict = cl.is_contraction(t, table, p)
        expected = float(np.max(svals)) ** 2 <= 1.0 + p.tol
        assert verdict.status == ("yes" if expected else "no")


def test_conjugation_invariance():
    rng = np.random.default_rng(7)
    table = cl.build_table(cl.drury_arveson(2), 12)
    p = P(8)
    e12 = np.array([[0.0, 1.0], [0.0, 0.0]], dtype=complex)
    base = cl.OperatorTuple((0.4 * e12, 0.3 * e12))
    u, _ = np.linalg.qr(rng.standard_normal((2, 2)) + 1j * rng.standard_normal((2, 2)))
    conj = cl.OperatorTuple(tuple(u @ m @ u.conj().T for m in base.mats))
    d0 = cl.defect(base, table, p).delta_sq
    d1 = cl.defect(conj, table, p).delta_sq
    assert np.max(np.abs(d1 - u @ d0 @ u.conj().T)) <= 1e-10
    assert cl.is_contraction(base, table, p).status == cl.is_contraction(conj, table, p).status


# ---------------------------------------------------------------------------
# purity
# ---------------------------------------------------------------------------

def test_purity_examples():
    sz = cl.build_table(cl.szego(), 62)
    zero = cl.is_pure(cl.OperatorTuple.zero(2, 1), sz, P(10))
    assert zero.status == "pure" and zero.residual <= 1e-12
    half = cl.is_pure(cl.OperatorTuple.from_scalars(0.5), sz, P(60))
    assert half.status == "pure" and half.residual <= 1e-9
    unitary = cl.is_pure(cl.OperatorTuple.from_scalars(1.0), sz, P(60))
    assert unitary.status == "not_pure" and abs(unitary.residual - 1.0) <= 1e-12


def test_purity_inconclusive_near_boundary():
    sz = cl.build_table(cl.szego(), 32)
    verdict = cl.is_pure(cl.OperatorTuple.from_scalars(0.995), sz, P(30))
    assert verdict.status == "inconclusive"


# ---------------------------------------------------------------------------
# truncated shifts
# ---------------------------------------------------------------------------

def test_shift_matrix_szego():
    table = cl.build_table(cl.szego(), 5)
    shifts = cl.shift_matrices(table, 3)
    expected = np.diag([1.0, 1.0, 1.0], k=-1)
    assert np.array_equal(shifts.ops.mats[0].real, expected)


def test_shift_matrix_entries():
    # dirichlet: <M e(0), e(1)> = sqrt(a_0 / a_1) = sqrt(2), so the squared
    # norm matches the known value 2 of the dirichlet shift
    table = cl.build_table(cl.dirichlet_t(1.0), 5)
    shifts = cl.shift_matrices(table, 3)
    assert abs(shifts.ops.mats[0][1, 0] - np.sqrt(2.0)) <= 1e-15
    da = cl.build_table(cl.drury_arveson(2), 5)
    sda = cl.shift_matrices(da, 3)
    pos = {alpha: i for i, alpha in enumerate(sda.indices)}
    assert abs(sda.ops.mats[0][pos[(1, 0)], pos[(0, 0)]] - 1.0) <= 1e-15
    assert abs(sda.ops.mats[1][pos[(1, 1)], pos[(1, 0)]] - np.sqrt(0.5)) <= 1e-15


@pytest.mark.parametrize("spec", [cl.szego(), cl.drury_arveson(2), cl.bergman(2),
                                  cl.bergman(3, d=2), cl.dirichlet_t(1.0)],
                         ids=lambda s: s.label)
def test_shift_defect_identity(spec):
    # the truncated shifts reproduce the rank-one defect of the full shifts
    top = 8 if spec.d == 1 else 6
    table = cl.build_table(spec, top + 1)
    for n in range(1, top + 1):
        shifts = cl.shift_matrices(table, n)
        dd = cl.defect(shifts.ops, table, P(n))
        nonzero = [k for k in range(1, n + 1) if table.b[k] != 0.0]
        n_b = min(max(nonzero), n) if nonzero else n
        keep = [i for i, alpha in enumerate(shifts.indices) if sum(alpha) <= n - n_b]
        e0 = np.zeros((len(shifts.indices), len(shifts.indices)))
        e0[0, 0] = 1.0
        sub = np.ix_(keep, keep)
        assert np.max(np.abs(dd.delta_sq[sub] - e0[sub])) <= 1e-10, (spec.label, n)


def test_shift_defect_identity_three_variables():
    table = cl.build_table(cl.drury_arveson(3), 5)
    shifts = cl.shift_matrices(table, 3)
    dd = cl.defect(shifts.ops, table, P(3))
    e0 = np.zeros((shifts.dim, shifts.dim))
    e0[0, 0] = 1.0
    assert np.max(np.abs(dd.delta_sq - e0)) <= 1e-12
    assert cl.is_pure(shifts.ops, table, P(3)).status == "pure"


def test_shift_purity_partial_sums_are_projections():
    spec = cl.drury_arveson(2)
    n = 6
    table = cl.build_table(spec, n + 1)
    shifts = cl.shift_matrices(table, n)
    e0 = np.zeros((shifts.dim, shifts.dim), dtype=complex)
    e0[0, 0] = 1.0
    powers = cl.tuples.TuplePowers(shifts.ops, n)
    acc = np.zeros_like(e0)
    for j in range(n + 1):
        for alpha in graded_indices(2, j):
            if sum(alpha) == j:
                c = cl.multi_coeff(table, alpha)
                m = powers.power(alpha)
                acc = acc + c * (m @ e0 @ m.conj().T)
        # partial sum through degree j is exactly the projection onto degrees <= j
        assert np.max(np.abs(acc @ acc - acc)) <= 1e-10
        expected_rank = sum(1 for alpha in shifts.indices if sum(alpha) <= j)
        assert abs(np.trace(acc).real - expected_rank) <= 1e-10
        diag = np.array([1.0 if sum(alpha) <= j else 0.0 for alpha in shifts.indices])
        assert np.max(np.abs(acc - np.diag(diag))) <= 1e-10


def test_shift_purity_verdict():
    table = cl.build_table(cl.dirichlet_t(1.0), 24)
    shifts = cl.shift_matrices(table, 6)
    verdict = cl.is_pure(shifts.ops, table, P(12))
    assert verdict.status == "pure" and verdict.residual <= 1e-12


def test_shift_norm_sq():
    sz = cl.build_table(cl.szego(), 12)
    assert cl.shift_norm_sq(sz, 0, 10).value == 1.0
    di = cl.build_table(cl.dirichlet_t(1.0), 12)
    bound = cl.shift_norm_sq(di, 0, 10)
    assert bound.value == 2.0 and bound.argmax == (0,) and not bound.lower_bound
    bg = cl.build_table(cl.bergman(2), 12)
    bound = cl.shift_norm_sq(bg, 0, 10)
    assert abs(bound.value - 11.0 / 12.0) <= 1e-15
    assert bound.lower_bound  # true supremum is 1, attained only in the limit


@given(d=st.sampled_from([1, 2, 3]),
       rule=st.sampled_from(["szego", "drury_arveson", "dirichlet_t", "bergman"]),
       param=st.floats(min_value=0.0, max_value=2.0), n=st.integers(min_value=0, max_value=8))
@settings(max_examples=60, deadline=None)
def test_shift_norm_sq_matches_enumeration(d, rule, param, n):
    table = cl.build_table(diff_kernel(rule, d, param), n + 1)
    for i in range(d):
        value, argmax = enumerated_shift_norm_sq(table, i, n)
        got = cl.shift_norm_sq(table, i, n)
        assert (got.value, got.argmax, got.lower_bound) == (value, argmax, sum(argmax) == n)


def test_shifts_carry_the_multi_index_coefficients():
    table = cl.build_table(cl.bergman(2, d=3), 6)
    shifts = cl.shift_matrices(table, 5)
    want = [cl.multi_coeff(table, alpha) for alpha in shifts.indices]
    assert np.array_equal(shifts.a_alpha, want) and not shifts.a_alpha.flags.writeable


# ---------------------------------------------------------------------------
# differential tests: the sigma-recursion and the index-map shifts against
# term-by-term and dense references
# ---------------------------------------------------------------------------

SERIES_DEGREE = {1: 14, 2: 8, 3: 5}


@given(seed=st.integers(min_value=0, max_value=2**31), d=st.sampled_from([1, 2, 3]),
       h=st.integers(min_value=1, max_value=3),
       rule=st.sampled_from(["szego", "drury_arveson", "dirichlet_t", "bergman"]),
       param=st.floats(min_value=0.0, max_value=2.0),
       series=st.sampled_from([("a", 0), ("a", 1), ("b", 1), ("b", 2)]),
       hermitian_middle=st.booleans(), window=st.integers(min_value=1, max_value=6))
@settings(max_examples=80, deadline=None)
# no nonzero b_k from degree 2 on, and a window reaching below start_degree
@example(seed=0, d=3, h=2, rule="drury_arveson", param=0.0, series=("b", 2),
         hermitian_middle=False, window=6)
def test_series_matches_enumeration(seed, d, h, rule, param, series, hermitian_middle, window):
    rng = np.random.default_rng(seed)
    which, start = series
    n = SERIES_DEGREE[d]
    table = cl.build_table(diff_kernel(rule, d, param), n)
    t = random_commuting_tuple(rng, d, h, 0.6)
    middle = None
    if hermitian_middle:
        m = rng.standard_normal((h, h)) + 1j * rng.standard_normal((h, h))
        middle = 0.5 * (m + m.conj().T)
    total, tail = _weighted_series(t, table, n, which, middle=middle, start_degree=start,
                                   window=window)
    ref_total, ref_norms = enumerated_series(t, table, n, which, middle=middle,
                                             start_degree=start)
    ref_tail = ref_norms[max(start, n - window + 1):]
    scale = max(np.linalg.norm(ref_total, 2), max(ref_norms))
    assert np.linalg.norm(total - ref_total, 2) <= 1e-12 * scale
    assert len(tail) == len(ref_tail)
    assert np.max(np.abs(np.subtract(tail, ref_tail)), initial=0.0) <= 1e-12 * scale


@given(seed=st.integers(min_value=0, max_value=2**31), d=st.sampled_from([1, 2, 3]),
       rule=st.sampled_from(["szego", "drury_arveson", "dirichlet_t", "bergman"]),
       param=st.floats(min_value=0.0, max_value=2.0), r=st.sampled_from([1, 2, 3]))
@settings(max_examples=40, deadline=None)
def test_index_shifts_match_dense_kron(seed, d, rule, param, r):
    rng = np.random.default_rng(seed)
    n = SERIES_DEGREE[d] - 2
    table = cl.build_table(diff_kernel(rule, d, param), n + 1)
    shifts = cl.shift_matrices(table, n)
    tensored = shifts.index.tensor(r)
    dense = cl.OperatorTuple(tuple(np.kron(m, np.eye(r)) for m in shifts.ops.mats))
    size = shifts.dim * r
    assert tensored.h == size and tensored.d == d
    x = rng.standard_normal((size, size)) + 1j * rng.standard_normal((size, size))
    k = rng.standard_normal((size, 4)) + 1j * rng.standard_normal((size, 4))
    w_max = max(np.max(np.abs(m), initial=0.0) for m in shifts.ops.mats)
    scale = max(1.0, w_max) ** 2 * max(np.max(np.abs(x)), np.max(np.abs(k)))
    for i, m in enumerate(dense.mats):
        assert np.max(np.abs(tensored.sandwich(i, x) - m @ x @ m.conj().T)) <= 1e-14 * scale
        # the flat-index gather does the two-axis gather's arithmetic, in its order
        assert np.array_equal(tensored.sandwich(i, x), ix_sandwich(tensored, i, x))
        assert np.array_equal(shifts.index.sandwich(i, x[:shifts.dim, :shifts.dim]),
                              ix_sandwich(shifts.index, i, x[:shifts.dim, :shifts.dim]))
        assert np.max(np.abs(tensored.apply(i, k) - m @ k)) <= 1e-14 * scale
    # the sigma-recursion over the gather is the series over the dense tuple
    herm = 0.5 * (x + x.conj().T)
    got, got_tail = _weighted_series(tensored, table, n, "a", middle=herm, window=3)
    ref, ref_tail = _weighted_series(dense, table, n, "a", middle=herm, window=3)
    ref_scale = max(np.linalg.norm(ref, 2), max(ref_tail))
    assert np.linalg.norm(got - ref, 2) <= 1e-12 * ref_scale
    assert np.max(np.abs(np.subtract(got_tail, ref_tail))) <= 1e-12 * ref_scale


@given(seed=st.integers(min_value=0, max_value=2**31), d=st.sampled_from([1, 2, 3]),
       rule=st.sampled_from(["szego", "drury_arveson", "dirichlet_t", "bergman"]),
       param=st.floats(min_value=0.0, max_value=2.0), r=st.sampled_from([1, 2, 3]))
@settings(max_examples=40, deadline=None)
def test_adjoint_and_leading_block_gathers_match_dense_kron(seed, d, rule, param, r):
    rng = np.random.default_rng(seed)
    n = SERIES_DEGREE[d] - 2
    table = cl.build_table(diff_kernel(rule, d, param), n + 1)
    shifts = cl.shift_matrices(table, n)
    tensored = shifts.index.tensor(r)
    size = shifts.dim * r
    k = rng.standard_normal((size, 4)) + 1j * rng.standard_normal((size, 4))
    lead = [len(graded_indices(d, j)) * r for j in range(n + 1)]
    for i, m in enumerate(np.kron(m, np.eye(r)) for m in shifts.ops.mats):
        scale = max(1.0, np.max(np.abs(m))) ** 2 * np.max(np.abs(k))
        assert np.max(np.abs(tensored.apply_adjoint(i, k) - m.conj().T @ k)) <= 1e-14 * scale
        for j in range(n):
            # a matrix on degrees <= j is carried to one on degrees <= j + 1
            x = rng.standard_normal((lead[j], lead[j])) + 1j * rng.standard_normal((lead[j],) * 2)
            full = np.zeros((size, size), dtype=complex)
            full[:lead[j], :lead[j]] = x
            want = m @ full @ m.conj().T
            got = tensored.sandwich(i, x, lead[j + 1])
            assert np.max(np.abs(want[lead[j + 1]:]), initial=0.0) == 0.0
            assert np.max(np.abs(got - want[:lead[j + 1], :lead[j + 1]])) <= 1e-14 * scale
            assert np.array_equal(got, tensored.sandwich(i, full)[:lead[j + 1], :lead[j + 1]])


def test_hermitian_norm():
    from cnplab._linalg import hermitian_norm, opnorm

    rng = np.random.default_rng(7)
    m = rng.standard_normal((6, 6)) + 1j * rng.standard_normal((6, 6))
    herm = m + m.conj().T
    assert abs(hermitian_norm(herm) - opnorm(herm)) <= 1e-13 * opnorm(herm)
    assert hermitian_norm(-np.eye(3)) == 1.0
    assert hermitian_norm(np.zeros((4, 4), dtype=complex)) == 0.0
    assert hermitian_norm(np.zeros((0, 0))) == 0.0
    # eigvalsh([[nan, 0], [0, 1]]) returns finite values and the SVD returns
    # nan for inf; both norms must raise, so a series that overflows is an
    # error, not a small tail
    for bad in (np.nan, np.inf, -np.inf, complex(0.0, np.nan)):
        for norm in (hermitian_norm, opnorm):
            with pytest.raises(np.linalg.LinAlgError):
                norm(np.diag([bad, 1.0]).astype(complex))
