"""Operator tuples: powers, defect operators, contractivity, purity, shifts."""

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import cnplab as cl
from cnplab.coeffs import graded_indices
from cnplab._linalg import canonical_phases
from cnplab.tuples import TuplePowers, _weighted_series
from model_reference import hermitian_norm, looped_canonical_phases
from random_inputs import diff_kernel, random_commuting_tuple
from series_reference import (dense_shifts, enumerated_series, enumerated_shift_norm_sq,
                              looped_graded_stack, stack_power, tensored_shifts, tuple_power)


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
    assert np.array_equal(stack_power(powers, (0, 0)), np.eye(2))
    assert np.array_equal(stack_power(powers, (1, 1)), np.diag([3.0, 8.0]))
    assert powers.stack.shape == (6, 2, 2) and np.array_equal(powers.stack[0], np.eye(2))
    with pytest.raises(ValueError):
        stack_power(powers, (-1, 3))  # not a multi-index of the stack
    with pytest.raises(ValueError):
        stack_power(powers, (2, 1))  # past its degree
    jordan = cl.OperatorTuple((np.array([[0.0, 1.0], [0.0, 0.0]]),))
    assert np.all(stack_power(TuplePowers(jordan, 2), (2,)) == 0.0)


def test_tuple_power_multiplicative():
    # commuting tuples built as polynomials in one matrix
    rng = np.random.default_rng(12)
    a = rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4))
    a *= 0.8 / np.linalg.norm(a, 2)
    t = cl.OperatorTuple((a, 0.5 * a @ a + 0.1 * np.eye(4)))
    powers = TuplePowers(t, 5)
    for alpha, beta in (((1, 0), (0, 1)), ((2, 1), (1, 1)), ((0, 2), (3, 0))):
        combined = stack_power(powers, tuple(x + y for x, y in zip(alpha, beta)))
        split = stack_power(powers, alpha) @ stack_power(powers, beta)
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
    assert dd.tail_norm == 0.0 and dd.min_eig == 1.0 and dd.rank == 3


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
    t = cl.OperatorTuple.from_scalars(2.0)
    dd = cl.defect(t, table, P(10))
    assert cl.is_contraction(dd).status == "no"
    assert abs(dd.min_eig + 3.0) <= 1e-12
    assert dd.delta[0, 0] == 0.0  # clipped square root


def test_defect_structure_invariants():
    # delta is the square root of delta_sq and the range basis is orthonormal
    rng = np.random.default_rng(3)
    m = rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4))
    m *= 0.7 / np.linalg.norm(m, 2)
    table = cl.build_table(cl.szego(), 12)
    dd = cl.defect(cl.OperatorTuple((m,)), table, P(10))
    assert dd.min_eig >= 0.5  # 1 - |m|^2 = 0.51 at the least
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
    assert cl.is_contraction(cl.defect(cl.OperatorTuple.zero(2, 1), sz, P(10))).status == "yes"
    bad = cl.is_contraction(cl.defect(cl.OperatorTuple.from_scalars(2.0), sz, P(10)))
    assert bad.status == "no" and abs(bad.min_eig + 3.0) <= 1e-12
    di = cl.build_table(cl.dirichlet_t(1.0), 82)
    verdict = cl.is_contraction(cl.defect(cl.OperatorTuple.from_scalars(0.9), di, P(80)))
    assert verdict.status == "yes"


def test_contraction_inconclusive_when_tail_lives():
    # dirichlet coefficients decay slowly: at a short truncation the tail
    # window is still moving for a scalar close to the boundary
    di = cl.build_table(cl.dirichlet_t(1.0), 12)
    verdict = cl.is_contraction(cl.defect(cl.OperatorTuple.from_scalars(0.98), di, P(10)))
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
        verdict = cl.is_contraction(cl.defect(t, table, p))
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
    assert (cl.is_contraction(cl.defect(base, table, p)).status
            == cl.is_contraction(cl.defect(conj, table, p)).status)


# ---------------------------------------------------------------------------
# purity
# ---------------------------------------------------------------------------

def test_purity_examples():
    sz = cl.build_table(cl.szego(), 62)
    zero = cl.is_pure(cl.defect(cl.OperatorTuple.zero(2, 1), sz, P(10)))
    assert zero.status == "pure" and zero.residual <= 1e-12
    half = cl.is_pure(cl.defect(cl.OperatorTuple.from_scalars(0.5), sz, P(60)))
    assert half.status == "pure" and half.residual <= 1e-9
    unitary = cl.is_pure(cl.defect(cl.OperatorTuple.from_scalars(1.0), sz, P(60)))
    assert unitary.status == "not_pure" and abs(unitary.residual - 1.0) <= 1e-12


def test_purity_inconclusive_near_boundary():
    sz = cl.build_table(cl.szego(), 32)
    verdict = cl.is_pure(cl.defect(cl.OperatorTuple.from_scalars(0.995), sz, P(30)))
    assert verdict.status == "inconclusive"


# ---------------------------------------------------------------------------
# truncated shifts
# ---------------------------------------------------------------------------

def test_shift_matrix_szego():
    table = cl.build_table(cl.szego(), 5)
    shifts = cl.shift_matrices(table, 3).index
    expected = np.diag([1.0, 1.0, 1.0], k=-1)
    assert np.array_equal(shifts.apply(0, np.eye(shifts.h)).real, expected)


def test_shift_matrix_entries():
    # dirichlet: <M e(0), e(1)> = sqrt(a_0 / a_1) = sqrt(2), so the squared
    # norm matches the known value 2 of the dirichlet shift
    table = cl.build_table(cl.dirichlet_t(1.0), 5)
    shifts = cl.shift_matrices(table, 3).index
    assert abs(shifts.apply(0, np.eye(shifts.h))[1, 0] - np.sqrt(2.0)) <= 1e-15
    da = cl.build_table(cl.drury_arveson(2), 5)
    sda = cl.shift_matrices(da, 3).index
    pos = {alpha: i for i, alpha in enumerate(graded_indices(2, 3))}
    assert abs(sda.apply(0, np.eye(sda.h))[pos[(1, 0)], pos[(0, 0)]] - 1.0) <= 1e-15
    assert abs(sda.apply(1, np.eye(sda.h))[pos[(1, 1)], pos[(1, 0)]] - np.sqrt(0.5)) <= 1e-15


@pytest.mark.parametrize("spec", [cl.szego(), cl.drury_arveson(2), cl.bergman(2),
                                  cl.bergman(3, d=2), cl.dirichlet_t(1.0)],
                         ids=lambda s: s.label)
def test_shift_defect_identity(spec):
    # the truncated shifts reproduce the rank-one defect of the full shifts
    top = 8 if spec.d == 1 else 6
    table = cl.build_table(spec, top + 1)
    for n in range(1, top + 1):
        dd = cl.defect(dense_shifts(table, n), table, P(n))
        nonzero = [k for k in range(1, n + 1) if table.b[k] != 0.0]
        n_b = min(max(nonzero), n) if nonzero else n
        indices = graded_indices(spec.d, n)
        keep = [i for i, alpha in enumerate(indices) if sum(alpha) <= n - n_b]
        e0 = np.zeros((len(indices), len(indices)))
        e0[0, 0] = 1.0
        sub = np.ix_(keep, keep)
        assert np.max(np.abs(dd.delta_sq[sub] - e0[sub])) <= 1e-10, (spec.label, n)


def test_shift_defect_identity_three_variables():
    table = cl.build_table(cl.drury_arveson(3), 5)
    shifts = dense_shifts(table, 3)
    dd = cl.defect(shifts, table, P(3))
    e0 = np.zeros((shifts.h, shifts.h))
    e0[0, 0] = 1.0
    assert np.max(np.abs(dd.delta_sq - e0)) <= 1e-12
    assert cl.is_pure(cl.defect(shifts, table, P(3))).status == "pure"


def test_shift_purity_partial_sums_are_projections():
    spec = cl.drury_arveson(2)
    n = 6
    table = cl.build_table(spec, n + 1)
    shifts = dense_shifts(table, n)
    indices = graded_indices(2, n)
    e0 = np.zeros((shifts.h, shifts.h), dtype=complex)
    e0[0, 0] = 1.0
    powers = cl.tuples.TuplePowers(shifts, n)
    acc = np.zeros_like(e0)
    for j in range(n + 1):
        for alpha in graded_indices(2, j):
            if sum(alpha) == j:
                c = cl.multi_coeff(table, alpha)
                m = stack_power(powers, alpha)
                acc = acc + c * (m @ e0 @ m.conj().T)
        # partial sum through degree j is exactly the projection onto degrees <= j
        assert np.max(np.abs(acc @ acc - acc)) <= 1e-10
        expected_rank = sum(1 for alpha in indices if sum(alpha) <= j)
        assert abs(np.trace(acc).real - expected_rank) <= 1e-10
        diag = np.array([1.0 if sum(alpha) <= j else 0.0 for alpha in indices])
        assert np.max(np.abs(acc - np.diag(diag))) <= 1e-10


def test_shift_purity_verdict():
    table = cl.build_table(cl.dirichlet_t(1.0), 24)
    verdict = cl.is_pure(cl.defect(dense_shifts(table, 6), table, P(12)))
    assert verdict.status == "pure" and verdict.residual <= 1e-12


def test_shift_norm_sq():
    sz = cl.build_table(cl.szego(), 12)
    assert cl.shift_norm_sq(sz, 10) == 1.0
    di = cl.build_table(cl.dirichlet_t(1.0), 12)
    assert cl.shift_norm_sq(di, 10) == 2.0
    bg = cl.build_table(cl.bergman(2), 12)
    # the truncated value, attained at the top degree; the true supremum is 1, a limit
    assert abs(cl.shift_norm_sq(bg, 10) - 11.0 / 12.0) <= 1e-15


@given(d=st.sampled_from([1, 2, 3]),
       rule=st.sampled_from(["szego", "drury_arveson", "dirichlet_t", "bergman"]),
       param=st.floats(min_value=0.0, max_value=2.0), n=st.integers(min_value=0, max_value=8))
@settings(max_examples=60, deadline=None)
def test_shift_norm_sq_matches_enumeration(d, rule, param, n):
    # one value for every coordinate i, the largest ratio over all multi-indices
    table = cl.build_table(diff_kernel(rule, d, param), n + 1)
    got = cl.shift_norm_sq(table, n)
    assert type(got) is float
    for i in range(d):
        assert got == enumerated_shift_norm_sq(table, i, n)[0]


def test_shift_destinations_where_integer_keys_overflow():
    # d = 33, n = 3: 4^33 > 2^63, and every M_i still sends e(alpha) to e(alpha + e_i)
    shifts = cl.shift_matrices(cl.build_table(cl.drury_arveson(33), 4), 3).index
    indices = graded_indices(33, 3)
    pos = {alpha: k for k, alpha in enumerate(indices)}
    for i, (dst, src, _) in enumerate(shifts.maps):
        ups = [indices[k][:i] + (indices[k][i] + 1,) + indices[k][i + 1:] for k in src]
        assert dst.tolist() == [pos[up] for up in ups]
        assert sorted(src.tolist()) == [k for k, alpha in enumerate(indices) if sum(alpha) < 3]


def test_shifts_carry_the_multi_index_coefficients():
    table = cl.build_table(cl.bergman(2, d=3), 6)
    shifts = cl.shift_matrices(table, 5)
    want = [cl.multi_coeff(table, alpha) for alpha in graded_indices(3, 5)]
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
    # the degrees below start_degree enter with coefficient 0
    coeffs = (table.require_b(n) if which == "b" else table.require_a(n))[:n + 1].copy()
    coeffs[:start] = 0.0
    total, tail = _weighted_series(t, coeffs, np.eye(h) if middle is None else middle, window)
    ref_total, ref_norms = enumerated_series(t, table, n, which, middle=middle,
                                             start_degree=start)
    ref_tail = ref_norms[max(0, n - window + 1):]
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
    tensored = cl.shift_matrices(table, n).index.tensor(r)
    dense = tensored_shifts(table, n, r)
    size = len(graded_indices(d, n)) * r
    assert tensored.h == size and tensored.d == d
    k = rng.standard_normal((size, 4)) + 1j * rng.standard_normal((size, 4))
    w_sq = max(1.0, max(np.max(np.abs(m), initial=0.0) for m in dense.mats)) ** 2
    for i, m in enumerate(dense.mats):
        assert np.max(np.abs(tensored.apply(i, k) - m @ k)) <= 1e-14 * w_sq * np.max(np.abs(k))
        # T_i T_i^* is diagonal, so cond1 reads it as a vector
        assert np.max(np.abs(np.diag(tensored.outer_diagonal(i)) - m @ m.conj().T)) <= 1e-14 * w_sq


@given(seed=st.integers(min_value=0, max_value=2**31), d=st.sampled_from([1, 2, 3]),
       rule=st.sampled_from(["szego", "drury_arveson", "dirichlet_t", "bergman"]),
       param=st.floats(min_value=0.0, max_value=2.0), r=st.sampled_from([1, 2, 3]))
@settings(max_examples=40, deadline=None)
def test_adjoint_gathers_match_dense_kron(seed, d, rule, param, r):
    rng = np.random.default_rng(seed)
    n = SERIES_DEGREE[d] - 2
    table = cl.build_table(diff_kernel(rule, d, param), n + 1)
    tensored = cl.shift_matrices(table, n).index.tensor(r)
    dense = tensored_shifts(table, n, r)
    k = rng.standard_normal((dense.h, 4)) + 1j * rng.standard_normal((dense.h, 4))
    for i, m in enumerate(dense.mats):
        scale = max(1.0, np.max(np.abs(m))) ** 2 * np.max(np.abs(k))
        assert np.max(np.abs(tensored.apply_adjoint(i, k) - m.conj().T @ k)) <= 1e-14 * scale


@given(seed=st.integers(min_value=0, max_value=2**31), d=st.integers(min_value=1, max_value=4),
       n=st.integers(min_value=1, max_value=5), m=st.integers(min_value=0, max_value=5),
       rule=st.sampled_from(["szego", "drury_arveson", "dirichlet_t", "bergman"]),
       param=st.floats(min_value=0.0, max_value=2.0), r=st.sampled_from([1, 2]))
@settings(max_examples=40, deadline=None)
def test_graded_stack_matches_dense_powers(seed, d, n, m, rule, param, r):
    # entry j of the gathered stack is M^alpha_j X, alpha_j the j-th multi-index of degree <= m
    rng = np.random.default_rng(seed)
    m = min(m, n)
    table = cl.build_table(diff_kernel(rule, d, param), n + 1)
    index = cl.shift_matrices(table, n).index
    dense = dense_shifts(table, n)
    for i in range(d):  # the reference shifts are the index maps, entry for entry
        assert np.max(np.abs(index.apply(i, np.eye(index.h)) - dense.mats[i])) <= 1e-15
    tensored = tensored_shifts(table, n, r)
    x = rng.standard_normal((tensored.h, 2)) + 1j * rng.standard_normal((tensored.h, 2))
    stack = index.tensor(r).graded_stack(x, m)
    assert stack.shape == (len(graded_indices(d, m)), *x.shape)
    for got, alpha in zip(stack, graded_indices(d, m)):
        want = tuple_power(tensored, alpha) @ x
        assert np.max(np.abs(got - want)) <= 1e-13 * np.max(np.abs(want)), alpha


@given(seed=st.integers(min_value=0, max_value=2**31), d=st.integers(min_value=1, max_value=5),
       n=st.integers(min_value=0, max_value=8), h=st.integers(min_value=1, max_value=3),
       rule=st.sampled_from(["szego", "drury_arveson", "dirichlet_t", "bergman"]),
       param=st.floats(min_value=0.0, max_value=2.0))
@settings(max_examples=40, deadline=None)
def test_graded_stack_matches_the_per_index_loop_bit_for_bit(seed, d, n, h, rule, param):
    # one batched step per coordinate and degree makes the same floating-point
    # operations, on the same operands, as one step per multi-index
    rng = np.random.default_rng(seed)
    t = random_commuting_tuple(rng, d, h, 0.9)
    want = looped_graded_stack(np.eye(h, dtype=complex), d, n, lambda i, y: t.mats[i] @ y)
    assert np.array_equal(TuplePowers(t, n).stack, want)
    # the gathers run past the shifts' own degree, 3 at most, where they reach 0
    top = min(n, 3)
    index = cl.shift_matrices(cl.build_table(diff_kernel(rule, d, param), top + 1), top).index
    tensored = index.tensor(h)
    x = rng.standard_normal((tensored.h, 2)) + 1j * rng.standard_normal((tensored.h, 2))
    assert np.array_equal(tensored.graded_stack(x, n), looped_graded_stack(x, d, n, tensored.apply))


@given(seed=st.integers(min_value=0, max_value=2**31), d=st.sampled_from([1, 2, 3]),
       rule=st.sampled_from(["szego", "drury_arveson", "dirichlet_t", "bergman"]),
       param=st.floats(min_value=0.0, max_value=2.0), r=st.sampled_from([1, 2, 3]),
       m=st.integers(min_value=0, max_value=4))
@settings(max_examples=40, deadline=None)
def test_gathers_act_on_a_stack_slice_by_slice(seed, d, rule, param, r, m):
    rng = np.random.default_rng(seed)
    n = SERIES_DEGREE[d] - 2
    table = cl.build_table(diff_kernel(rule, d, param), n + 1)
    tensored = cl.shift_matrices(table, n).index.tensor(r)
    xs = rng.standard_normal((m, tensored.h, 3)) + 1j * rng.standard_normal((m, tensored.h, 3))
    for i in range(d):
        for gather in (tensored.apply, tensored.apply_adjoint):
            got = gather(i, xs)
            assert got.shape == xs.shape
            assert np.array_equal(got, np.array([gather(i, x) for x in xs]).reshape(xs.shape))


@given(seed=st.integers(min_value=0, max_value=2**31), rows=st.integers(min_value=0, max_value=7),
       cols=st.integers(min_value=0, max_value=7), zero_column=st.booleans(),
       tie=st.booleans())
@settings(max_examples=60, deadline=None)
def test_canonical_phases_matches_the_column_loop(seed, rows, cols, zero_column, tie):
    # the package rotates eigenvector matrices and orthonormal bases, which
    # have no more columns than rows
    cols = min(cols, rows)
    rng = np.random.default_rng(seed)
    u = rng.standard_normal((rows, cols)) + 1j * rng.standard_normal((rows, cols))
    if zero_column and cols:
        u[:, 0] = 0.0
    if tie and rows > 1 and cols:  # two entries of equal magnitude: the first one is the pivot
        u[:2, -1] = [3.0 + 4.0j, -5.0]
    assert np.array_equal(canonical_phases(u), looped_canonical_phases(u))


def test_canonical_phases_of_a_kernel_basis_keep_their_bits():
    # the 198 x 195 basis of Ker V^* of a Drury-Arveson pair at N = 10
    rng = np.random.default_rng(11)
    table = cl.build_table(cl.drury_arveson(2), 12)
    t = random_commuting_tuple(rng, 2, 3, 0.3)
    v = cl.build_dilation(cl.defect(t, table, cl.TruncationParams(N=10)))
    u = np.linalg.svd(v.matrix, full_matrices=True)[0][:, t.h:]
    assert u.shape == (198, 195)
    assert np.array_equal(canonical_phases(u), looped_canonical_phases(u))


def test_hermitian_norm():
    # the reference's eigenvalue route against the package's one norm kernel
    from cnplab._linalg import opnorm

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


# below 1/DBL_MAX ~ 5.6e-309 the reciprocal of a subnormal scale overflows
@pytest.mark.parametrize("scale", [1e-320, 1e-310, 5e-309, 1e-200, 1e-100, 1e-10, 1.0, 1e10, 1e100,
                                   1e200])
def test_opnorm_against_the_svd(scale):
    from cnplab._linalg import opnorm

    rng = np.random.default_rng(13)
    eps = np.finfo(float).eps

    def draw(*shape):
        return scale * (rng.standard_normal(shape) + 1j * rng.standard_normal(shape))

    # a matrix has the bits of LAPACK's largest singular value
    for shape in [(1, 1), (3, 3), (3, 6), (6, 3), (1, 7), (7, 1)]:
        for a in (draw(*shape), draw(*shape).real):
            got = opnorm(a)
            assert type(got) is float and got == np.linalg.norm(a, 2)
    # a stack is within 8 eps of the SVD at every scale, or 8 steps of the
    # subnormal grid where 8 eps is finer than it: the Gram matrix of a / max|a_ij|
    # neither overflows past 1e154 nor underflows below 1e-154
    tiny_step = np.finfo(float).smallest_subnormal
    for shape in [(40, 1, 1), (40, 3, 3), (40, 3, 6), (40, 6, 3)]:
        for a in (draw(*shape), draw(*shape).real):
            a[7] = 0.0
            want = np.linalg.svd(a, compute_uv=False).max(axis=-1)
            got = opnorm(a)
            assert got.shape == (40,) and got[7] == 0.0
            assert np.all(np.abs(got - want) <= np.maximum(8 * eps * want, 8 * tiny_step))
    # a stack that mixes subnormal and normal members takes each at its own scale
    members = np.array([1e-320, 1.0, 1e-310, scale, 5e-309, 1e300])[:, None, None]
    a = (rng.standard_normal((6, 3, 3)) + 1j * rng.standard_normal((6, 3, 3))) * members
    want = np.linalg.svd(a, compute_uv=False).max(axis=-1)
    assert np.all(np.abs(opnorm(a) - want) <= np.maximum(8 * eps * want, 8 * tiny_step))
    for shape in [(0, 3), (3, 0), (0, 0)]:
        assert opnorm(np.zeros(shape, dtype=complex)) == 0.0
    assert opnorm(np.zeros((3, 3), dtype=complex)) == 0.0
    for shape in [(0, 3, 3), (4, 0, 3), (4, 3, 0)]:
        assert np.array_equal(opnorm(np.zeros(shape, dtype=complex)), np.zeros(shape[0]))


@pytest.mark.parametrize("scale", [1e-320, 1e-310, 5e-309, 1e-200, 1e-100, 1e-10, 1.0, 1e10, 1e100,
                                   1e200, 1e300])
def test_hermitian_norm_and_psd_sqrt_against_the_svd(scale):
    from cnplab._linalg import hermitize, opnorm, psd_sqrt

    rng = np.random.default_rng(17)
    eps, tiny_step = np.finfo(float).eps, np.finfo(float).smallest_subnormal
    for n in (1, 3, 6):
        for imag in (1j, 0.0):
            g = rng.standard_normal((n, n)) + imag * rng.standard_normal((n, n))
            # the reference's norm is an eigenvalue: within 8 eps of the SVD's, or 8 steps
            # of the subnormal grid where 8 eps is finer than it; opnorm, the package's one
            # norm kernel, is within the same of the reference on Hermitian input
            a = scale * (g + g.conj().T)
            want = np.linalg.norm(a, 2)
            assert abs(hermitian_norm(a) - want) <= max(8 * eps * want, 8 * tiny_step)
            assert abs(opnorm(a) - hermitian_norm(a)) <= max(8 * eps * want, 8 * tiny_step)
            # the root of a positive definite matrix against U S^(1/2) U^* from the SVD of
            # the matrix lifted by an exact 4^k, where no eigenvalue rounds on the
            # subnormal grid; the root itself is far above that grid at every scale
            b = np.eye(n) + 0.3 * g / np.sqrt(n)
            p = scale * hermitize(b @ b.conj().T)
            k = -(int(np.frexp(np.abs(p).max())[1]) // 2)
            u, s, _ = np.linalg.svd(p * 2.0 ** k * 2.0 ** k)
            root, min_eig, vals, vecs = psd_sqrt(p)
            want_root = (u * np.sqrt(s)) @ u.conj().T * 2.0 ** -k
            assert np.abs(root - want_root).max() <= 32 * eps * np.sqrt(s[0]) * 2.0 ** -k
            least = s[-1] * 2.0 ** -k * 2.0 ** -k
            assert abs(min_eig - least) <= max(8 * eps * s[0] * 2.0 ** -k * 2.0 ** -k,
                                               8 * tiny_step)
            assert min_eig == vals[0] and np.all(np.diff(vals) >= 0.0)
            # eigenvectors with canonical phases: each column's largest entry real positive
            pivots = vecs[np.argmax(np.abs(vecs), axis=0), np.arange(n)]
            assert np.all(np.abs(pivots.imag) <= 4 * eps * pivots.real)
