"""Coefficient algebra: generation, inversion, multi-index values, CNP, radii."""

import itertools
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import cnplab as cl
from cnplab.coeffs import graded_count, graded_indices, graded_position, multinomial
from random_inputs import diff_kernel, skip_degree_kernel
from series_reference import factorial_multinomial, looped_reciprocal


def long_division_reciprocal(a, n):
    """Oracle: coefficients of 1/A(t) by naive polynomial long division.

    Independent of the convolution recursion used by build_table.
    """
    c = np.zeros(n + 1)
    c[0] = 1.0 / a[0]
    for k in range(1, n + 1):
        acc = 0.0
        for j in range(1, k + 1):
            if j < len(a):
                acc += a[j] * c[k - j]
        c[k] = -acc / a[0]
    return c


BUILTIN_SPECS = [
    cl.szego(),
    cl.drury_arveson(2),
    cl.drury_arveson(3),
    cl.bergman(2),
    cl.bergman(3),
    cl.bergman(4),
    cl.dirichlet_t(0.0),
    cl.dirichlet_t(0.5),
    cl.dirichlet_t(1.0),
    cl.dirichlet_t(2.0),
]


# ---------------------------------------------------------------------------
# generation
# ---------------------------------------------------------------------------

def test_szego_sequence():
    table = cl.build_table(cl.szego(), 3)
    assert np.array_equal(table.a, [1.0, 1.0, 1.0, 1.0])


def test_bergman2_sequence_by_hand():
    # (1 - t)^(-2) = 1 + 2t + 3t^2 + 4t^3 + ...
    table = cl.build_table(cl.bergman(2), 3)
    assert np.array_equal(table.a, [1.0, 2.0, 3.0, 4.0])


def test_bergman1_matches_drury_arveson():
    a1 = cl.build_table(cl.bergman(1), 30).a
    a2 = cl.build_table(cl.drury_arveson(1), 30).a
    assert np.array_equal(a1, a2)
    assert np.all(a1 == 1.0)


def test_dirichlet_sequence():
    table = cl.build_table(cl.dirichlet_t(1.0), 2)
    assert np.allclose(table.a, [1.0, 0.5, 1.0 / 3.0], rtol=0, atol=1e-15)


def test_dirichlet_zero_is_szego():
    a0 = cl.build_table(cl.dirichlet_t(0.0), 20).a
    assert np.array_equal(a0, cl.build_table(cl.szego(), 20).a)


def test_custom_validation():
    with pytest.raises(cl.InvalidKernelError):
        cl.custom_kernel([2.0, 1.0])  # a_0 != 1
    with pytest.raises(cl.InvalidKernelError):
        cl.custom_kernel([1.0, -0.5])  # negative entry
    with pytest.raises(cl.InvalidKernelError):
        cl.build_table(cl.custom_kernel([1.0, 0.5]), 5)  # too short
    for bad in (float("nan"), float("inf")):
        with pytest.raises(cl.InvalidKernelError, match="positive and finite"):
            cl.custom_kernel([1.0, bad, 0.5])


def test_bergman_param_validation():
    with pytest.raises(cl.InvalidKernelError):
        cl.bergman(0)
    for t in (-1.0, float("nan"), float("inf")):
        with pytest.raises(cl.InvalidKernelError, match="finite real t"):
            cl.dirichlet_t(t)


def test_bergman_m_beyond_the_float_range_is_invalid():
    with pytest.raises(cl.InvalidKernelError, match="within the float range"):
        cl.bergman(10 ** 400)  # a_1 = m has no float


@pytest.mark.parametrize("spec, n, message", [
    (cl.bergman(10 ** 200), 3, "positive and within the float range"),  # a_2 = inf
    # a_10 is finite, the products in b_10 are not
    (cl.bergman(2 * 10 ** 31), 10, "b_n overflows a float"),
    # b_2 = 1e308 - 1e308 * 1e308 is -inf, which the zero rule must not take for a 0
    (cl.custom_kernel([1.0, 1e308, 1e308]), 2, "b_n overflows a float"),
], ids=["a_2", "b_10", "custom b_2"])
def test_a_table_that_overflows_is_an_invalid_kernel(spec, n, message):
    # warnings are errors here, so the overflow must not warn on its way
    with pytest.raises(cl.InvalidKernelError, match=message):
        cl.build_table(spec, n)


# ---------------------------------------------------------------------------
# inversion
# ---------------------------------------------------------------------------

def test_szego_inversion():
    table = cl.build_table(cl.szego(), 20)
    assert table.b[1] == 1.0
    assert np.all(table.b[2:] == 0.0)


def test_dirichlet_inversion_by_hand():
    # b_2 = a_2 - b_1 a_1 = 1/3 - 1/4 = 1/12
    table = cl.build_table(cl.dirichlet_t(1.0), 4)
    assert table.b[1] == 0.5
    assert abs(table.b[2] - 1.0 / 12.0) < 1e-15


def test_bergman2_inversion_by_hand():
    # 1 - (1 - t)^2 = 2t - t^2
    table = cl.build_table(cl.bergman(2), 3)
    assert np.allclose(table.b[1:], [2.0, -1.0, 0.0], rtol=0, atol=1e-14)


def test_b1_equals_a1_bit_exact():
    for spec in BUILTIN_SPECS:
        table = cl.build_table(spec, 10)
        assert table.b[1] == table.a[1]


@pytest.mark.parametrize("n", [24, 64, 90, 500])
@pytest.mark.parametrize("spec", [cl.szego(), cl.bergman(2), cl.bergman(3, d=2), cl.bergman(7),
                                  cl.dirichlet_t(1.0), cl.dirichlet_t(0.5)],
                         ids=lambda s: f"{s.label}-d{s.d}")
def test_reciprocal_matches_the_scalar_loop_bit_for_bit(spec, n):
    a = cl.build_table(spec, n).a
    assert np.array_equal(cl.build_table(spec, n).b.view(np.uint64),
                          looped_reciprocal(a).view(np.uint64))


@pytest.mark.parametrize("m", [2, 3, 7, 20])
def test_bergman_b_is_an_exact_polynomial(m):
    # 1/k = (1 - t)^m: b_k = (-1)^(k+1) binom(m, k) through degree m, then exactly 0
    b = cl.build_table(cl.bergman(m), 500).b
    assert np.array_equal(b[1:m + 1], [(-1) ** (k + 1) * math.comb(m, k) for k in range(1, m + 1)])
    assert not b[m + 1:].any()


@given(support=st.dictionaries(st.integers(min_value=2, max_value=12),
                               st.floats(min_value=1e-3, max_value=2.0), max_size=6),
       b_1=st.floats(min_value=0.1, max_value=2.0), n=st.integers(min_value=1, max_value=120))
@settings(max_examples=60, deadline=None)
def test_the_table_recovers_the_support_of_a_sparse_b(support, b_1, n):
    # a CNP kernel given by a sparse b >= 0 (a_k >= b_1^k keeps every a_k a positive float),
    # with a formed in float by a_k = sum_j b_j a_{k-j}: the table's b has exactly b's support
    want = np.zeros(n + 1)
    for k, value in {**support, 1: b_1}.items():
        if k <= n:
            want[k] = value
    a = [1.0]
    for k in range(1, n + 1):
        a.append(sum(want[j] * a[k - j] for j in range(1, min(k, 12) + 1)))
    b = cl.build_table(cl.custom_kernel(a), n).b
    assert np.array_equal(np.flatnonzero(b), np.flatnonzero(want))
    assert not (b < 0.0).any()


@pytest.mark.parametrize("a, sign", [
    ([1.0, 1.3e154, 1e308], -1.0),  # b_2 = 1e308 - 1.69e308, about -6.9e307
    ([1.0, 1e154, 1.7e308], 1.0),  # b_2 = 1.7e308 - 1e308, about 7e307
], ids=["negative", "positive"])
def test_a_finite_b_whose_row_scale_overflows_keeps_its_sign(a, sign):
    # |a_2| + |b_1 a_1| overflows while b_2 stays finite: an infinite row bound decides nothing
    table = cl.build_table(cl.custom_kernel(a), 2)
    assert np.sign(table.b[2]) == sign
    assert np.array_equal(table.b.view(np.uint64), looped_reciprocal(table.a).view(np.uint64))
    assert cl.is_cnp(table).consistent == (sign > 0)
    if sign < 0:
        assert cl.is_cnp(table).describe().startswith("not_cnp(n=2, b=-6.9")


def test_reciprocal_at_the_edge_of_the_float_range_matches_the_scalar_loop_bit_for_bit():
    # b_9 of this Bergman table is about 1.4e276, and the products in b_10 overflow (see above)
    table = cl.build_table(cl.bergman(2 * 10 ** 31), 9)
    assert np.abs(table.b).max() > 1e276
    assert np.array_equal(table.b.view(np.uint64), looped_reciprocal(table.a).view(np.uint64))


@pytest.mark.parametrize("spec", BUILTIN_SPECS, ids=lambda s: s.label)
def test_roundtrip_against_long_division(spec):
    n = 60
    table = cl.build_table(spec, n)
    recip = long_division_reciprocal(table.a, n)
    assert abs(recip[0] - 1.0) == 0.0
    assert np.max(np.abs(table.b[1:] + recip[1:])) <= 1e-12


@pytest.mark.parametrize("spec", BUILTIN_SPECS, ids=lambda s: s.label)
def test_roundtrip_product_is_one(spec):
    n = 60
    table = cl.build_table(spec, n)
    # coefficients of A(t) * (1 - B(t)) beyond the constant term
    for k in range(1, n + 1):
        conv = table.a[k] - np.dot(table.b[1:k + 1], table.a[:k][::-1])
        assert abs(conv) <= 1e-12


@given(tail=st.lists(st.floats(min_value=0.05, max_value=4.0), min_size=1, max_size=24))
@settings(max_examples=60, deadline=None)
def test_roundtrip_random_custom(tail):
    # reciprocal coefficients of an arbitrary positive sequence can grow
    # exponentially, so the residual is judged against the convolution scale
    coeffs = [1.0] + tail
    table = cl.build_table(cl.custom_kernel(coeffs), len(coeffs) - 1)
    for k in range(1, table.n_max + 1):
        conv = table.a[k] - np.dot(table.b[1:k + 1], table.a[:k][::-1])
        scale = abs(table.a[k]) + np.dot(np.abs(table.b[1:k + 1]), np.abs(table.a[:k][::-1]))
        assert abs(conv) <= 1e-12 * max(1.0, scale)


# ---------------------------------------------------------------------------
# multi-index coefficients
# ---------------------------------------------------------------------------

def test_multi_coeff_examples():
    da = cl.build_table(cl.drury_arveson(2), 5)
    assert cl.multi_coeff(da, (1, 1)) == 2.0
    b2 = cl.build_table(cl.bergman(2, d=2), 5)
    assert cl.multi_coeff(b2, (2, 0)) == 3.0
    assert cl.multi_coeff(b2, (-1, 3)) == 0.0
    assert cl.multi_coeff(b2, (-1, 3), "b") == 0.0


def test_multi_coeff_errors():
    da = cl.build_table(cl.drury_arveson(2), 5)
    with pytest.raises(cl.InsufficientCacheError):
        cl.multi_coeff(da, (4, 3))
    with pytest.raises(ValueError):
        cl.multi_coeff(da, (0, 0), "b")
    with pytest.raises(ValueError):
        cl.multi_coeff(da, (1, 1, 1))


@given(alpha=st.lists(st.integers(min_value=0, max_value=4), min_size=2, max_size=3),
       seed=st.integers(min_value=0, max_value=2**31))
@settings(max_examples=80, deadline=None)
def test_permutation_symmetry(alpha, seed):
    rng = np.random.default_rng(seed)
    spec = cl.dirichlet_t(1.0, d=len(alpha))
    table = cl.build_table(spec, sum(alpha) + 1)
    sigma = rng.permutation(len(alpha))
    permuted = tuple(alpha[i] for i in sigma)
    assert cl.multi_coeff(table, alpha) == cl.multi_coeff(table, permuted)


@pytest.mark.parametrize("spec_fn", [cl.szego, lambda d: cl.bergman(2, d=d), lambda d: cl.dirichlet_t(1.0, d=d)])
@pytest.mark.parametrize("d", [1, 2, 3])
def test_multi_index_reconstruction(spec_fn, d):
    # a_alpha = sum over 0 < beta <= alpha of b_beta a_{alpha-beta}
    spec = spec_fn(d) if spec_fn is not cl.szego else cl.szego(d)
    table = cl.build_table(spec, 9)
    for alpha in graded_indices(d, 8):
        if sum(alpha) == 0:
            continue
        total = 0.0
        for beta in graded_indices(d, sum(alpha)):
            if sum(beta) == 0 or any(b > a for a, b in zip(alpha, beta)):
                continue
            diff = tuple(a - b for a, b in zip(alpha, beta))
            total += cl.multi_coeff(table, beta, "b") * cl.multi_coeff(table, diff)
        target = cl.multi_coeff(table, alpha)
        assert abs(total - target) <= 1e-10 * max(1.0, abs(target))


def test_multinomial_exact():
    assert multinomial((10, 10)) == math.comb(20, 10)
    assert multinomial((3, 2, 1)) == 60
    assert isinstance(multinomial((10, 10)), int)
    # exact integers at every degree, past the range of 64-bit integers too
    big = multinomial((12, 18))
    assert isinstance(big, int)
    assert big == math.factorial(30) // (math.factorial(12) * math.factorial(18))
    assert multinomial((40, 30, 30)) == math.comb(100, 40) * math.comb(60, 30)
    with pytest.raises(ValueError):
        multinomial((-1, 2))


def test_graded_order_is_stable():
    idx = graded_indices(2, 2)
    assert idx == ((0, 0), (0, 1), (1, 0), (0, 2), (1, 1), (2, 0))


@pytest.mark.parametrize("d", range(1, 7))
def test_graded_order_is_degree_then_lexicographic(d):
    # every tuple of degree <= n from the full grid, sorted by (degree, tuple)
    for n in range(7):
        want = sorted((alpha for alpha in itertools.product(range(n + 1), repeat=d)
                       if sum(alpha) <= n), key=lambda alpha: (sum(alpha), alpha))
        got = graded_indices(d, n)
        assert got == tuple(want)
        assert all(type(a) is int for alpha in got for a in alpha)


# ---------------------------------------------------------------------------
# the graded-order lookup and stacked coefficients, against dict references
# ---------------------------------------------------------------------------

@given(d=st.sampled_from([1, 2, 3]), n=st.integers(min_value=0, max_value=8),
       seed=st.integers(min_value=0, max_value=2**31))
@settings(max_examples=60, deadline=None)
def test_graded_lookup_matches_a_dict(d, n, seed):
    indices = graded_indices(d, n)
    pos = {alpha: i for i, alpha in enumerate(indices)}
    idx = np.array(indices)
    assert np.array_equal(graded_position(d, n, idx), np.arange(len(indices)))
    for j in range(n + 1):
        assert graded_count(d, j) == sum(1 for alpha in indices if sum(alpha) <= j)
    # sums of two indices inside the basis, as the Taylor placement looks them up
    rng = np.random.default_rng(seed)
    pairs = [(a, b) for a, b in rng.integers(0, len(indices), (40, 2))
             if sum(indices[a]) + sum(indices[b]) <= n]
    if pairs:
        sums = np.array([idx[a] + idx[b] for a, b in pairs])
        want = [pos[tuple(int(x) for x in row)] for row in sums]
        assert graded_position(d, n, sums).tolist() == want
    # rows outside the basis raise, whatever position the closed form would give them
    outside = rng.integers(-2, n + 2, (20, d))
    for row in outside:
        if row.min() < 0 or row.sum() > n:
            with pytest.raises(ValueError, match="is not in graded_indices"):
                graded_position(d, n, [row])
            with pytest.raises(ValueError):
                graded_position(d, n, np.vstack([idx, row]))


@pytest.mark.parametrize("d, n", [(33, 3), (65, 1)])
def test_graded_lookup_matches_a_dict_where_integer_keys_overflow(d, n):
    # (n + 1)^d >= 2^63: the positions stay exact however many coordinates there are
    indices = graded_indices(d, n)
    pos = {alpha: i for i, alpha in enumerate(indices)}
    rng = np.random.default_rng(d)
    rows = np.array(indices)[rng.permutation(len(indices))]
    assert graded_position(d, n, rows).tolist() == [pos[tuple(r)] for r in rows.tolist()]


def test_graded_lookup_rejects_a_colliding_key():
    # (3, 0) has degree above n = 2 and (-1, 1) a negative entry: both lie outside
    # the basis, and both raise rather than land on a position inside it
    assert graded_position(2, 2, [(0, 1)]).tolist() == [1]
    with pytest.raises(ValueError):
        graded_position(2, 2, [(3, 0)])
    with pytest.raises(ValueError):
        graded_position(2, 2, [(-1, 1)])
    # so does a stack whose width is not d, rather than broadcasting
    for rows in ([[1]], [[0, 1, 0]], [0, 1]):
        with pytest.raises(ValueError, match="does not match d=2"):
            graded_position(2, 3, rows)


@given(d=st.sampled_from([1, 2, 3, 5]), n=st.integers(min_value=1, max_value=8),
       rule=st.sampled_from(["szego", "drury_arveson", "dirichlet_t", "bergman"]),
       param=st.floats(min_value=0.0, max_value=2.0), seed=st.integers(min_value=0, max_value=2**31))
@settings(max_examples=60, deadline=None)
def test_stacked_multi_coeff_matches_per_index_values(d, n, rule, param, seed):
    table = cl.build_table(diff_kernel(rule, d, param), n)
    rng = np.random.default_rng(seed)
    rows = np.vstack([np.array(graded_indices(d, n)), rng.integers(-2, 3, (10, d))])
    rows = rows[rows.sum(axis=1) <= n]
    nonzero = rows[(rows != 0).any(axis=1)]  # b_alpha is undefined at alpha = 0
    for which, scalars, stack in (("a", table.a, rows), ("b", table.b, nonzero)):
        want = [scalars[sum(r)] * factorial_multinomial(r) if min(r) >= 0 else 0.0
                for r in stack.tolist()]
        got = cl.multi_coeff(table, stack, which)
        assert got.shape == (len(stack),) and np.array_equal(got, want)
        assert [cl.multi_coeff(table, r, which) for r in stack] == want
        with pytest.raises(cl.InsufficientCacheError):
            cl.multi_coeff(table, np.vstack([stack, [(n + 1,) + (0,) * (d - 1)]]), which)
    with pytest.raises(ValueError, match="undefined at alpha = 0"):
        cl.multi_coeff(table, rows, "b")
    # a negative entry gives 0 whatever the degree, so it never needs the table
    far = np.array([(-1,) + (n + 5,) * (d - 1)] if d > 1 else [(-1,)])
    assert np.array_equal(cl.multi_coeff(table, far, "b"), [0.0])


def test_multi_coeff_keeps_the_bits_past_two_to_the_53():
    # at d = 2, N = 100 the multinomials reach binom(100, 50) ~ 1e29: each is rounded to a
    # float once, from the exact integer
    table = cl.build_table(cl.drury_arveson(2), 100)
    rows = np.array(graded_indices(2, 100))
    want = [float(factorial_multinomial(r)) for r in rows.tolist()]
    assert max(want) > 2.0 ** 53
    assert np.array_equal(cl.multi_coeff(table, rows), want)


# ---------------------------------------------------------------------------
# CNP classification
# ---------------------------------------------------------------------------

def test_cnp_builtins():
    consistent = [cl.szego(), cl.drury_arveson(1), cl.drury_arveson(2), cl.drury_arveson(3),
                  cl.dirichlet_t(0.0), cl.dirichlet_t(0.5), cl.dirichlet_t(1.0), cl.dirichlet_t(2.0)]
    for spec in consistent:
        cls = cl.is_cnp(cl.build_table(spec, 30))
        assert cls.consistent, spec.label
    for m in (2, 3, 4):
        cls = cl.is_cnp(cl.build_table(cl.bergman(m), 30))
        assert not cls.consistent
        assert cls.first_failure == 2
        assert abs(cls.value - (-m * (m - 1) / 2.0)) <= 1e-12


def test_cnp_describe():
    cls = cl.is_cnp(cl.build_table(cl.bergman(2), 10))
    assert cls.describe().startswith("not_cnp(n=2")


def test_cnp_tolerance_absorbs_roundoff():
    # 1/k = 1 - 0.5t - 0.3t^3 given by its a in float: b past degree 3 is rounding noise of
    # either sign, which the table's zero rule sets to exactly 0, so the kernel stays consistent
    assert cl.is_cnp(cl.build_table(skip_degree_kernel(1, 40), 40)).consistent
    # b_2 = -5e-13 is about 375 times its row's rounding bound 3 eps (a_2 + a_1^2): a
    # genuinely negative coefficient, and so is -1e-6
    for gap in (5e-13, 1e-6):
        table = cl.build_table(cl.custom_kernel([1.0, 1.0, 1.0 - gap] + [1.0] * 8), 10)
        cls = cl.is_cnp(table)
        assert not cls.consistent and cls.first_failure == 2 and cls.value == table.b[2] < 0.0
    assert cls.describe().startswith("not_cnp(n=2, b=-1e-06")


# ---------------------------------------------------------------------------
# evaluation
# ---------------------------------------------------------------------------

def test_kernel_eval_at_origin():
    for spec in BUILTIN_SPECS[:4]:
        table = cl.build_table(spec, 10)
        z = np.zeros(spec.d)
        assert cl.kernel_eval(table, [z], [z], 10).value[0] == 1.0


def test_kernel_eval_drury_arveson():
    table = cl.build_table(cl.drury_arveson(2), 45)
    out = cl.kernel_eval(table, [(0.5, 0.0)], [(0.5, 0.0)], 42)
    assert abs(out.value[0] - 4.0 / 3.0) <= 1e-10


def test_kernel_eval_bergman():
    table = cl.build_table(cl.bergman(2), 65)
    z = np.sqrt(0.5)
    out = cl.kernel_eval(table, [[z]], [[z]], 62)
    assert abs(out.value[0] - 4.0) <= 1e-8


@pytest.mark.parametrize("zs, d, fragment", [
    (0.3, 1, "shape ()"),
    ([0.3], 1, "shape (1,)"),
    ([0.3, 0.1], 2, "shape (2,)"),      # a length-d vector is not d points
    (np.zeros((0, 2)), 2, "shape (0, 2)"),
    ([[0.1, 0.2]], 1, "shape (1, 2)"),
    (np.zeros((1, 2, 1)), 2, "shape (1, 2, 1)"),
    ([[0.1, np.nan]], 2, "at point 0, coordinate 1"),
    ([[0.1], [complex(0.0, np.inf)]], 1, "at point 1, coordinate 0"),
])
def test_as_points_is_strict(zs, d, fragment):
    with pytest.raises(ValueError) as err:
        cl.as_points(zs, d)
    assert fragment in str(err.value)


def test_as_points_keeps_a_stack():
    pts = cl.as_points([[0.1, 0.2j], (0.3, 0.0)], 2)
    assert pts.dtype == complex and pts.shape == (2, 2)
    assert np.array_equal(pts, [[0.1, 0.2j], [0.3, 0.0]])


def test_kernel_eval_pairs_rows():
    table = cl.build_table(cl.drury_arveson(2), 45)
    zs = [(0.5, 0.0), (0.1, 0.2j), (0.0, 0.3)]
    ws = [(0.5, 0.0), (0.3, 0.0), (0.0, -0.3j)]
    out = cl.kernel_eval(table, zs, ws, 42)
    for value, z, w in zip(out.value, zs, ws):
        assert abs(value - 1.0 / (1.0 - np.vdot(w, z))) <= 1e-10
    with pytest.raises(ValueError, match="do not pair up"):
        cl.kernel_eval(table, zs, ws[:1], 42)


def test_kernel_eval_domain_error():
    table = cl.build_table(cl.szego(), 10)
    with pytest.raises(cl.DomainError):
        cl.kernel_eval(table, [[1.0]], [[0.0]], 5)
    with pytest.raises(cl.DomainError):
        cl.kernel_eval(table, [[0.5]], [[1.2]], 5)
    with pytest.raises(cl.DomainError, match=r"w\[1\]"):
        cl.kernel_eval(table, [[0.5], [0.2]], [[0.1], [1.2]], 5)


def test_kernel_hermitian_symmetry_and_positivity():
    # k(z, w) = conj(k(w, z)), and the sampled kernel matrix is PSD since
    # every truncated power of the inner product is a PSD kernel
    rng = np.random.default_rng(4)
    for spec in (cl.drury_arveson(2), cl.bergman(2, d=2), cl.dirichlet_t(1.0, d=2)):
        table = cl.build_table(spec, 60)
        pts = []
        for _ in range(6):
            v = rng.standard_normal(2) + 1j * rng.standard_normal(2)
            pts.append(0.7 * v / np.linalg.norm(v) * rng.random())
        gram = np.array([[cl.kernel_eval(table, [zi], [zj], 60).value[0] for zj in pts]
                         for zi in pts])
        assert np.max(np.abs(gram - gram.conj().T)) <= 1e-12
        assert np.linalg.eigvalsh((gram + gram.conj().T) / 2)[0] >= -1e-10


# ---------------------------------------------------------------------------
# radius estimates
# ---------------------------------------------------------------------------

def test_radius_szego():
    est = cl.estimate_radius(cl.build_table(cl.szego(), 40), "a")
    assert est.radius == 1.0 and est.reliable


def test_radius_geometric_custom():
    coeffs = [2.0 ** (-n) for n in range(41)]
    est = cl.estimate_radius(cl.build_table(cl.custom_kernel(coeffs), 40), "a")
    assert abs(est.radius - 2.0) <= 1e-12 and est.reliable


def test_radius_dirichlet():
    est = cl.estimate_radius(cl.build_table(cl.dirichlet_t(1.0), 40), "a")
    assert abs(est.radius - 1.0) <= 0.05


def test_radius_polynomial_flag():
    est = cl.estimate_radius(cl.build_table(cl.szego(), 40), "b")
    assert est.exact_polynomial and math.isinf(est.radius)
    est2 = cl.estimate_radius(cl.build_table(cl.bergman(3), 40), "b")
    assert est2.exact_polynomial and math.isinf(est2.radius)


def test_radius_needs_history():
    with pytest.raises(cl.InsufficientCacheError):
        cl.estimate_radius(cl.build_table(cl.szego(), 5), "a")
