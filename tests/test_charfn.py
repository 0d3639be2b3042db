"""Characteristic function: lift, evaluation, and the operator identities."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import cnplab as cl
from charfn_reference import (b_inverse_gap, dense_lift, dense_lift_defect, dense_model_gap,
                              dense_theta, enumerated_calculus, fitted_taylor_blocks, full_width,
                              gathered_taylor_blocks, looped_model_gap, looped_taylor_blocks,
                              model_gap, padded_theta, pointwise_calculus, pointwise_charfn_eval,
                              span_taylor_blocks, support_coords, theta_cols, wide_lift)
from random_inputs import diff_kernel, finite_b_kernel, random_commuting_tuple, random_point
from cnplab._linalg import NON_FINITE_NORM
from cnplab.charfn import reciprocal_kernel


def P(n, tol=1e-9, window=3):
    return cl.TruncationParams(N=n, tol=tol, tail_window=window)


def mobius(t, z):
    return (z - t) / (1.0 - t * z)


def lift_of(t, table, p):
    return cl.build_lift(cl.build_dilation(cl.defect(t, table, p)))


@pytest.fixture(scope="module")
def szego_half():
    table = cl.build_table(cl.szego(), 90)
    p = P(80)
    t = cl.OperatorTuple.from_scalars(0.5)
    return t, lift_of(t, table, p), table, p


# ---------------------------------------------------------------------------
# kernel functional calculus
# ---------------------------------------------------------------------------

def test_kernel_calculus_at_origin():
    table = cl.build_table(cl.szego(), 42)
    t = cl.OperatorTuple.from_scalars(0.5)
    out = cl.kernel_calculus(t, table, [[0.0]], P(40))
    assert np.array_equal(out.matrix[0], np.eye(1))


def test_kernel_calculus_geometric():
    table = cl.build_table(cl.szego(), 82)
    t = cl.OperatorTuple.from_scalars(0.5)
    out = cl.kernel_calculus(t, table, [[0.5]], P(80))
    assert abs(out.matrix[0][0, 0] - 4.0 / 3.0) <= 1e-10
    assert out.inverse_residual[0] <= 1e-12


def test_kernel_calculus_zero_tuple():
    table = cl.build_table(cl.drury_arveson(2), 12)
    out = cl.kernel_calculus(cl.OperatorTuple.zero(3, 2), table, [(0.4, 0.2)], P(8))
    assert np.array_equal(out.matrix[0], np.eye(3))
    assert out.tail_term[0] == 0.0


def test_kernel_calculus_flags_nonconvergence():
    # the calculus reports its tail a_N |A_w^N| = 0.855^10 > tol, and check_eval decides on it
    table = cl.build_table(cl.szego(), 12)
    t = cl.OperatorTuple.from_scalars(0.95)
    p = P(10)
    [tail] = cl.kernel_calculus(t, table, [[0.9]], p).tail_term
    assert tail > p.tol
    with pytest.raises(cl.NonConvergedError, match=f"^kernel series tail {tail:.3e} at point 0 "):
        cl.check_eval(cl.charfn_eval(lift_of(t, table, p), [[0.9]]), p)


# ---------------------------------------------------------------------------
# the lift
# ---------------------------------------------------------------------------

def test_lift_scalar_szego(szego_half):
    t, lift, table, p = szego_half
    assert abs(lift.t_tilde[0, 0] - 0.5) <= 1e-15
    assert np.max(np.abs(lift.t_tilde[0, 1:])) == 0.0
    assert lift.ttstar_residual <= 1e-10
    assert lift.intertwine_residual <= 1e-10
    # defect square root acts as sqrt(1 - t^2) on the first slot; Delta is
    # invertible, so E = I and D~E is D~
    assert abs(lift.d_tilde_e[0, 0] - np.sqrt(0.75)) <= 1e-12


def test_lift_zero_tuple():
    table = cl.build_table(cl.szego(), 22)
    p = P(20)
    lift = lift_of(cl.OperatorTuple.zero(1, 1), table, p)
    assert np.all(lift.t_tilde == 0.0)
    # Szego's b is supported on degree 1 alone; D~E is I there and off it
    assert np.array_equal(lift.support, [0]) and np.array_equal(theta_cols(lift), [0])
    assert np.array_equal(lift.d_tilde_e, np.eye(1))
    assert np.array_equal(full_width(lift)[1], np.eye(20))
    assert lift.defect_rank == 20


def test_lift_nilpotent_pair_block():
    e12 = np.array([[0.0, 1.0], [0.0, 0.0]], dtype=complex)
    t = cl.OperatorTuple((0.4 * e12, 0.3 * e12))
    table = cl.build_table(cl.drury_arveson(2), 12)
    lift = lift_of(t, table, P(8))
    tt = lift.t_tilde @ lift.t_tilde.conj().T
    expected = np.zeros((2, 2))
    expected[0, 0] = 0.25
    assert np.max(np.abs(tt - expected)) <= 1e-12


def test_lift_rejects_non_cnp():
    table = cl.build_table(cl.bergman(2), 12)
    with pytest.raises(cl.NotCnpError):
        lift_of(cl.OperatorTuple.zero(1, 1), table, P(8))


def test_lift_invariants_on_examples(charfn_examples):
    for ex in charfn_examples:
        lift = lift_of(ex.ops, ex.table(), ex.p)
        assert lift.ttstar_residual <= 1e-10, ex.name
        assert lift.intertwine_residual <= 1e-10, ex.name


def test_lift_contraction_equivalence():
    # the lifted row is a contraction exactly when the tuple is one; the
    # second direction keeps the defect, and so the dilation, nonzero
    table = cl.build_table(cl.szego(), 22)
    p = P(20)
    for value, expected in ((0.5, "yes"), (1.0, "yes"), (2.0, "no")):
        t = cl.OperatorTuple((np.diag([value, 0.3]),))
        lift = lift_of(t, table, p)
        verdict = cl.is_contraction(cl.defect(t, table, p))
        assert verdict.status == expected
        row_norm = np.linalg.norm(lift.t_tilde, 2)
        assert (row_norm <= 1.0 + p.tol) == (expected == "yes")
        assert lift.contractive == (expected == "yes")


# ---------------------------------------------------------------------------
# evaluation
# ---------------------------------------------------------------------------

def test_theta_at_zero_is_minus_lift(szego_half):
    t, lift, table, p = szego_half
    ev = cl.charfn_eval(lift, [[0.0]])
    basis = lift.dilation.defect_data.ran_delta_basis
    expected = -(basis.conj().T @ lift.t_tilde @ dense_lift(lift.dilation).d_tilde_basis)
    # theta on its one column; the dense -C^* T~ E is 0 on the other 79 inputs
    assert ev.theta.shape == (1, 1, 1) and expected.shape == (1, lift.defect_rank) == (1, 80)
    assert np.max(np.abs(padded_theta(lift, ev.theta)[0] - expected)) <= 1e-14


def test_theta_matches_mobius(szego_half):
    t, lift, table, p = szego_half
    ev = cl.charfn_eval(lift, [[0.3]])
    assert abs(ev.theta[0][0, 0] - mobius(0.5, 0.3)) <= 1e-10
    assert abs(ev.norm[0] - abs(mobius(0.5, 0.3))) <= 1e-10


def test_theta_zero_tuple_is_coordinate():
    table = cl.build_table(cl.szego(), 90)
    p = P(20)
    t = cl.OperatorTuple.zero(1, 1)
    lift = lift_of(t, table, p)
    theta = cl.charfn_eval(lift, [[0.37]]).theta[0]
    assert theta.shape == (1, 1) and abs(theta[0, 0] - 0.37) <= 1e-14
    # the dense theta, on all 20 inputs, is that coordinate and 0 on the others
    want = dense_theta(lift, [0.37], dense_lift_defect(lift))
    assert np.max(np.abs(padded_theta(lift, theta) - want)) <= 1e-14
    assert np.max(np.abs(want[0, 1:])) <= 1e-14


def test_scalar_mobius_sweep():
    # classical reduction: 20 parameter/point pairs at degree 100
    table = cl.build_table(cl.szego(), 102)
    p = P(100)
    rng = np.random.default_rng(11)
    for _ in range(20):
        t_val = float(rng.uniform(-0.95, 0.95))
        z = complex(rng.uniform(-0.9, 0.9), rng.uniform(-0.4, 0.4))
        if abs(z) >= 0.95:
            z *= 0.9 / abs(z)
        t = cl.OperatorTuple.from_scalars(t_val)
        lift = lift_of(t, table, p)
        theta = cl.charfn_eval(lift, [[z]]).theta[0]
        assert abs(theta[0, 0] - mobius(t_val, z)) <= 1e-9, (t_val, z)


def test_theta_norm_bound(charfn_examples):
    for ex in charfn_examples:
        table = ex.table()
        lift = lift_of(ex.ops, table, ex.p)
        ev = cl.charfn_eval(lift, cl.ball_points(ex.kernel.d, 100, seed=5))
        for z, norm in zip(ev.z, ev.norm):
            assert norm <= 1.0 + 1e-8, (ex.name, z, norm)


def test_z_row_strict_contraction_identity(charfn_examples):
    for ex in charfn_examples:
        table = ex.table()
        lift = lift_of(ex.ops, table, ex.p)
        zs = cl.ball_points(ex.kernel.d, 20, seed=6)
        ev = cl.charfn_eval(lift, zs)
        s = cl.kernel_eval(table, zs, zs, table.n_max).value
        assert np.all(ev.z_norm_sq < 1.0)
        assert np.max(np.abs(ev.z_norm_sq - (1.0 - 1.0 / s.real))) <= 1e-10, ex.name


def test_hermitian_symmetry(szego_half):
    t, lift, table, p = szego_half
    za, zb = 0.3 + 0.2j, -0.4 + 0.1j
    ta = cl.charfn_eval(lift, [[za]]).theta[0]
    tb = cl.charfn_eval(lift, [[zb]]).theta[0]
    ab = ta @ tb.conj().T
    ba = tb @ ta.conj().T
    assert np.max(np.abs(ab - ba.conj().T)) <= 1e-12


def test_domain_checks(szego_half):
    t, lift, table, p = szego_half
    with pytest.raises(cl.DomainError):
        cl.charfn_eval(lift, [[1.0]])


def test_eval_export(szego_half):
    import json

    t, lift, table, p = szego_half
    ev = cl.charfn_eval(lift, [[0.3 + 0.1j]])
    payload = cl.eval_to_dict(ev, 0)
    parsed = json.loads(json.dumps(payload))
    assert parsed["point"] == [[0.3, 0.1]]
    entry = parsed["matrix"][0][0]
    assert abs(complex(entry[0], entry[1]) - ev.theta[0][0, 0]) == 0.0
    assert parsed["norm"] == ev.norm[0]
    assert "inverse_residual" in parsed["diagnostics"]


# ---------------------------------------------------------------------------
# identities
# ---------------------------------------------------------------------------

def test_defect_identity_origin_zero_tuple():
    table = cl.build_table(cl.szego(), 90)
    p = P(20)
    t = cl.OperatorTuple.zero(1, 1)
    lift = lift_of(t, table, p)
    ev = cl.charfn_eval(lift, [[0.0]])
    assert cl.verify_defect_identity(lift, ev, ev)[0] <= 1e-14


def test_defect_identity_scalar(szego_half):
    t, lift, table, p = szego_half
    ez, ew = cl.charfn_eval(lift, [[0.3]]), cl.charfn_eval(lift, [[-0.2]])
    assert cl.verify_defect_identity(lift, ez, ew)[0] <= 1e-9


def test_defect_identity_sampled(charfn_examples):
    for ex in charfn_examples:
        table = ex.table()
        lift = lift_of(ex.ops, table, ex.p)
        ez = cl.charfn_eval(lift, cl.ball_points(ex.kernel.d, 20, seed=21))
        ew = cl.charfn_eval(lift, cl.ball_points(ex.kernel.d, 20, seed=22))
        worst = cl.verify_defect_identity(lift, ez, ew).max()
        assert worst <= 1e-8, (ex.name, worst)


def test_reciprocal_kernel_is_reciprocal():
    table = cl.build_table(cl.dirichlet_t(1.0), 90)
    z, w = 0.4 + 0.2j, -0.3 + 0.5j
    recip = reciprocal_kernel(table, [[z]], [[w]], 80).value[0]
    s = cl.kernel_eval(table, [[z]], [[w]], 90).value[0]
    assert abs(recip * s - 1.0) <= 1e-12


def test_multiplier_gram_zero_tuple_pair():
    # theta(z) = z for the zero tuple: every gram entry is exactly 1
    table = cl.build_table(cl.szego(), 90)
    p = P(20)
    t = cl.OperatorTuple.zero(1, 1)
    lift = lift_of(t, table, p)
    rep = cl.verify_multiplier(lift, cl.charfn_eval(lift, [[0.0], [0.5]]))
    assert rep.gram_min_eig >= -1e-12
    assert abs(rep.gram_min_eig) <= 1e-10  # ones matrix has a zero eigenvalue
    assert rep.vv_identity_residual <= 1e-10


def test_multiplier_sampled(charfn_examples):
    for ex in charfn_examples:
        table = ex.table()
        lift = lift_of(ex.ops, table, ex.p)
        ev = cl.charfn_eval(lift, cl.ball_points(ex.kernel.d, 5, seed=31))
        rep = cl.verify_multiplier(lift, ev)
        assert rep.gram_min_eig >= -1e-9, (ex.name, rep)
        assert rep.vv_identity_residual <= 1e-8, (ex.name, rep)


def test_multiplier_needs_two_points(szego_half):
    t, lift, table, p = szego_half
    with pytest.raises(ValueError):
        cl.verify_multiplier(lift, cl.charfn_eval(lift, [[0.0]]))


# ---------------------------------------------------------------------------
# functional model
# ---------------------------------------------------------------------------

def test_taylor_blocks_match_mobius_coefficients(szego_half):
    # closed form: (z - t)/(1 - tz) = -t + (1 - t^2) sum_{n>=1} t^(n-1) z^n
    t, lift, table, p = szego_half
    blocks = span_taylor_blocks(lift)
    # one block per degree 0..N, in graded order, on theta's one input that
    # the lift reaches; nothing leaks into the others
    assert blocks.shape == (p.N + 1, 1, 1) and lift.dilation.indices == tuple(
        (n,) for n in range(p.N + 1))
    assert np.array_equal(theta_cols(lift), [0])
    assert abs(blocks[0][0, 0] - (-0.5)) <= 1e-14
    for n in range(1, p.N + 1):
        expected = 0.75 * 0.5 ** (n - 1)
        assert abs(blocks[n][0, 0] - expected) <= 1e-13, n
    assert cl.charfn_eval(lift, [[0.3]]).theta.shape == (1, 1, 1)
    assert np.all(pointwise_charfn_eval(wide_lift(lift), [0.3]).theta[0, 1:] == 0.0)


def test_model_zero_tuple_exact():
    table = cl.build_table(cl.szego(), 90)
    p = P(20)
    t = cl.OperatorTuple.zero(1, 1)
    v = cl.build_dilation(cl.defect(t, table, p))
    lift = cl.build_lift(v)
    rep = cl.verify_model(lift)
    assert rep.compression_residual <= 1e-10
    assert rep.factor_residual <= 1e-10
    # theta(z) = z e_0 exactly: one nonzero block, at degree 1, on the one
    # input e_0 that the lift reaches
    assert np.array_equal(theta_cols(lift), [0])
    for gamma, block in zip(v.indices, span_taylor_blocks(lift), strict=True):
        expected = 1.0 if gamma == (1,) else 0.0
        assert block.shape == (1, 1)
        assert np.max(np.abs(block - expected)) <= 1e-14, gamma


def test_model_sampled(charfn_examples):
    for ex in charfn_examples:
        table = ex.table()
        lift = lift_of(ex.ops, table, ex.p)
        rep = cl.verify_model(lift)
        assert rep.compression_residual <= 1e-7, (ex.name, rep)
        assert rep.factor_residual <= 1e-7, (ex.name, rep)


def test_full_stack_on_random_contraction():
    # a generic (non-structured) strict contraction through every identity
    rng = np.random.default_rng(777)
    a = rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4))
    a *= 0.6 / np.linalg.norm(a, 2)
    t = cl.OperatorTuple((a,))
    table = cl.build_table(cl.szego(), 90)
    p = P(60)
    dd = cl.defect(t, table, p)
    assert cl.is_contraction(dd).status == "yes"
    purity = cl.is_pure(dd)
    assert purity.status == "pure"
    v = cl.build_dilation(dd)
    assert cl.admits_charfn(v, purity).status == "admits"
    lift = cl.build_lift(v)
    assert lift.ttstar_residual <= 1e-10 and lift.intertwine_residual <= 1e-10
    worst = cl.verify_defect_identity(lift, cl.charfn_eval(lift, cl.ball_points(1, 10, 41)),
                                      cl.charfn_eval(lift, cl.ball_points(1, 10, 42))).max()
    assert worst <= 1e-8
    mult = cl.verify_multiplier(lift, cl.charfn_eval(lift, cl.ball_points(1, 5, 43)))
    assert mult.gram_min_eig >= -1e-9 and mult.vv_identity_residual <= 1e-8
    model = cl.verify_model(lift)
    assert model.compression_residual <= 1e-7 and model.factor_residual <= 1e-7
    assert np.all(cl.charfn_eval(lift, cl.ball_points(1, 50, 44)).norm <= 1.0 + 1e-8)


def test_identities_on_random_commuting_pair():
    # commuting pair built from one generic matrix; identities short of the
    # functional model, which the structured d=2 examples already cover
    rng = np.random.default_rng(888)
    a = rng.standard_normal((3, 3)) + 1j * rng.standard_normal((3, 3))
    a /= np.linalg.norm(a, 2)
    t = cl.OperatorTuple((0.45 * a, 0.35 * (a @ a)))
    table = cl.build_table(cl.drury_arveson(2), 90)
    p = P(24)
    assert cl.is_contraction(cl.defect(t, table, p)).status == "yes"
    assert cl.is_pure(cl.defect(t, table, p)).status == "pure"
    lift = lift_of(t, table, p)
    worst = cl.verify_defect_identity(lift, cl.charfn_eval(lift, cl.ball_points(2, 10, 51)),
                                      cl.charfn_eval(lift, cl.ball_points(2, 10, 52))).max()
    assert worst <= 1e-8
    mult = cl.verify_multiplier(lift, cl.charfn_eval(lift, cl.ball_points(2, 4, 53)))
    assert mult.gram_min_eig >= -1e-9 and mult.vv_identity_residual <= 1e-8


# ---------------------------------------------------------------------------
# differential tests against the slow references
# ---------------------------------------------------------------------------

# series degree per dimension: enough layers to exercise the series while
# the reference fit, which samples (2(N + 1))^d points, stays fast
DIFF_DEGREE = {1: 14, 2: 8, 3: 4}


# both sides evaluate the same degree-N truncation, so convergence of the
# truncation is not under test; a loose tol keeps the tail and inverse
# checks from rejecting a comparison of two identical finite sums
DIFF_TOL = 1e-2


@given(seed=st.integers(min_value=0, max_value=2**31), d=st.sampled_from([1, 2, 3]),
       h=st.integers(min_value=1, max_value=3),
       rule=st.sampled_from(["szego", "drury_arveson", "dirichlet_t", "bergman"]),
       param=st.floats(min_value=0.0, max_value=2.0))
@settings(max_examples=60, deadline=None)
def test_calculus_matches_enumeration(seed, d, h, rule, param):
    rng = np.random.default_rng(seed)
    spec = diff_kernel(rule, d, param)
    n = DIFF_DEGREE[d]
    table = cl.build_table(spec, n + 1)
    p = P(n, tol=DIFF_TOL)
    t = random_commuting_tuple(rng, d, h, 0.35)
    w = random_point(rng, d, 0.95)
    got = cl.kernel_calculus(t, table, [w], p)
    total, tail, inverse_residual = enumerated_calculus(t, table, w, p)
    scale = np.linalg.norm(total, 2)
    assert np.linalg.norm(got.matrix[0] - total, 2) <= 1e-12 * scale
    assert abs(got.tail_term[0] - tail) <= 1e-12 * scale
    assert abs(got.inverse_residual[0] - inverse_residual) <= 1e-12 * scale


@given(seed=st.integers(min_value=0, max_value=2**31), d=st.sampled_from([1, 2, 3]),
       h=st.integers(min_value=1, max_value=3),
       rule=st.sampled_from(["szego", "drury_arveson", "dirichlet_t"]),
       param=st.floats(min_value=0.0, max_value=2.0))
@settings(max_examples=25, deadline=None)
def test_theta_and_blocks_match_references(seed, d, h, rule, param):
    rng = np.random.default_rng(seed)
    spec = diff_kernel(rule, d, param)
    n = DIFF_DEGREE[d]
    table = cl.build_table(spec, n + 1)
    p = P(n, tol=DIFF_TOL)
    t = random_commuting_tuple(rng, d, h, 0.35)
    lift = lift_of(t, table, p)
    z = random_point(rng, d, 0.95)
    theta = cl.charfn_eval(lift, [z]).theta[0]
    defect = (dense_lift_defect(lift)[0], dense_lift(lift.dilation).d_tilde_basis)
    want = dense_theta(lift, z, defect)
    cols = theta_cols(lift)
    assert theta.shape[1] == len(cols) == lift.t_tilde_e.shape[1]
    assert np.max(np.abs(theta - want[:, cols]), initial=0.0) <= 1e-13
    assert np.max(np.abs(np.delete(want, cols, axis=1)), initial=0.0) <= 1e-13

    blocks = span_taylor_blocks(lift)
    fitted, _ = fitted_taylor_blocks(lift, n)
    assert list(fitted) == list(lift.dilation.indices)
    for gamma, block in zip(lift.dilation.indices, blocks, strict=True):
        assert np.max(np.abs(block - fitted[gamma][:, cols]), initial=0.0) <= 1e-11, gamma
        assert np.max(np.abs(np.delete(fitted[gamma], cols, axis=1)), initial=0.0) <= 1e-11, gamma


def check_lift_against_dense_reference(lift, rng, radius, root_tol=1e-12):
    """The closed-form lift agrees with the dense eigendecomposition one, and the
    support-block lift with the full-width one.

    root_tol bounds the differences that pass through D~ = (I - T~^*T~)^(1/2),
    whose square root magnifies a rounding of eps in an eigenvalue lambda to
    eps / (2 sqrt(lambda)).
    """
    d_ref, e_ref = dense_lift_defect(lift)
    dense = dense_lift(lift.dilation)
    e = dense.d_tilde_basis
    m = lift.t_tilde.shape[1]
    assert np.max(np.abs(dense.d_tilde_e - d_ref @ e), initial=0.0) <= root_tol
    assert np.max(np.abs(e.conj().T @ e - np.eye(e.shape[1])), initial=0.0) <= 1e-12
    assert np.max(np.abs(e @ e.conj().T - e_ref @ e_ref.conj().T)) <= 1e-12
    assert lift.defect_rank == dense.defect_rank == e_ref.shape[1]
    # E drops exactly dim Ker Delta directions of the support block: the rank `defect` decided
    h = lift.dilation.ops.h
    assert lift.t_tilde_e.shape[1] == h * len(lift.support) - (h - lift.dilation.defect_data.rank)
    t_e, d_e = full_width(lift)
    assert np.max(np.abs(d_e - dense.d_tilde_e), initial=0.0) <= root_tol
    assert np.max(np.abs(t_e - dense.t_tilde_e), initial=0.0) <= 1e-12
    assert abs(lift.ttstar_residual - dense.ttstar_residual) <= 1e-12
    assert abs(lift.intertwine_residual - dense.intertwine_residual) <= root_tol
    assert lift.contractive == dense.contractive
    min_eig = np.linalg.eigvalsh(np.eye(m) - lift.t_tilde.conj().T @ lift.t_tilde)[0]
    assert lift.contractive == (min_eig >= -lift.dilation.params.tol)
    # theta(z) theta(w)^* does not depend on the basis of the lift's range
    d = lift.dilation.ops.d
    z, w = random_point(rng, d, radius), random_point(rng, d, radius)
    got = cl.charfn_eval(lift, [z]).theta[0] @ cl.charfn_eval(lift, [w]).theta[0].conj().T
    ref_z, ref_w = dense_theta(lift, z, (d_ref, e_ref)), dense_theta(lift, w, (d_ref, e_ref))
    assert np.max(np.abs(got - ref_z @ ref_w.conj().T)) <= 1e-12


@given(seed=st.integers(min_value=0, max_value=2**31), d=st.sampled_from([1, 2]),
       h=st.integers(min_value=1, max_value=3),
       rule=st.sampled_from(["szego", "drury_arveson", "dirichlet_t"]),
       param=st.floats(min_value=0.0, max_value=2.0))
@settings(max_examples=25, deadline=None)
def test_lift_matches_dense_reference(seed, d, h, rule, param):
    rng = np.random.default_rng(seed)
    n = DIFF_DEGREE[d]
    table = cl.build_table(diff_kernel(rule, d, param), n + 1)
    t = random_commuting_tuple(rng, d, h, 0.35)
    lift = lift_of(t, table, P(n, tol=DIFF_TOL))
    check_lift_against_dense_reference(lift, rng, 0.9)
    # Delta is invertible, so nothing is dropped and E is exactly I: theta's
    # inputs are the coordinates of the direct sum
    assert lift.dilation.defect_data.rank == h
    assert np.array_equal(dense_lift(lift.dilation).d_tilde_basis, np.eye(lift.t_tilde.shape[1]))
    assert lift.defect_rank == lift.t_tilde.shape[1]
    assert np.array_equal(theta_cols(lift), support_coords(lift))


@pytest.mark.parametrize("value, rotated", [(1.0, False), (2.0, False), (1.0, True)])
def test_lift_with_singular_delta_matches_dense_reference(value, rotated):
    # T = diag(value, 0.3) under Szego, or its conjugate by a complex unitary:
    # Delta has a kernel, so the lift's range drops a direction and E is a
    # proper subspace.  The kernel series at T converges only for
    # |z| < 1 / value, so theta is sampled near 0.
    u = np.array([[1.0, 1j], [1j, 1.0]]) / np.sqrt(2.0) if rotated else np.eye(2)
    t = cl.OperatorTuple((u @ np.diag([value, 0.3]) @ u.conj().T,))
    table = cl.build_table(cl.szego(), 22)
    lift = lift_of(t, table, P(20, tol=DIFF_TOL))
    assert lift.dilation.defect_data.rank == 1
    assert lift.defect_rank == lift.t_tilde.shape[1] - 1
    assert lift.contractive == (value == 1.0)
    check_lift_against_dense_reference(lift, np.random.default_rng(3), 0.3)


@given(seed=st.integers(min_value=0, max_value=2**31), d=st.sampled_from([1, 2, 3]),
       h=st.integers(min_value=1, max_value=3), m=st.integers(min_value=1, max_value=7),
       rule=st.sampled_from(["szego", "drury_arveson", "dirichlet_t", "bergman"]),
       param=st.floats(min_value=0.0, max_value=2.0))
@settings(max_examples=60, deadline=None)
def test_batch_matches_pointwise_reference(seed, d, h, m, rule, param):
    # one evaluation of a stack of m points against the point-by-point loop,
    # row by row; Bergman kernels are not CNP, so they run the calculus only
    rng = np.random.default_rng(seed)
    n = DIFF_DEGREE[d]
    table = cl.build_table(diff_kernel(rule, d, param), n + 1)
    p = P(n, tol=DIFF_TOL)
    t = random_commuting_tuple(rng, d, h, 0.35)
    zs = np.array([random_point(rng, d, 0.95) for _ in range(m)])
    calc = cl.kernel_calculus(t, table, zs, p)
    for i, z in enumerate(zs):
        want = pointwise_calculus(t, table, z, p)
        # the inverse residual is itself a rounding-level number, so it is
        # compared relative to the series it is the residual of
        scale = np.linalg.norm(want.matrix, 2)
        assert np.linalg.norm(calc.matrix[i] - want.matrix, 2) <= 1e-12 * scale
        assert abs(calc.tail_term[i] - want.tail_term) <= 1e-12 * want.tail_term
        assert abs(calc.inverse_residual[i] - want.inverse_residual) <= 1e-12 * scale
    if rule == "bergman":
        return
    lift = lift_of(t, table, p)
    ev = cl.charfn_eval(lift, zs)
    assert np.array_equal(ev.z, zs)
    assert ev.theta.shape == (m, lift.dilation.defect_data.rank, lift.t_tilde_e.shape[1])
    dense = dense_lift(lift.dilation)
    for i, z in enumerate(zs):
        # against the dense theta on all inputs: equal on theta's columns, 0 off them
        want = pointwise_charfn_eval(dense, z)
        scale = np.linalg.norm(want.theta, 2)
        assert np.linalg.norm(padded_theta(lift, ev.theta[i]) - want.theta, 2) <= 1e-12 * scale
        assert abs(ev.norm[i] - want.norm) <= 1e-12 * want.norm
        assert abs(ev.z_norm_sq[i] - want.z_norm_sq) <= 1e-12 * want.z_norm_sq


def overflowing_lift(lift):
    """The lift, of either kind, with its tuple and D~E scaled so that theta overflows at |z| = 0.5.

    With T = c and the tolerance raised to 1e305, s_z(T) stays finite up to
    |z c| = 10^14.5 at degree 20; D~E scaled by 1e19 then carries theta past
    the largest double at z = 0.5, while it stays finite at z = 0 and 1e-15.
    """
    v = lift.dilation._replace(ops=cl.OperatorTuple.from_scalars(6.3e14), params=P(20, tol=1e305))
    return lift._replace(dilation=v, d_tilde_e=lift.d_tilde_e * 1e19)


def test_one_bad_point_fails_the_batch_as_it_fails_alone():
    table = cl.build_table(cl.szego(), 90)
    p = P(20)
    t = cl.OperatorTuple.from_scalars(0.5)
    lift = lift_of(t, table, p)
    dense = dense_lift(lift.dilation)
    good = [[0.1], [0.2j]]
    # outside the ball
    with pytest.raises(cl.DomainError):
        pointwise_charfn_eval(dense, [1.2])
    with pytest.raises(cl.DomainError, match=r"z\[1\]"):
        cl.charfn_eval(lift, [good[0], [1.2], good[1]])
    with pytest.raises(cl.DomainError, match=r"w\[1\]"):
        cl.kernel_calculus(t, table, [good[0], [1.2], good[1]], p)
    # the series tail at z = 0.9 is 0.45^20 > tol: the evaluation returns it, and the
    # check names the point
    for z in good:
        pointwise_charfn_eval(dense, z)
    with pytest.raises(cl.NonConvergedError):
        pointwise_charfn_eval(dense, [0.9])
    ev = cl.charfn_eval(lift, good + [[0.9]])
    assert np.array_equal(ev.tail_term > p.tol, [False, False, True])
    with pytest.raises(cl.NonConvergedError, match="at point 2 "):
        cl.check_eval(ev, p)
    # the first point over tol is named
    pts = [good[0], [0.9], [0.95j]]
    assert np.array_equal(cl.kernel_calculus(t, table, pts, p).tail_term > p.tol,
                          [False, True, True])
    with pytest.raises(cl.NonConvergedError, match="at point 1 "):
        cl.check_eval(cl.charfn_eval(lift, pts), p)
    # a non-finite theta
    big, big_dense = overflowing_lift(lift), overflowing_lift(dense)
    with np.errstate(over="ignore", invalid="ignore"):
        for z in ([0.0], [1e-15]):
            assert np.isfinite(pointwise_charfn_eval(big_dense, z).theta).all()
        with pytest.raises(np.linalg.LinAlgError):
            pointwise_charfn_eval(big_dense, [0.5])
        ev = cl.charfn_eval(big, [[0.0], [0.5], [1e-15]])
        assert np.array_equal(np.isfinite(ev.theta).all(axis=(1, 2)), [True, False, True])
        with pytest.raises(np.linalg.LinAlgError, match="^theta has non-finite entries at point 1"):
            cl.check_eval(ev, big.dilation.params)
    # a length-d vector is not a stack of points
    with pytest.raises(ValueError, match="shape"):
        cl.charfn_eval(lift, [0.3])
    with pytest.raises(ValueError, match="shape"):
        cl.kernel_calculus(t, table, [0.3], p)
    with pytest.raises(ValueError, match="do not pair up"):
        cl.verify_defect_identity(lift, cl.charfn_eval(lift, good), cl.charfn_eval(lift, good[:1]))


def test_an_unchecked_evaluation_leaves_every_check_to_check_eval():
    # an evaluation checks no point but its place in the ball; check_eval names the bad one
    table = cl.build_table(cl.szego(), 90)
    p = P(20)
    lift = lift_of(cl.OperatorTuple.from_scalars(0.5), table, p)
    pts = [[0.1], [0.9], [0.2j]]
    ev = cl.charfn_eval(lift, pts)
    with pytest.raises(cl.NonConvergedError, match="at point 1 ") as checked:
        cl.check_eval(ev, p)
    with pytest.raises(cl.NonConvergedError, match="at point 0 ") as alone:
        cl.check_eval(cl.charfn_eval(lift, pts[1:2]), p)
    assert str(checked.value) == str(alone.value).replace("point 0", "point 1")
    # the good rows are the bits of their own evaluation
    good = cl.check_eval(ev._make(f[[0, 2]] for f in ev), p)
    want = cl.charfn_eval(lift, [pts[0], pts[2]])
    assert all(np.array_equal(x, y) for x, y in zip(good, want, strict=True))
    # a series past the largest double at z = 0.9, (0.9e20)^20 > 1e308: a NaN tail in the
    # evaluation, opnorm's error in the check
    big = lift._replace(dilation=lift.dilation._replace(ops=cl.OperatorTuple.from_scalars(1e20),
                                                        params=P(20, tol=1e305)))
    with np.errstate(over="ignore", invalid="ignore"):
        ev = cl.charfn_eval(big, [[0.0], [0.9]])
        assert np.isfinite(ev.tail_term[0]) and np.isnan(ev.tail_term[1])
        with pytest.raises(np.linalg.LinAlgError, match="spectral norm") as checked:
            cl.check_eval(ev, big.dilation.params)
        with pytest.raises(np.linalg.LinAlgError) as alone:
            cl.check_eval(cl.charfn_eval(big, [[0.9]]), big.dilation.params)
        assert str(checked.value) == str(alone.value) == NON_FINITE_NORM


def test_inverse_residual_is_the_calculus_one(charfn_examples):
    for ex in charfn_examples:
        lift = lift_of(ex.ops, ex.table(), ex.p)
        v = lift.dilation
        zs = cl.ball_points(ex.kernel.d, 5, seed=61)
        want = cl.kernel_calculus(v.ops, v.table, zs, v.params).inverse_residual
        assert np.array_equal(cl.charfn_eval(lift, zs).inverse_residual, want), ex.name


@given(seed=st.integers(min_value=0, max_value=2**31), d=st.sampled_from([1, 2]),
       h=st.integers(min_value=1, max_value=3),
       rule=st.sampled_from(["szego", "drury_arveson", "dirichlet_t"]),
       param=st.floats(min_value=0.0, max_value=2.0))
@settings(max_examples=25, deadline=None)
def test_model_gap_matches_dense_reference(seed, d, h, rule, param):
    # the reference forms M_theta densely; verify_model takes the gap through
    # the inverse map and reads the norm of R from its compression.  The gap
    # need not be small here, as the truncation is not under test, but both
    # sides must agree on it.
    rng = np.random.default_rng(seed)
    n = DIFF_DEGREE[d]
    table = cl.build_table(diff_kernel(rule, d, param), n + 1)
    lift = lift_of(random_commuting_tuple(rng, d, h, 0.35), table, P(n, tol=DIFF_TOL))
    v = lift.dilation
    want = dense_model_gap(dense_lift(v))
    scale = max(1.0, np.linalg.norm(np.eye(v.big_dim) - v.matrix @ v.matrix.conj().T, 2))
    assert np.linalg.norm(model_gap(lift) - want, 2) <= 1e-12 * scale
    r = np.linalg.norm(b_inverse_gap(v, want), 2)
    assert abs(cl.verify_model(lift).factor_residual - r) <= 1e-12 * scale


MODEL_GATE = 1e-7  # cli.GATES["model"]


@given(seed=st.integers(min_value=0, max_value=2**31), d=st.sampled_from([1, 2, 3]),
       h=st.sampled_from([1, 2]),
       kernel=st.sampled_from(["szego", "drury_arveson", "finite_b", "dirichlet_t"]))
@settings(max_examples=40, deadline=None)
def test_model_factorization_decides_as_the_dense_gap(seed, d, h, kernel):
    # |R| from the compression to the span of the scaled Taylor stack and the
    # cond2 gap's columns, against R carried densely through the inverse map
    # from the dense gap; both pass the gate together, and a mutated theta
    # fails both.  dirichlet_t has b_k != 0 at every degree, so there the span
    # is the whole space
    rng = np.random.default_rng(seed)
    n = DIFF_DEGREE[d]
    spec = {
        "szego": lambda: cl.KernelSpec(d=d, rule="szego"),
        "drury_arveson": lambda: cl.drury_arveson(d),
        "finite_b": lambda: finite_b_kernel(rng, d, n + 1, cnp=True),
        "dirichlet_t": lambda: cl.dirichlet_t(rng.uniform(0.0, 2.0), d=d),
    }[kernel]()
    lift = lift_of(random_commuting_tuple(rng, d, h, 0.35), cl.build_table(spec, n + 1),
                   P(n, tol=DIFF_TOL))
    v = lift.dilation
    scale = max(1.0, np.linalg.norm(np.eye(v.big_dim) - v.matrix @ v.matrix.conj().T, 2))
    for mutated in (False, True):
        if mutated:
            lift = lift._replace(d_tilde_e=1.01 * lift.d_tilde_e)
        gap = model_gap(lift)
        got = cl.verify_model(lift).factor_residual
        assert abs(got - np.linalg.norm(b_inverse_gap(v, gap), 2)) <= 1e-12 * scale
        assert (got <= MODEL_GATE) == (np.linalg.norm(gap, 2) <= MODEL_GATE) == (not mutated)


def check_model_against_looped_references(lift):
    """The placed Taylor stack and the Horner-summed gap of the support-block lift
    against the per-gamma and per-column loops on the full-width lift, relative
    to the size of I - V V^*; off theta's inputs the looped blocks vanish."""
    v = lift.dilation
    dense = dense_lift(v)
    want = looped_taylor_blocks(dense)
    tol = 1e-12 * max(1.0, np.max(np.abs(want)))
    cols = theta_cols(lift)
    assert np.max(np.abs(span_taylor_blocks(lift) - want[..., cols])) <= tol
    assert np.max(np.abs(np.delete(want, cols, axis=2)), initial=0.0) <= tol
    scale = max(1.0, np.linalg.norm(np.eye(v.big_dim) - v.matrix @ v.matrix.conj().T, 2))
    assert np.linalg.norm(model_gap(lift) - looped_model_gap(dense), 2) <= 1e-12 * scale
    r = np.linalg.norm(b_inverse_gap(v, looped_model_gap(dense)), 2)
    assert abs(cl.verify_model(lift).factor_residual - r) <= 1e-12 * scale


@given(seed=st.integers(min_value=0, max_value=2**31), d=st.sampled_from([1, 2, 3]),
       h=st.integers(min_value=1, max_value=3),
       rule=st.sampled_from(["szego", "drury_arveson", "dirichlet_t", "finite_b"]),
       param=st.floats(min_value=0.0, max_value=2.0))
@settings(max_examples=30, deadline=None)
def test_taylor_stack_and_gap_match_looped_references(seed, d, h, rule, param):
    # a finite-b kernel can have b_2 or b_3 = 0: a support that skips a degree
    rng = np.random.default_rng(seed)
    n = DIFF_DEGREE[d]
    spec = (finite_b_kernel(rng, d, n + 1, cnp=True) if rule == "finite_b"
            else diff_kernel(rule, d, param))
    table = cl.build_table(spec, n + 1)
    check_model_against_looped_references(
        lift_of(random_commuting_tuple(rng, d, h, 0.35), table, P(n, tol=DIFF_TOL)))


@pytest.mark.parametrize("spec, mats", [
    (cl.szego(), [np.diag([1.0, 0.3])]),
    (cl.drury_arveson(2), [np.diag([0.6, 0.3]), np.diag([0.8, 0.2])]),
])
def test_model_on_a_singular_defect_matches_looped_references(spec, mats):
    # Delta^2 = diag(0, *): the defect range is a proper subspace, so r < h
    table = cl.build_table(spec, 12)
    lift = lift_of(cl.OperatorTuple(tuple(mats)), table, P(10, tol=DIFF_TOL))
    assert lift.dilation.defect_data.rank == 1
    check_model_against_looped_references(lift)


def skip_degree_kernel(d, n):
    """1/k = 1 - 0.5<z, w> - 0.3<z, w>^3: a CNP kernel whose b skips degree 2.

    The table recomputes b from a by the float recursion, so degrees past 4
    carry rounding noise of either sign, about 1e-17.
    """
    a = [1.0]
    for k in range(1, n + 1):
        a.append(0.5 * a[k - 1] + (0.3 * a[k - 3] if k >= 3 else 0.0))
    return cl.custom_kernel(a, d=d)


SUPPORT_CASES = {
    # name: (kernel, tuple or (d, h) of a random one, sampling radius)
    "szego": (cl.szego(), (1, 3), 0.9),
    "drury-arveson d2": (cl.drury_arveson(2), (2, 3), 0.9),
    "drury-arveson d3": (cl.drury_arveson(3), (3, 2), 0.9),
    "dirichlet (full support)": (cl.dirichlet_t(1.0, d=2), (2, 2), 0.9),
    "skip degree 2": (skip_degree_kernel(2, DIFF_DEGREE[2] + 1), (2, 2), 0.9),
    "singular defect / szego": (cl.szego(), cl.OperatorTuple((np.diag([1.0, 0.3]),)), 0.3),
    "singular defect / drury-arveson d2": (
        cl.drury_arveson(2), cl.OperatorTuple((np.diag([0.6, 0.3]), np.diag([0.8, 0.2]))), 0.5),
}


@pytest.mark.parametrize("name", list(SUPPORT_CASES))
def test_support_lift_matches_dense_lift(name):
    # the lift is built on the blocks with b_alpha > 0; theta, its Taylor
    # stack, the model gap and the lift residuals must be those of the
    # full-width lift, with theta exactly 0 on the inputs off the support
    spec, tup, radius = SUPPORT_CASES[name]
    rng = np.random.default_rng(sum(map(ord, name)))
    t = tup if isinstance(tup, cl.OperatorTuple) else random_commuting_tuple(rng, *tup, 0.35)
    n = DIFF_DEGREE[t.d]
    lift = lift_of(t, cl.build_table(spec, n + 1), P(n, tol=DIFF_TOL))
    v = lift.dilation
    degrees = lift.support_exponents.sum(axis=1)
    assert np.array_equal(lift.support, np.flatnonzero(lift.sqrt_b))
    assert np.array_equal(lift.support_exponents, np.array(v.indices[1:])[lift.support])
    if spec.rule == "custom":
        assert {1, 3} <= set(degrees) and 2 not in degrees
    elif spec.rule == "dirichlet_t":
        assert len(lift.support) == len(v.indices) - 1
    else:
        assert set(degrees) == {1}
    if name.startswith("singular"):
        assert v.defect_data.rank < t.h and lift.defect_rank < lift.t_tilde.shape[1]
    check_lift_against_dense_reference(lift, rng, radius)

    dense, wide, cols = dense_lift(v), wide_lift(lift), theta_cols(lift)
    zs = np.array([random_point(rng, t.d, radius) for _ in range(5)])
    ev = cl.charfn_eval(lift, zs)
    assert ev.theta.shape == (len(zs), v.defect_data.rank, lift.t_tilde_e.shape[1])
    for i, z in enumerate(zs):
        # the support-block lift written out at full width gives exact zeros off theta's columns
        on_wide = pointwise_charfn_eval(wide, z).theta
        assert np.all(np.delete(on_wide, cols, axis=1) == 0.0)
        want = pointwise_charfn_eval(dense, z)
        tol = 1e-12 * max(1.0, np.max(np.abs(want.theta)))
        assert np.max(np.abs(ev.theta[i] - on_wide[:, cols])) <= tol
        assert np.max(np.abs(padded_theta(lift, ev.theta[i]) - want.theta)) <= tol
        assert abs(ev.norm[i] - np.linalg.norm(want.theta, 2)) <= 1e-12
    check_model_against_looped_references(lift)


def support_case_lift(name):
    """The lift of SUPPORT_CASES[name], built as test_support_lift_matches_dense_lift does."""
    spec, tup, _ = SUPPORT_CASES[name]
    rng = np.random.default_rng(sum(map(ord, name)))
    t = tup if isinstance(tup, cl.OperatorTuple) else random_commuting_tuple(rng, *tup, 0.35)
    n = DIFF_DEGREE[t.d]
    return lift_of(t, cl.build_table(spec, n + 1), P(n, tol=DIFF_TOL))


@pytest.mark.parametrize("name", list(SUPPORT_CASES))
def test_span_coefficients_give_the_gathered_taylor_stack(name):
    # W = C K on the span's columns is the stack that the gathers of V and the
    # placed product with D~E give, to rounding
    lift = support_case_lift(name)
    want = gathered_taylor_blocks(lift)
    assert span_taylor_blocks(lift).shape == want.shape
    assert np.max(np.abs(span_taylor_blocks(lift) - want)) <= 1e-14 * max(1.0, np.abs(want).max())


def dense_factor_residual(lift):
    """(|R| from M_theta formed densely, the size of I - V V^* it is measured against)."""
    v = lift.dilation
    scale = max(1.0, np.linalg.norm(np.eye(v.big_dim) - v.matrix @ v.matrix.conj().T, 2))
    return np.linalg.norm(b_inverse_gap(v, dense_model_gap(dense_lift(v))), 2), scale


def test_model_factorization_where_the_gathers_outnumber_the_support():
    # b carries rounding noise of both signs past degree 4: the span gathers at
    # every b_alpha != 0, the lift only at b_alpha > 0, so K places the support's
    # blocks by graded position among more gathers than it fills
    lift = support_case_lift("skip degree 2")
    v = lift.dilation
    assert len(v.span.positions) > len(lift.support)
    assert set(lift.support + 1) <= set(v.span.positions)
    r, scale = dense_factor_residual(lift)
    assert abs(cl.verify_model(lift).factor_residual - r) <= 1e-12 * scale


def test_model_factorization_on_a_rank_deficient_v():
    # T = diag(1, 0.3) has Delta e_1 = 0, so V e_1 = 0 and R_11 is singular: the
    # model factorization reads R without inverting R_11, and the existence test
    # stops at purity before the associated defect would need R_11^-1
    lift = support_case_lift("singular defect / szego")
    v = lift.dilation
    h = v.ops.h
    assert np.linalg.svd(v.span.r[:h, :h], compute_uv=False)[-1] <= 1e-14
    r, scale = dense_factor_residual(lift)
    assert abs(cl.verify_model(lift).factor_residual - r) <= 1e-12 * scale
    with pytest.raises(cl.PrerequisiteError, match="pure"):
        cl.admits_charfn(v, cl.is_pure(v.defect_data))
    # Q_1 need not span Ran V there: the associated tuple refuses, as |V^*V - I| = 1
    with pytest.raises(cl.DegenerateDilationError, match="injective"):
        cl.associated_tuple(v)


# Delta^2 = I - T T^* has eigenvalues 4.97e-11 and 0.3439: the smaller lies above the
# rank threshold of `defect` (1e-10 * 0.3439), while 1 - S^2 of the lifted row lies below
# 1e-10 of the largest eigenvalue 1 of I - T~^*T~.  It is the tuple of
# configs/szego_jordan_pair.json
JORDAN_PAIR = cl.OperatorTuple((np.array([[0.9, 0.19 - 4.5e-11], [0.0, 0.9]]),))


WIDTH_CASES = {
    # name: (kernel, tuple or (d, h) of a random one, N, theta's columns, defect_rank)
    "drury-arveson d2": (cl.drury_arveson(2), (2, 3), 8, 6, 3 * 44),
    "szego scalar": (cl.szego(), cl.OperatorTuple.from_scalars(0.5), 20, 1, 20),
    "dirichlet scalar (full support)": (
        cl.dirichlet_t(1.0), cl.OperatorTuple.from_scalars(0.5), 20, 20, 20),
    # h |S| - n_drop = 2 - 1 of 2 * 20 - 1 inputs
    "singular defect / szego": (cl.szego(), cl.OperatorTuple((np.diag([1.0, 0.3]),)), 20, 1, 39),
    # Delta^2 has an eigenvalue of 5e-11, so rank Delta = 2 and nothing drops
    "small defect eigenvalue / szego": (cl.szego(), JORDAN_PAIR, 200, 2, 400),
}


@pytest.mark.parametrize("name", list(WIDTH_CASES))
def test_theta_has_the_width_of_its_columns(name):
    spec, tup, n, columns, defect_rank = WIDTH_CASES[name]
    t = tup if isinstance(tup, cl.OperatorTuple) else random_commuting_tuple(
        np.random.default_rng(5), *tup, 0.35)
    lift = lift_of(t, cl.build_table(spec, n + 1), P(n, tol=DIFF_TOL))
    ev = cl.charfn_eval(lift, cl.ball_points(t.d, 3, seed=7, radius=0.3))
    assert ev.theta.shape == (3, lift.dilation.defect_data.rank, columns)
    assert lift.t_tilde_e.shape[1] == lift.d_tilde_e.shape[1] == columns
    assert span_taylor_blocks(lift).shape == (len(lift.dilation.indices),
                                          lift.dilation.defect_data.rank, columns)
    assert lift.defect_rank == defect_rank
    assert len(theta_cols(lift)) == columns and theta_cols(lift).max() < defect_rank


def test_lift_keeps_the_rank_of_a_small_defect_eigenvalue():
    # the lift drops h - rank Delta = 0 directions, though one 1 - S^2 of its
    # row is 5e-11; the kernel series at T converges slowly, so theta is
    # sampled near 0.  The square root at 5e-11 turns eps into about 1.6e-11
    lift = lift_of(JORDAN_PAIR, cl.build_table(cl.szego(), 201), P(200, tol=DIFF_TOL))
    assert lift.dilation.defect_data.rank == 2 and lift.t_tilde_e.shape[1] == 2
    check_lift_against_dense_reference(lift, np.random.default_rng(3), 0.3, root_tol=1e-10)


# ---------------------------------------------------------------------------
# sample points
# ---------------------------------------------------------------------------

def test_ball_points_keep_their_stream():
    want = [[0.015488889840942741 - 0.17851493149820408j, -0.02059734990993312 + 0.6464874492630631j],
            [0.04754674087332091 - 0.19154808351370362j, 0.21799770860180362 + 0.14587863064825543j],
            [0.04394900654418359 - 0.5684664971222974j, 0.3193985093059595 + 0.004226758862670762j]]
    np.testing.assert_allclose(cl.ball_points(2, 3, seed=1), want, rtol=1e-12, atol=0)


def test_ball_points_are_uniform_in_the_ball():
    # |z|^(2d) of a uniform point of the radius-r ball in C^d is r^(2d) times a uniform variable
    radius, d = 0.8, 2
    sq = np.sum(np.abs(cl.ball_points(d, 10 ** 4, seed=3, radius=radius)) ** 2, axis=1)
    assert sq.max() < radius ** 2
    assert abs(np.mean(sq ** d) / radius ** (2 * d) - 0.5) < 5 * np.sqrt(1 / 12 / 10 ** 4)


def test_ball_points_seed_is_a_nonnegative_integer():
    with pytest.raises(ValueError, match="non-negative"):
        cl.ball_points(2, 3, seed=-1)
    with pytest.raises(TypeError):
        cl.ball_points(2, 3, seed=1.0)
    assert np.array_equal(cl.ball_points(2, 3, seed=np.int64(5)), cl.ball_points(2, 3, seed=5))
