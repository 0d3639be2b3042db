"""Explicit characteristic function for contractive tuples under CNP kernels.

The construction lifts the tuple to a single row contraction indexed by
positive multi-indices, takes its defect, and composes with the inverse of
the kernel series at the tuple.  Everything is evaluated at a finite
truncation degree with the inversion done through the kernel's own
reciprocal-series identity rather than a matrix solve, and each identity the
construction satisfies is available as a residual.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np

from ._linalg import RANK_REL_TOL, hermitian_norm, hermitize, opnorm
from .coeffs import (CoeffTable, KernelValue, as_points, graded_count, graded_position, in_ball,
                     inner_products, is_cnp, kernel_eval, multi_coeff, scalar_series)
from .errors import DomainError, NonConvergedError, NotCnpError
from .model import DilationMap
from .tuples import OperatorTuple, TruncationParams, _sigma


# ---------------------------------------------------------------------------
# Kernel functional calculus
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class CalculusResult:
    """Truncated kernel series sum_alpha a_alpha conj(w^alpha) T^alpha, stacked over points w.

    inverse_residual measures how well the b-weighted series inverts it,
    which is the identity the characteristic function relies on.
    """

    matrix: np.ndarray
    tail_term: np.ndarray
    inverse_residual: np.ndarray


def _monomials(ws: np.ndarray, indices) -> np.ndarray:
    """w^alpha for every point w of the stack (rows) and multi-index alpha in indices (columns)."""
    return np.prod(np.power(ws[:, None, :], np.asarray(indices)), axis=2)


def kernel_calculus(t: OperatorTuple, table: CoeffTable, ws, p: TruncationParams) -> CalculusResult:
    """Evaluate the kernel series at the tuple for every point w of the stack ws.

    The tuple commutes, so by the multinomial theorem the degree-k layer
    sum_{|alpha|=k} a_alpha conj(w^alpha) T^alpha is a_k A_w^k with
    A_w = sum_i conj(w_i) T_i: both series cost one product of A_w stacks
    per degree.  The points must lie strictly inside the ball.  The norm of
    the highest-degree layer a_N A_w^N is the tail diagnostic; a tail above
    tol at any point flags the sum as non-converged.
    """
    ws = in_ball(ws, t.d, "w")
    a = table.require_a(p.N)
    b = table.require_b(p.N)
    eye = np.eye(t.h, dtype=complex)
    a_w = sum(np.conj(ws[:, i, None, None]) * ti for i, ti in enumerate(t.mats))
    total = np.broadcast_to(eye, a_w.shape).copy()
    binv = total.copy()
    power = eye
    for k in range(1, p.N + 1):
        power = power @ a_w
        total += a[k] * power
        binv -= b[k] * power
    tail = opnorm(a[p.N] * power)
    inverse_residual = opnorm(binv @ total - eye)
    bad = np.flatnonzero(tail > p.tol)
    if len(bad):
        raise NonConvergedError(f"kernel series tail {tail[bad[0]]:.3e} at point {bad[0]} "
                                f"exceeds tol {p.tol:.1e} at degree {p.N}")
    return CalculusResult(matrix=total, tail_term=tail, inverse_residual=inverse_residual)


# ---------------------------------------------------------------------------
# The lifted row contraction and its defect
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class TupleLift:
    """Row contraction with blocks sqrt(b_alpha) T^alpha over positive indices.

    Built on the dilation it factors: the tuple, its defect Delta, the
    graded basis (whose positive part indexes the blocks), the coefficient
    table and the truncation all come from `dilation`.  t_tilde maps the
    direct sum of one copy of C^h per positive multi-index back to C^h.
    d_tilde_basis E is an orthonormal basis of the numerical range of D~,
    the positive square root of I - t_tilde^* t_tilde on the direct sum;
    t_tilde_e and d_tilde_e are T~E and D~E, the only form in which theta
    uses them, and D~ itself is never formed.  Requires every b_alpha >= 0,
    i.e. a CNP-consistent kernel, for the square roots to exist.
    """

    dilation: DilationMap
    t_tilde: np.ndarray
    d_tilde_basis: np.ndarray
    t_tilde_e: np.ndarray
    d_tilde_e: np.ndarray
    sqrt_b: np.ndarray
    ttstar_residual: float
    intertwine_residual: float
    contractive: bool

    @property
    def defect_rank(self) -> int:
        return self.d_tilde_basis.shape[1]


def build_lift(v: DilationMap) -> TupleLift:
    """Assemble the lifted row operator of the tuple that v embeds.

    Reuses the defect and the powers T^alpha that v was built from.  The row
    has rank <= h, so with its thin SVD T~ = U S W^* the defect is
    D~ = I - W (I - sqrt(I - S^2)) W^*.  E spans the complement of the
    columns of W whose eigenvalue 1 - S^2 is at most RANK_REL_TOL times the
    largest eigenvalue of I - T~^*T~, so E = I when Delta is invertible.
    Checks the two structural identities along the way: the row times its
    adjoint reproduces I minus the squared defect of the tuple, and the row
    intertwines the two defect square roots on E.
    """
    table, p = v.table, v.params
    cnp = is_cnp(table, p.N, tol_zero=p.tol)
    if not cnp.consistent:
        raise NotCnpError(f"b_{cnp.first_failure} = {cnp.value:.6g} < 0: square roots of the "
                          "inverted coefficients do not exist")
    sqrt_b = np.sqrt(np.maximum(multi_coeff(table, v.indices[1:], "b"), 0.0))
    t_tilde = np.hstack(sqrt_b[:, None, None] * v.powers.stack[1:])

    dd = v.defect_data
    ttstar_res = opnorm(t_tilde @ t_tilde.conj().T - (np.eye(v.ops.h, dtype=complex) - dd.delta_sq))

    _, s, w_star = np.linalg.svd(t_tilde, full_matrices=False)
    eigs = 1.0 - s ** 2
    all_eigs = np.append(eigs, np.ones(t_tilde.shape[1] - len(s)))
    drop = eigs <= RANK_REL_TOL * all_eigs.max()
    q, _ = np.linalg.qr(w_star[drop].conj().T, mode="complete")  # I when nothing drops
    basis = q[:, np.count_nonzero(drop):]
    shrink = w_star.conj().T * (1.0 - np.sqrt(np.clip(eigs, 0.0, None)))
    d_tilde_e = basis - shrink @ (w_star @ basis)
    t_tilde_e = t_tilde @ basis
    return TupleLift(
        dilation=v,
        t_tilde=t_tilde,
        d_tilde_basis=basis,
        t_tilde_e=t_tilde_e,
        d_tilde_e=d_tilde_e,
        sqrt_b=sqrt_b,
        ttstar_residual=ttstar_res,
        intertwine_residual=opnorm(t_tilde @ d_tilde_e - dd.delta @ t_tilde_e),
        contractive=bool(all_eigs.min() >= -p.tol),
    )


# ---------------------------------------------------------------------------
# Evaluating the characteristic function
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class CharFnEval:
    """The characteristic function at a stack of points, every field stacked along axis 0.

    theta maps defect-range coordinates of the lift to defect-range
    coordinates of the tuple; its norm is taken, by one batched SVD, only
    when read.  z_norm_sq is the squared norm of the scalar
    row Z(z), which stays strictly below 1 inside the ball.  s_z is the
    kernel series at the tuple, s_z(T), that theta was built from.
    """

    z: np.ndarray
    theta: np.ndarray
    inverse_residual: np.ndarray
    z_norm_sq: np.ndarray
    s_z: np.ndarray

    @cached_property
    def norm(self) -> np.ndarray:
        return opnorm(self.theta)


def charfn_eval(lift: TupleLift, zs) -> CharFnEval:
    """theta(z) = (-t_tilde + Delta s_z(T)^* Z(z) D) on the defect ranges, at each point z of zs.

    Z(z) is the row of scalar blocks sqrt(b_alpha) z^alpha I, applied as a
    weighted sum over block rows.  The inverse (I - Z t_tilde^*)^{-1} is the
    adjoint kernel series at the tuple, and kernel_calculus reports the
    residual of that identity, which must stay below tol; a non-finite theta raises LinAlgError.
    """
    v = lift.dilation
    t, p = v.ops, v.params
    zs = in_ball(zs, t.d, "z")
    weights = lift.sqrt_b * _monomials(zs, v.indices[1:])
    z_norm_sq = np.sum(np.abs(weights) ** 2, axis=1)
    bad = np.flatnonzero(z_norm_sq >= 1.0)
    if len(bad):
        raise DomainError(f"point {bad[0]}: |Z(z)|^2 = {z_norm_sq[bad[0]]}, not a strict contraction")

    calc = kernel_calculus(t, v.table, zs, p)
    bad = np.flatnonzero(calc.inverse_residual > p.tol)
    if len(bad):
        raise NonConvergedError(f"reciprocal-series inverse residual "
                                f"{calc.inverse_residual[bad[0]]:.3e} at point {bad[0]} "
                                f"exceeds tol {p.tol:.1e}")
    dd = v.defect_data
    z_d = (weights @ lift.d_tilde_e.reshape(len(v.indices) - 1, t.h * lift.defect_rank)
           ).reshape(len(zs), t.h, lift.defect_rank)
    row = dd.delta @ calc.matrix.conj().swapaxes(1, 2) @ z_d
    theta = dd.ran_delta_basis.conj().T @ (row - lift.t_tilde_e)
    bad = np.flatnonzero(~np.isfinite(theta).all(axis=(1, 2)))
    if len(bad):
        raise np.linalg.LinAlgError(f"theta has non-finite entries at point {bad[0]}")
    return CharFnEval(z=zs, theta=theta, inverse_residual=calc.inverse_residual,
                      z_norm_sq=z_norm_sq, s_z=calc.matrix)


# ---------------------------------------------------------------------------
# Identity checks
# ---------------------------------------------------------------------------

def reciprocal_kernel(table: CoeffTable, zs, ws, n: int) -> KernelValue:
    """1 / s(z, w) as the reciprocal series 1 - sum b_alpha z^alpha conj(w^alpha), by row pair.

    Truncating the b-series keeps the value consistent with the operator
    computations at the same degree; for kernels with a finite b-sequence it
    is exact.  The magnitude of the last retained term is the tail.
    """
    x = inner_products(as_points(zs, table.d), as_points(ws, table.d))
    return scalar_series(np.concatenate(([1.0], -table.require_b(n)[1:n + 1])), x, n)


def verify_defect_identity(lift: TupleLift, zs, ws) -> np.ndarray:
    """Residuals of I - theta(z) theta(w)^* = Delta s_z(T)^* s_w(T) Delta / s(z, w) by row pair.

    Both sides are compressed to the defect range and evaluated at the same
    truncation degree; 1/s(z, w) goes through the reciprocal series so no
    scalar division fights the operator truncation.
    """
    v = lift.dilation
    dd = v.defect_data
    ez, ew = charfn_eval(lift, zs), charfn_eval(lift, ws)
    recip = reciprocal_kernel(v.table, ez.z, ew.z, v.N).value
    lhs = np.eye(dd.rank, dtype=complex) - ez.theta @ ew.theta.conj().swapaxes(1, 2)
    mid = dd.delta @ ez.s_z.conj().swapaxes(1, 2) @ ew.s_z @ dd.delta
    rhs = recip[:, None, None] * (dd.ran_delta_basis.conj().T @ mid @ dd.ran_delta_basis)
    return opnorm(lhs - rhs)


@dataclass(frozen=True)
class MultiplierReport:
    """Sampled evidence that theta is a contractive multiplier.

    gram_min_eig is the smallest eigenvalue of the block matrix
    [s(z_i, z_j)(I - theta(z_i) theta(z_j)^*)]; vv_identity_residual compares
    inner products of adjoint-embedded kernel functions against the same
    expression.
    """

    gram_min_eig: float
    vv_identity_residual: float


def verify_multiplier(lift: TupleLift, points) -> MultiplierReport:
    """Gram positivity of theta and the inner products of V^*-embedded kernel functions."""
    v = lift.dilation
    pts = as_points(points, v.ops.d)
    n_pts, r = len(pts), v.codomain_dims[1]
    if n_pts < 2:
        raise ValueError("need at least 2 sample points")
    theta = charfn_eval(lift, pts).theta

    # V^* applied to each kernel function, expanded in the truncated
    # orthonormal basis: one h x r block per point
    kernel_fns = np.sqrt(v.shifts.a_alpha) * np.conj(_monomials(pts, v.indices))
    vstar = v.matrix.conj().T.reshape(v.ops.h, len(v.indices), r)
    embedded = np.tensordot(kernel_fns, vstar, axes=([1], [1]))

    # block (i, j) pairs z_i with w = z_j.  Scalar kernel values use the full
    # cached table: the scalar series is cheap, and a short truncation would
    # only measure its own tail
    s = kernel_eval(v.table, np.repeat(pts, n_pts, axis=0), np.tile(pts, (n_pts, 1)),
                    v.table.n_max).value.reshape(n_pts, n_pts, 1, 1)
    blocks = s * (np.eye(r, dtype=complex) - theta[:, None] @ theta.conj().swapaxes(1, 2))
    lhs = embedded.conj().swapaxes(1, 2)[:, None] @ embedded
    worst = float(np.max(np.abs(lhs - blocks), initial=0.0))
    gram = blocks.transpose(0, 2, 1, 3).reshape(n_pts * r, n_pts * r)
    gram_min = float(np.linalg.eigvalsh(hermitize(gram))[0])
    return MultiplierReport(gram_min_eig=gram_min, vv_identity_residual=worst)


# ---------------------------------------------------------------------------
# Functional-model verification
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class ModelReport:
    """Residuals of the functional-model identities on the truncated space.

    compression_residual: recovering each T_i by compressing the tensored
    shifts through the embedding.  factor_residual: I - V V^* against the
    multiplication operator of theta times its adjoint, summed from the
    exact Taylor blocks of theta.
    """

    compression_residual: float
    factor_residual: float


def _taylor_blocks(lift: TupleLift) -> np.ndarray:
    """Taylor blocks of theta through total degree N, in closed form.

    Returns the (number of multi-indices, r, r_in) stack of the blocks in
    graded order.  With s_z(T)^* = sum_beta a_beta z^beta (T^beta)^* and
    Z(z) D~ E = sum_alpha sqrt(b_alpha) z^alpha (D~E)_alpha, where
    (D~E)_alpha is the block row of d_tilde_e at alpha, the coefficient of
    z^gamma is

        -C^* T~ E                                                 at gamma = 0,
        C^* Delta sum_{alpha <= gamma, |alpha| >= 1}
            a_{gamma-alpha} sqrt(b_alpha) (T^{gamma-alpha})^* (D~E)_alpha   otherwise,

    with C the defect-range basis of the tuple and E that of the lift.  Each
    term has |alpha|, |gamma - alpha| <= N, so these are exactly the
    coefficients of the degree-N theta that charfn_eval evaluates.  Block
    beta of the dilation is V_beta = sqrt(a_beta) C^* Delta (T^beta)^*, so the
    stack is one product P (D~E), P placing sqrt(b_alpha a_beta) V_beta at
    block (alpha + beta, alpha).  The beta with |beta| <= N - |alpha| lead the
    graded order.
    """
    v = lift.dilation
    idx = np.array(v.indices)
    n, d, h, r = len(idx), v.ops.d, v.ops.h, v.codomain_dims[1]
    counts = np.array([graded_count(d, v.N - k) for k in range(v.N + 1)])
    runs = counts[idx[1:].sum(axis=1)]
    alpha_pos = np.repeat(np.arange(1, n), runs)
    beta_pos = np.arange(runs.sum()) - np.repeat(np.cumsum(runs) - runs, runs)
    gamma_pos = graded_position(d, v.N, idx[alpha_pos] + idx[beta_pos])
    left = np.sqrt(v.shifts.a_alpha)[:, None, None] * v.matrix.reshape(n, r, h)
    place = np.zeros((n, r, n - 1, h), dtype=complex)
    place[gamma_pos, :, alpha_pos - 1] = lift.sqrt_b[alpha_pos - 1, None, None] * left[beta_pos]
    blocks = (place.reshape(n * r, -1) @ lift.d_tilde_e).reshape(n, r, lift.defect_rank)
    blocks[0] = -(v.defect_data.ran_delta_basis.conj().T @ lift.t_tilde_e)
    return blocks


def _model_gap(lift: TupleLift) -> np.ndarray:
    """(I - V V^*) - M_theta M_theta^* on the truncated model space.

    Column beta of M_theta is sum_delta sqrt(a_beta / a_{beta+delta})
    e(beta + delta) x Theta_delta, and S^beta e(delta) = sqrt(a_delta /
    a_{delta+beta}) e(delta + beta) for the tensored shifts S_i, so
    M_theta M_theta^* = sum_k a_k sigma^k(X), with X = D^{-1/2} G D^{-1/2},
    G = Theta Theta^* the Gram matrix of the Taylor stack, D = diag(a_delta) x I_r
    and sigma(Y) = sum_i S_i Y S_i^*.  Summed by Horner, H <- a_{N-j} X + sigma(H)
    from H = a_N X: sigma^k(X) reads X only on degrees <= N - k, so after step
    j, H lives on the leading block of degrees <= j, where sigma gathers it.
    """
    v = lift.dilation
    d, r = v.ops.d, v.codomain_dims[1]
    flat = _taylor_blocks(lift).reshape(v.big_dim, -1)
    scale = np.repeat(1.0 / np.sqrt(v.shifts.a_alpha), r)
    x = scale[:, None] * (flat @ flat.conj().T) * scale
    a = v.table.require_a(v.N)
    acc = a[v.N] * x[:r, :r]
    for j in range(1, v.N + 1):
        size = graded_count(d, j) * r
        acc = a[v.N - j] * x[:size, :size] + _sigma(v.tensored, acc, size)
    return np.eye(v.big_dim, dtype=complex) - v.matrix @ v.matrix.conj().T - acc


def verify_model(lift: TupleLift) -> ModelReport:
    """Check that the embedding carries the functional model back to the tuple.

    Verifies max_i |V^* (M_i x I) V - T_i| and the factorization of
    I - V V^* by the truncated multiplication operator of theta, summed
    from the exact Taylor blocks of theta through degree N: the column of
    theta at a positive multi-index alpha starts at z-degree |alpha|, so
    every degree up to N is needed.
    """
    v = lift.dilation
    comp_res = max(opnorm(v.matrix.conj().T @ v.tensored.apply(i, v.matrix) - v.ops.mats[i])
                   for i in range(v.ops.d))
    return ModelReport(compression_residual=comp_res,
                       factor_residual=hermitian_norm(_model_gap(lift)))


def eval_to_dict(ev: CharFnEval, i: int) -> dict:
    """Structured-text form of row i of an evaluation: point, re/im entries, norm, diagnostics."""
    return {
        "point": [[float(v.real), float(v.imag)] for v in ev.z[i]],
        "matrix": [[[float(v.real), float(v.imag)] for v in row] for row in ev.theta[i]],
        "norm": float(ev.norm[i]),
        "diagnostics": {
            "inverse_residual": float(ev.inverse_residual[i]),
            "z_norm_sq": float(ev.z_norm_sq[i]),
        },
    }


# ---------------------------------------------------------------------------
# Sampling helper
# ---------------------------------------------------------------------------

def ball_points(d: int, count: int, seed: int, radius: float = 0.8) -> np.ndarray:
    """Deterministic pseudo-random points in the ball of the given radius, as a (count, d) stack."""
    rng = np.random.default_rng(seed)
    pts = []
    for _ in range(count):
        v = rng.standard_normal(d) + 1j * rng.standard_normal(d)
        n = np.linalg.norm(v)
        if n == 0.0:
            v = np.ones(d, dtype=complex)
            n = np.linalg.norm(v)
        scale = radius * rng.random() ** (1.0 / (2 * d))
        pts.append(scale * v / n)
    return np.array(pts)
