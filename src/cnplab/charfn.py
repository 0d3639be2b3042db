"""Explicit characteristic function for contractive tuples under CNP kernels.

The construction lifts the tuple to a single row contraction indexed by
positive multi-indices, takes its defect, and composes with the inverse of
the kernel series at the tuple.  Everything is evaluated at a finite
truncation degree with the inversion done through the kernel's own
reciprocal-series identity rather than a matrix solve, and each identity the
construction satisfies is available as a residual.
"""

from __future__ import annotations

import operator
import random
from typing import NamedTuple

import numpy as np

from ._linalg import NON_FINITE_NORM, hermitize, opnorm
from .coeffs import (CoeffTable, KernelValue, as_points, in_ball, inner_products, is_cnp,
                     kernel_eval, multi_coeff, scalar_series)
from .errors import DomainError, NonConvergedError, NotCnpError
from .model import DilationMap, span_spectrum
from .tuples import OperatorTuple, TruncationParams


# ---------------------------------------------------------------------------
# Kernel functional calculus
# ---------------------------------------------------------------------------

class CalculusResult(NamedTuple):
    """Truncated kernel series sum_alpha a_alpha conj(w^alpha) T^alpha, stacked over points w.

    inverse_residual measures how well the b-weighted series inverts it,
    which is the identity the characteristic function relies on.
    """

    matrix: np.ndarray
    tail_term: np.ndarray
    inverse_residual: np.ndarray


def kernel_calculus(t: OperatorTuple, table: CoeffTable, ws, p: TruncationParams) -> CalculusResult:
    """Evaluate the kernel series at the tuple for every point w of the stack ws.

    The tuple commutes, so by the multinomial theorem the degree-k layer
    sum_{|alpha|=k} a_alpha conj(w^alpha) T^alpha is a_k A_w^k with
    A_w = sum_i conj(w_i) T_i: both series cost one product of A_w stacks
    per degree.  The points must lie strictly inside the ball.  The norm of
    the highest-degree layer a_N A_w^N is the tail diagnostic, NaN for a
    non-finite layer; whether it is within tol is decided by `check_eval`.
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
        if b[k]:  # b_k = 0 past degree 1 for Drury-Arveson and Szego
            binv -= b[k] * power
    return CalculusResult(matrix=total, tail_term=_stack_norms(a[p.N] * power),
                          inverse_residual=_stack_norms(binv @ total - eye))


def _stack_norms(stack: np.ndarray) -> np.ndarray:
    """opnorm of each matrix of the stack, NaN for one with a non-finite entry."""
    finite = np.isfinite(stack).all(axis=(1, 2))
    return np.where(finite, opnorm(np.where(finite[:, None, None], stack, 0.0)), np.nan)


# ---------------------------------------------------------------------------
# The lifted row contraction and its defect
# ---------------------------------------------------------------------------

class TupleLift(NamedTuple):
    """Row contraction with blocks sqrt(b_alpha) T^alpha over positive indices.

    Built on the dilation it factors: the tuple, its defect Delta, the graded
    basis (whose positive part indexes the blocks), the coefficient table and
    the truncation all come from `dilation`.  t_tilde maps the direct sum of one
    copy of C^h per positive multi-index back to C^h; only its blocks in
    `support` (b_alpha > 0, multi-indices `support_exponents`) are nonzero.  Off
    them D~ = (I - t_tilde^* t_tilde)^(1/2) is I and theta is 0, so T~E and D~E
    (E an orthonormal basis of Ran D~; D~ is never formed) are kept on the
    support block, as t_tilde_e and d_tilde_e.  Their columns are theta's own
    columns: h |support| - n_drop of its defect_rank = h (number of positive
    multi-indices) - n_drop inputs, n_drop = dim Ker D~ = h - rank Delta, the
    rank that `defect` decided.  Requires every b_alpha >= 0.
    """

    dilation: DilationMap
    t_tilde: np.ndarray
    sqrt_b: np.ndarray
    support: np.ndarray
    support_exponents: np.ndarray
    defect_rank: int
    t_tilde_e: np.ndarray
    d_tilde_e: np.ndarray
    ttstar_residual: float
    intertwine_residual: float
    contractive: bool


def build_lift(v: DilationMap) -> TupleLift:
    """Assemble the lifted row operator of the tuple that v embeds.

    Reuses the defect and the powers T^alpha that v was built from.  The row
    has rank <= h, so with the thin SVD U S W^* of its support block the
    defect there is D~ = I - W (I - sqrt(I - S^2)) W^*.  T~ T~^* = I - Delta^2,
    so Ker D~ is spanned by the columns of W of the n_drop = h - rank Delta
    largest singular values: the rank is the one `defect` decided, and the lift
    takes no second rank decision.  E spans their complement, so E = I when
    Delta is invertible.  b_1 = a_1 > 0, so the support leads the direct sum
    and E keeps the coordinates past the n_drop it drops.  Checks T~ T~^* = I -
    Delta^2 and the intertwining T~ D~ = Delta T~ on E along the way.
    """
    table, p, h = v.table, v.params, v.ops.h
    cnp = is_cnp(table, p.N)
    if not cnp.consistent:
        raise NotCnpError(f"b_{cnp.first_failure} = {cnp.value:.6g} < 0: square roots of the "
                          "inverted coefficients do not exist")
    exponents = np.array(v.indices[1:])
    sqrt_b = np.sqrt(multi_coeff(table, exponents, "b"))
    t_tilde = np.hstack(sqrt_b[:, None, None] * v.powers.stack[1:])
    support = np.flatnonzero(sqrt_b)
    cols = (support[:, None] * h + np.arange(h)).ravel()
    t_sup = t_tilde[:, cols]
    dd = v.defect_data
    ttstar_res = opnorm(t_sup @ t_sup.conj().T - (np.eye(h, dtype=complex) - dd.delta_sq))
    _, s, w_star = np.linalg.svd(t_sup, full_matrices=False)
    eigs = 1.0 - s ** 2
    n_drop = h - dd.rank
    q, _ = np.linalg.qr(w_star[:n_drop].conj().T, mode="complete")  # I when nothing drops
    basis = q[:, n_drop:]
    shrink = w_star.conj().T * (1.0 - np.sqrt(np.clip(eigs, 0.0, None)))
    d_tilde_e = basis - shrink @ (w_star @ basis)
    t_tilde_e = t_sup @ basis
    return TupleLift(dilation=v, t_tilde=t_tilde, sqrt_b=sqrt_b, support=support,
                     support_exponents=exponents[support], defect_rank=t_tilde.shape[1] - n_drop,
                     t_tilde_e=t_tilde_e, d_tilde_e=d_tilde_e, ttstar_residual=ttstar_res,
                     intertwine_residual=opnorm(t_sup @ d_tilde_e - dd.delta @ t_tilde_e),
                     contractive=bool(eigs.min() >= -p.tol))


# ---------------------------------------------------------------------------
# Evaluating the characteristic function
# ---------------------------------------------------------------------------

class CharFnEval(NamedTuple):
    """The characteristic function at a stack of points, every field stacked along axis 0.

    theta maps defect-range coordinates of the lift to those of the tuple, on
    its own columns (those of the lift's t_tilde_e; it is 0 on the others);
    each read of `norm` is one stack `opnorm`.  z_norm_sq, the squared norm of
    the scalar row Z(z), is below 1 inside the ball.  kernel_fn is the
    embedded kernel function V^*(k_z x I_r) = sum_alpha a_alpha conj(z^alpha)
    T^alpha Delta C = s_z(T) Delta C, from the kernel series s_z(T) that theta
    was built from, and tail_term is that series' kernel_calculus tail.
    """

    z: np.ndarray
    theta: np.ndarray
    inverse_residual: np.ndarray
    z_norm_sq: np.ndarray
    kernel_fn: np.ndarray
    tail_term: np.ndarray

    @property
    def norm(self) -> np.ndarray:
        return opnorm(self.theta)


def charfn_eval(lift: TupleLift, zs) -> CharFnEval:
    """theta(z) = (-t_tilde + Delta s_z(T)^* Z(z) D) on the defect ranges, at each point z of zs.

    theta is taken on its own columns, those of lift.t_tilde_e: off the
    support of b it is 0.  Z(z) is the row of scalar blocks sqrt(b_alpha)
    z^alpha I, applied as a weighted sum over the block rows of the support.
    The inverse (I - Z t_tilde^*)^{-1} is the adjoint kernel series at the
    tuple, and kernel_calculus reports the residual of that identity.  The
    points must lie strictly inside the ball; every other check of a point
    (`check_eval`) is left to the caller, for the rows it reads.
    """
    v = lift.dilation
    t, p = v.ops, v.params
    zs = in_ball(zs, t.d, "z")
    weights = lift.sqrt_b[lift.support] * np.prod(zs[:, None] ** lift.support_exponents, axis=2)
    calc = kernel_calculus(t, v.table, zs, p)
    dd = v.defect_data
    z_d = (weights @ lift.d_tilde_e.reshape(len(lift.support), -1)).reshape(len(zs), t.h, -1)
    row = dd.delta @ calc.matrix.conj().swapaxes(1, 2) @ z_d
    return CharFnEval(z=zs, theta=dd.ran_delta_basis.conj().T @ (row - lift.t_tilde_e),
                      inverse_residual=calc.inverse_residual,
                      z_norm_sq=np.sum(np.abs(weights) ** 2, axis=1),
                      kernel_fn=calc.matrix @ (dd.delta @ dd.ran_delta_basis),
                      tail_term=calc.tail_term)


def check_eval(ev: CharFnEval, p: TruncationParams) -> CharFnEval:
    """ev if each point passes, in turn, |Z(z)|^2 < 1, a finite series (else the error of a
    norm of non-finite entries), the series tail within tol, the inverse residual within tol
    and a finite theta; the first to fail is named by its index in the stack."""
    bad = np.flatnonzero(ev.z_norm_sq >= 1.0)
    if len(bad):
        raise DomainError(f"point {bad[0]}: |Z(z)|^2 = {ev.z_norm_sq[bad[0]]}, "
                          "not a strict contraction")
    if np.isnan(ev.tail_term).any() or np.isnan(ev.inverse_residual).any():
        raise np.linalg.LinAlgError(NON_FINITE_NORM)
    bad = np.flatnonzero(ev.tail_term > p.tol)
    if len(bad):
        raise NonConvergedError(f"kernel series tail {ev.tail_term[bad[0]]:.3e} at point "
                                f"{bad[0]} exceeds tol {p.tol:.1e} at degree {p.N}")
    bad = np.flatnonzero(ev.inverse_residual > p.tol)
    if len(bad):
        raise NonConvergedError(f"reciprocal-series inverse residual "
                                f"{ev.inverse_residual[bad[0]]:.3e} at point {bad[0]} "
                                f"exceeds tol {p.tol:.1e}")
    bad = np.flatnonzero(~np.isfinite(ev.theta).all(axis=(1, 2)))
    if len(bad):
        raise np.linalg.LinAlgError(f"theta has non-finite entries at point {bad[0]}")
    return ev


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


def verify_defect_identity(lift: TupleLift, ez: CharFnEval, ew: CharFnEval) -> np.ndarray:
    """Residuals of I - theta(z) theta(w)^* = K_z^* K_w / s(z, w) by row pair, K_z = s_z(T) Delta C.

    ez and ew evaluate theta on the lift (`charfn_eval`) at stacks z and w of one
    length; K_z is ez's kernel_fn, so both sides sit on the defect range and are
    evaluated at the same truncation degree.  1/s(z, w) goes through the reciprocal
    series so no scalar division fights the operator truncation.
    """
    v = lift.dilation
    recip = reciprocal_kernel(v.table, ez.z, ew.z, v.N).value
    lhs = np.eye(v.defect_data.rank, dtype=complex) - ez.theta @ ew.theta.conj().swapaxes(1, 2)
    rhs = recip[:, None, None] * (ez.kernel_fn.conj().swapaxes(1, 2) @ ew.kernel_fn)
    return opnorm(lhs - rhs)


class MultiplierReport(NamedTuple):
    """Sampled evidence that theta is a contractive multiplier.

    gram_min_eig is the smallest eigenvalue of the block matrix
    [s(z_i, z_j)(I - theta(z_i) theta(z_j)^*)]; vv_identity_residual compares
    inner products of adjoint-embedded kernel functions against the same
    expression.
    """

    gram_min_eig: float
    vv_identity_residual: float


def verify_multiplier(lift: TupleLift, ev: CharFnEval) -> MultiplierReport:
    """Gram positivity of theta and the inner products of V^*-embedded kernel functions at
    the two or more points of ev, theta and the embedded kernel functions V^*(k_z x I_r)
    (`CharFnEval.kernel_fn`) evaluated on the lift (`charfn_eval`)."""
    table, pts, theta, embedded = lift.dilation.table, ev.z, ev.theta, ev.kernel_fn
    n_pts, r = len(pts), theta.shape[1]
    if n_pts < 2:
        raise ValueError("need at least 2 sample points")

    # block (i, j) pairs z_i with w = z_j.  s(z, w) is the a-series cut at N_max, while theta
    # and the kernel functions are cut at N: vv_identity measures that mismatch too
    s = kernel_eval(table, np.repeat(pts, n_pts, axis=0), np.tile(pts, (n_pts, 1)),
                    table.n_max).value.reshape(n_pts, n_pts, 1, 1)
    blocks = s * (np.eye(r, dtype=complex) - theta[:, None] @ theta.conj().swapaxes(1, 2))
    lhs = embedded.conj().swapaxes(1, 2)[:, None] @ embedded
    worst = float(np.max(np.abs(lhs - blocks), initial=0.0))
    gram = blocks.transpose(0, 2, 1, 3).reshape(n_pts * r, n_pts * r)
    gram_min = float(np.linalg.eigvalsh(hermitize(gram))[0])
    return MultiplierReport(gram_min_eig=gram_min, vv_identity_residual=worst)


# ---------------------------------------------------------------------------
# Functional-model verification
# ---------------------------------------------------------------------------

class ModelReport(NamedTuple):
    """Residuals of the functional-model identities on the truncated space.

    compression_residual: recovering each T_i by compressing the tensored
    shifts through the embedding.  factor_residual: the norm of R, which
    vanishes exactly when I - V V^* = M_theta M_theta^*, with M_theta summed
    from the exact Taylor blocks of theta (`verify_model`).
    """

    compression_residual: float
    factor_residual: float


def span_coefficients(lift: TupleLift) -> np.ndarray:
    """K with W = C K, W the Taylor stack of theta scaled by diag(a_gamma)^(-1/2) x I_r, on the
    columns C = [V, E_0, M^alpha V] of the dilation's span (`DefectSpan`) and theta's own columns.

    The coefficient of z^gamma in theta is -C^* T~ E at gamma = 0 and otherwise C^* Delta
    sum_{alpha <= gamma, |alpha| >= 1} a_{gamma-alpha} sqrt(b_alpha) (T^{gamma-alpha})^*
    (D~E)_alpha, (D~E)_alpha the block row of d_tilde_e at alpha in the support: exactly the
    degree-N theta that charfn_eval evaluates.  Block beta of V is sqrt(a_beta) C^* Delta
    (T^beta)^*, and (M^alpha x I) V has block sqrt(a_beta / a_gamma) V_beta at gamma = alpha +
    beta, so W = E_0 (-C^* T~ E) + sum_alpha sqrt(b_alpha) (M^alpha x I) V (D~E)_alpha over the
    support (b_alpha > 0).  The table is CNP, so the support is exactly the span's gathers
    (b_alpha != 0), in the same graded order: K is 0 on V, -C^* T~ E on E_0, then
    sqrt(b_alpha) (D~E)_alpha on the gathers, block after block.
    """
    v = lift.dilation
    h = v.ops.h
    return np.vstack([np.zeros((h, lift.t_tilde_e.shape[1])),
                      -(v.defect_data.ran_delta_basis.conj().T @ lift.t_tilde_e),
                      np.repeat(lift.sqrt_b[lift.support], h)[:, None] * lift.d_tilde_e])


def verify_model(lift: TupleLift) -> ModelReport:
    """Check that the embedding carries the functional model back to the tuple.

    Verifies max_i |V^* (M_i x I) V - T_i| and the factorization of
    I - V V^* by the truncated multiplication operator of theta.  Column beta
    of M_theta is sum_delta sqrt(a_beta / a_{beta+delta}) e(beta + delta) x
    Theta_delta, over the Taylor blocks of theta through degree N (its column
    at alpha starts at z-degree |alpha|), so M_theta M_theta^* = sum_k a_k
    sigma^k(W W^*), W the Taylor stack scaled by diag(a_delta)^(-1/2) x I_r.
    On this space sum_k a_k sigma^k and 1 - sum_{k>=1} b_k sigma^k are inverse
    maps (A(t) (1 - B(t)) = 1, sigma^(N+1) = 0), so the factorization holds
    exactly when R = W W^* - (X - sum_k b_k sigma^k(X)) = 0, X = I - V V^*.
    W = C K on the columns C of the dilation's span (`span_coefficients`), and
    the second term is the cond2 gap C diag(-1, weights) C^*, so factor_residual
    = |R| is the largest |eig| of F (K K^* - diag(-1, weights)) F^*, F the
    span's triangular factor (`span_spectrum`): no gather and no QR of its own.
    """
    v = lift.dilation
    comp_res = max(opnorm(v.matrix.conj().T @ v.tensored.apply(i, v.matrix) - v.ops.mats[i])
                   for i in range(v.ops.d))
    span = v.span
    eigs = span_spectrum(span, np.append(np.ones(v.ops.h), -span.weights), span_coefficients(lift))
    return ModelReport(compression_residual=comp_res, factor_residual=float(np.abs(eigs).max()))


def eval_to_dict(ev: CharFnEval, i: int) -> dict:
    """Structured-text form of row i of an evaluation: point, re/im entries, norm, diagnostics.
    The norm is row i's alone, so no norm of the whole stack is taken."""
    return {
        "point": [[float(v.real), float(v.imag)] for v in ev.z[i]],
        "matrix": [[[float(v.real), float(v.imag)] for v in row] for row in ev.theta[i]],
        "norm": float(opnorm(ev.theta[i])),
        "diagnostics": {
            "inverse_residual": float(ev.inverse_residual[i]),
            "z_norm_sq": float(ev.z_norm_sq[i]),
        },
    }


# ---------------------------------------------------------------------------
# Sampling helper
# ---------------------------------------------------------------------------

def ball_points(d: int, count: int, seed: int, radius: float = 0.8) -> np.ndarray:
    """Deterministic points uniform in the ball of the given radius, as a (count, d) stack.

    Each takes 2d + 1 uniforms of the stdlib stream of seed: a direction from d
    complex Gaussians by Box-Muller, then the radius times u^(1/2d).
    """
    seed = operator.index(seed)
    if seed < 0:
        raise ValueError(f"seed must be a non-negative integer, got {seed}")
    rng = random.Random(seed)
    u = np.array([rng.random() for _ in range(count * (2 * d + 1))]).reshape(count, 2 * d + 1)
    v = np.sqrt(-2.0 * np.log1p(-u[:, :d])) * np.exp(2j * np.pi * u[:, d:2 * d])
    norms = np.linalg.norm(v, axis=1)
    v[norms == 0.0], norms[norms == 0.0] = 1.0, np.sqrt(d)
    return (radius * u[:, 2 * d] ** (1.0 / (2 * d)) / norms)[:, None] * v
