"""Explicit characteristic function for contractive tuples under CNP kernels.

The construction lifts the tuple to a single row contraction indexed by
positive multi-indices, takes its defect, and composes with the inverse of
the kernel series at the tuple.  Everything is evaluated at a finite
truncation degree with the inversion done through the kernel's own
reciprocal-series identity rather than a matrix solve, and each identity the
construction satisfies is available as a residual.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from ._linalg import RANK_REL_TOL, hermitize, opnorm
from .coeffs import (CoeffTable, as_point, graded_index_map, kernel_eval, multi_coeff,
                     scalar_series)
from .errors import DomainError, NonConvergedError, NotCnpError
from .model import DilationMap
from .tuples import OperatorTuple, TruncationParams


# ---------------------------------------------------------------------------
# Kernel functional calculus
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class CalculusResult:
    """Truncated kernel series at the tuple: sum_alpha a_alpha conj(w^alpha) T^alpha.

    inverse_residual measures how well the b-weighted series inverts it,
    which is the identity the characteristic function relies on.
    """

    matrix: np.ndarray
    tail_term: float
    inverse_residual: float


def _monomials(w: np.ndarray, indices) -> np.ndarray:
    """w^alpha for every multi-index alpha in indices."""
    return np.prod(np.power(w, np.asarray(indices)), axis=1)


def kernel_calculus(t: OperatorTuple, table: CoeffTable, w, p: TruncationParams) -> CalculusResult:
    """Evaluate the kernel series at the tuple for the point w.

    The tuple commutes, so by the multinomial theorem the degree-k layer
    sum_{|alpha|=k} a_alpha conj(w^alpha) T^alpha is a_k A_w^k with
    A_w = sum_i conj(w_i) T_i: both series cost one h x h product per
    degree.  The point must lie strictly inside the ball.  The magnitude of
    the highest-degree layer a_N A_w^N is the tail diagnostic; a tail above
    tol flags the sum as non-converged.
    """
    w = as_point(w, t.d)
    if np.linalg.norm(w) >= 1.0:
        raise DomainError("w must lie strictly inside the unit ball")
    a = table.require_a(p.N)
    b = table.require_b(p.N)
    eye = np.eye(t.h, dtype=complex)
    a_w = sum(np.conj(wi) * ti for wi, ti in zip(w, t.mats))
    total = eye.copy()
    binv = eye.copy()
    power = eye
    for k in range(1, p.N + 1):
        power = power @ a_w
        total += a[k] * power
        binv -= b[k] * power
    tail = opnorm(a[p.N] * power)
    inverse_residual = opnorm(binv @ total - eye)
    if tail > p.tol:
        raise NonConvergedError(
            f"kernel series tail {tail:.3e} exceeds tol {p.tol:.1e} at degree {p.N}"
        )
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
    b = table.require_b(p.N)
    bad = [(k, float(b[k])) for k in range(1, p.N + 1) if b[k] < -p.tol]
    if bad:
        k, val = bad[0]
        raise NotCnpError(
            f"b_{k} = {val:.6g} < 0: square roots of the inverted coefficients do not exist"
        )
    pos = v.indices[1:]
    sqrt_b = np.array([np.sqrt(max(multi_coeff(table, alpha, "b"), 0.0)) for alpha in pos])
    t_tilde = np.hstack([sqrt_b[j] * v.powers.power(alpha) for j, alpha in enumerate(pos)])

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
    """One evaluation of the characteristic function.

    theta maps defect-range coordinates of the lift to defect-range
    coordinates of the tuple.  z_norm_sq is the squared norm of the scalar
    row Z(z), which stays strictly below 1 inside the ball.  s_z is the
    kernel series at the tuple, s_z(T), that theta was built from.
    """

    z: np.ndarray
    theta: np.ndarray
    norm: float
    inverse_residual: float
    z_norm_sq: float
    s_z: np.ndarray


def charfn_eval(lift: TupleLift, z) -> CharFnEval:
    """theta(z) = (-t_tilde + Delta s_z(T)^* Z(z) D) restricted to the defect range.

    Z(z) is the row of scalar blocks sqrt(b_alpha) z^alpha I, applied as a
    weighted sum over block rows.  The inverse (I - Z t_tilde^*)^{-1} is the
    adjoint kernel series at the tuple, and kernel_calculus reports the
    residual of that identity, which must stay below tol.
    """
    v = lift.dilation
    t, p = v.ops, v.params
    z = as_point(z, t.d)
    if np.linalg.norm(z) >= 1.0:
        raise DomainError("z must lie strictly inside the unit ball")
    weights = lift.sqrt_b * _monomials(z, v.indices[1:])
    z_norm_sq = float(np.sum(np.abs(weights) ** 2))
    if z_norm_sq >= 1.0:
        raise DomainError(f"row symbol Z(z) must be a strict contraction, got |Z|^2 = {z_norm_sq}")

    calc = kernel_calculus(t, v.table, z, p)
    if calc.inverse_residual > p.tol:
        raise NonConvergedError(f"reciprocal-series inverse residual {calc.inverse_residual:.3e} "
                                f"exceeds tol {p.tol:.1e}")
    dd = v.defect_data
    z_d = np.tensordot(weights, lift.d_tilde_e.reshape(len(weights), t.h, lift.defect_rank), axes=1)
    row = dd.delta @ calc.matrix.conj().T @ z_d
    theta = dd.ran_delta_basis.conj().T @ (row - lift.t_tilde_e)
    return CharFnEval(
        z=z,
        theta=theta,
        norm=opnorm(theta),
        inverse_residual=calc.inverse_residual,
        z_norm_sq=z_norm_sq,
        s_z=calc.matrix,
    )


# ---------------------------------------------------------------------------
# Identity checks
# ---------------------------------------------------------------------------

def reciprocal_kernel(table: CoeffTable, z, w, n: int) -> complex:
    """1 / s(z, w) evaluated through the reciprocal series 1 - sum b_alpha z^alpha conj(w^alpha).

    Truncating the b-series keeps the value consistent with the operator
    computations at the same degree; for kernels with a finite b-sequence it
    is exact.
    """
    z = as_point(z, table.d)
    w = as_point(w, table.d)
    b = table.require_b(n)
    return scalar_series(np.concatenate(([1.0], -b[1:n + 1])), complex(np.vdot(w, z)), n).value


def verify_defect_identity(lift: TupleLift, z, w) -> float:
    """Residual of I - theta(z) theta(w)^* = Delta s_z(T)^* s_w(T) Delta / s(z, w).

    Both sides are compressed to the defect range and evaluated at the same
    truncation degree; 1/s(z, w) goes through the reciprocal series so no
    scalar division fights the operator truncation.
    """
    v = lift.dilation
    dd = v.defect_data
    ez = charfn_eval(lift, z)
    ew = charfn_eval(lift, w)
    lhs = np.eye(dd.rank, dtype=complex) - ez.theta @ ew.theta.conj().T
    recip = reciprocal_kernel(v.table, z, w, v.N)
    mid = dd.delta @ ez.s_z.conj().T @ ew.s_z @ dd.delta
    rhs = recip * (dd.ran_delta_basis.conj().T @ mid @ dd.ran_delta_basis)
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


def verify_multiplier(lift: TupleLift, points: Sequence) -> MultiplierReport:
    """Gram positivity of theta and the inner products of V^*-embedded kernel functions."""
    if len(points) < 2:
        raise ValueError("need at least 2 sample points")
    v = lift.dilation
    table = v.table
    pts = [as_point(z, v.ops.d) for z in points]
    evals = [charfn_eval(lift, z) for z in pts]
    r = v.codomain_dims[1]

    # V^* applied to each kernel function, expanded in the truncated
    # orthonormal basis
    sqrt_a = np.sqrt([multi_coeff(table, alpha, "a") for alpha in v.indices])
    vstar = v.matrix.conj().T
    embedded = [vstar @ np.kron((sqrt_a * np.conj(_monomials(z, v.indices))).reshape(-1, 1),
                                np.eye(r, dtype=complex))
                for z in pts]

    n_pts = len(pts)
    gram = np.zeros((n_pts * r, n_pts * r), dtype=complex)
    worst = 0.0
    # scalar kernel values use the full cached table: the scalar series is
    # cheap, and a short truncation would only measure its own tail
    for i in range(n_pts):       # plays the role of z
        for j in range(n_pts):   # plays the role of w
            s = kernel_eval(table, pts[i], pts[j], table.n_max).value
            block = s * (np.eye(r, dtype=complex) - evals[i].theta @ evals[j].theta.conj().T)
            gram[i * r:(i + 1) * r, j * r:(j + 1) * r] = block
            lhs = embedded[i].conj().T @ embedded[j]
            worst = max(worst, float(np.max(np.abs(lhs - block))) if lhs.size else 0.0)
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
    beta of the dilation is sqrt(a_beta) C^* Delta (T^beta)^*, so it
    supplies the left factors.
    """
    v = lift.dilation
    gmap = graded_index_map(v.ops.d, v.N)
    h, r = v.ops.h, v.codomain_dims[1]
    # a_beta C^* Delta (T^beta)^* by graded position of beta, and
    # sqrt(b_alpha) (D~E)_alpha by position among the positive indices, which
    # is the graded position minus one
    sqrt_a = np.sqrt([multi_coeff(v.table, beta, "a") for beta in gmap])
    left = sqrt_a[:, None, None] * v.matrix.reshape(len(gmap), r, h)
    right = lift.sqrt_b[:, None, None] * lift.d_tilde_e.reshape(len(gmap) - 1, h,
                                                                lift.defect_rank)
    blocks = np.empty((len(gmap), r, lift.defect_rank), dtype=complex)
    blocks[0] = -(v.defect_data.ran_delta_basis.conj().T @ lift.t_tilde_e)
    for k, gamma in enumerate(v.indices[1:], start=1):
        pairs = [(gmap[tuple(g - a for g, a in zip(gamma, alpha))], gmap[alpha] - 1)
                 for alpha in itertools.product(*(range(g + 1) for g in gamma)) if any(alpha)]
        beta_pos, alpha_pos = (list(x) for x in zip(*pairs))
        blocks[k] = np.tensordot(left[beta_pos], right[alpha_pos], axes=([0, 2], [0, 1]))
    return blocks


def _model_gap(lift: TupleLift) -> np.ndarray:
    """(I - V V^*) - M_theta M_theta^* on the truncated model space.

    M_theta M_theta^* is the sum over column blocks beta of C_beta C_beta^*,
    where column beta of the multiplication operator is
    sum_delta sqrt(a_beta / a_{beta+delta}) e(beta + delta) x Theta_delta
    over the delta with |beta| + |delta| <= N.  In graded order those delta
    are a prefix of the stack, so C_beta C_beta^* is a weighted leading block
    of its one Gram matrix, subtracted on the rows it reaches.
    """
    v = lift.dilation
    blocks = _taylor_blocks(lift)
    r = blocks.shape[1]
    flat = blocks.reshape(-1, blocks.shape[2])
    gram = flat @ flat.conj().T
    idx = np.array(v.indices)
    degrees = idx.sum(axis=1)
    # multi-indices of degree <= N as integers in base N + 1: the sum of two
    # such keys is the key of the sum whenever that sum has degree <= N
    keys = idx @ (v.N + 1) ** np.arange(idx.shape[1])
    order = np.argsort(keys)
    a_vals = np.array([multi_coeff(v.table, alpha, "a") for alpha in v.indices])
    gap = np.eye(v.big_dim, dtype=complex) - v.matrix @ v.matrix.conj().T
    for col in range(len(idx)):
        m = np.searchsorted(degrees, v.N - degrees[col], side="right")
        rows = order[np.searchsorted(keys, keys[col] + keys[:m], sorter=order)]
        wr = np.repeat(np.sqrt(a_vals[col] / a_vals[rows]), r)
        spread = (rows[:, None] * r + np.arange(r)).ravel()
        gap[np.ix_(spread, spread)] -= wr[:, None] * gram[:m * r, :m * r] * wr
    return gap


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
    return ModelReport(compression_residual=comp_res, factor_residual=opnorm(_model_gap(lift)))


def eval_to_dict(ev: CharFnEval) -> dict:
    """Structured-text form of one evaluation: point, re/im entries, norm, diagnostics."""
    return {
        "point": [[float(v.real), float(v.imag)] for v in ev.z],
        "matrix": [[[float(v.real), float(v.imag)] for v in row] for row in ev.theta],
        "norm": float(ev.norm),
        "diagnostics": {
            "inverse_residual": float(ev.inverse_residual),
            "z_norm_sq": float(ev.z_norm_sq),
        },
    }


# ---------------------------------------------------------------------------
# Sampling helper
# ---------------------------------------------------------------------------

def ball_points(d: int, count: int, seed: int, radius: float = 0.8) -> list[np.ndarray]:
    """Deterministic pseudo-random points in the ball of the given radius."""
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
    return pts
