"""Slow reference implementations of the characteristic-function path.

Each one computes what cnplab.charfn computes in closed form, the long way,
and shares none of its shortcuts, so the differential tests can compare the
two:

- `enumerated_calculus` sums the kernel series at the tuple term by term
  over every multi-index alpha with |alpha| <= N, from the products T^alpha
  and the multi-index coefficients a_alpha, b_alpha;
- `pointwise_calculus` and `pointwise_charfn_eval` evaluate the kernel
  calculus and theta at one point at a time, with a Python loop of h x h
  products per point, where the package evaluates a whole stack at once;
- `enumerated_kernel_fn` expands V^*(k_z x I_r) in the model basis, a sum of
  the blocks of V^* over every multi-index alpha with |alpha| <= N, where the
  package forms s_z(T) Delta C from the kernel series at the tuple;
- `dense_lift` builds T~E and D~E over the whole direct sum, off the support
  of b too, from the thin SVD of the full row; `full_width` and `wide_lift`
  write the package's support-block lift out at that width, and
  `padded_theta` writes theta, which the package keeps on its own columns
  `theta_cols`, out at all of the lift's defect_rank inputs;
- `dense_lift_defect` takes the defect D~ of the lifted row, and a basis of
  its range, from a dense eigendecomposition of I - T~^*T~;
- `dense_theta` forms the full row -T~ + Delta s_z(T)^* Z(z) D~ with Z(z)
  as an explicit block row and compresses it to the defect ranges;
- `fitted_taylor_blocks` recovers the Taylor blocks of theta by least
  squares on charfn_eval samples over a phase grid;
- `gathered_taylor_blocks` is the Taylor stack as the package formed it
  before it wrote the stack on the columns of the dilation's span: its own
  gather of V, the placed product with the weighted D~E, and block 0
  overwritten; `span_taylor_blocks` reads the package's stack, W = C K with
  K from `span_coefficients` and C = Q R from the span;
- `looped_taylor_blocks` sums the closed-form Taylor blocks one multi-index
  gamma at a time, over every pair alpha + beta = gamma, where the package
  places all of them in one product;
- `dense_model_gap` assembles the multiplication operator M_theta from the
  looped blocks as one dense matrix, block by block, and subtracts
  M_theta M_theta^* from I - V V^*;
- `looped_model_gap` subtracts M_theta M_theta^* one column block at a
  time, as a weighted leading block of the Gram matrix of the looped blocks;
- `model_gap` is the gap as the package formed it before it took the
  factorization through the inverse map: M_theta M_theta^* summed as the
  a-series of the Gram matrix of the package's Taylor stack
  (`span_taylor_blocks`), on the whole
  model space, and `b_inverse_gap` carries such a gap through the inverse
  map Y -> Y - sum_k b_k sigma^k(Y) to the R whose norm the package reports;
  both run their sigma-series on the dense Kronecker tuple `tensored_shifts`.
Spectral norms are taken by SVD, `np.linalg.norm(x, 2)`, not by the package's `opnorm`.
"""

from __future__ import annotations

import itertools
from typing import NamedTuple

import numpy as np

from cnplab._linalg import hermitize, psd_sqrt
from cnplab.charfn import CalculusResult, CharFnEval, charfn_eval, span_coefficients
from cnplab.coeffs import graded_indices, multi_coeff
from cnplab.errors import DomainError, NonConvergedError
from cnplab.tuples import _weighted_series
from series_reference import tensored_shifts, tuple_power


def point(z, d) -> np.ndarray:
    """One point of C^d as a length-d complex vector."""
    z = np.asarray(z, dtype=complex)
    assert z.shape == (d,), z.shape
    return z


def monomials(w, indices) -> np.ndarray:
    out = np.empty(len(indices), dtype=complex)
    for j, alpha in enumerate(indices):
        val = 1.0 + 0.0j
        for wi, ai in zip(w, alpha):
            if ai:
                val *= wi ** ai
        out[j] = val
    return out


def enumerated_calculus(t, table, w, p):
    """(sum_alpha a_alpha conj(w^alpha) T^alpha, norm of its degree-N layer,
    |(I - sum_{|alpha|>=1} b_alpha conj(w^alpha) T^alpha) s - I|)."""
    w = point(w, t.d)
    indices = graded_indices(t.d, p.N)
    mono = np.conj(monomials(w, indices))
    h = t.h
    total = np.zeros((h, h), dtype=complex)
    binv = np.eye(h, dtype=complex)
    layer = np.zeros((h, h), dtype=complex)
    current_deg = 0
    for j, alpha in enumerate(indices):
        deg = sum(alpha)
        if deg != current_deg:
            layer = np.zeros((h, h), dtype=complex)
            current_deg = deg
        pa = tuple_power(t, alpha)
        term = (multi_coeff(table, alpha, "a") * mono[j]) * pa
        total += term
        layer += term
        if deg >= 1:
            binv -= (multi_coeff(table, alpha, "b") * mono[j]) * pa
    residual = binv @ total - np.eye(h, dtype=complex)
    return total, np.linalg.norm(layer, 2), np.linalg.norm(residual, 2)


class DenseLift(NamedTuple):
    """The lifted row with E, T~E and D~E over the whole direct sum.

    Same fields as cnplab.charfn.TupleLift, except that d_tilde_basis,
    t_tilde_e and d_tilde_e have one row or column per coordinate of the
    direct sum, off the support of b too, and theta's inputs are all of E.
    """

    dilation: object
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
        return self.d_tilde_e.shape[1]


def dense_lift(v) -> DenseLift:
    """The lift of the tuple that v embeds, from the thin SVD T~ = U S W^* of the full row.

    D~ = I - W (I - sqrt(I - S^2)) W^* on the whole direct sum; E is the
    complement, from a complete QR, of the columns of W of the h - rank Delta
    largest singular values, which span Ker D~ as T~ T~^* = I - Delta^2, so
    E = I when Delta is invertible.
    D~E is an (n - 1)h x (n - 1)h matrix then, even where b vanishes.  The
    kernel must be CNP-consistent, as build_lift checks.
    """
    sqrt_b = np.sqrt(np.maximum(multi_coeff(v.table, v.indices[1:], "b"), 0.0))
    t_tilde = np.hstack(sqrt_b[:, None, None] * v.powers.stack[1:])
    dd = v.defect_data
    ttstar = t_tilde @ t_tilde.conj().T - (np.eye(v.ops.h, dtype=complex) - dd.delta_sq)
    ttstar_res = np.linalg.norm(ttstar, 2)
    _, s, w_star = np.linalg.svd(t_tilde, full_matrices=False)
    eigs = 1.0 - s ** 2
    all_eigs = np.append(eigs, np.ones(t_tilde.shape[1] - len(s)))
    n_drop = v.ops.h - dd.rank
    q, _ = np.linalg.qr(w_star[:n_drop].conj().T, mode="complete")
    basis = q[:, n_drop:]
    shrink = w_star.conj().T * (1.0 - np.sqrt(np.clip(eigs, 0.0, None)))
    d_tilde_e = basis - shrink @ (w_star @ basis)
    t_tilde_e = t_tilde @ basis
    return DenseLift(dilation=v, t_tilde=t_tilde, d_tilde_basis=basis, t_tilde_e=t_tilde_e,
                     d_tilde_e=d_tilde_e, sqrt_b=sqrt_b, ttstar_residual=ttstar_res,
                     intertwine_residual=np.linalg.norm(t_tilde @ d_tilde_e - dd.delta @ t_tilde_e, 2),
                     contractive=bool(all_eigs.min() >= -v.params.tol))


def support_coords(lift) -> np.ndarray:
    """The coordinates of the direct sum in the blocks of lift.support."""
    h = lift.dilation.ops.h
    return (lift.support[:, None] * h + np.arange(h)).ravel()


def theta_cols(lift) -> np.ndarray:
    """The positions of theta's own columns, those of lift.t_tilde_e, among its
    lift.defect_rank inputs.

    E drops n_drop = h |support| - (columns of t_tilde_e) directions of the
    support block, which leads the direct sum, and keeps every coordinate
    past them in order: the support's coordinates, less n_drop.
    """
    cols = support_coords(lift)
    n_drop = len(cols) - lift.t_tilde_e.shape[1]
    return cols[n_drop:] - n_drop


def padded_theta(lift, theta) -> np.ndarray:
    """A stack of theta on its own columns written out at all lift.defect_rank
    inputs: exactly 0 off theta_cols(lift)."""
    out = np.zeros((*theta.shape[:-1], lift.defect_rank), dtype=complex)
    out[..., theta_cols(lift)] = theta
    return out


def full_width(lift):
    """(T~E, D~E) of a package lift over the whole direct sum.

    The support block goes to its coordinates and theta's inputs
    theta_cols(lift); off the support T~ = 0 and D~ = I, and E keeps those
    coordinates, in order, past the directions it drops.
    """
    m, r_in = lift.t_tilde.shape[1], lift.defect_rank
    cols, inputs = support_coords(lift), theta_cols(lift)
    off = np.setdiff1d(np.arange(m), cols)
    t_e = np.zeros((lift.t_tilde.shape[0], r_in), dtype=complex)
    t_e[:, inputs] = lift.t_tilde_e
    d_e = np.zeros((m, r_in), dtype=complex)
    d_e[off, off - (m - r_in)] = 1.0
    d_e[np.ix_(cols, inputs)] = lift.d_tilde_e
    return t_e, d_e


def wide_lift(lift) -> DenseLift:
    """A package lift as a DenseLift over the whole direct sum (`full_width`).

    The package keeps no basis E, so d_tilde_basis is None; the pointwise
    references read only the other fields.
    """
    t_e, d_e = full_width(lift)
    return DenseLift(dilation=lift.dilation, t_tilde=lift.t_tilde, d_tilde_basis=None,
                     t_tilde_e=t_e, d_tilde_e=d_e, sqrt_b=lift.sqrt_b,
                     ttstar_residual=lift.ttstar_residual,
                     intertwine_residual=lift.intertwine_residual, contractive=lift.contractive)


def pointwise_calculus(t, table, w, p) -> CalculusResult:
    """The kernel calculus at the one point w, with scalar tail and residual fields."""
    w = point(w, t.d)
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
    tail = np.linalg.norm(a[p.N] * power, 2)
    inverse_residual = np.linalg.norm(binv @ total - eye, 2)
    if tail > p.tol:
        raise NonConvergedError(
            f"kernel series tail {tail:.3e} exceeds tol {p.tol:.1e} at degree {p.N}"
        )
    return CalculusResult(matrix=total, tail_term=tail, inverse_residual=inverse_residual)


def pointwise_charfn_eval(lift, z) -> CharFnEval:
    """theta at the one point z from a DenseLift, with the fields of a one-point
    evaluation unstacked."""
    v = lift.dilation
    t, p = v.ops, v.params
    z = point(z, t.d)
    if np.linalg.norm(z) >= 1.0:
        raise DomainError("z must lie strictly inside the unit ball")
    weights = lift.sqrt_b * np.prod(np.power(z, np.asarray(v.indices[1:])), axis=1)
    z_norm_sq = float(np.sum(np.abs(weights) ** 2))
    if z_norm_sq >= 1.0:
        raise DomainError(f"row symbol Z(z) must be a strict contraction, got |Z|^2 = {z_norm_sq}")
    calc = pointwise_calculus(t, v.table, z, p)
    if calc.inverse_residual > p.tol:
        raise NonConvergedError(f"reciprocal-series inverse residual {calc.inverse_residual:.3e} "
                                f"exceeds tol {p.tol:.1e}")
    dd = v.defect_data
    z_d = np.tensordot(weights, lift.d_tilde_e.reshape(len(weights), t.h, lift.defect_rank), axes=1)
    row = dd.delta @ calc.matrix.conj().T @ z_d
    theta = dd.ran_delta_basis.conj().T @ (row - lift.t_tilde_e)
    if not np.isfinite(theta).all():
        raise np.linalg.LinAlgError("theta has non-finite entries")
    return CharFnEval(z=z, theta=theta, inverse_residual=calc.inverse_residual,
                      z_norm_sq=z_norm_sq, kernel_fn=calc.matrix @ dd.delta @ dd.ran_delta_basis,
                      tail_term=calc.tail_term)


def enumerated_kernel_fn(v, zs) -> np.ndarray:
    """V^*(k_z x I_r) at each point z of zs, one h x r block per point: k_z is sum_alpha
    sqrt(a_alpha) conj(z^alpha) e(alpha) over every multi-index alpha with |alpha| <= N, so
    its image is that weighted sum of the blocks of V^*, one block per alpha."""
    kernel_fns = np.sqrt(multi_coeff(v.table, v.indices, "a")) * np.conj(
        [monomials(point(z, v.ops.d), v.indices) for z in zs])
    vstar = v.matrix.conj().T.reshape(v.ops.h, len(v.indices), v.defect_data.rank)
    return np.tensordot(kernel_fns, vstar, axes=([1], [1]))


def dense_lift_defect(lift):
    """(D~, E): the square root of I - T~^*T~ and an orthonormal basis of its range.

    D~ comes from the eigendecomposition of the full (positive indices * h)
    square matrix, E from its eigenvectors past the h - rank Delta of the
    smallest eigenvalues, which span Ker D~.
    """
    m = lift.t_tilde.shape[1]
    d_sq = hermitize(np.eye(m, dtype=complex) - lift.t_tilde.conj().T @ lift.t_tilde)
    d_tilde, _, _, vecs = psd_sqrt(d_sq)
    return d_tilde, vecs[:, lift.dilation.ops.h - lift.dilation.defect_data.rank:]


def dense_theta(lift, z, defect) -> np.ndarray:
    """theta(z) from the full h x (positive indices * h) row, before compression.

    Reads only t_tilde, sqrt_b and the dilation, so lift may be either kind.

    defect is (D~, E): the lift's defect and the basis of its range in which
    theta's input is written.
    """
    d_tilde, basis = defect
    v = lift.dilation
    t, dd = v.ops, v.defect_data
    z = point(z, t.d)
    h = t.h
    weights = lift.sqrt_b * monomials(z, v.indices[1:])
    zrow = np.hstack([wj * np.eye(h, dtype=complex) for wj in weights])
    s_star = enumerated_calculus(t, v.table, z, v.params)[0].conj().T
    full = -lift.t_tilde + dd.delta @ s_star @ zrow @ d_tilde
    return dd.ran_delta_basis.conj().T @ full @ basis


def fitted_taylor_blocks(lift, n_taylor: int, radius: float = 0.9):
    """Taylor blocks of theta through degree n_taylor by a phase-grid fit.

    theta is sampled at modulus radius / sqrt(d) per coordinate and the
    monomial system solved in least squares; the grid makes it a scaled
    discrete Fourier matrix.  Twice as many phases as coefficients keeps the
    unmodelled degrees through 2 n_taylor + 1 orthogonal to the fit, so the
    degree-2N polynomial theta is recovered exactly when n_taylor = N.
    The samples are padded to all of theta's inputs (`padded_theta`), so the
    blocks are too.  Returns (blocks, max sample residual of the fit).
    """
    d = lift.dilation.ops.d
    k = 2 * (n_taylor + 1)
    rho = radius / np.sqrt(d)
    axis = rho * np.exp(2j * np.pi * np.arange(k) / k)
    grids = np.meshgrid(*([axis] * d), indexing="ij")
    pts = np.stack([g.ravel() for g in grids], axis=1)

    monomial_set = graded_indices(d, n_taylor)
    a_mat = np.stack([monomials(z, monomial_set) for z in pts])
    theta = padded_theta(lift, charfn_eval(lift, pts).theta)
    rhs = theta.reshape(len(pts), -1)
    coef, *_ = np.linalg.lstsq(a_mat, rhs, rcond=None)
    fit_res = float(np.max(np.abs(a_mat @ coef - rhs))) if rhs.size else 0.0
    blocks = {alpha: coef[j].reshape(theta.shape[1:]) for j, alpha in enumerate(monomial_set)}
    return blocks, fit_res


def gathered_taylor_blocks(lift) -> np.ndarray:
    """Taylor blocks of theta through total degree N, on theta's own columns, in graded order.

    Block beta of the dilation is V_beta = sqrt(a_beta) C^* Delta (T^beta)^* and
    (M^alpha x I) V has block sqrt(a_beta / a_gamma) V_beta at gamma = alpha + beta, so off
    degree 0 the stack is diag(a_gamma)^(1/2) sum_alpha sqrt(b_alpha) (M^alpha x I) V
    (D~E)_alpha over the support: gathers, then one product; block 0 is -C^* T~ E.
    """
    v = lift.dilation
    alphas = lift.support + 1
    gathers = v.tensored.graded_stack(v.matrix, sum(v.indices[alphas[-1]]))[alphas]
    weighted = np.repeat(lift.sqrt_b[lift.support], v.ops.h)[:, None] * lift.d_tilde_e
    flat = gathers.transpose(1, 0, 2).reshape(v.big_dim, -1)
    blocks = (flat @ weighted).reshape(*v.codomain_dims, -1)
    blocks *= np.sqrt(multi_coeff(v.table, v.indices, "a"))[:, None, None]
    blocks[0] = -(v.defect_data.ran_delta_basis.conj().T @ lift.t_tilde_e)
    return blocks


def span_taylor_blocks(lift) -> np.ndarray:
    """The Taylor stack of theta as verify_model reads it: W = C K on the columns C of
    the dilation's span, K = `span_coefficients`, scaled back by diag(a_gamma)^(1/2) x I_r."""
    v = lift.dilation
    w = v.span.columns @ span_coefficients(lift)
    return (np.sqrt(multi_coeff(v.table, v.indices, "a"))[:, None, None]
            * w.reshape(*v.codomain_dims, -1))


def looped_taylor_blocks(lift) -> np.ndarray:
    """The closed-form Taylor blocks of theta from a DenseLift, one gamma at a time.

    Block gamma is C^* Delta sum_{alpha <= gamma, alpha != 0} a_{gamma-alpha}
    sqrt(b_alpha) (T^{gamma-alpha})^* (D~E)_alpha, with the left factors
    a_beta C^* Delta (T^beta)^* taken as sqrt(a_beta) times block beta of V;
    block 0 is -C^* T~ E.
    """
    v = lift.dilation
    gmap = {alpha: i for i, alpha in enumerate(graded_indices(v.ops.d, v.N))}
    h, r = v.ops.h, v.codomain_dims[1]
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


def looped_model_gap(lift) -> np.ndarray:
    """(I - V V^*) - M_theta M_theta^* from a DenseLift, one column block beta of
    M_theta at a time.

    The delta with |beta| + |delta| <= N are a prefix of the graded order,
    so C_beta C_beta^* is that leading block of the Gram matrix of the
    looped Taylor blocks, weighted by sqrt(a_beta / a_{beta+delta}) on both
    sides and subtracted on the rows beta + delta it reaches.
    """
    v = lift.dilation
    blocks = looped_taylor_blocks(lift)
    r = blocks.shape[1]
    flat = blocks.reshape(-1, blocks.shape[2])
    gram = flat @ flat.conj().T
    idx = np.array(v.indices)
    degrees = idx.sum(axis=1)
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


def dense_model_gap(lift) -> np.ndarray:
    """(I - V V^*) - M_theta M_theta^* from a DenseLift, with M_theta formed densely.

    Block (beta + delta, beta) of M_theta is sqrt(a_beta / a_{beta+delta})
    Theta_delta, with Theta_delta from looped_taylor_blocks, written one
    (beta, delta) pair at a time into an (indices * r) x (indices * r_in)
    matrix.
    """
    v = lift.dilation
    blocks = looped_taylor_blocks(lift)
    indices = v.indices
    n_idx = len(indices)
    r_delta = v.codomain_dims[1]
    r_in = lift.defect_rank
    mtheta = np.zeros((n_idx * r_delta, n_idx * r_in), dtype=complex)
    pos = {alpha: i for i, alpha in enumerate(indices)}
    a_vals = [multi_coeff(v.table, alpha, "a") for alpha in indices]
    for col, beta in enumerate(indices):
        for delta_idx, block in zip(indices, blocks):
            row = pos.get(tuple(b + dxt for b, dxt in zip(beta, delta_idx)))
            if row is None:
                continue
            w = np.sqrt(a_vals[col] / a_vals[row])
            mtheta[row * r_delta:(row + 1) * r_delta, col * r_in:(col + 1) * r_in] = w * block
    big_eye = np.eye(n_idx * r_delta, dtype=complex)
    return (big_eye - v.matrix @ v.matrix.conj().T) - mtheta @ mtheta.conj().T


def model_gap(lift) -> np.ndarray:
    """(I - V V^*) - M_theta M_theta^* on the model space, M_theta M_theta^* = sum_k
    a_k sigma^k(G) with G = W W^*, W the Taylor stack scaled by diag(a_delta)^(-1/2) x I_r."""
    v = lift.dilation
    flat = span_taylor_blocks(lift).reshape(v.big_dim, -1)
    scale = np.repeat(1.0 / np.sqrt(multi_coeff(v.table, v.indices, "a")), v.codomain_dims[1])
    g = scale[:, None] * (flat @ flat.conj().T) * scale
    acc, _ = _weighted_series(tensored_shifts(v.table, v.N, v.codomain_dims[1]),
                              v.table.require_a(v.N)[:v.N + 1], g, 0)
    return np.eye(v.big_dim, dtype=complex) - v.matrix @ v.matrix.conj().T - acc


def b_inverse_gap(v, gap) -> np.ndarray:
    """R = -(gap - sum_{k>=1} b_k sigma^k(gap)): G - (X - sum_k b_k sigma^k(X)) for the
    gap X - sum_k a_k sigma^k(G), X = I - V V^*."""
    series, _ = _weighted_series(tensored_shifts(v.table, v.N, v.codomain_dims[1]),
                                 v.table.require_b(v.N)[:v.N + 1], gap, 0)
    return series - gap
