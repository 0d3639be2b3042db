"""Dense reference for the existence test of cnplab.model.

`dense_associated_tuple` compresses the Kronecker-product shifts M_i x I to
Ker V^* as dense matrices, A_i = K^* (M_i x I) K, and `dense_existence` runs
the contractivity test on that tuple with `cnplab.defect`.  The package sums
the same defect on the model space by the projected sigma-recursion and never
forms A, so differential tests can compare the two.  `dense_intertwining`
pushes a big_dim identity through the tensored shifts to form M^alpha x I,
where the package gathers the adjoint shifts on the columns of V.
`dense_check_factorability` is the factorability test as it stood before
the package summed its series on graded prefixes to the top degree: it takes
any Hermitian X and any dense tuple, such as the Kronecker tuple
`tensored_shifts`, and checks X by a full eigensolve.  For condition (1) it
forms c X - T_i X T_i^*, where the package assembles it from V, and counts
its eigenvalues below -tol by a full eigensolve, where the package counts
them by inertia on a small bordered matrix.  It sums both series by the
forward sigma-recursion `_weighted_series` to a given degree, watches their
tail windows, and evaluates condition (3), which the package does not: it
holds identically.
`projected_associated_defect` is the associated defect as the package summed
it before it compressed it to the span it reaches: U and K from a full SVD
of V, a dense projector P = I - U U^*, and the projected sigma-recursion
W_k = P sigma(W_{k-1}) P on the Kronecker tuple through N + tail_window.
That is the defect of the compression of the shifts to Ker V^*;
`restricted_associated_defect` is the defect of their restriction,
K^* (P - sum_k b_k sigma^k(P)) K, summed densely on the model space, which
is what the package compresses.  The two differ
only as far as Ker V^* fails to be invariant at the top degree.
`looped_canonical_phases` rotates one column at a time, where the package
rotates every column by one broadcast product.  `zero_tuple_probe` is the
CNP probe as it stood before the package read it as the Bergman
counterexample at compression degree 0: it embeds `OperatorTuple.zero(1, 1)`
itself and reads every form at once.  `qr_compressed_shift_forms` is the counterexample
form as the package read it before it summed it at e directly: `qr_associated_defect` on
U = I of the leading block, rebuilt for each compression degree, and the form at Q^* e.
`qr_associated_defect` is the associated defect as the package took it before it read the
dilation's one factored span: its own gather of E_0 and the M^alpha U (`defect_columns`)
and its own QR of [U, C], for any orthonormal U.  `split_rank` is the rank decision the
package took on the singular values of V before V's leading block of that QR replaced it.
`hermitian_norm` is the spectral norm of a Hermitian matrix from its eigenvalues, the second
norm kernel the package kept for its series tails before `opnorm` took them.
Other spectral norms are taken by SVD, `np.linalg.norm(x, 2)`, not by the package's `opnorm`.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

import cnplab as cl
from cnplab._linalg import RANK_REL_TOL, hermitize
from cnplab.coeffs import graded_indices, graded_position, multi_coeff
from cnplab.tuples import COMMUTATOR_TOL, _sigma, _weighted_series, shift_matrices, shift_norm_sq
from series_reference import dense_shifts, tensored_shifts, tuple_power


# Singular values within this factor of the threshold make the rank decision
# ambiguous; such decisions fail loudly instead of silently.
AMBIGUITY_FACTOR = 10.0


def hermitian_norm(a: np.ndarray) -> float:
    """Spectral norm of a Hermitian matrix from the eigenvalues of its lower triangle.

    Non-finite entries raise LinAlgError; eigvalsh would return numbers for them.
    """
    if not np.isfinite(a).all():
        raise np.linalg.LinAlgError("Hermitian norm of a matrix with non-finite entries")
    return float(np.abs(np.linalg.eigvalsh(a)).max()) if a.any() else 0.0


class AmbiguousRankError(cl.CnpLabError):
    """Singular values straddle the rank threshold; no safe rank decision."""


def split_rank(svals: np.ndarray) -> int:
    """Numerical rank from a descending singular-value array, failing loudly.

    Raises AmbiguousRankError when any singular value sits within a factor of
    AMBIGUITY_FACTOR of the threshold.
    """
    if len(svals) == 0 or svals[0] <= 0.0:
        return 0
    thr = RANK_REL_TOL * float(svals[0])
    for s in svals:
        if thr / AMBIGUITY_FACTOR < s < thr * AMBIGUITY_FACTOR:
            raise AmbiguousRankError(
                f"singular value {s:.3e} within a factor of {AMBIGUITY_FACTOR} "
                f"of the rank threshold {thr:.3e}"
            )
    return int(np.sum(svals >= thr))


def defect_columns(shifts, table, x, x_weight):
    """Columns C and weights w with C diag(w) C^* = Y - sum_{k>=1} b_k sigma^k(I - X X^*),
    Y = I + x_weight X X^*: E_0 (weight 1) and the gathers M^alpha X for |alpha| <= m
    (weights x_weight, then b_alpha; zero ones dropped), m <= N the last degree with b_m != 0."""
    top = len(shifts.ends) - 1
    b = table.require_b(top)
    m = max((k for k in range(1, top + 1) if b[k] != 0.0), default=0)
    weights = np.append(x_weight, multi_coeff(table, graded_indices(shifts.d, m)[1:], "b"))
    keep = np.flatnonzero(weights)
    cols = np.hstack([np.eye(shifts.h, shifts.ends[0]), *shifts.graded_stack(x, m)[keep]])
    return cols, np.append(np.ones(shifts.ends[0]), np.repeat(weights[keep], x.shape[1]))


def qr_associated_defect(shifts, table, u):
    """(Q, S) with Q S Q^* the associated defect I - sum_{k>=1} b_k sigma_A^k(I) on Ker V^*.

    u is an orthonormal basis U of Ran V, in the space the shifts act on.  The defect is
    P C diag(w) C^* P, P = I - U U^*, with C and w the `defect_columns` of U.  Q is an
    orthonormal basis, orthogonal to U, of a space holding Ran P C, so the eigenvalues on
    Ker V^* are those of S, and 0 when Q is narrower: from the QR of [U, C] without pivoting.
    """
    k = u.shape[1]
    cols, weights = defect_columns(shifts, table, u, 0.0)
    q, r = np.linalg.qr(np.hstack([u, cols]))
    return q[:, k:], hermitize((r[k:, k:] * weights) @ r[k:, k:].conj().T)


def dense_associated_tuple(v):
    """(K, A, invariance residual) for the dilation v.

    K is an orthonormal basis of Ker V^*, A the OperatorTuple K^* (M_i x I) K
    with commutators checked at ten times the invariance residual, which is
    the norm of (I - K K^*)(M_i x I) K on rows of degree <= N - 1.
    """
    r = v.codomain_dims[1]
    u, svals, _ = np.linalg.svd(v.matrix, full_matrices=True)
    k = u[:, split_rank(svals):]
    interior = np.array([sum(beta) <= v.N - 1 for beta in v.indices for _ in range(r)])
    mats, inv_res = [], 0.0
    for m in dense_shifts(v.table, v.N).mats:
        mk = np.kron(m, np.eye(r)) @ k
        compressed = k.conj().T @ mk
        inv_res = max(inv_res, np.linalg.norm((mk - k @ compressed)[interior], 2))
        mats.append(compressed)
    ops = cl.OperatorTuple(tuple(mats), commutator_tol=max(COMMUTATOR_TOL, 10.0 * inv_res))
    return k, ops, inv_res


def dense_existence(v, n=None):
    """(ContractionVerdict, DefectData, unit witness) of the dense associated tuple.

    The defect is summed through degree n, by default N + tail_window as in
    the existence test; the witness is K times the eigenvector of the
    smallest eigenvalue of the defect.
    """
    k, ops, _ = dense_associated_tuple(v)
    p = v.params
    p = cl.TruncationParams(p.N + p.tail_window if n is None else n, p.tol, p.tail_window)
    dd = cl.defect(ops, v.table, p)
    verdict = cl.is_contraction(dd)
    _, vecs = np.linalg.eigh(dd.delta_sq)
    return verdict, dd, k @ vecs[:, 0]


def dense_intertwining(v, alphas):
    """Max over alphas of |V^*(M^alpha x I) - T^alpha V^*| on the columns of degree <= N - |alpha|.

    M^alpha x I is formed as a big_dim x big_dim matrix by applying the
    tensored shifts to the identity, and T^alpha by matrix powers; an alpha
    with |alpha| > N is skipped.
    """
    r = v.codomain_dims[1]
    vstar = v.matrix.conj().T
    worst = 0.0
    for alpha in alphas:
        alpha = tuple(int(x) for x in alpha)
        if sum(alpha) > v.N:
            continue
        big_m = np.eye(v.big_dim, dtype=complex)
        for i, power in enumerate(alpha):
            for _ in range(power):
                big_m = v.tensored.apply(i, big_m)
        keep = [j * r + k for j, beta in enumerate(v.indices)
                if sum(beta) <= v.N - sum(alpha) for k in range(r)]
        diff = (vstar @ big_m - tuple_power(v.ops, alpha) @ vstar)[:, keep]
        worst = max(worst, np.linalg.norm(diff, 2))
    return worst


@dataclass(frozen=True)
class DenseFactorability:
    """The reference's report: FactorabilityReport's fields and the condition (3) residual."""

    verdict: str
    failed_condition: int | None
    cond1_negative_counts: tuple
    cond2_min_eig: float
    cond3_residual: float


def dense_check_factorability(x, t, table, p, c_degree=None):
    """Evaluate the factorability conditions for a Hermitian PSD matrix x.

    t is a dense tuple, such as the Kronecker tuple of the tensored shifts of
    a dilation space.  The series run through degree p.N and the constants c_i
    are the squared shift norms at c_degree (p.N by default).  Sign failures of conditions (1) and
    (2) are definitive at this truncation; a tail window above tol makes the
    verdict inconclusive.  With p.N = top + tail_window for shifts of top
    degree `top`, the windows see only the exact zeros past the top degree.
    """
    x = np.asarray(x, dtype=complex)
    # the Frobenius norm of x - x^* bounds its spectral norm, which needs an SVD
    if (np.linalg.norm(x - x.conj().T) > 1e-10
            and np.linalg.norm(x - x.conj().T, 2) > 1e-10 * max(1.0, np.linalg.norm(x, 2))):
        raise ValueError("x must be Hermitian")
    x = hermitize(x)
    min_x = float(np.linalg.eigvalsh(x)[0]) if x.size else 0.0
    if min_x < -p.tol:
        raise ValueError(f"x must be PSD up to tol, min eigenvalue {min_x:.3e}")
    c = shift_norm_sq(table, p.N if c_degree is None else c_degree)

    cond1 = tuple(int(np.count_nonzero(np.linalg.eigvalsh(hermitize(c * x - m @ x @ m.conj().T))
                                       < -p.tol)) for m in t.mats)

    p_of_x, inc2 = _weighted_series(t, table.require_b(p.N)[:p.N + 1], x, p.tail_window)
    gap = hermitize(x - p_of_x)
    cond2_min = float(np.linalg.eigvalsh(gap)[0]) if gap.size else 0.0
    cond2_tail = max(inc2, default=0.0)

    recon, inc3 = _weighted_series(t, table.require_a(p.N)[:p.N + 1], gap, p.tail_window)
    cond3_res = hermitian_norm(recon - x)
    cond3_tail = max(inc3, default=0.0)

    failed = None
    verdict = "factorable"
    if any(cond1):
        verdict, failed = "not_factorable", 1
    elif cond2_min < -p.tol:
        verdict, failed = "not_factorable", 2
    elif cond2_tail > p.tol:
        verdict = "inconclusive"
    elif cond3_res > p.tol:
        if cond3_tail <= p.tol:
            verdict, failed = "not_factorable", 3
        else:
            verdict = "inconclusive"
    return DenseFactorability(
        verdict=verdict,
        failed_condition=failed,
        cond1_negative_counts=cond1,
        cond2_min_eig=cond2_min,
        cond3_residual=cond3_res,
    )


def reports_agree(report, want):
    """Whether two factorability reports have the same cond1 counts, exactly, and cond2
    min-eigs within 1e-12."""
    return (report.cond1_negative_counts == want.cond1_negative_counts
            and abs(report.cond2_min_eig - want.cond2_min_eig) <= 1e-12)


def range_and_kernel(v):
    """(U, K): orthonormal bases of Ran V and Ker V^* from the full SVD of V."""
    u, svals, _ = np.linalg.svd(v.matrix, full_matrices=True)
    rank = split_rank(svals)
    return u[:, :rank], u[:, rank:]


def projected_associated_defect(v, n=None):
    """(K, I - sum_{1<=k<=n} b_k sigma_A^k(I), tail-window norms) for A = K^* (M_i x I) K.

    sigma_A^k(I) = K^* W_k K with W_0 = P and W_k = P sigma(W_{k-1}) P, P the
    dense projector onto Ker V^*, summed through n (N + tail_window by default).
    """
    u, k = range_and_kernel(v)
    n = v.params.N + v.params.tail_window if n is None else n
    b = v.table.require_b(n)
    dense = tensored_shifts(v.table, v.N, v.codomain_dims[1])
    proj = np.eye(v.big_dim, dtype=complex) - u @ u.conj().T
    layer, total, tail = proj, np.zeros_like(proj), []
    for deg in range(1, n + 1):
        layer = proj @ _sigma(dense, layer) @ proj
        total += b[deg] * layer
        if deg > n - v.params.tail_window:
            tail.append(hermitian_norm(b[deg] * layer))
    return k, hermitize(np.eye(k.shape[1], dtype=complex) - k.conj().T @ total @ k), tail


def restricted_associated_defect(v):
    """(K, K^* (P - sum_{k>=1} b_k sigma^k(P)) K), the sigma-series of P summed through N
    on the Kronecker tuple with no projection between its steps."""
    u, k = range_and_kernel(v)
    proj = np.eye(v.big_dim, dtype=complex) - u @ u.conj().T
    total, _ = _weighted_series(tensored_shifts(v.table, v.N, v.codomain_dims[1]),
                                v.table.require_b(v.N)[:v.N + 1], proj, 0)
    return k, hermitize(k.conj().T @ (proj - total) @ k)


def looped_canonical_phases(u):
    """Each column of u rotated in place so its first largest-magnitude entry is real positive."""
    if u.size == 0:
        return u
    out = np.array(u, dtype=complex)
    for j in range(out.shape[1]):
        k = int(np.argmax(np.abs(out[:, j])))
        pivot = out[k, j]
        if abs(pivot) > 0.0:
            out[:, j] *= pivot.conjugate() / abs(pivot)
    return out


def zero_tuple_probe(table, n):
    """Forms of the zero tuple's associated defect at e_2 .. e_n, in one variable."""
    spec = table.spec
    table1 = cl.build_table(cl.KernelSpec(1, spec.rule, spec.param, spec.label), n + 1)
    v = cl.build_dilation(cl.defect(cl.OperatorTuple.zero(1, 1), table1, cl.TruncationParams(N=n)))
    k, delta_sq, _ = projected_associated_defect(v, n)
    coords = k.conj().T[:, 2:]  # K^* e_k: one-variable index k sits at position k
    return np.real(np.sum(coords.conj() * (delta_sq @ coords), axis=0))


def qr_compressed_shift_forms(table, n, big_n, degrees):
    """Associated-defect forms, at e(k e_1) for k in degrees, of the shifts compressed to
    degrees <= n and embedded at truncation big_n: U = I on that leading block, the QR of
    [U, C] in `qr_associated_defect`, and the form of P e read at Q^* e."""
    shifts = shift_matrices(table, big_n).index
    basis, delta_sq = qr_associated_defect(shifts, table, np.eye(shifts.h, shifts.ends[n]))
    targets = graded_position(table.d, big_n, [(k,) + (0,) * (table.d - 1) for k in degrees])
    return [float(np.real(np.vdot(c, delta_sq @ c))) for c in basis[targets].conj()]


def qr_counterexample_form(m, n, d):
    """The Bergman-m counterexample's form at compression degree n, by the QR route."""
    [form] = qr_compressed_shift_forms(cl.build_table(cl.bergman(m, d=d), n + 4), n, n + 3,
                                       [n + 2])
    return form
