"""Small dense linear-algebra helpers used throughout the package."""

from __future__ import annotations

import numpy as np

from .errors import AmbiguousRankError

# Relative eigenvalue/singular-value threshold for every rank decision.
RANK_REL_TOL = 1e-10

# Singular values within this factor of the threshold make the rank decision
# ambiguous; such decisions fail loudly instead of silently.
AMBIGUITY_FACTOR = 10.0

NON_FINITE_NORM = "spectral norm of a matrix with non-finite entries"


def opnorm(a: np.ndarray):
    """Spectral norm, 0 for an empty or all-zero matrix; LinAlgError on non-finite entries.

    A matrix takes its largest singular value; a stack (m, p, q) takes, per matrix,
    s sqrt(lambda_max(G)) from one batched eigvalsh, s its largest entry modulus and G
    the smaller Gram matrix of a / s, which the scaling keeps from overflow and underflow."""
    if not np.isfinite(a).all():
        raise np.linalg.LinAlgError(NON_FINITE_NORM)
    if a.ndim == 2:
        return float(np.linalg.svd(a, compute_uv=False)[0]) if a.any() else 0.0
    s = np.abs(a).max(axis=(1, 2), initial=0.0)
    s[s == 0.0] = 1.0
    # a complex a / s forms 1/s, which overflows for a subnormal s: such members are lifted by
    # 2^64 first, exactly, and a stack without them keeps the bits of a / s
    lift = np.where(s < 2.0 ** -1022, 2.0 ** 64, 1.0)[:, None, None]
    b = (a * lift if (lift > 1.0).any() else a) / (s[:, None, None] * lift)
    gram = b.conj().swapaxes(1, 2) @ b if a.shape[2] <= a.shape[1] else b @ b.conj().swapaxes(1, 2)
    return s * np.sqrt(np.linalg.eigvalsh(gram).max(axis=-1, initial=0.0))


def hermitian_norm(a: np.ndarray) -> float:
    """Spectral norm of a Hermitian matrix from the eigenvalues of its lower triangle.

    Non-finite entries raise LinAlgError; eigvalsh would return numbers for them.
    """
    if not np.isfinite(a).all():
        raise np.linalg.LinAlgError("Hermitian norm of a matrix with non-finite entries")
    return float(np.abs(np.linalg.eigvalsh(a)).max()) if a.any() else 0.0


def hermitize(a: np.ndarray) -> np.ndarray:
    return 0.5 * (a + a.conj().T)


def canonical_phases(u: np.ndarray) -> np.ndarray:
    """Rotate each column so its largest-magnitude entry is real positive.

    Removes the arbitrary phase of eigenvectors and singular vectors, which
    keeps reported matrices deterministic across runs.
    """
    if u.size == 0:
        return u
    out = np.array(u, dtype=complex)
    pivots = out[np.argmax(np.abs(out), axis=0), np.arange(out.shape[1])]
    # scalar quotients, then one broadcast product: the bits of a column-by-column
    # rotation, except for a single row, where numpy's length-1 loop rounds apart
    return out * np.array([p.conjugate() / abs(p) if abs(p) > 0.0 else 1.0 for p in pivots])


def psd_decompose(a: np.ndarray):
    """Eigendecomposition of a Hermitian matrix, returned ascending.

    Returns (eigvals, eigvecs) with canonical column phases.
    """
    if a.shape[0] == 0:
        return np.zeros(0), np.zeros((0, 0), dtype=complex)
    vals, vecs = np.linalg.eigh(hermitize(a))
    return vals, canonical_phases(vecs)


def psd_sqrt(a: np.ndarray):
    """Positive square root of a Hermitian matrix with negative eigenvalues clipped.

    Returns (sqrt_matrix, min_eig, eigvals, eigvecs).
    """
    vals, vecs = psd_decompose(a)
    min_eig = float(vals[0]) if len(vals) else 0.0
    clipped = np.clip(vals, 0.0, None)
    root = (vecs * np.sqrt(clipped)) @ vecs.conj().T
    return root, min_eig, vals, vecs


def orthonormal_range(vals: np.ndarray, vecs: np.ndarray) -> np.ndarray:
    """Orthonormal basis of the numerical range of a Hermitian PSD matrix.

    From its psd_decompose eigenpairs: the eigenvectors with eigenvalue above
    RANK_REL_TOL * max_eig, in ascending eigenvalue order with canonical phases.
    """
    if len(vals) == 0 or vals[-1] <= 0.0:
        return np.zeros((vecs.shape[0], 0), dtype=complex)
    return vecs[:, vals > RANK_REL_TOL * vals[-1]]


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
