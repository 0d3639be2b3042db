"""Commuting matrix tuples, defect operators, contractivity and purity tests.

The desk-scale stand-in for a commuting d-tuple of bounded operators is a
tuple of d pairwise-commuting complex square matrices.  Strong-operator
convergence statements become truncated series with a monitored tail window,
so every verdict here is three-valued: yes / no / inconclusive.
"""

from __future__ import annotations

import math
from typing import NamedTuple

import numpy as np

from ._linalg import hermitian_norm, hermitize, opnorm, orthonormal_range, psd_sqrt
from .coeffs import (CoeffTable, ValueType, graded_count, graded_indices, graded_position,
                     graded_stack, multi_coeff)
from .errors import CommutationError

COMMUTATOR_TOL = 1e-12


class TruncationParams(ValueType):
    """Series cut-off degree, verification tolerance and tail policy."""

    __slots__ = ("N", "tol", "tail_window")

    def __init__(self, N: int, tol: float = 1e-9, tail_window: int = 3):
        if N < 1:
            raise ValueError(f"truncation degree must be >= 1, got {N}")
        if not 0.0 < tol < math.inf:
            raise ValueError(f"tolerance must be finite and positive, got {tol}")
        if tail_window < 1:
            raise ValueError(f"tail window must be >= 1, got {tail_window}")
        self._set(N=N, tol=tol, tail_window=tail_window)


class OperatorTuple(ValueType):
    """d pairwise-commuting complex h x h matrices.

    Commutators are checked at construction against
    commutator_tol * max(1, |T_i| |T_j|); matrices are stored read-only.
    """

    __slots__ = ("mats", "commutator_tol")

    def __init__(self, mats: tuple, commutator_tol: float = COMMUTATOR_TOL):
        mats = tuple(np.array(m, dtype=complex) for m in mats)
        if len(mats) == 0:
            raise ValueError("need at least one matrix")
        h = mats[0].shape[0]
        for m in mats:
            if m.ndim != 2 or m.shape != (h, h):
                raise ValueError(f"all matrices must be square of equal size, got {m.shape}")
        norms = [opnorm(m) for m in mats]
        for i in range(len(mats)):
            for j in range(i + 1, len(mats)):
                comm = opnorm(mats[i] @ mats[j] - mats[j] @ mats[i])
                bound = commutator_tol * max(1.0, norms[i] * norms[j])
                if comm > bound:
                    raise CommutationError(
                        f"matrices {i} and {j} do not commute: |[T_i, T_j]| = {comm:.3e} > {bound:.3e}"
                    )
        for m in mats:
            m.setflags(write=False)
        self._set(mats=mats, commutator_tol=commutator_tol)

    @property
    def h(self) -> int:
        return self.mats[0].shape[0]

    @property
    def d(self) -> int:
        return len(self.mats)

    @classmethod
    def zero(cls, h: int, d: int) -> "OperatorTuple":
        return cls(tuple(np.zeros((h, h), dtype=complex) for _ in range(d)))

    @classmethod
    def from_scalars(cls, *values: complex) -> "OperatorTuple":
        return cls(tuple(np.array([[v]], dtype=complex) for v in values))


class TuplePowers:
    """All products T^alpha for |alpha| <= N as one (m, h, h) stack in graded order.

    Entry alpha is T_i T^(alpha - e_i), with i the first nonzero coordinate of
    alpha: one batched product per coordinate and degree (`coeffs.graded_stack`).
    """

    def __init__(self, t: OperatorTuple, n: int):
        self.n = n
        self.stack = graded_stack(np.eye(t.h, dtype=complex), t.d, n, lambda i, y: t.mats[i] @ y)


def _sigma(t: OperatorTuple, x: np.ndarray) -> np.ndarray:
    """sigma(X) = sum_i T_i X T_i^*, the completely positive map."""
    return sum(m @ x @ m.conj().T for m in t.mats)


def _weighted_series(t: OperatorTuple, table: CoeffTable, n: int, which: str,
                     middle: np.ndarray | None = None, start_degree: int = 0, window: int = 0):
    """sum over k in [start_degree, n] of c_k sigma^k(M), with c_k = a_k or b_k.

    The dense tuple t commutes, so sigma^k(M) is
    sum_{|alpha|=k} multinomial(alpha) T^alpha M (T^alpha)^*.  Returns (total,
    norms of the summed increments among the last `window` degrees).  M (the
    identity by default) and so every increment is Hermitian.  The recursion
    stops once every later increment is exactly 0: zero times a finite
    matrix, or the zero matrix.
    """
    coeffs = table.require_b(n) if which == "b" else table.require_a(n)
    last = max((k for k in range(start_degree, n + 1) if coeffs[k] != 0.0), default=-1)
    layer = np.eye(t.h, dtype=complex) if middle is None else np.asarray(middle, dtype=complex)
    total = np.zeros((t.h, t.h), dtype=complex)
    tail: list[float] = []
    for k in range(n + 1):
        if k:
            layer = _sigma(t, layer)
        if k >= start_degree:
            inc = coeffs[k] * layer
            total += inc
            if k > n - window:
                tail.append(hermitian_norm(inc))
        if (k >= last or not layer.any()) and np.isfinite(layer).all():
            tail += [0.0] * (n - max(k, n - window, start_degree - 1))
            break
    return total, tail


# ---------------------------------------------------------------------------
# Defect operator
# ---------------------------------------------------------------------------

class DefectData(NamedTuple):
    """Truncated defect operator of a tuple against one kernel.

    delta_sq is I - sum_{1<=|alpha|<=N} b_alpha T^alpha (T^alpha)^*, delta its
    positive square root (computed from the eigenvalue-clipped matrix when
    delta_sq is indefinite, with min_eig keeping the honest sign),
    ran_delta_basis an orthonormal basis of the numerical range of delta,
    increment_norms the norms of the last tail_window series increments.
    `rank` is the one rank decision on Delta: the lift drops h - rank
    directions (`build_lift`) and takes none of its own.
    """

    delta_sq: np.ndarray
    delta: np.ndarray
    ran_delta_basis: np.ndarray
    tail_norm: float
    min_eig: float
    increment_norms: tuple

    @property
    def rank(self) -> int:
        return self.ran_delta_basis.shape[1]


def defect(t: OperatorTuple, table: CoeffTable, p: TruncationParams) -> DefectData:
    """Truncated defect of t: the b-weighted series subtracted from the identity."""
    series, tail = _weighted_series(t, table, p.N, "b", start_degree=1, window=p.tail_window)
    delta_sq = hermitize(np.eye(t.h, dtype=complex) - series)
    delta, min_eig, vals, vecs = psd_sqrt(delta_sq)
    basis = orthonormal_range(vals, vecs)
    return DefectData(
        delta_sq=delta_sq,
        delta=delta,
        ran_delta_basis=basis,
        tail_norm=max(tail, default=0.0),
        min_eig=min_eig,
        increment_norms=tuple(tail),
    )


# ---------------------------------------------------------------------------
# Contractivity and purity
# ---------------------------------------------------------------------------

class ContractionVerdict(NamedTuple):
    status: str  # "yes" | "no" | "inconclusive"
    min_eig: float
    tail_norm: float

    @classmethod
    def decide(cls, min_eig: float, tail_norm: float, tol: float) -> "ContractionVerdict":
        """yes needs min_eig >= -tol and a tail window below tol: a live tail certifies nothing."""
        status = "no" if min_eig < -tol else "inconclusive" if tail_norm > tol else "yes"
        return cls(status=status, min_eig=min_eig, tail_norm=tail_norm)


def is_contraction(t: OperatorTuple, table: CoeffTable, p: TruncationParams,
                   defect_data: DefectData | None = None) -> ContractionVerdict:
    """Three-valued contractivity test on the truncated defect (ContractionVerdict.decide)."""
    dd = defect(t, table, p) if defect_data is None else defect_data
    return ContractionVerdict.decide(dd.min_eig, dd.tail_norm, p.tol)


class PurityVerdict(NamedTuple):
    status: str  # "pure" | "not_pure" | "inconclusive"
    residual: float
    tail_increments: tuple


def is_pure(t: OperatorTuple, table: CoeffTable, p: TruncationParams,
            defect_data: DefectData | None = None) -> PurityVerdict:
    """Tests whether the a-weighted defect series reaches the identity.

    pure: the partial sum at degree N is within tol of I and the monitored
    tail increments are non-increasing.  not_pure: the increments have
    numerically converged while the partial sum stays far from I.
    """
    if defect_data is None:
        defect_data = defect(t, table, p)
    total, window = _weighted_series(t, table, p.N, "a", middle=defect_data.delta_sq,
                                     window=p.tail_window)
    residual = opnorm(total - np.eye(t.h, dtype=complex))
    # non-increasing up to rounding: equal increments must count as shrinking
    shrinking = all(window[k + 1] <= window[k] * (1.0 + 1e-12) + 1e-15
                    for k in range(len(window) - 1))
    settled = max(window, default=0.0) <= p.tol and residual > 10.0 * p.tol
    status = "pure" if residual <= p.tol and shrinking else "not_pure" if settled else "inconclusive"
    return PurityVerdict(status=status, residual=residual, tail_increments=tuple(window))


# ---------------------------------------------------------------------------
# Truncated shift matrices
# ---------------------------------------------------------------------------

class IndexShifts(NamedTuple):
    """Weighted shifts on C^h with one nonzero per column, kept as index maps.

    maps[i] = (dst, src, weight) says T_i e_src[j] = weight[j] e_dst[j] with
    real weights; both index arrays are injective, so T_i X is a row gather,
    not a dense product, and T_i T_i^* is diagonal.  The shifts commute by
    construction.  ends[j] is the length of the leading block of degrees
    <= j, through the top degree.
    """

    maps: tuple
    h: int
    ends: tuple

    @property
    def d(self) -> int:
        return len(self.maps)

    def apply(self, i: int, x: np.ndarray) -> np.ndarray:
        """T_i X, for an (h, c) X or an (m, h, c) stack of them."""
        dst, src, w = self.maps[i]
        out = np.zeros((*x.shape[:-2], self.h, x.shape[-1]), dtype=complex)
        out[..., dst, :] = w[:, None] * x[..., src, :]
        return out

    def apply_adjoint(self, i: int, x: np.ndarray) -> np.ndarray:
        """T_i^* X: row src[j] of the result is w[j] X[dst[j]]; X may be a stack, as in apply."""
        dst, src, w = self.maps[i]
        out = np.zeros((*x.shape[:-2], self.h, x.shape[-1]), dtype=complex)
        out[..., src, :] = w[:, None] * x[..., dst, :]
        return out

    def graded_stack(self, x: np.ndarray, m: int) -> np.ndarray:
        """T^alpha X for |alpha| <= m in graded order: one gather per coordinate and degree."""
        return graded_stack(np.asarray(x, dtype=complex), self.d, m, self.apply)

    def outer_diagonal(self, i: int) -> np.ndarray:
        """The diagonal of T_i T_i^*: weight^2 on dst, 0 elsewhere."""
        dst, _, w = self.maps[i]
        out = np.zeros(self.h)
        out[dst] = w ** 2
        return out

    def tensor(self, r: int) -> "IndexShifts":
        """The shifts T_i x I_r on C^h x C^r, the C^r coordinate fastest."""
        def spread(idx):
            return (idx[:, None] * r + np.arange(r)).ravel()
        return IndexShifts(tuple((spread(dst), spread(src), np.repeat(w, r))
                                 for dst, src, w in self.maps), self.h * r,
                           tuple(e * r for e in self.ends))


class TruncatedShifts(NamedTuple):
    """Compressions of the coordinate multipliers to degrees <= N, as index maps.

    `index` holds the shifts on the orthonormal monomial basis e(alpha) =
    sqrt(a_alpha) z^alpha listed in graded_indices(d, N) order, with a_alpha
    in `a_alpha`; no dense matrix is formed.  The field `index` shadows tuple.index.
    """

    index: IndexShifts
    a_alpha: np.ndarray


def shift_matrices(table: CoeffTable, n: int) -> TruncatedShifts:
    """Index maps of the coordinate shifts compressed to degree <= n.

    M_i e(alpha) = sqrt(a_alpha / a_{alpha+e_i}) e(alpha + e_i) below degree
    n, and 0 at degree n; the a-table must extend through n + 1.
    The vector of a_alpha is built here, once, and read by every later stage.
    """
    table.require_a(n + 1)
    indices = np.array(graded_indices(table.d, n))
    a_alpha = multi_coeff(table, indices, "a")
    a_alpha.setflags(write=False)
    src = np.arange(graded_count(table.d, n - 1))  # degrees < n lead the graded order
    ups = indices[src] + np.eye(table.d, dtype=int)[:, None]  # alpha + e_i in row i
    dsts = graded_position(table.d, n, ups.reshape(-1, table.d)).reshape(table.d, len(src))
    maps = tuple((dst, src, np.sqrt(a_alpha[src] / a_alpha[dst])) for dst in dsts)
    ends = tuple(graded_count(table.d, j) for j in range(n + 1))
    return TruncatedShifts(index=IndexShifts(maps, len(indices), ends), a_alpha=a_alpha)


class ShiftNormBound(NamedTuple):
    """max_{|alpha|<=N} a_alpha / a_{alpha+e_i}: the squared shift norm.

    Exact for the truncated matrix; a lower bound for the full operator when
    the maximum sits at the truncation boundary, which `lower_bound` flags.
    """

    value: float
    lower_bound: bool
    argmax: tuple


def shift_norm_sq(table: CoeffTable, i: int, n: int) -> ShiftNormBound:
    """In closed form: a_alpha / a_{alpha+e_i} = (a_k / a_{k+1}) (alpha_i + 1) / (k + 1) at
    |alpha| = k, so the maximum over degree k is a_k / a_{k+1}, attained only at k e_i."""
    a = table.require_a(n + 1)
    if not 0 <= i < table.d:
        raise ValueError(f"coordinate {i} out of range for d={table.d}")
    ratios = a[:n + 1] / a[1:n + 2]
    k = int(np.argmax(ratios))
    return ShiftNormBound(value=float(ratios[k]), lower_bound=k == n,
                          argmax=tuple(k if j == i else 0 for j in range(table.d)))
