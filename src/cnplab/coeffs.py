"""Coefficient algebra for unitarily invariant kernels on the unit ball.

A unitarily invariant kernel k(z, w) = sum_n a_n <z, w>^n is determined by
its scalar coefficient sequence {a_n} with a_0 = 1 and a_n > 0.  Everything
downstream is derived from that sequence: the reciprocal sequence {b_n}
solving sum_{n>=1} b_n t^n = 1 - 1/(sum_n a_n t^n), multi-index coefficients
a_alpha = a_|alpha| * multinomial(alpha), the complete Nevanlinna-Pick
classification (all b_n >= 0), pointwise kernel evaluation, and ratio-test
radius estimates.

The graded order of multi-indices is decided here and nowhere else:
graded_indices lists it, graded_position finds a stack of multi-indices in
it, and graded_count gives the length of its leading block of degrees <= j.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache
from typing import Iterator, Sequence

import numpy as np

from .errors import DomainError, InsufficientCacheError, InvalidKernelError

# Absolute tolerance below which a numerically computed b_n counts as zero
# for CNP classification.
CNP_TOL = 1e-12

RULES = ("szego", "drury_arveson", "bergman", "dirichlet_t", "custom")


# ---------------------------------------------------------------------------
# Multi-index utilities
# ---------------------------------------------------------------------------

def _compositions(n: int, d: int) -> Iterator[tuple[int, ...]]:
    if d == 1:
        yield (n,)
        return
    for k in range(n + 1):
        for rest in _compositions(n - k, d - 1):
            yield (k,) + rest


@lru_cache(maxsize=None)
def graded_indices(d: int, n: int) -> tuple[tuple[int, ...], ...]:
    """All multi-indices of length d with total degree <= n.

    Ordering is graded lexicographic and stable: primary key is the total
    degree, secondary key is ascending lexicographic order of the tuple.
    Every basis-dependent matrix in the package is reported in this order.
    """
    if d < 1 or n < 0:
        raise ValueError(f"need d >= 1 and n >= 0, got d={d}, n={n}")
    out: list[tuple[int, ...]] = []
    for deg in range(n + 1):
        out.extend(_compositions(deg, d))
    return tuple(out)


def graded_count(d: int, j: int) -> int:
    """Number of multi-indices of length d and degree <= j: the graded order's leading block."""
    return math.comb(j + d, d)


@lru_cache(maxsize=None)
def _graded_keys(d: int, n: int) -> tuple[np.ndarray, np.ndarray]:
    """Sorted base-(n + 1) keys of graded_indices(d, n), and the positions they sort from."""
    keys = np.array(graded_indices(d, n)) @ (n + 1) ** np.arange(d)
    order = np.argsort(keys)
    return keys[order], order


def graded_position(d: int, n: int, rows) -> np.ndarray:
    """Positions of the rows of an (m, d) stack of multi-indices inside graded_indices(d, n).

    A row with a negative entry or degree above n raises ValueError: it is
    outside the basis, and its base-(n + 1) key may equal the key of a row
    inside it.
    """
    rows = np.asarray(rows, dtype=int)
    outside = np.flatnonzero((rows < 0).any(axis=1) | (rows.sum(axis=1) > n))
    if len(outside):
        raise ValueError(f"multi-index {rows[outside[0]]} is not in graded_indices({d}, {n})")
    keys, order = _graded_keys(d, n)
    return order[np.searchsorted(keys, rows @ (n + 1) ** np.arange(d))]


def multinomial(alpha: Sequence[int]) -> int:
    """Multinomial coefficient |alpha|! / prod(alpha_i!), an exact integer at every degree."""
    entries = tuple(int(a) for a in alpha)
    if any(a < 0 for a in entries):
        raise ValueError(f"multinomial undefined for negative entries: {entries}")
    out = math.factorial(sum(entries))
    for a in entries:
        out //= math.factorial(a)
    return out


# ---------------------------------------------------------------------------
# Kernel specifications
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class KernelSpec:
    """A unitarily invariant kernel: ambient dimension plus a coefficient rule.

    rule is one of "szego", "drury_arveson", "bergman" (param: integer
    m >= 1), "dirichlet_t" (param: finite real t >= 0) or "custom" (param:
    finite list of positive finite coefficients starting with 1).
    """

    d: int
    rule: str
    param: object = None
    label: str = ""

    def __post_init__(self):
        if self.d < 1:
            raise InvalidKernelError(f"ambient dimension must be >= 1, got {self.d}")
        if self.rule not in RULES:
            raise InvalidKernelError(f"unknown rule {self.rule!r}; expected one of {RULES}")
        if self.rule == "bergman":
            m = self.param
            if not isinstance(m, int) or m < 1:
                raise InvalidKernelError(f"bergman requires integer m >= 1, got {m!r}")
        elif self.rule == "dirichlet_t":
            t = self.param
            if not isinstance(t, (int, float)) or not 0 <= t < math.inf:
                raise InvalidKernelError(f"dirichlet_t requires finite real t >= 0, got {t!r}")
        elif self.rule == "custom":
            coeffs = self.param
            if coeffs is None or isinstance(coeffs, (str, int, float)):
                raise InvalidKernelError("custom rule requires a sequence of coefficients")
            coeffs = tuple(float(c) for c in coeffs)
            if len(coeffs) == 0 or coeffs[0] != 1.0:
                raise InvalidKernelError("custom coefficients must start with a_0 = 1")
            if not all(0.0 < c < math.inf for c in coeffs):
                raise InvalidKernelError("custom coefficients must all be positive and finite")
            object.__setattr__(self, "param", coeffs)
        if not self.label:
            object.__setattr__(self, "label", self._default_label())

    def _default_label(self) -> str:
        if self.rule == "bergman":
            return f"bergman({self.param})"
        if self.rule == "dirichlet_t":
            return f"dirichlet_t({self.param})"
        if self.rule == "custom":
            return "custom"
        return self.rule


def szego(d: int = 1, label: str = "") -> KernelSpec:
    return KernelSpec(d=d, rule="szego", label=label)


def drury_arveson(d: int, label: str = "") -> KernelSpec:
    return KernelSpec(d=d, rule="drury_arveson", label=label)


def bergman(m: int, d: int = 1, label: str = "") -> KernelSpec:
    return KernelSpec(d=d, rule="bergman", param=m, label=label)


def dirichlet_t(t: float, d: int = 1, label: str = "") -> KernelSpec:
    return KernelSpec(d=d, rule="dirichlet_t", param=t, label=label)


def custom_kernel(coeffs: Sequence[float], d: int = 1, label: str = "") -> KernelSpec:
    return KernelSpec(d=d, rule="custom", param=tuple(coeffs), label=label)


def _scalar_coeffs(spec: KernelSpec, n: int) -> np.ndarray:
    if spec.rule in ("szego", "drury_arveson"):
        return np.ones(n + 1)
    if spec.rule == "bergman":
        m = spec.param
        a = np.empty(n + 1)
        a[0] = 1.0
        for k in range(1, n + 1):
            # binomial(k + m - 1, m - 1) via the stable recurrence
            a[k] = a[k - 1] * (k + m - 1) / k
        return a
    if spec.rule == "dirichlet_t":
        t = float(spec.param)
        return (np.arange(n + 1) + 1.0) ** (-t)
    # custom: missing tail entries are an error, never extrapolated
    coeffs = spec.param
    if n + 1 > len(coeffs):
        raise InvalidKernelError(
            f"custom rule supplies {len(coeffs)} coefficients, degree {n} requested"
        )
    return np.asarray(coeffs[: n + 1], dtype=float)


# ---------------------------------------------------------------------------
# Coefficient tables
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class CoeffTable:
    """Cached prefix of the scalar sequences {a_n} and {b_n} for one kernel; read-only arrays."""

    spec: KernelSpec
    a: np.ndarray
    b: np.ndarray

    def __post_init__(self):
        for name in ("a", "b"):
            arr = np.asarray(getattr(self, name), dtype=float)
            arr.setflags(write=False)
            object.__setattr__(self, name, arr)

    @property
    def n_max(self) -> int:
        return len(self.a) - 1

    @property
    def d(self) -> int:
        return self.spec.d

    def require_b(self, n: int) -> np.ndarray:
        self.require_a(n)
        return self.b

    def require_a(self, n: int) -> np.ndarray:
        if n > self.n_max:
            raise InsufficientCacheError(f"table cached through degree {self.n_max}, degree {n} requested")
        return self.a


def build_table(spec: KernelSpec, n: int) -> CoeffTable:
    """a_0 .. a_n for the rule of spec, and the reciprocal sequence {b_n}.

    sum b_n t^n = 1 - 1/(sum a_n t^n) by the convolution recursion
    b_n = a_n - sum_{j=1}^{n-1} b_j a_{n-j}, which makes b_1 = a_1 bit-exact.
    Total for every positive input sequence.  For custom coefficient lists
    the relation is a formal power-series statement about the cached
    prefix; nothing is claimed about pointwise values of the reciprocal
    beyond it.
    """
    if n < 0:
        raise ValueError(f"degree must be >= 0, got {n}")
    a = _scalar_coeffs(spec, n)
    if a[0] != 1.0:
        raise InvalidKernelError("generated sequence must start with a_0 = 1")
    if np.any(a <= 0.0):
        raise InvalidKernelError("generated coefficients must be strictly positive")
    b = np.zeros(n + 1)
    for k in range(1, n + 1):
        acc = a[k]
        for j in range(1, k):
            acc -= b[j] * a[k - j]
        b[k] = acc
    return CoeffTable(spec=spec, a=a, b=b)


def multi_coeff(table: CoeffTable, alpha, which: str = "a"):
    """Multi-index coefficient a_alpha or b_alpha; for an (m, d) stack of indices, their vector.

    a_alpha = a_|alpha| * multinomial(alpha) on nonnegative indices and 0 as
    soon as any entry is negative; b_alpha analogously but undefined at
    alpha = 0.
    """
    if which not in ("a", "b"):
        raise ValueError(f"which must be 'a' or 'b', got {which!r}")
    rows = np.asarray(alpha, dtype=int)
    if rows.ndim not in (1, 2) or rows.shape[-1] != table.d:
        raise ValueError(f"multi-index shape {rows.shape} does not match d={table.d}")
    stack = rows.reshape(-1, table.d)
    live = (stack >= 0).all(axis=1)
    deg = stack.sum(axis=1)[live]
    if which == "b" and (deg == 0).any():
        raise ValueError("b_alpha is undefined at alpha = 0")
    top = int(deg.max(initial=0))
    scalars = table.require_b(top) if which == "b" else table.require_a(top)
    out = np.zeros(len(stack))
    out[live] = scalars[deg] * np.array([multinomial(r) for r in stack[live]], dtype=float)
    return out if rows.ndim == 2 else float(out[0])


# ---------------------------------------------------------------------------
# CNP classification
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class CnpClassification:
    """Degree-limited CNP certificate: all b_n >= 0 through the given degree.

    A consistent verdict certifies nonnegativity only up to `degree`; it is
    not a proof for the full sequence.
    """

    consistent: bool
    degree: int
    first_failure: int | None = None
    value: float | None = None

    def describe(self) -> str:
        if self.consistent:
            return f"cnp_consistent(N={self.degree})"
        return f"not_cnp(n={self.first_failure}, b={self.value:.6g})"


def is_cnp(table: CoeffTable, n: int | None = None, tol_zero: float = CNP_TOL) -> CnpClassification:
    """Classify the kernel by the sign pattern of b_1 .. b_n."""
    if n is None:
        n = table.n_max
    b = table.require_b(n)
    for k in range(1, n + 1):
        if b[k] < -tol_zero:
            return CnpClassification(consistent=False, degree=n, first_failure=k, value=float(b[k]))
    return CnpClassification(consistent=True, degree=n)


# ---------------------------------------------------------------------------
# Pointwise evaluation and radius estimates
# ---------------------------------------------------------------------------

def as_points(zs, d: int) -> np.ndarray:
    """zs as an (m, d) complex stack of m >= 1 finite points; ValueError for anything else."""
    arr = np.asarray(zs, dtype=complex)
    if arr.ndim != 2 or arr.shape[0] < 1 or arr.shape[1] != d:
        raise ValueError(f"points have shape {arr.shape}, expected (m, {d}) with m >= 1")
    if not np.isfinite(arr).all():
        i, j = np.argwhere(~np.isfinite(arr))[0]
        raise ValueError(f"non-finite entry {arr[i, j]} at point {i}, coordinate {j}")
    return arr


def in_ball(zs, d: int, name: str) -> np.ndarray:
    """as_points, with DomainError for the first point not strictly inside the unit ball."""
    pts = as_points(zs, d)
    norms = np.linalg.norm(pts, axis=1)
    out = np.flatnonzero(norms >= 1.0)
    if len(out):
        raise DomainError(f"{name}[{out[0]}] has norm {norms[out[0]]:.6g}, not below 1")
    return pts


def inner_products(zs: np.ndarray, ws: np.ndarray) -> np.ndarray:
    """<z_j, w_j> = sum_i z_ji conj(w_ji) over two point stacks of the same length."""
    if zs.shape != ws.shape:
        raise ValueError(f"point stacks of shapes {zs.shape} and {ws.shape} do not pair up")
    return np.sum(zs * np.conj(ws), axis=1)


@dataclass(frozen=True)
class KernelValue:
    value: np.ndarray
    tail_term: np.ndarray


def kernel_eval(table: CoeffTable, zs, ws, n: int | None = None) -> KernelValue:
    """Truncated kernel values sum_{k<=n} a_k <z, w>^k for the pairs (z, w) of rows of zs, ws.

    The magnitude of each last retained term is reported as a truncation
    diagnostic.  Points must lie strictly inside the unit ball.
    """
    x = inner_products(in_ball(zs, table.d, "z"), in_ball(ws, table.d, "w"))
    if n is None:
        n = table.n_max
    return scalar_series(table.require_a(n), x, n)


def scalar_series(coeffs: Sequence[float], x: np.ndarray, n: int) -> KernelValue:
    """sum_{k<=n} coeffs[k] x^k at each entry of x, in degree order; |coeffs[n] x^n| is the tail."""
    value = 0.0 + 0.0j
    power = np.ones_like(x)
    last = 0.0
    for k in range(n + 1):
        term = coeffs[k] * power
        value += term
        last = abs(term)
        power *= x
    return KernelValue(value=value, tail_term=last)


@dataclass(frozen=True)
class RadiusEstimate:
    radius: float
    reliable: bool
    exact_polynomial: bool
    spread: float


def estimate_radius(table: CoeffTable, which: str = "a") -> RadiusEstimate:
    """Ratio-test estimate of the radius of convergence of the a- or b-series.

    Consecutive-coefficient ratios |c_n / c_{n+1}| are averaged over the last
    quartile of cached indices; zero coefficients are skipped, with the ratio
    of the surviving neighbours taken to the power 1/gap so that a sparse
    series is still estimated consistently.  If everything past the last
    quartile boundary is zero the series is an exact polynomial and the
    radius is +inf.
    """
    if which == "a":
        coeffs = np.asarray(table.a)
        start = 0
    elif which == "b":
        coeffs = table.b[1:]
        start = 1
    else:
        raise ValueError(f"which must be 'a' or 'b', got {which!r}")
    if len(coeffs) < 10:
        raise InsufficientCacheError("radius estimate needs at least 10 cached coefficients")

    top = start + len(coeffs) - 1
    tail_start = 3 * top // 4
    nonzero = [(i + start, c) for i, c in enumerate(coeffs) if c != 0.0]
    in_tail = [idx for idx, _ in nonzero if idx > tail_start]
    if len(nonzero) < 2 or not in_tail:
        return RadiusEstimate(radius=math.inf, reliable=True, exact_polynomial=True, spread=0.0)

    ratios = []
    for (i0, c0), (i1, c1) in zip(nonzero[:-1], nonzero[1:]):
        ratios.append(((i1, c1), (abs(c0) / abs(c1)) ** (1.0 / (i1 - i0))))
    window = [r for (i1, _), r in ratios if i1 > tail_start]
    if not window:
        window = [r for _, r in ratios[-max(3, len(ratios) // 4):]]
    mean = float(np.mean(window))
    spread = float((max(window) - min(window)) / mean) if mean > 0 else math.inf
    return RadiusEstimate(radius=mean, reliable=spread <= 0.10, exact_polynomial=False, spread=spread)
