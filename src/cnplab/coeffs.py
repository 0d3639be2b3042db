"""Coefficient algebra for unitarily invariant kernels on the unit ball.

A unitarily invariant kernel k(z, w) = sum_n a_n <z, w>^n is determined by
its scalar coefficient sequence {a_n} with a_0 = 1 and a_n > 0.  Everything
downstream is derived from that sequence: the reciprocal sequence {b_n}
solving sum_{n>=1} b_n t^n = 1 - 1/(sum_n a_n t^n), multi-index coefficients
a_alpha = a_|alpha| * multinomial(alpha), the complete Nevanlinna-Pick
classification (all b_n >= 0), pointwise kernel evaluation, and ratio-test
radius estimates.

The graded order of multi-indices is decided here and nowhere else, by one
recursion: graded_stack, of which graded_indices is the instance on the
multi-indices themselves.  It rests on a prefix fact: the degree-k entries
whose first nonzero coordinate is i are beta + e_i, in order, for the leading
degree-(k - 1) entries beta that are 0 before coordinate i.  So each degree is
d contiguous blocks, one step each.  With suffix sums R_j = alpha_j + ... +
alpha_{d-1}, |alpha|!/alpha! = prod_j binom(R_j, alpha_j), and the position of
alpha (graded_position) is a sum of graded_count values (hockey stick).
"""

from __future__ import annotations

import math
import sys
from functools import lru_cache
from typing import NamedTuple, Sequence

import numpy as np

from .errors import DomainError, InsufficientCacheError, InvalidKernelError

EPS = np.finfo(float).eps

RULES = ("szego", "drury_arveson", "bergman", "dirichlet_t", "custom")

# coefficients of a series that estimate_radius needs (b_0 is not one of them)
RADIUS_MIN_COEFFS = 10


# ---------------------------------------------------------------------------
# Multi-index utilities
# ---------------------------------------------------------------------------

@lru_cache(maxsize=None)
def graded_indices(d: int, n: int) -> tuple[tuple[int, ...], ...]:
    """All multi-indices of length d with total degree <= n.

    Ordering is graded lexicographic and stable: primary key is the total
    degree, secondary key is ascending lexicographic order of the tuple.
    Every basis-dependent matrix in the package is reported in this order.
    """
    if d < 1 or n < 0:
        raise ValueError(f"need d >= 1 and n >= 0, got d={d}, n={n}")
    unit = np.eye(d, dtype=int)
    rows = graded_stack(np.zeros(d, dtype=int), d, n, lambda i, y: y + unit[i])
    return tuple(map(tuple, rows.tolist()))


def graded_count(d: int, j: int) -> int:
    """Number of multi-indices of length d and degree <= j: the graded order's leading block."""
    return math.comb(j + d, d)


def graded_position(d: int, n: int, rows) -> np.ndarray:
    """Positions of the rows of an (m, d) stack of multi-indices inside graded_indices(d, n).
    With R_j = alpha_j + ... + alpha_{d-1}, degree R_0 ends at graded_count(d, R_0) - 1, and
    its entries after alpha that first differ from it at j - 1 number graded_count(d - j,
    R_j - 1), by the hockey-stick identity.  A row with a negative entry or degree above n
    raises ValueError."""
    rows = np.asarray(rows, dtype=int)
    if rows.ndim != 2 or rows.shape[1] != d:
        raise ValueError(f"multi-index stack of shape {rows.shape} does not match d={d}")
    outside = np.flatnonzero((rows < 0).any(axis=1) | (rows.sum(axis=1) > n))
    if len(outside):
        raise ValueError(f"multi-index {rows[outside[0]]} is not in graded_indices({d}, {n})")
    counts = np.zeros((n + 2, d + 1), dtype=np.int64)  # counts[j + 1, m] = graded_count(m, j)
    counts[1:, 0] = 1
    for m in range(1, d + 1):
        counts[:, m] = np.cumsum(counts[:, m - 1])
    r = rows[:, ::-1].cumsum(axis=1)[:, ::-1]  # suffix sums R_j
    return counts[r[:, 0] + 1, d] - 1 - counts[r[:, 1:], np.arange(d - 1, 0, -1)].sum(axis=1)


def graded_stack(x: np.ndarray, d: int, n: int, step) -> np.ndarray:
    """Entries for graded_indices(d, n), stacked in x's dtype: x at alpha = 0, then
    step(i, entry alpha - e_i), i the first nonzero coordinate of alpha.  By the prefix
    fact above, step acts on a stack of entries, once per coordinate and degree: for
    instance one batched factor T_i of T^alpha."""
    out = np.empty((graded_count(d, n), *x.shape), dtype=x.dtype)
    out[0] = x
    pos = 1
    for k in range(1, n + 1):
        prev = graded_count(d, k - 2)  # where degree k - 1 starts
        for i in range(d - 1, -1, -1):
            size = graded_count(d - 1 - i, k - 1)
            out[pos:pos + size] = step(i, out[prev:prev + size])
            pos += size
    return out


def _multinomials(rows: np.ndarray) -> np.ndarray:
    """Exact |alpha|!/alpha! = prod_j binom(R_j, alpha_j) for each row alpha of a stack."""
    return np.frompyfunc(math.comb, 2, 1)(rows[:, ::-1].cumsum(axis=1)[:, ::-1], rows).prod(axis=1)


def multinomial(alpha: Sequence[int]) -> int:
    """|alpha|! / prod(alpha_i!) = prod_j binom(alpha_j + ... + alpha_{d-1}, alpha_j), exact."""
    entries = tuple(int(a) for a in alpha)
    if any(a < 0 for a in entries):
        raise ValueError(f"multinomial undefined for negative entries: {entries}")
    return _multinomials(np.array([entries], dtype=int))[0]


# ---------------------------------------------------------------------------
# Kernel specifications
# ---------------------------------------------------------------------------

class ValueType:
    """Base of the value types that check and normalise their fields in __init__.

    A field is set once, by __init__, and is read-only after: assignment
    raises AttributeError, and a copy is built through the constructor, so
    it is checked again.  Equality, hash and repr go by the field values in
    __slots__ order, as for a frozen dataclass.
    """

    __slots__ = ()

    def _set(self, **fields) -> None:
        for name, value in fields.items():
            object.__setattr__(self, name, value)

    def _values(self) -> tuple:
        return tuple(getattr(self, name) for name in self.__slots__)

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")

    def __eq__(self, other):
        return self._values() == other._values() if type(other) is type(self) else NotImplemented

    def __hash__(self):
        return hash(self._values())

    def __repr__(self):
        fields = ", ".join(f"{n}={v!r}" for n, v in zip(self.__slots__, self._values()))
        return f"{type(self).__name__}({fields})"

    def __reduce__(self):
        return type(self), self._values()


def shown(value, form=repr) -> str:
    """form(value), but an integer of more than 20 digits is shown by its digit count."""
    if not isinstance(value, int) or abs(value) < 10 ** 20:
        return form(value)
    n = int(math.log10(abs(value)))  # the digit count less 1, up to rounding
    return f"an integer of {n + 1 + (abs(value) >= 10 ** (n + 1)) - (abs(value) < 10 ** n)} digits"


class KernelSpec(ValueType):
    """A unitarily invariant kernel: ambient dimension plus a coefficient rule.

    rule is one of "szego", "drury_arveson", "bergman" (param: integer
    m >= 1), "dirichlet_t" (param: finite real t >= 0) or "custom" (param:
    finite list of positive finite coefficients starting with 1, stored as a
    tuple of floats).
    """

    __slots__ = ("d", "rule", "param", "label")

    def __init__(self, d: int, rule: str, param: object = None, label: str = ""):
        if d < 1:
            raise InvalidKernelError(f"ambient dimension must be >= 1, got {d}")
        if rule not in RULES:
            raise InvalidKernelError(f"unknown rule {rule!r}; expected one of {RULES}")
        if rule == "bergman":
            if not isinstance(param, int) or not 1 <= param <= sys.float_info.max:  # a_1 = m
                raise InvalidKernelError(f"bergman requires integer m >= 1 within the float range, "
                                         f"got {shown(param)}")
        elif rule == "dirichlet_t":
            if not isinstance(param, (int, float)) or not 0 <= param < math.inf:
                raise InvalidKernelError(f"dirichlet_t requires finite real t >= 0, got {param!r}")
        elif rule == "custom":
            if param is None or isinstance(param, (str, int, float)):
                raise InvalidKernelError("custom rule requires a sequence of coefficients")
            param = tuple(float(c) for c in param)
            if len(param) == 0 or param[0] != 1.0:
                raise InvalidKernelError("custom coefficients must start with a_0 = 1")
            if not all(0.0 < c < math.inf for c in param):
                raise InvalidKernelError("custom coefficients must all be positive and finite")
        if not label:
            label = rule if param is None or rule == "custom" else f"{rule}({shown(param, str)})"
        self._set(d=d, rule=rule, param=param, label=label)


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

class CoeffTable(ValueType):
    """Cached prefix of the scalar sequences {a_n} and {b_n} for one kernel; read-only arrays."""

    __slots__ = ("spec", "a", "b")

    def __init__(self, spec: KernelSpec, a: np.ndarray, b: np.ndarray):
        a, b = np.asarray(a, dtype=float), np.asarray(b, dtype=float)
        a.setflags(write=False)
        b.setflags(write=False)
        self._set(spec=spec, a=a, b=b)

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
    The table decides which b_n are zero, once: a b_n within (n + 1) eps times
    the sum of |terms| of its own row, about twice that row's worst rounding
    error, is set to exactly 0 when that sum is finite, so later rows read
    exact zeros and every reader takes b's zeros and signs as given.  Total for every positive
    input sequence whose a_n and b_n stay finite; a table with an overflowed
    entry is rejected.  For custom coefficient lists the relation is a formal
    power-series statement about the cached prefix; nothing is claimed about
    pointwise values of the reciprocal beyond it.
    """
    if n < 0:
        raise ValueError(f"degree must be >= 0, got {n}")
    with np.errstate(over="ignore"):  # an overflowed a_n is rejected below
        a = _scalar_coeffs(spec, n)
    if a[0] != 1.0:
        raise InvalidKernelError("generated sequence must start with a_0 = 1")
    if not np.all((a > 0.0) & (a < np.inf)):
        raise InvalidKernelError(f"{spec.label}: generated coefficients must be strictly "
                                 "positive and within the float range")
    b = np.zeros(n + 1)
    with np.errstate(over="ignore", invalid="ignore"):  # an overflowed b_n is rejected below
        for k in range(1, n + 1):  # subtracted left to right, the order of the recursion
            terms = np.concatenate(([a[k]], b[1:k] * a[k - 1:0:-1]))
            bk = np.subtract.reduce(terms)
            scale = np.add.reduce(abs(terms))  # an overflowed b_k overflows it too
            if bk and math.isfinite(scale) and abs(bk) <= (k + 1) * EPS * scale:
                bk = 0.0
            b[k] = bk
    if not np.isfinite(b).all():
        raise InvalidKernelError(f"{spec.label}: b_n overflows a float")
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
    scalars = (table.require_b if which == "b" else table.require_a)(int(deg.max(initial=0)))
    out = np.zeros(len(stack))
    out[live] = scalars[deg] * _multinomials(stack[live]).astype(float)
    return out if rows.ndim == 2 else float(out[0])


# ---------------------------------------------------------------------------
# CNP classification
# ---------------------------------------------------------------------------

class CnpClassification(NamedTuple):
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


def is_cnp(table: CoeffTable, n: int | None = None) -> CnpClassification:
    """Classify the kernel by the signs of b_1 .. b_n, whose zeros the table decided."""
    if n is None:
        n = table.n_max
    b = table.require_b(n)
    for k in range(1, n + 1):
        if b[k] < 0.0:
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


class KernelValue(NamedTuple):
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


class RadiusEstimate(NamedTuple):
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
    if len(coeffs) < RADIUS_MIN_COEFFS:
        raise InsufficientCacheError(
            f"radius estimate needs at least {RADIUS_MIN_COEFFS} cached coefficients")

    top = start + len(coeffs) - 1
    tail_start = 3 * top // 4
    nonzero = [(i + start, c) for i, c in enumerate(coeffs) if c != 0.0]
    in_tail = [idx for idx, _ in nonzero if idx > tail_start]
    if len(nonzero) < 2 or not in_tail:
        return RadiusEstimate(radius=math.inf, reliable=True, exact_polynomial=True, spread=0.0)

    ratios = []
    for (i0, c0), (i1, c1) in zip(nonzero[:-1], nonzero[1:]):
        ratios.append(((i1, c1), (abs(c0) / abs(c1)) ** (1.0 / (i1 - i0))))
    window = [r for (i1, _), r in ratios if i1 > tail_start]  # the last ratio at least
    mean = float(np.mean(window))
    spread = float((max(window) - min(window)) / mean) if mean > 0 else math.inf
    return RadiusEstimate(radius=mean, reliable=spread <= 0.10, exact_polynomial=False, spread=spread)
