"""Dilation isometry, factorability, and the characteristic-function existence test.

A pure tuple embeds isometrically into a truncated vector-valued kernel space
through the map built here; whether the kernel of the adjoint embedding is
itself contractive for the same kernel decides existence of a characteristic
function.  The generalized Bergman kernels with exponent m >= 2 fail that
test with an explicit closed-form witness, reproduced numerically by
`bergman_counterexample`.
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from ._linalg import (
    RANK_REL_TOL,
    canonical_phases,
    hermitian_norm,
    hermitize,
    opnorm,
    split_rank,
)
from .coeffs import (CoeffTable, bergman, build_table, graded_position,
                     multi_coeff)  # noqa: F401  multi_coeff: tracers rebind it in every namespace
from .errors import DegenerateDilationError, PrerequisiteError
from .tuples import (
    DefectData,
    IndexShifts,
    OperatorTuple,
    TruncatedShifts,
    TruncationParams,
    TuplePowers,
    _graded_series,
    _sigma,
    _weighted_series,
    defect,
    is_contraction,  # noqa: F401  bound here too: tracers rebind it in every module namespace
    is_pure,
    shift_matrices,
    shift_norm_sq,
    ContractionVerdict,
)


# ---------------------------------------------------------------------------
# The dilation map
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class DilationMap:
    """Block-column matrix of the embedding of a tuple into (truncated H_k) x Ran(defect).

    The block at multi-index alpha is sqrt(a_alpha) * C^* Delta (T^alpha)^*
    where C holds the orthonormal defect-range basis; rows are stacked in
    graded_indices order with the defect-range coordinate fastest.  The map
    carries what it was built from: the tuple it embeds, its defect and
    powers T^alpha through degree N, the coefficient table, the truncation,
    and the shifts of its model space, plain and tensored with I_r.  Every
    later stage, the characteristic function included, reads these from
    here, so it cannot disagree with the dilation on any of them.
    """

    matrix: np.ndarray
    ops: OperatorTuple
    shifts: TruncatedShifts
    tensored: IndexShifts
    isometry_defect: float
    defect_data: DefectData
    powers: TuplePowers
    table: CoeffTable
    params: TruncationParams

    @property
    def N(self) -> int:
        return self.shifts.N

    @property
    def indices(self) -> tuple:
        return self.shifts.indices

    @property
    def codomain_dims(self) -> tuple:
        """(number of multi-indices, defect rank)."""
        return len(self.indices), self.defect_data.rank

    @property
    def big_dim(self) -> int:
        return self.codomain_dims[0] * self.codomain_dims[1]


def build_dilation(t: OperatorTuple, table: CoeffTable, p: TruncationParams,
                   defect_data: DefectData | None = None) -> DilationMap:
    """Matrix of h -> sum_alpha sqrt(a_alpha) e(alpha) x (defect-range coords of Delta (T^alpha)^* h).

    For a pure tuple this is an isometry up to the purity residual; the
    defect of V^*V from the identity is recorded.  A rank-zero defect admits
    no dilation space and raises.  The shifts of the model space are built
    here, at degree N, and tensored once; the defect is computed unless given.
    """
    dd = defect(t, table, p) if defect_data is None else defect_data
    c = dd.ran_delta_basis
    if c.shape[1] == 0 and t.h > 0:
        raise DegenerateDilationError("defect operator has rank zero; no dilation space")
    shifts = shift_matrices(table, p.N)
    powers = TuplePowers(t, p.N)
    blocks = c.conj().T @ dd.delta @ powers.stack.conj().swapaxes(1, 2)
    matrix = (np.sqrt(shifts.a_alpha)[:, None, None] * blocks).reshape(-1, t.h)
    iso_defect = opnorm(matrix.conj().T @ matrix - np.eye(t.h, dtype=complex))
    return DilationMap(
        matrix=matrix,
        ops=t,
        shifts=shifts,
        tensored=shifts.index.tensor(c.shape[1]),
        isometry_defect=iso_defect,
        defect_data=dd,
        powers=powers,
        table=table,
        params=p,
    )


def check_intertwining(v: DilationMap, alphas: Sequence[tuple]) -> float:
    """Max residual of V^*(M^alpha x I) = T^alpha V^* on interior degrees.

    Taken as the norm of the adjoint (M^alpha x I)^* V - V (T^alpha)^*, the
    shifts gathered on the h columns of V.  Source degrees above N - |alpha|
    (the tail of the graded order) are excluded: their image leaves the
    truncated space, so they only measure the cut-off, not the intertwining.
    An alpha with |alpha| > N has no such degree and is skipped.
    """
    worst = 0.0
    for alpha in alphas:
        if sum(alpha) > v.N:
            continue
        y = v.matrix  # becomes (M^alpha x I_r)^* V
        for i in np.repeat(np.arange(v.ops.d), alpha):
            y = v.tensored.apply_adjoint(i, y)
        rows = v.tensored.ends[v.N - sum(alpha)]
        diff = y[:rows] - v.matrix[:rows] @ v.powers.power(alpha).conj().T
        worst = max(worst, opnorm(diff))
    return worst


# ---------------------------------------------------------------------------
# Factorability of a positive operator
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class FactorabilityReport:
    """Numerical evaluation of the three factorability conditions.

    cond1: per-coordinate min eigenvalue of c_i X - T_i X T_i^*.
    cond2: min eigenvalue of X - P(X) where P(X) is the b-weighted series.
    cond3: residual of the a-weighted series of X - P(X) against X.
    The verdict is factorable only when all three pass.
    """

    verdict: str  # "factorable" | "not_factorable"
    failed_condition: int | None
    cond1_min_eigs: tuple
    cond2_min_eig: float
    cond3_residual: float


def check_factorability(v_matrix: np.ndarray, shifts: IndexShifts, table: CoeffTable,
                        tol: float) -> FactorabilityReport:
    """Evaluate the factorability conditions for X = I - V V^* on graded index-map shifts.

    shifts act on the graded space of the rows of V, such as the tensored
    shifts of a dilation space.  X is PSD exactly when |V| <= 1: its
    eigenvalues are 1 - eig(V^* V) and 1s.  The constants c_i are the squared
    shift norms of the kernel at the top degree N of the shifts.  The shifts
    are nilpotent, sigma^(N+1) = 0, so both series are finite sums, summed to
    N on graded prefixes (`_graded_series`), and the verdict is two-valued.
    Condition (3) holds identically on this space: A(t) (1 - B(t)) = 1 for
    the a- and b-series, and every product term of degree above N meets
    sigma^(N+1) = 0, so its residual measures rounding only.
    """
    v_matrix = np.asarray(v_matrix, dtype=complex)
    if v_matrix.ndim != 2 or v_matrix.shape[0] != shifts.h:
        raise ValueError(f"V of shape {v_matrix.shape} does not map into the {shifts.h}-dim space")
    min_x = 1.0 - opnorm(v_matrix) ** 2
    if min_x < -tol:
        raise ValueError(f"x must be PSD up to tol, min eigenvalue {min_x:.3e}")
    x = hermitize(np.eye(shifts.h, dtype=complex) - v_matrix @ v_matrix.conj().T)

    top, cond1 = len(shifts.ends) - 1, []
    for i in range(shifts.d):
        g = hermitize(shift_norm_sq(table, i, top).value * x - shifts.sandwich(i, x))
        cond1.append(float(np.linalg.eigvalsh(g)[0]) if g.size else 0.0)

    gap = hermitize(x - _graded_series(shifts, table, "b", x, start_degree=1))
    cond2_min = float(np.linalg.eigvalsh(gap)[0]) if gap.size else 0.0
    cond3_res = hermitian_norm(_graded_series(shifts, table, "a", gap) - x)

    failures = [any(m < -tol for m in cond1), cond2_min < -tol, cond3_res > tol]
    failed = failures.index(True) + 1 if any(failures) else None
    return FactorabilityReport(
        verdict="factorable" if failed is None else "not_factorable",
        failed_condition=failed,
        cond1_min_eigs=tuple(cond1),
        cond2_min_eig=cond2_min,
        cond3_residual=cond3_res,
    )


# ---------------------------------------------------------------------------
# Associated tuple on the kernel of the adjoint embedding
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class AssociatedTuple:
    """Compression K^* (M_i x I) K of the tensored shifts to Ker V^*, never formed.

    `basis` K and `range_basis` U are orthonormal bases of Ker V^* and Ran V.
    Ker V^* is invariant for the shifts up to truncation, so the compression
    equals the restriction up to `invariance_residual`, measured on rows of
    degree <= N - 1 where the cut-off cannot pollute it.
    """

    basis: np.ndarray
    range_basis: np.ndarray
    invariance_residual: float
    dim: int


def associated_tuple(v: DilationMap) -> AssociatedTuple:
    u, svals, _ = np.linalg.svd(v.matrix, full_matrices=True)
    rank = split_rank(svals, RANK_REL_TOL)
    k = canonical_phases(u[:, rank:])
    u = u[:, :rank]
    # the part of (M_i x I) K leaving span K is U U^* (M_i x I) K, of rank <= h;
    # with U[interior] = Q R its interior rows (degrees <= N - 1, which lead the
    # graded order) have the norm of R U^* (M_i x I) K
    _, r_int = np.linalg.qr(u[:v.tensored.ends[v.N - 1]])
    inv_res = max(opnorm(r_int @ (u.conj().T @ v.tensored.apply(i, k))) for i in range(v.ops.d))
    return AssociatedTuple(basis=k, range_basis=u, invariance_residual=inv_res, dim=k.shape[1])


def _associated_defect(v: DilationMap, assoc: AssociatedTuple, n: int):
    """I - sum_{1<=k<=n} b_k sigma_A^k(I) for the associated tuple A, and its tail-window norms.

    With P = K K^* = I - U U^*, sigma_A^k(I) = K^* W_k K exactly, where W_0 = P
    and W_k = P sigma_M(W_{k-1}) P is summed on the model space by the shifts'
    index gathers.  W_k = P W_k P, so b_k W_k has the norm of its compression.
    """
    u, k = assoc.range_basis, assoc.basis

    def projected_sigma(x):  # P applied as rank-h corrections
        y = _sigma(v.tensored, x)
        y = y - u @ (u.conj().T @ y)
        return y - (y @ u) @ u.conj().T

    proj = np.eye(v.big_dim, dtype=complex) - u @ u.conj().T
    total, tail = _weighted_series(v.tensored, v.table, n, "b", middle=proj, start_degree=1,
                                   window=v.params.tail_window, sigma=projected_sigma)
    return hermitize(np.eye(assoc.dim, dtype=complex) - k.conj().T @ total @ k), tail


# ---------------------------------------------------------------------------
# Existence of a characteristic function
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class ExistenceReport:
    """Verdict of the characteristic-function existence test.

    does_not_admit carries the unit vector (in the ambient truncated-space
    coordinates) achieving the negative quadratic form, together with its
    value.
    """

    status: str  # "admits" | "does_not_admit" | "inconclusive"
    value: float
    witness: np.ndarray | None
    contraction: ContractionVerdict
    invariance_residual: float
    kernel_dim: int


def admits_charfn(v: DilationMap) -> ExistenceReport:
    """Decide whether the pure tuple embedded by v admits a characteristic function.

    Runs the contractivity test on the tuple associated with the dilation,
    against the dilation's kernel and truncation, with its defect summed on
    the model space (`_associated_defect`).  Non-pure inputs are
    rejected: outside the hypothesis there is nothing to decide.  Purity is
    tested on the defect the dilation already holds.  The associated tuple
    lives on a space truncated at degree N where the shifts are nilpotent
    of order N + 1, so its contraction series is summed through
    N + tail_window: past degree N the increments vanish identically and
    the tail verdict reflects the finite matrix algebra, not the cut-off.
    The table must therefore extend through N + tail_window.
    """
    table, p = v.table, v.params
    purity = is_pure(v.ops, table, p, defect_data=v.defect_data)
    if purity.status != "pure":
        raise PrerequisiteError(
            f"existence test requires a pure tuple; purity verdict was {purity.status!r} "
            f"(residual {purity.residual:.3e})"
        )
    assoc = associated_tuple(v)
    delta_sq, tail = _associated_defect(v, assoc, p.N + p.tail_window)
    vals = np.linalg.eigvalsh(delta_sq)  # none when Ker V^* = 0: an empty tuple contracts
    min_eig = float(vals[0]) if len(vals) else 0.0
    verdict = ContractionVerdict.decide(min_eig, max(tail, default=0.0), p.tol)
    status = {"yes": "admits", "no": "does_not_admit"}.get(verdict.status, "inconclusive")
    witness = None
    if status == "does_not_admit":
        _, vecs = np.linalg.eigh(delta_sq)
        witness = canonical_phases((assoc.basis @ vecs[:, :1]))[:, 0]
    return ExistenceReport(
        status=status,
        value=verdict.min_eig,
        witness=witness,
        contraction=verdict,
        invariance_residual=assoc.invariance_residual,
        kernel_dim=assoc.dim,
    )


# ---------------------------------------------------------------------------
# The generalized Bergman counterexample
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class CounterexamplePoint:
    """One (m, N) instance of the failing quadratic form.

    closed_form = 1 - m (N+2) / (m+N+1) is negative exactly when
    m (N+2) / (m+N+1) > 1, i.e. for every m >= 2; `numeric` is the same
    quantity computed from matrices, and bound_value the ratio itself.
    """

    m: int
    N: int
    d: int
    closed_form: float
    numeric: float
    match_error: float
    bound_value: float


def _compressed_shift_forms(table: CoeffTable, n: int, big_n: int, degrees) -> list[float]:
    """Associated-defect forms, at K^* e(k e_1) for k in degrees, of the shifts compressed
    to degrees <= n and embedded at truncation big_n."""
    v = build_dilation(shift_matrices(table, n).ops, table, TruncationParams(N=big_n))
    assoc = associated_tuple(v)
    delta_sq, _ = _associated_defect(v, assoc, big_n)
    targets = graded_position(table.d, big_n, [(k,) + (0,) * (table.d - 1) for k in degrees])
    coords = assoc.basis[targets * v.codomain_dims[1]].conj()  # row j: K^* e at target j
    return [float(np.real(np.vdot(c, delta_sq @ c))) for c in coords]


def bergman_counterexample(m: int, n: int, d: int = 1) -> CounterexamplePoint:
    """Quadratic form of the associated tuple of the degree-n compressed shifts.

    Builds the compression T of the Bergman-m shifts to degrees <= n, embeds
    it at truncation n + 3, and evaluates the contractivity form of the
    associated tuple on the basis vector of degree n + 2 along the first
    coordinate.  m = 1 is rejected: there the ratio drops below 1 and the
    form is nonnegative.
    """
    if m < 2:
        raise PrerequisiteError(
            "counterexample requires m >= 2; at m = 1 the kernel has nonnegative "
            "inverted coefficients and the bound m(N+2)/(m+N+1) falls to within 1"
        )
    if n < 0:
        raise ValueError(f"compression degree must be >= 0, got {n}")
    [numeric] = _compressed_shift_forms(build_table(bergman(m, d=d), n + 4), n, n + 3, [n + 2])
    bound = m * (n + 2) / (m + n + 1)
    closed = 1.0 - bound
    return CounterexamplePoint(
        m=m, N=n, d=d,
        closed_form=closed,
        numeric=numeric,
        match_error=abs(numeric - closed),
        bound_value=bound,
    )


# ---------------------------------------------------------------------------
# Operator-level CNP probe
# ---------------------------------------------------------------------------

def cnp_zero_tuple_probe(table: CoeffTable, n: int) -> np.ndarray:
    """Quadratic forms of the zero tuple's associated shifts, one per degree.

    For the zero tuple on the constants, the contractivity form of the
    restricted shifts evaluated at the degree-k basis vector collapses to
    b_k / a_k.  Returned for k = 2 .. n.  That tuple is the shifts compressed
    to degree 0, so these are the counterexample's forms at compression
    degree 0; their sign pattern cross-validates the coefficient-level CNP
    classification.  They live on the first coordinate axis, so they are
    computed in one variable regardless of the ambient dimension.
    """
    if n < 2:
        raise ValueError(f"probe needs n >= 2, got {n}")
    table1 = build_table(dataclasses.replace(table.spec, d=1), n + 1)
    return np.array(_compressed_shift_forms(table1, 0, n, range(2, n + 1)))
