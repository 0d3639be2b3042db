"""Dilation isometry, factorability, and the characteristic-function existence test.

A pure tuple embeds isometrically into a truncated vector-valued kernel space
through the map built here; whether the kernel of the adjoint embedding is
itself contractive for the same kernel decides existence of a characteristic
function.  The generalized Bergman kernels with exponent m >= 2 fail that
test with an explicit closed-form witness, reproduced numerically by
`bergman_counterexample`.
"""

from __future__ import annotations

from typing import NamedTuple, Sequence

import numpy as np

from ._linalg import canonical_phases, hermitize, opnorm
from .coeffs import (CoeffTable, KernelSpec, bergman, build_table, graded_indices, graded_position,
                     graded_stack, multi_coeff)
from .errors import DegenerateDilationError, InvalidKernelError, PrerequisiteError
from .tuples import (DefectData, IndexShifts, OperatorTuple, PurityVerdict, TruncationParams,
                     TuplePowers, shift_matrices, shift_norm_sq)
from .tuples import is_contraction  # noqa: F401  bound here: tracers rebind it in every module


# ---------------------------------------------------------------------------
# The dilation map
# ---------------------------------------------------------------------------

class DilationMap(NamedTuple):
    """Block-column matrix of the embedding of a tuple into (truncated H_k) x Ran(defect).

    The block at multi-index alpha is sqrt(a_alpha) * C^* Delta (T^alpha)^*
    where C holds the orthonormal defect-range basis; rows are stacked in
    graded_indices order with the defect-range coordinate fastest.  The map
    carries what it was built from: the tuple it embeds, its defect and
    powers T^alpha through degree N, the coefficient table, the truncation,
    the shifts of its model space tensored with I_r, and the one
    factorization of the span its defect reaches (`defect_span`).  Every
    later stage, the characteristic function included, reads these from
    here, so it cannot disagree with the dilation on any of them.
    """

    matrix: np.ndarray
    ops: OperatorTuple
    tensored: IndexShifts
    isometry_defect: float
    defect_data: DefectData
    powers: TuplePowers
    table: CoeffTable
    params: TruncationParams
    span: DefectSpan

    @property
    def N(self) -> int:
        return self.params.N

    @property
    def indices(self) -> tuple:
        return graded_indices(self.ops.d, self.N)

    @property
    def codomain_dims(self) -> tuple:
        """(number of multi-indices, defect rank)."""
        return len(self.indices), self.defect_data.rank

    @property
    def big_dim(self) -> int:
        return self.codomain_dims[0] * self.codomain_dims[1]


def build_dilation(dd: DefectData) -> DilationMap:
    """Matrix of h -> sum_alpha sqrt(a_alpha) e(alpha) x (defect-range coords of Delta (T^alpha)^* h).

    For a pure tuple this is an isometry up to the purity residual; the
    defect of V^*V from the identity is recorded.  A rank-zero defect admits
    no dilation space and raises.  The shifts of the model space are built
    here, at degree N, tensored once, and V's span factored once; the tuple,
    table and truncation are those the defect was computed from.
    """
    t, table, p = dd.ops, dd.table, dd.params
    c = dd.ran_delta_basis
    if c.shape[1] == 0 and t.h > 0:
        raise DegenerateDilationError("defect operator has rank zero; no dilation space")
    shifts = shift_matrices(table, p.N)
    powers = TuplePowers(t, p.N)
    blocks = c.conj().T @ dd.delta @ powers.stack.conj().swapaxes(1, 2)
    matrix = (np.sqrt(shifts.a_alpha)[:, None, None] * blocks).reshape(-1, t.h)
    iso_defect = opnorm(matrix.conj().T @ matrix - np.eye(t.h, dtype=complex))
    tensored = shifts.index.tensor(c.shape[1])
    return DilationMap(
        matrix=matrix,
        ops=t,
        tensored=tensored,
        isometry_defect=iso_defect,
        defect_data=dd,
        powers=powers,
        table=table,
        params=p,
        span=defect_span(matrix, tensored, table),
    )


def check_intertwining(v: DilationMap, alphas: Sequence[tuple]) -> float:
    """Max residual of V^*(M^alpha x I) = T^alpha V^* on interior degrees.

    Taken as the norm of the adjoint (M^alpha x I)^* V - V (T^alpha)^*, the
    shifts gathered on the h columns of V.  Source degrees above N - |alpha|
    (the tail of the graded order) are excluded: their image leaves the
    truncated space, so they only measure the cut-off, not the intertwining.
    An alpha with |alpha| > N has no such degree and is skipped.
    """
    alphas = [alpha for alpha in alphas if sum(alpha) <= v.N]
    positions = graded_position(v.ops.d, v.powers.n, np.reshape(alphas, (len(alphas), v.ops.d)))
    worst = 0.0
    for alpha, power in zip(alphas, v.powers.stack[positions]):
        y = v.matrix  # becomes (M^alpha x I_r)^* V
        for i in np.repeat(np.arange(v.ops.d), alpha):
            y = v.tensored.apply_adjoint(i, y)
        rows = v.tensored.ends[v.N - sum(alpha)]
        worst = max(worst, opnorm(y[:rows] - v.matrix[:rows] @ power.conj().T))
    return worst


# ---------------------------------------------------------------------------
# The span a defect reaches
# ---------------------------------------------------------------------------

class DefectSpan(NamedTuple):
    """The columns C = [V, E_0, M^alpha V] of the span S_V that the defect of V reaches, and R.

    R is that of the unpivoted QR C = Q R; only a witness forms Q (`admits_charfn`).  On the graded
    space I - sum_{k>=1} b_k sigma^k(I) = E_0, the projection onto degree 0, exactly (sigma^k(I) at
    degree j reads the shifts only down to degree j - k >= 0), and sigma^k(V V^*) = sum_{|alpha|=k}
    multinomial(alpha) (M^alpha V)(M^alpha V)^*.  So with `weights` 1 on E_0 and b_alpha on the
    gather at each alpha with b_alpha != 0 (|alpha| <= N, in graded order: under a CNP table, the
    lift's support), C diag(x, weights) C^* = I + x V V^* - sum_k b_k sigma^k(I - V V^*): the cond2
    gap at x = -1, the operator the associated defect compresses at x = 0.
    """

    matrix: np.ndarray
    shifts: IndexShifts
    table: CoeffTable
    columns: np.ndarray
    r: np.ndarray
    weights: np.ndarray


def defect_span(v_matrix: np.ndarray, shifts: IndexShifts, table: CoeffTable) -> DefectSpan:
    """V's span under graded index-map shifts: one gather, one R-only QR, no rank (`DefectSpan`)."""
    v_matrix = np.asarray(v_matrix, dtype=complex)
    if v_matrix.ndim != 2 or v_matrix.shape[0] != shifts.h:
        raise ValueError(f"V of shape {v_matrix.shape} does not map into the {shifts.h}-dim space")
    top = len(shifts.ends) - 1
    b = table.require_b(top)
    m = max((k for k in range(1, top + 1) if b[k] != 0.0), default=0)
    b_alpha = multi_coeff(table, graded_indices(shifts.d, m)[1:], "b")
    positions = np.flatnonzero(b_alpha) + 1
    columns = np.hstack([v_matrix, np.eye(shifts.h, shifts.ends[0]),
                         *shifts.graded_stack(v_matrix, m)[positions]])
    weights = np.append(np.ones(shifts.ends[0]), np.repeat(b_alpha[positions - 1], len(v_matrix.T)))
    return DefectSpan(v_matrix, shifts, table, columns, np.linalg.qr(columns, mode="r"), weights)


def span_spectrum(span: DefectSpan, weights: np.ndarray, coeffs: np.ndarray | None = None):
    """The eigenvalues of C (diag(weights) + K K^*) C^*, C = Q R the span's columns and K =
    coeffs: those of R (diag(weights) + K K^*) R^*, then one 0 per row of C past len(R)."""
    g = (span.r * weights) @ span.r.conj().T
    if coeffs is not None:
        rk = span.r @ coeffs
        g += rk @ rk.conj().T
    return np.append(np.linalg.eigvalsh(hermitize(g)), np.zeros(span.shifts.h - len(span.r)))


def _eigenspaces(delta: np.ndarray, cols: np.ndarray):
    """(delta_K, C_K, rest), which split G = diag(delta) + C diag(w) C^* exactly: rows sharing
    one delta_I, more of them than C has columns, collapse to R_I, C[I] = Q_I R_I (unpivoted
    QR), and G is diag(delta_K) + C_K diag(w) C_K^* on the span K of the Q_I and the other rows,
    which holds Ran C and is invariant, and delta_I, |I| - cols times in rest, on the rest of I."""
    values, group, sizes = np.unique(delta, return_inverse=True, return_counts=True)
    big = np.flatnonzero(sizes > cols.shape[1])
    keep = sizes[group] <= cols.shape[1]
    c_k = np.vstack([cols[keep], *(np.linalg.qr(cols[group == j], mode="r") for j in big)])
    delta_k = np.append(delta[keep], np.repeat(values[big], cols.shape[1]))
    return delta_k, c_k, np.repeat(values[big], sizes[big] - cols.shape[1])


def negative_count(delta: np.ndarray, cols: np.ndarray, weights: np.ndarray, shift: float) -> int:
    """The number of eigenvalues of G = diag(delta) + C diag(w) C^* below -shift, all w != 0.

    G + shift is the Schur complement of -W^{-1} in [[D + shift, C], [C^*, -W^{-1}]], D =
    diag(delta), W = diag(w).  Eliminate instead the rows L with |delta + shift| >= theta =
    1e-3 max |delta|, dividing by nothing smaller: by Haynsworth's inertia additivity,
    n_neg(G + shift) = n_neg(D_L + shift) + n_neg(K) - #{w > 0} for K = [[D_S + shift, C_S],
    [C_S^*, -W^{-1} - C_L^* (D_L + shift)^{-1} C_L]] on the rest S, solved on D_S's eigenspaces.
    """
    small = np.abs(delta + shift) <= 1e-3 * np.abs(delta).max(initial=0.0)
    delta_k, c_s, rest = _eigenspaces(delta[small], cols[small])
    gap, c_l = delta[~small] + shift, cols[~small]
    k = np.block([[np.diag(delta_k + shift), c_s],
                  [c_s.conj().T, -np.diag(1.0 / weights) - (c_l.conj().T / gap) @ c_l]])
    inertia = np.concatenate([np.linalg.eigvalsh(k), rest + shift, gap])
    return int(np.count_nonzero(inertia < 0.0) - np.count_nonzero(weights > 0.0))


# ---------------------------------------------------------------------------
# Factorability of a positive operator
# ---------------------------------------------------------------------------

class FactorabilityReport(NamedTuple):
    """Numerical evaluation of the factorability conditions (`check_factorability`).

    cond1: per coordinate, the number of eigenvalues of c X - T_i X T_i^* below -tol.
    cond2: min eigenvalue of X - P(X), P(X) the b-weighted series.  The verdict is
    factorable only when both pass; condition (3) holds identically on the truncated space.
    """

    verdict: str  # "factorable" | "not_factorable"
    failed_condition: int | None
    cond1_negative_counts: tuple
    cond2_min_eig: float


def check_factorability(span: DefectSpan, tol: float) -> FactorabilityReport:
    """Evaluate the factorability conditions for X = I - V V^* on the factored span of V.

    The span's shifts act on the graded space of the rows of V, such as a dilation's tensored
    shifts.  X is PSD exactly when |V| = |R_11| <= 1 (its eigenvalues are 1 - eig(V^* V) and
    1s) and is never formed.  Condition (1) at coordinate i, c X - M_i X M_i^* = diag(c -
    M_i M_i^*) - c V V^* + (M_i V)(M_i V)^* with c the squared shift norm at the top degree N,
    counts its eigenvalues below -tol (`negative_count`).  sigma^(N+1) = 0, so the b-series
    is finite and the verdict two-valued; the cond2 gap is C diag(-1, weights) C^* on the
    span's columns (`DefectSpan`), read from R (`span_spectrum`).  Condition (3) is not
    evaluated: A(t) (1 - B(t)) = 1 and sigma^(N+1) = 0 make it hold identically on this space.
    """
    v_matrix, shifts, h = span.matrix, span.shifts, span.matrix.shape[1]
    min_x = 1.0 - opnorm(span.r[:h, :h]) ** 2
    if min_x < -tol:
        raise ValueError(f"x must be PSD up to tol, min eigenvalue {min_x:.3e}")

    c = shift_norm_sq(span.table, len(shifts.ends) - 1)
    weights = np.repeat([-c, 1.0], h)
    cond1 = tuple(negative_count(c - shifts.outer_diagonal(i),
                                 np.hstack([v_matrix, shifts.apply(i, v_matrix)]), weights, tol)
                  for i in range(shifts.d))
    cond2_min = float(span_spectrum(span, np.append(-np.ones(h), span.weights)).min())

    failed = 1 if any(cond1) else 2 if cond2_min < -tol else None
    return FactorabilityReport(
        verdict="factorable" if failed is None else "not_factorable",
        failed_condition=failed,
        cond1_negative_counts=cond1,
        cond2_min_eig=cond2_min,
    )


# ---------------------------------------------------------------------------
# Associated tuple on the kernel of the adjoint embedding
# ---------------------------------------------------------------------------

class AssociatedTuple(NamedTuple):
    """The restriction of the tensored shifts M_i x I to Ker V^*, never formed.

    `range_basis` U = V R_11^-1 is Q_1, the first h columns of the span's Q (V leads C = Q R), an
    orthonormal basis of Ran V when |V^*V - I| < 1 makes R_11 invertible (else `associated_tuple`
    raises DegenerateDilationError), so P = I - U U^* is the projection onto Ker V^*, of dimension
    `dim`.  The restriction equals the compression up to `invariance_residual`, the part of
    (M_i x I) P leaving Ker V^*, read on rows of degree <= N - 1.  That part is the cut-off: on
    Ker V^*, V^*(M_i x I) = E_i^*, E_i = -V T_i^* on the degree-N rows, so the residual is at
    most max_i |T_i| |V_N| / sigma_min(V), V_N the degree-N rows of V: the leak at the top degree.
    """

    range_basis: np.ndarray
    invariance_residual: float
    dim: int


def associated_tuple(v: DilationMap) -> AssociatedTuple:
    if not v.isometry_defect < 1.0:
        raise DegenerateDilationError(f"|V^*V - I| = {v.isometry_defect:.3e}: V may not be "
                                      "injective")
    u = np.linalg.solve(v.span.r[:v.ops.h, :v.ops.h].T, v.matrix.T).T  # V R_11^-1 = Q_1
    # the part of (M_i x I) P leaving Ran P is U U^* (M_i x I) P, of rank <= h;
    # with U[interior] = Q R its interior rows (degrees <= N - 1, which lead the
    # graded order) have the norm of R U^* (M_i x I) P, an h x big_dim product
    r_int = np.linalg.qr(u[:v.tensored.ends[v.N - 1]], mode="r")
    inv_res = 0.0
    for i in range(v.ops.d):
        y = v.tensored.apply_adjoint(i, u).conj().T  # U^* (M_i x I)
        inv_res = max(inv_res, opnorm(r_int @ (y - (y @ u) @ u.conj().T)))
    return AssociatedTuple(range_basis=u, invariance_residual=inv_res, dim=v.big_dim - v.ops.h)


# ---------------------------------------------------------------------------
# Existence of a characteristic function
# ---------------------------------------------------------------------------

class ExistenceReport(NamedTuple):
    """Verdict of the characteristic-function existence test.

    does_not_admit carries the unit vector (in the ambient truncated-space
    coordinates) achieving the negative quadratic form, together with its
    value.
    """

    status: str  # "admits" | "does_not_admit"
    value: float
    witness: np.ndarray | None
    invariance_residual: float


def admits_charfn(v: DilationMap, purity: PurityVerdict) -> ExistenceReport:
    """Decide whether the pure tuple embedded by v admits a characteristic function.

    Tests whether the tuple associated with the dilation is a contraction for the dilation's
    kernel: the smallest eigenvalue of its defect against -tol.  `purity` is the verdict on the
    defect v holds (`is_pure(v.defect_data)`); non-pure inputs are rejected: outside the hypothesis
    there is nothing to decide.  For the restriction A of the shifts to Ker V^* = Ran P,
    sigma_A^k(I) = sigma^k(P) there, so the defect is P C diag(0, weights) C^* P on the span's
    columns C = Q R (`DefectSpan`).  P Q = [0, Q_2] and M^alpha Q_1 = M^alpha V R_11^-1, so in the
    basis Q_2 it is S = [X, Z] diag(weights) [X, Z]^*, X the rows of R past h on E_0 and Z_alpha
    those on the gather at alpha times R_11^-1: R alone.  The eigenvalues on Ker V^* are those of
    S, and 0 when Q_2 (len(R) - h wide) is narrower.  The verdict is two-valued (a finite sum); the
    witness is Q_2 times the eigenvector of the smallest eigenvalue of S, from a reduced QR of C
    made only then (the same Householder steps as R).
    """
    if purity.status != "pure":
        raise PrerequisiteError(
            f"existence test requires a pure tuple; purity verdict was {purity.status!r} "
            f"(residual {purity.residual:.3e})"
        )
    assoc = associated_tuple(v)
    span, h, e0 = v.span, v.ops.h, v.tensored.ends[0]
    xz = span.r[h:, h:].copy()
    gathers = xz[:, e0:]  # Z_alpha = R_22[:, alpha] R_11^-1: solved h entries at a time
    xz[:, e0:] = np.linalg.solve(span.r[:h, :h].T, gathers.reshape(-1, h).T).T.reshape(gathers.shape)
    delta_sq = hermitize((xz * span.weights) @ xz.conj().T)
    vals = np.linalg.eigvalsh(delta_sq)  # none when Ker V^* = 0: an empty tuple contracts
    min_eig = float(min([*vals, 0.0] if len(span.r) - h < assoc.dim else vals, default=0.0))
    witness = (canonical_phases(np.linalg.qr(span.columns)[0][:, h:]  # Q_2, for a witness only
                                @ np.linalg.eigh(delta_sq)[1][:, :1])[:, 0]
               if min_eig < -v.params.tol else None)
    return ExistenceReport(
        status="admits" if witness is None else "does_not_admit",
        value=min_eig,
        witness=witness,
        invariance_residual=assoc.invariance_residual,
    )


# ---------------------------------------------------------------------------
# The generalized Bergman counterexample
# ---------------------------------------------------------------------------

class CounterexamplePoint(NamedTuple):
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


def _compressed_shift_forms(table: CoeffTable, big_n: int, pairs) -> list[float]:
    """Associated-defect forms at e(k e_1) of the shifts compressed to degrees <= n, one per
    pair (n, k), 0 <= n < k <= big_n.  Degrees <= n are co-invariant, so the compression
    dilates, with defect rank 1, to the inclusion of that block (tests check `build_dilation`
    against it to 1e-14), and e lies in Ker V^*, where the form is sum_{|alpha|>=1} b_alpha
    |P_n (M^alpha)^* e|^2: one adjoint gather, to the last degree <= max k with b != 0."""
    if any(not 0 <= n < k for n, k in pairs):
        raise ValueError(f"each pair (n, k) needs 0 <= n < k, got {pairs}")
    shifts = shift_matrices(table, big_n).index
    top = int(np.flatnonzero(table.require_b(max(k for _, k in pairs)))[-1])
    x = np.zeros((shifts.h, len(pairs)), dtype=complex)
    x[graded_position(table.d, big_n, [(k,) + (0,) * (table.d - 1) for _, k in pairs]),
      np.arange(len(pairs))] = 1.0
    sq = np.abs(graded_stack(x, table.d, top, shifts.apply_adjoint)[1:]) ** 2
    rows = np.arange(shifts.h)[:, None] < [shifts.ends[n] for n, _ in pairs]
    return (multi_coeff(table, graded_indices(table.d, top)[1:], "b") @ (sq * rows).sum(1)).tolist()


def bergman_counterexample(m: int, ns: Sequence[int], d: int = 1) -> list[CounterexamplePoint]:
    """Quadratic forms of the associated tuples of the compressed shifts, one per n in ns.

    The compression of the Bergman-m shifts to degrees <= n dilates to the inclusion of that
    block (`_compressed_shift_forms`); the form at the degree-(n + 2) basis vector along the
    first coordinate reads no degree above n + 2, so all rows, in ns order, share one table
    and one shift build.  Every term of that form lives on the first coordinate axis, so the
    rows are computed in one variable and d (>= 1) only labels them.  m = 1 is rejected: the
    ratio drops below 1, the form is nonnegative.
    """
    if m < 2:
        raise PrerequisiteError(
            "counterexample requires m >= 2; at m = 1 the kernel has nonnegative "
            "inverted coefficients and the bound m(N+2)/(m+N+1) falls to within 1"
        )
    if min(ns, default=-1) < 0:
        raise ValueError(f"compression degrees must be a non-empty list of integers >= 0, got {ns}")
    if d < 1:
        raise InvalidKernelError(f"ambient dimension must be >= 1, got {d}")
    big_n = max(ns) + 3
    forms = _compressed_shift_forms(build_table(bergman(m), big_n + 1), big_n,
                                    [(n, n + 2) for n in ns])
    bounds = [m * (n + 2) / (m + n + 1) for n in ns]
    return [CounterexamplePoint(m=m, N=n, d=d, closed_form=1.0 - bound, numeric=numeric,
                                match_error=abs(numeric - (1.0 - bound)), bound_value=bound)
            for n, numeric, bound in zip(ns, forms, bounds)]


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
    table1 = build_table(KernelSpec(1, table.spec.rule, table.spec.param, table.spec.label), n + 1)
    return np.array(_compressed_shift_forms(table1, n, [(0, k) for k in range(2, n + 1)]))
