"""Slow reference for the weighted operator series of cnplab.tuples.

`enumerated_series` sums c_alpha T^alpha M (T^alpha)^* term by term over
every multi-index alpha, from the products T^alpha and the multi-index
coefficients c_alpha = c_|alpha| multinomial(alpha).  It shares none of the
sigma-recursion shortcut, so differential tests can compare the two.
`tuple_power` is T^alpha as a product of matrix powers, one per coordinate,
where the package builds every T^alpha as one graded stack of single products.
`dense_shifts` writes the truncated shifts M_i entry by entry from the
multi-index coefficients, and `tensored_shifts` is their dense Kronecker
tuple M_i x I_r, where the package keeps both as index maps.
`looped_graded_stack` builds a graded stack one step per multi-index, each
entry from its parent alpha - e_i found by lookup, where the package takes one
batched step per coordinate and degree.
`looped_reciprocal` is the convolution recursion for b_n as a scalar double
loop, with the zero rule accumulated term by term, where the package subtracts
each degree's products in one reduction.
`enumerated_shift_norm_sq` takes the squared shift norm as the largest ratio
a_alpha / a_{alpha+e_i} over every multi-index, where the package uses its
closed form.
`factorial_multinomial` is |alpha|! / prod(alpha_i!) by factorials, where the
package takes a product of binomials in the suffix sums of alpha.
Spectral norms are taken by SVD, `np.linalg.norm(x, 2)`, not by the package's `opnorm`.
"""

from __future__ import annotations

import math

import numpy as np

import cnplab as cl
from cnplab.coeffs import graded_indices, graded_position, multi_coeff


def factorial_multinomial(alpha) -> int:
    """|alpha|! // prod(alpha_i!), one factorial per entry, for nonnegative alpha."""
    return math.factorial(sum(alpha)) // math.prod(math.factorial(a) for a in alpha)


def tuple_power(t, alpha) -> np.ndarray:
    """T^alpha = T_1^alpha_1 ... T_d^alpha_d by np.linalg.matrix_power."""
    out = np.eye(t.h, dtype=complex)
    for m, k in zip(t.mats, alpha):
        out = out @ np.linalg.matrix_power(m, k)
    return out


def stack_power(powers, alpha) -> np.ndarray:
    """T^alpha read from a TuplePowers stack at the graded position of alpha."""
    return powers.stack[graded_position(len(alpha), powers.n, [alpha])[0]]


def enumerated_series(t, table, n, which, middle=None, start_degree=0):
    """(sum over start_degree <= |alpha| <= n of c_alpha T^alpha M (T^alpha)^*,
    norm of the degree-k increment for every k in 0..n, 0 below start_degree)."""
    h = t.h
    total = np.zeros((h, h), dtype=complex)
    inc_norms = []
    for deg in range(n + 1):
        if deg < start_degree:
            inc_norms.append(0.0)
            continue
        inc = np.zeros((h, h), dtype=complex)
        for alpha in graded_indices(t.d, n):
            if sum(alpha) != deg:
                continue
            p = tuple_power(t, alpha)
            m = p @ p.conj().T if middle is None else p @ middle @ p.conj().T
            inc += multi_coeff(table, alpha, which) * m
        total += inc
        inc_norms.append(np.linalg.norm(inc, 2))
    return total, inc_norms


def looped_graded_stack(x: np.ndarray, d: int, n: int, step) -> np.ndarray:
    """Entries for graded_indices(d, n), stacked: x at alpha = 0, then step(i, entry alpha - e_i)
    with i the first nonzero coordinate of alpha; alpha - e_i comes earlier, so each entry
    costs one step, such as one factor T_i of T^alpha."""
    idx = np.array(graded_indices(d, n))[1:]
    first = np.argmax(idx > 0, axis=1)
    lower = graded_position(d, n, idx - np.eye(d, dtype=int)[first])
    out = np.empty((len(idx) + 1, *x.shape), dtype=complex)
    out[0] = x
    for j, (i, k) in enumerate(zip(first, lower), start=1):
        out[j] = step(i, out[k])
    return out


def looped_reciprocal(a):
    """b_0 = 0 and b_k = a_k - sum_{j=1}^{k-1} b_j a_{k-j}, one scalar operation at a time;
    b_k within (k + 1) eps times the sum of its row's |terms| is set to 0 when that sum is finite."""
    eps = np.finfo(float).eps
    b = np.zeros(len(a))
    for k in range(1, len(a)):
        acc = scale = a[k]
        for j in range(1, k):
            term = b[j] * a[k - j]
            acc -= term
            with np.errstate(over="ignore"):  # an overflowed scale only keeps b_k as computed
                scale += abs(term)
        b[k] = 0.0 if math.isfinite(scale) and abs(acc) <= (k + 1) * eps * scale else acc
    return b


def dense_shifts(table, n):
    """The OperatorTuple of the shifts compressed to degree <= n, one entry at a time:
    <M_i e(alpha), e(alpha + e_i)> = sqrt(a_alpha / a_{alpha+e_i}) in graded order."""
    indices = graded_indices(table.d, n)
    pos = {alpha: k for k, alpha in enumerate(indices)}
    mats = []
    for i in range(table.d):
        mat = np.zeros((len(indices), len(indices)), dtype=complex)
        for alpha in indices:
            up = alpha[:i] + (alpha[i] + 1,) + alpha[i + 1:]
            if up in pos:
                mat[pos[up], pos[alpha]] = np.sqrt(multi_coeff(table, alpha, "a")
                                                   / multi_coeff(table, up, "a"))
        mats.append(mat)
    return cl.OperatorTuple(tuple(mats))


def tensored_shifts(table, n, r):
    """The OperatorTuple of np.kron(M_i, I_r) for the dense_shifts M_i at degree n."""
    return cl.OperatorTuple(tuple(np.kron(m, np.eye(r, dtype=complex))
                                  for m in dense_shifts(table, n).mats))


def enumerated_shift_norm_sq(table, i, n):
    """(max_{|alpha|<=n} a_alpha / a_{alpha+e_i}, first alpha in graded order attaining it)."""
    best, best_alpha = -np.inf, None
    for alpha in graded_indices(table.d, n):
        up = alpha[:i] + (alpha[i] + 1,) + alpha[i + 1:]
        ratio = multi_coeff(table, alpha, "a") / multi_coeff(table, up, "a")
        if ratio > best:
            best, best_alpha = ratio, alpha
    return best, best_alpha
