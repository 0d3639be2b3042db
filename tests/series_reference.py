"""Slow reference for the weighted operator series of cnplab.tuples.

`enumerated_series` sums c_alpha T^alpha M (T^alpha)^* term by term over
every multi-index alpha, from the products T^alpha and the multi-index
coefficients c_alpha = c_|alpha| multinomial(alpha).  It shares none of the
sigma-recursion shortcut, so differential tests can compare the two.
`tuple_power` is T^alpha as a product of matrix powers, one per coordinate,
where the package builds every T^alpha as one graded stack of single products.
`ix_sandwich` is T_i X T_i^* for index-map shifts gathered through np.ix_.
`enumerated_shift_norm_sq` takes the squared shift norm as the largest ratio
a_alpha / a_{alpha+e_i} over every multi-index, where the package uses its
closed form.
"""

from __future__ import annotations

import numpy as np

from cnplab._linalg import opnorm
from cnplab.coeffs import graded_indices, multi_coeff


def tuple_power(t, alpha) -> np.ndarray:
    """T^alpha = T_1^alpha_1 ... T_d^alpha_d by np.linalg.matrix_power."""
    out = np.eye(t.h, dtype=complex)
    for m, k in zip(t.mats, alpha):
        out = out @ np.linalg.matrix_power(m, k)
    return out


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
        inc_norms.append(opnorm(inc))
    return total, inc_norms


def ix_sandwich(shifts, i, x):
    """T_i X T_i^* for IndexShifts, as a two-axis np.ix_ gather."""
    dst, src, w = shifts.maps[i]
    out = np.zeros((shifts.h, shifts.h), dtype=complex)
    out[np.ix_(dst, dst)] = w[:, None] * x[np.ix_(src, src)] * w[None, :]
    return out


def enumerated_shift_norm_sq(table, i, n):
    """(max_{|alpha|<=n} a_alpha / a_{alpha+e_i}, first alpha in graded order attaining it)."""
    best, best_alpha = -np.inf, None
    for alpha in graded_indices(table.d, n):
        up = alpha[:i] + (alpha[i] + 1,) + alpha[i + 1:]
        ratio = multi_coeff(table, alpha, "a") / multi_coeff(table, up, "a")
        if ratio > best:
            best, best_alpha = ratio, alpha
    return best, best_alpha
