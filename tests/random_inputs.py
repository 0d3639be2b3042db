"""Random commuting tuples, points and kernels for the differential tests."""

from __future__ import annotations

import numpy as np

import cnplab as cl


def random_commuting_tuple(rng, d, h, scale):
    """T_i = x_i A + y_i A^2 for one generic A: commuting, non-normal, small."""
    a = rng.standard_normal((h, h)) + 1j * rng.standard_normal((h, h))
    a *= scale / np.linalg.norm(a, 2)
    coef = rng.uniform(-1.0, 1.0, (d, 2)) + 1j * rng.uniform(-1.0, 1.0, (d, 2))
    coef /= np.sqrt(d) * np.max(np.abs(coef).sum(axis=1))
    return cl.OperatorTuple(tuple(x * a + y * (a @ a) for x, y in coef))


def random_point(rng, d, radius):
    v = rng.standard_normal(d) + 1j * rng.standard_normal(d)
    return radius * rng.random() * v / np.linalg.norm(v)


def diff_kernel(rule, d, param):
    """param in [0, 2] is the Dirichlet exponent t, or picks Bergman m in {1, 2, 3}."""
    return {
        "szego": lambda: cl.KernelSpec(d=d, rule="szego"),
        "drury_arveson": lambda: cl.drury_arveson(d),
        "dirichlet_t": lambda: cl.dirichlet_t(param, d=d),
        "bergman": lambda: cl.bergman(1 + int(param), d=d),
    }[rule]()


def finite_b_kernel(rng, d, n, cnp=False):
    """A custom kernel with 1/k = 1 - sum_{k<=m} b_k <z, w>^k, m in {1, 2, 3}, its a_0..a_n.

    b_1 is in [1/2, 1] and b_2, b_3 in [-1/4, 1/2] ([0, 1/2] when cnp), all
    multiples of 1/8, so the table recovers b from a exactly: b_k = 0 past m.
    Redrawn until every a_k is positive.
    """
    while True:
        m = int(rng.integers(1, 4))
        b = np.zeros(n + 1)
        b[1] = rng.integers(4, 9) / 8.0
        b[2:m + 1] = rng.integers(0 if cnp else -2, 5, m - 1) / 8.0
        a = [1.0]
        for k in range(1, n + 1):
            a.append(sum(b[j] * a[k - j] for j in range(1, min(k, m) + 1)))
        if min(a) > 0.0:
            return cl.custom_kernel(a, d=d)
