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
