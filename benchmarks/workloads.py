"""Seeded workload configs and their reference outcomes.

A workload is a list of `cnplab run` configs.  The d=2 tuples are generated
here from the workload seed; the program under test only ever sees the JSON
config that comes out.
"""

from __future__ import annotations

import itertools
import json
import math
from dataclasses import dataclass
from pathlib import Path

import numpy as np

H = 3
D = 2
N = 10
SHAPE_PERTURBATION = 0.2
SCALE_STEP = 0.9
BERGMAN_M = 2
BERGMAN_DEGREE = 1

# (rho, margin) of the tuple recipe, and the suites each d=2 workload runs
D2_RECIPES = {
    "existence-d2": {
        "rho": 0.3, "margin": 0.2,
        "suites": ["coeffs", "contraction", "purity", "dilation", "existence"],
    },
    "identities-d2": {
        "rho": 0.12, "margin": 0.9,
        "suites": ["coeffs", "contraction", "purity", "dilation", "charfn", "identities"],
    },
}
WORKLOADS = ("existence-d2", "identities-d2", "small-mix")

# suite -> (outcome, verdict) that every run must reproduce
TUPLE_PASS = {
    "contraction": ("pass", "yes"),
    "purity": ("pass", "pure"),
    "dilation": ("pass", "isometry"),
}
CNP_PASS = TUPLE_PASS | {
    "existence": ("pass", "admits"),
    "charfn": ("pass", "contractive"),
    "identities": ("pass", "identities"),
}
BERGMAN_REFERENCE = {"coeffs": ("pass", "not_cnp(n=2, b=-1)")} | TUPLE_PASS | {
    "existence": ("pass", "does_not_admit"),
    "counterexample": ("pass", "reproduced"),
}
# the coeffs verdict certifies b_n >= 0 through the default N_max of 64
D2_REFERENCE = {"coeffs": ("pass", "cnp_consistent(N=64)")} | CNP_PASS

SHIPPED_CONFIGS = ("szego_scalar.json", "dirichlet_scalar.json", "bergman_zero_tuple.json")
BERGMAN_D2_CONFIG = "bergman2_d2_compressed_shift.json"
SMALL_MIX_REFERENCE = {
    "szego_scalar.json": {"coeffs": ("pass", "cnp_consistent(N=84)")} | CNP_PASS,
    "dirichlet_scalar.json": {"coeffs": ("pass", "cnp_consistent(N=90)")} | CNP_PASS,
    "bergman_zero_tuple.json": BERGMAN_REFERENCE,
    BERGMAN_D2_CONFIG: BERGMAN_REFERENCE,
}


@dataclass(frozen=True)
class Op:
    """One `cnplab run` invocation: a config and the suite outcomes it must reproduce."""

    name: str
    config: dict
    reference: dict  # suite -> (outcome, verdict)


def recipe_tuple(seed: int, rho: float, margin: float, h: int = H, d: int = D) -> list:
    """Commuting d-tuple T_i = S diag(lambda_i) S^-1 with a defect margin.

    S = Q (I + 0.2 G / sqrt(h)) with Q unitary and G complex Gaussian, the
    joint eigenvalues lie in the ball of radius rho, and the whole tuple is
    scaled by 0.9 until min eig(I - sum T_i T_i^*) > margin.
    """
    rng = np.random.default_rng(seed)

    def gaussian(*shape):
        return (rng.standard_normal(shape) + 1j * rng.standard_normal(shape)) / np.sqrt(2.0)

    q, _ = np.linalg.qr(gaussian(h, h))
    s = q @ (np.eye(h) + SHAPE_PERTURBATION * gaussian(h, h) / np.sqrt(h))
    s_inv = np.linalg.inv(s)
    lam = gaussian(h, d)
    lam /= np.linalg.norm(lam, axis=1, keepdims=True)
    lam *= rho * rng.random((h, 1)) ** (1.0 / (2 * d))
    mats = [s @ np.diag(lam[:, i]) @ s_inv for i in range(d)]
    while True:
        gap = np.eye(h) - sum(m @ m.conj().T for m in mats)
        if np.linalg.eigvalsh(gap)[0] > margin:
            return mats
        mats = [SCALE_STEP * m for m in mats]


def nested(m: np.ndarray) -> list:
    return [[[float(v.real), float(v.imag)] for v in row] for row in m]


def d2_config(workload: str, seed: int, n: int = N) -> dict:
    recipe = D2_RECIPES[workload]
    # one stream per workload, so the two d=2 tuples of a seed are unrelated
    mats = recipe_tuple([seed, WORKLOADS.index(workload)], recipe["rho"], recipe["margin"])
    return {
        "label": f"{workload} seed {seed}",
        "kernel": {"d": D, "rule": "drury_arveson", "params": {}},
        "tuple": {"inline": {"h": H, "d": D, "mats": [nested(m) for m in mats]}},
        "truncation": {"N": n, "tol": 1e-9, "tail_window": 3},
        "suites": list(recipe["suites"]),
        "seed": seed,
    }


def compressed_bergman_shifts(m: int, d: int, n: int) -> list:
    """The coordinate shifts of the Bergman-m space on the ball, compressed to
    polynomials of degree <= n, in the program's graded basis order."""
    indices = sorted(
        (a for a in itertools.product(range(n + 1), repeat=d) if sum(a) <= n),
        key=lambda a: (sum(a), a),
    )
    pos = {a: k for k, a in enumerate(indices)}

    def coeff(alpha):  # a_alpha = binom(|alpha| + m - 1, m - 1) * multinomial(alpha)
        k = sum(alpha)
        multinomial = math.factorial(k) // math.prod(math.factorial(x) for x in alpha)
        return math.comb(k + m - 1, m - 1) * multinomial

    mats = []
    for i in range(d):
        mat = np.zeros((len(indices), len(indices)), dtype=complex)
        for alpha in indices:
            up = alpha[:i] + (alpha[i] + 1,) + alpha[i + 1:]
            if up in pos:
                mat[pos[up], pos[alpha]] = math.sqrt(coeff(alpha) / coeff(up))
        mats.append(mat)
    return mats


def bergman_shift_config(seed: int) -> dict:
    """Compressed d=2 Bergman-2 shifts: pure and contractive, yet they admit
    no characteristic function because the kernel is not CNP."""
    mats = compressed_bergman_shifts(BERGMAN_M, 2, BERGMAN_DEGREE)
    h = mats[0].shape[0]
    return {
        "label": "compressed bergman-2 shifts, d=2: expected existence failure",
        "kernel": {"d": 2, "rule": "bergman", "params": {"m": BERGMAN_M}, "N_max": 24},
        "tuple": {"inline": {"h": h, "d": 2, "mats": [nested(m) for m in mats]}},
        "truncation": {"N": 12, "tol": 1e-9, "tail_window": 3},
        "suites": ["coeffs", "contraction", "purity", "dilation", "existence", "counterexample"],
        "expect": {"existence": "does_not_admit"},
        "counterexample": {"m": BERGMAN_M, "N_list": list(range(8)), "d": 2},
        "seed": seed,
    }


def build_ops(workload: str, seed: int, root: Path, n: int = N) -> list[Op]:
    """The configs of one pass over the workload, in run order."""
    if workload in D2_RECIPES:
        cfg = d2_config(workload, seed, n)
        ref = {s: D2_REFERENCE[s] for s in cfg["suites"]}
        return [Op(workload, cfg, ref)]
    if workload != "small-mix":
        raise ValueError(f"unknown workload {workload!r}; expected one of {WORKLOADS}")
    ops = []
    for name in SHIPPED_CONFIGS:
        with open(root / "configs" / name) as fh:
            cfg = json.load(fh)
        cfg.pop("output", None)
        cfg["seed"] = seed
        ops.append(Op(name, cfg, SMALL_MIX_REFERENCE[name]))
    ops.append(Op(BERGMAN_D2_CONFIG, bergman_shift_config(seed),
                  SMALL_MIX_REFERENCE[BERGMAN_D2_CONFIG]))
    return ops


def check_report(report: dict | None, reference: dict) -> list[str]:
    """Mismatches between a report's suites and the reference; empty when correct."""
    if report is None:
        return ["no report"]
    got = {s["name"]: (s["outcome"], s["verdict"]) for s in report.get("suites", [])}
    problems = []
    for suite, want in reference.items():
        if got.get(suite) != want:
            problems.append(f"{suite}: got {got.get(suite)}, want {want}")
    extra = sorted(set(got) - set(reference))
    if extra:
        problems.append(f"unexpected suites {extra}")
    return problems
