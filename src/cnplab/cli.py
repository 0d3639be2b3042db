"""Configuration ingestion, verification suites, and machine-readable reports.

A run config names one kernel, one matrix tuple, a truncation policy, and a
set of verification suites.  Suites execute in a fixed dependency order; a
failed prerequisite marks its dependents skipped, never silently passed.
Reports are JSON with residuals printed to 17 significant digits so they
round-trip exactly.
"""

from __future__ import annotations

import argparse
import datetime
import json
import os
import sys
import time
import traceback
from dataclasses import dataclass, field, replace
from functools import cached_property

import numpy as np

from . import __version__
from .coeffs import (
    CoeffTable,
    KernelSpec,
    build_table,
    estimate_radius,
    is_cnp,
)
from .errors import CnpLabError
from .tuples import (
    DefectData,
    OperatorTuple,
    TruncationParams,
    defect,
    is_contraction,
    is_pure,
)
from .model import (
    CounterexamplePoint,
    DilationMap,
    admits_charfn,
    bergman_counterexample,
    build_dilation,
    check_factorability,
    check_intertwining,
)
from .charfn import (
    TupleLift,
    ball_points,
    build_lift,
    charfn_eval,
    eval_to_dict,
    reciprocal_kernel,
    verify_defect_identity,
    verify_model,
    verify_multiplier,
)

SUITE_ORDER = (
    "coeffs", "contraction", "purity", "dilation",
    "existence", "charfn", "identities", "counterexample",
)

# prerequisite links; a suite is skipped when its nearest requested ancestor
# did not pass
SUITE_DEPS = {
    "coeffs": None,
    "contraction": "coeffs",
    "purity": "contraction",
    "dilation": "purity",
    "existence": "dilation",
    "charfn": "existence",
    "identities": "charfn",
    "counterexample": None,
}

ENV_OUT_DIR = "CNPLAB_OUT_DIR"

# fixed gates shared by the suite runners
GATES = {
    "roundtrip": 1e-12,
    "isometry": 1e-8,
    "intertwine": 1e-8,
    "lift": 1e-10,
    "z_identity": 1e-10,
    "theta_norm_excess": 1e-8,
    "identity_i1": 1e-8,
    "gram_min_eig": -1e-9,
    "vv_identity": 1e-8,
    "model": 1e-7,
    "counterexample_match": 1e-12,
}


def fmt(x: float) -> str:
    """Decimal string with 17 significant digits; round-trips exactly."""
    return f"{float(x):.17g}"


# ---------------------------------------------------------------------------
# Config parsing
# ---------------------------------------------------------------------------

@dataclass
class RunConfig:
    kernel: KernelSpec
    n_table: int
    tuple_mats: tuple | None
    truncation: TruncationParams
    suites: tuple
    expect: dict
    seed: int
    output: str | None
    counterexample: dict
    label: str
    raw: dict


def strict_int(value, name: str) -> int:
    """value as an int; integral floats pass, while bools, strings and fractions are rejected."""
    if isinstance(value, bool) or not (
            isinstance(value, int) or isinstance(value, float) and value.is_integer()):
        raise ValueError(f"{name} must be an integer, got {value!r}")
    return int(value)


def strict_float(value, name: str) -> float:
    """value as a finite float; ints pass, while bools, strings, NaN and infinities are rejected."""
    if isinstance(value, bool) or not (
            isinstance(value, (int, float)) and abs(value) <= sys.float_info.max):
        raise ValueError(f"{name} must be a finite number, got {value!r}")
    return float(value)


def kernel_from_dict(spec: dict) -> tuple[KernelSpec, int]:
    rule = spec.get("rule")
    params = spec.get("params", {}) or {}
    d = strict_int(spec.get("d", 1), "kernel.d")
    label = spec.get("label", "")
    name = {"bergman": "m", "dirichlet_t": "t", "custom": "coeffs"}.get(rule)
    if name is not None and params.get(name) is None:
        raise ValueError(f"the {rule} rule needs the parameter {name!r}")
    if rule == "bergman":
        param = strict_int(params["m"], "kernel.params.m")
    elif rule == "dirichlet_t":
        param = strict_float(params["t"], "kernel.params.t")
    elif rule == "custom":
        coeffs = params["coeffs"]
        if not isinstance(coeffs, list):
            raise ValueError(f"kernel.params.coeffs must be a list of numbers, got {coeffs!r}")
        param = tuple(strict_float(c, f"kernel.params.coeffs[{i}]") for i, c in enumerate(coeffs))
    else:
        param = None
    ks = KernelSpec(d=d, rule=rule, param=param, label=label)
    n_table = strict_int(spec.get("N_max", 64), "kernel.N_max")
    return ks, n_table


def matrices_from_nested(entries) -> np.ndarray:
    """Nested lists of [re, im] pairs to a complex matrix of finite entries."""
    arr = np.asarray(entries, dtype=float)
    if arr.ndim != 3 or arr.shape[2] != 2:
        raise ValueError("matrix entries must be nested [re, im] pairs")
    bad = np.argwhere(~np.isfinite(arr))
    if len(bad):
        row, col, part = bad[0]
        raise ValueError(f"matrix entry [{row}][{col}] has a non-finite "
                         f"{('real', 'imaginary')[part]} part: {arr[row, col, part]}")
    return arr[..., 0] + 1j * arr[..., 1]


def matrix_to_nested(m: np.ndarray) -> list:
    return [[[float(v.real), float(v.imag)] for v in row] for row in np.asarray(m, dtype=complex)]


def mats_from_tuple_dict(data: dict) -> tuple:
    """The tuple's matrices, shape-checked; commutators are checked when the tuple is built."""
    h = strict_int(data["h"], "tuple.h")
    d = strict_int(data["d"], "tuple.d")
    mats = tuple(matrices_from_nested(m) for m in data["mats"])
    if len(mats) != d or any(m.shape != (h, h) for m in mats):
        raise ValueError(f"expected {d} matrices of shape ({h}, {h})")
    return mats


def load_tuple_source(source: dict, base_dir: str = ".") -> tuple:
    if "inline" in source:
        return mats_from_tuple_dict(source["inline"])
    if "path" in source:
        path = source["path"]
        if not os.path.isabs(path):
            path = os.path.join(base_dir, path)
        with open(path) as fh:
            return mats_from_tuple_dict(json.load(fh))
    raise ValueError("tuple source needs an 'inline' block or a 'path'")


def parse_config(raw: dict, base_dir: str = ".") -> RunConfig:
    kernel, n_table = kernel_from_dict(raw["kernel"])
    trunc_raw = raw.get("truncation", {})
    trunc = TruncationParams(
        N=strict_int(trunc_raw.get("N", 32), "truncation.N"),
        tol=strict_float(trunc_raw.get("tol", 1e-9), "truncation.tol"),
        tail_window=strict_int(trunc_raw.get("tail_window", 3), "truncation.tail_window"),
    )
    # the existence suite extends its series by tail_window and reads shift
    # norms one degree beyond that
    floor = trunc.N + trunc.tail_window + 1
    if n_table < floor:
        raise ValueError(
            f"kernel.N_max ({n_table}) must be at least truncation.N + tail_window + 1 ({floor})"
        )
    suites = raw.get("suites", [])
    if not isinstance(suites, (list, tuple)):
        raise ValueError(f"suites must be a list of suite names, got {suites!r}")
    suites = tuple(suites)
    if not suites:
        raise ValueError("config must request at least one suite")
    unknown = [s for s in suites if s not in SUITE_ORDER]
    if unknown:
        raise ValueError(f"unknown suites {unknown}; valid: {list(SUITE_ORDER)}")
    tuple_mats = None
    if "tuple" in raw and raw["tuple"]:
        tuple_mats = load_tuple_source(raw["tuple"], base_dir)
    needs_tuple = [s for s in suites if s not in ("coeffs", "counterexample")]
    if needs_tuple and tuple_mats is None:
        raise ValueError(f"suites {needs_tuple} require a tuple source")
    if tuple_mats is not None and len(tuple_mats) != kernel.d:
        raise ValueError(f"tuple has d={len(tuple_mats)} but kernel has d={kernel.d}")
    ce = raw.get("counterexample", {})
    n_list = ce.get("N_list", [0, 1, 2, 3])
    if not isinstance(n_list, list):
        raise ValueError(f"counterexample.N_list must be a list of integers, got {n_list!r}")
    ce = {
        "m": strict_int(ce.get("m", 2), "counterexample.m"),
        "N_list": [strict_int(n, f"counterexample.N_list[{i}]") for i, n in enumerate(n_list)],
        "d": strict_int(ce.get("d", 1), "counterexample.d"),
    }
    return RunConfig(
        kernel=kernel,
        n_table=n_table,
        tuple_mats=tuple_mats,
        truncation=trunc,
        suites=suites,
        expect=dict(raw.get("expect", {})),
        seed=strict_int(raw.get("seed", 2024), "seed"),
        output=raw.get("output"),
        counterexample=ce,
        label=raw.get("label", ""),
        raw=raw,
    )


# ---------------------------------------------------------------------------
# Suite runners
# ---------------------------------------------------------------------------

@dataclass
class SuiteResult:
    name: str
    outcome: str = "pass"  # "pass" | "fail" | "error" | "skip"
    verdict: str = ""
    expected: str | None = None
    residuals: dict = field(default_factory=dict)
    tolerances: dict = field(default_factory=dict)
    details: dict = field(default_factory=dict)
    error: str | None = None
    wall_time: float = 0.0

    def gate(self, name: str, value: float, limit: float, lower: bool = False):
        """Record a residual and fail the suite when it violates its gate."""
        self.residuals[name] = fmt(value)
        self.tolerances[name] = fmt(limit)
        # written negated so that a NaN residual fails its gate
        if not (value >= limit if lower else value <= limit):
            self.outcome = "fail"


class _SuiteContext:
    """Lazily built shared objects so suites do not recompute each other's work."""

    def __init__(self, cfg: RunConfig):
        self.cfg = cfg
        self.table: CoeffTable = build_table(cfg.kernel, cfg.n_table)

    @cached_property
    def ops(self) -> OperatorTuple:
        # constructed on first use so the commutator check surfaces as a
        # suite error, not a config error
        return OperatorTuple(self.cfg.tuple_mats)

    @cached_property
    def defect(self) -> DefectData:
        return defect(self.ops, self.table, self.cfg.truncation)

    @cached_property
    def dilation(self) -> DilationMap:
        return build_dilation(self.ops, self.table, self.cfg.truncation, defect_data=self.defect)

    @cached_property
    def lift(self) -> TupleLift:
        return build_lift(self.dilation)


def _suite_coeffs(ctx: _SuiteContext, res: SuiteResult):
    table = ctx.table
    a, b = table.a, table.b
    n = table.n_max
    conv = np.zeros(n + 1)
    for k in range(1, n + 1):
        conv[k] = a[k] - np.dot(b[1:k + 1], a[:k][::-1])
    res.gate("roundtrip_max", float(np.max(np.abs(conv[1:]))) if n else 0.0, GATES["roundtrip"])
    cls = is_cnp(table)
    res.verdict = cls.describe()
    ra = estimate_radius(table, "a")
    rb = estimate_radius(table, "b")
    res.details["radius_a"] = {"radius": fmt(ra.radius), "reliable": ra.reliable,
                               "exact_polynomial": ra.exact_polynomial}
    res.details["radius_b"] = {"radius": fmt(rb.radius), "reliable": rb.reliable,
                               "exact_polynomial": rb.exact_polynomial}


def _suite_contraction(ctx: _SuiteContext, res: SuiteResult):
    verdict = is_contraction(ctx.ops, ctx.table, ctx.cfg.truncation, defect_data=ctx.defect)
    res.verdict = verdict.status
    res.residuals["min_eig"] = fmt(verdict.min_eig)
    res.residuals["tail_norm"] = fmt(verdict.tail_norm)
    res.tolerances["tol"] = fmt(ctx.cfg.truncation.tol)
    expected = res.expected or "yes"
    if verdict.status != expected:
        res.outcome = "fail"


def _suite_purity(ctx: _SuiteContext, res: SuiteResult):
    verdict = is_pure(ctx.ops, ctx.table, ctx.cfg.truncation, defect_data=ctx.defect)
    res.verdict = verdict.status
    res.residuals["purity_residual"] = fmt(verdict.residual)
    res.tolerances["tol"] = fmt(ctx.cfg.truncation.tol)
    expected = res.expected or "pure"
    if verdict.status != expected:
        res.outcome = "fail"


def _suite_dilation(ctx: _SuiteContext, res: SuiteResult):
    v = ctx.dilation
    d = ctx.cfg.kernel.d
    alphas = [tuple(2 if i == j else 0 for i in range(d)) for j in range(d)]
    alphas += [tuple(1 if i == j else 0 for i in range(d)) for j in range(d)]
    if d >= 2:
        alphas.append(tuple(1 if i < 2 else 0 for i in range(d)))
    inter = check_intertwining(v, alphas)
    res.verdict = "isometry"
    res.gate("isometry_defect", v.isometry_defect, GATES["isometry"])
    res.gate("intertwining", inter, GATES["intertwine"])


def _suite_existence(ctx: _SuiteContext, res: SuiteResult):
    p = ctx.cfg.truncation
    v = ctx.dilation
    report = admits_charfn(v)
    res.verdict = report.status
    res.residuals["assoc_min_eig"] = fmt(report.value)
    res.residuals["invariance"] = fmt(report.invariance_residual)
    x = np.eye(v.big_dim, dtype=complex) - v.matrix @ v.matrix.conj().T
    # series degree extends past the space truncation so the tail window sees
    # the terminating matrix series, not the cut-off
    p_series = replace(p, N=p.N + p.tail_window)
    fact = check_factorability(x, v.tensored, ctx.table, p_series)
    res.details["factorability"] = fact.verdict
    res.details["factorability_failed_condition"] = fact.failed_condition
    consistent = (report.status == "admits") == (fact.verdict == "factorable")
    res.details["existence_factorability_agree"] = consistent
    expected = res.expected or "admits"
    if report.status != expected or not consistent:
        res.outcome = "fail"


def _suite_charfn(ctx: _SuiteContext, res: SuiteResult):
    cfg = ctx.cfg
    lift = ctx.lift
    res.verdict = "contractive" if lift.contractive else "non_contractive"
    res.gate("ttstar_identity", lift.ttstar_residual, GATES["lift"])
    res.gate("defect_intertwine", lift.intertwine_residual, GATES["lift"])
    ev = charfn_eval(lift, ball_points(cfg.kernel.d, 100, cfg.seed + 1))
    # |Z(z)|^2 = 1 - 1/s(z, z), 1/s(z, z) by its own series (finite for Szego, Drury-Arveson)
    recip = reciprocal_kernel(ctx.table, ev.z, ev.z, ctx.table.n_max)
    res.gate("theta_norm_excess", ev.norm.max() - 1.0, GATES["theta_norm_excess"])
    res.gate("z_row_identity", np.max(np.abs(ev.z_norm_sq - (1.0 - recip.value.real))),
             GATES["z_identity"])
    res.details["z_row_series_last_term"] = fmt(recip.tail_term.max())
    res.residuals["inverse_residual_max"] = fmt(ev.inverse_residual.max())
    res.details["sample_evaluation"] = eval_to_dict(ev, 0)


def _suite_identities(ctx: _SuiteContext, res: SuiteResult):
    cfg = ctx.cfg
    lift = ctx.lift
    res.verdict = "identities"
    pairs = ball_points(cfg.kernel.d, 40, cfg.seed + 2)
    res.gate("identity_i1", verify_defect_identity(lift, pairs[0::2], pairs[1::2]).max(),
             GATES["identity_i1"])
    mult = verify_multiplier(lift, ball_points(cfg.kernel.d, 5, cfg.seed + 3))
    res.gate("gram_min_eig", mult.gram_min_eig, GATES["gram_min_eig"], lower=True)
    res.gate("vv_identity", mult.vv_identity_residual, GATES["vv_identity"])
    model = verify_model(lift)
    res.gate("model_compression", model.compression_residual, GATES["model"])
    res.gate("model_factorization", model.factor_residual, GATES["model"])


def counterexample_row(point: CounterexamplePoint) -> dict:
    """One counterexample instance with its values as round-tripping strings."""
    return {
        "m": point.m, "N": point.N,
        "closed_form": fmt(point.closed_form),
        "numeric": fmt(point.numeric),
        "match_error": fmt(point.match_error),
        "bound": fmt(point.bound_value),
    }


def _suite_counterexample(ctx: _SuiteContext, res: SuiteResult):
    ce = ctx.cfg.counterexample
    rows = []
    worst_match = 0.0
    all_negative = True
    for n in ce["N_list"]:
        point = bergman_counterexample(ce["m"], n, d=ce["d"])
        worst_match = max(worst_match, point.match_error)
        all_negative = all_negative and point.closed_form < 0.0
        rows.append(counterexample_row(point))
    res.verdict = "reproduced" if all_negative else "bound_not_violated"
    res.gate("match_error_max", worst_match, GATES["counterexample_match"])
    res.details["rows"] = rows
    if not all_negative:
        res.outcome = "fail"


SUITE_RUNNERS = {
    "coeffs": _suite_coeffs,
    "contraction": _suite_contraction,
    "purity": _suite_purity,
    "dilation": _suite_dilation,
    "existence": _suite_existence,
    "charfn": _suite_charfn,
    "identities": _suite_identities,
    "counterexample": _suite_counterexample,
}


# ---------------------------------------------------------------------------
# Orchestration and reporting
# ---------------------------------------------------------------------------

def run(cfg: RunConfig) -> dict:
    """Execute the requested suites in dependency order and assemble the report."""
    ctx = _SuiteContext(cfg)
    outcomes: dict[str, str] = {}
    suites = []
    requested = [s for s in SUITE_ORDER if s in cfg.suites]
    for name in requested:
        res = SuiteResult(name=name, expected=cfg.expect.get(name))
        dep = SUITE_DEPS[name]
        while dep is not None and dep not in outcomes:
            dep = SUITE_DEPS[dep]
        if dep is not None and outcomes[dep] != "pass":
            res.outcome = "skip"
            res.verdict = f"skipped: prerequisite {dep} did not pass"
            outcomes[name] = "skip"
            suites.append(res)
            continue
        start = time.perf_counter()
        try:
            SUITE_RUNNERS[name](ctx, res)
        except Exception as exc:  # a fault inside a suite is that suite's error
            res.outcome = "error"
            res.error = f"{type(exc).__name__}: {exc}"
            if not isinstance(exc, CnpLabError):
                traceback.print_exc()  # unexpected: show where it was raised
        res.wall_time = time.perf_counter() - start
        outcomes[name] = res.outcome
        suites.append(res)
    overall = "pass" if all(r.outcome == "pass" for r in suites) else "fail"
    return {
        "artifact": {"name": "cnplab", "version": __version__},
        "generated_at": datetime.datetime.now(datetime.timezone.utc).isoformat(),
        "config": cfg.raw,
        "label": cfg.label,
        "suites": [
            {
                "name": r.name,
                "outcome": r.outcome,
                "verdict": r.verdict,
                "expected": r.expected,
                "residuals": r.residuals,
                "tolerances": r.tolerances,
                "details": r.details,
                "error": r.error,
                "wall_time": r.wall_time,
            }
            for r in suites
        ],
        "overall": overall,
    }


VOLATILE_KEYS = ("generated_at", "wall_time")


def report_body(report: dict):
    """Report with volatile fields removed, for byte-level comparisons."""
    def strip(obj):
        if isinstance(obj, dict):
            return {k: strip(v) for k, v in obj.items() if k not in VOLATILE_KEYS}
        if isinstance(obj, list):
            return [strip(v) for v in obj]
        return obj
    return strip(report)


def dump_report(report: dict) -> str:
    return json.dumps(report, indent=2, sort_keys=True)


def _resolve_out(path: str | None) -> str | None:
    if path is None:
        return None
    if not os.path.isabs(path):
        base = os.environ.get(ENV_OUT_DIR)
        if base:
            return os.path.join(base, path)
    return path


# ---------------------------------------------------------------------------
# Command-line entry points
# ---------------------------------------------------------------------------

def cmd_run(args) -> int:
    try:
        with open(args.config) as fh:
            raw = json.load(fh)
        if args.tol is not None:
            raw.setdefault("truncation", {})["tol"] = args.tol
        if args.seed is not None:
            raw["seed"] = args.seed
        cfg = parse_config(raw, base_dir=os.path.dirname(os.path.abspath(args.config)))
    except (OSError, ValueError, KeyError, CnpLabError) as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    report = run(cfg)
    text = dump_report(report)
    out = _resolve_out(args.out or cfg.output)
    if out:
        os.makedirs(os.path.dirname(os.path.abspath(out)), exist_ok=True)
        with open(out, "w") as fh:
            fh.write(text + "\n")
    print(text)
    outcomes = {s["outcome"] for s in report["suites"]}
    return 1 if "fail" in outcomes else 3 if "error" in outcomes else 0


def cmd_kernel_info(args) -> int:
    try:
        if args.N < 0:
            raise ValueError(f"--N must be >= 0, got {args.N}")
        params = {"m": args.m, "t": args.t,
                  "coeffs": [float(c) for c in args.coeffs.split(",")] if args.coeffs else None}
        spec, _ = kernel_from_dict({"rule": args.rule, "d": args.d, "params": params})
        # the radius estimator needs a longer prefix than small printouts ask for
        table = build_table(spec, max(args.N, 16))
        ra = estimate_radius(table, "a")
        rb = estimate_radius(table, "b")
    except (CnpLabError, ValueError) as exc:
        print(f"invalid kernel: {exc}", file=sys.stderr)
        return 2
    print(f"kernel: {spec.label}  d={spec.d}  N={args.N}")
    print(f"{'n':>4s}  {'a_n':>24s}  {'b_n':>24s}")
    for n in range(args.N + 1):
        bs = fmt(table.b[n]) if n >= 1 else ""
        print(f"{n:>4d}  {fmt(table.a[n]):>24s}  {bs:>24s}")
    cls = is_cnp(table, n=args.N)
    print(f"classification: {cls.describe()}")
    for name, r in (("a", ra), ("b", rb)):
        qual = "exact polynomial" if r.exact_polynomial else (
            "reliable" if r.reliable else f"unreliable (spread {r.spread:.1%})")
        print(f"radius({name}-series) ~ {r.radius:g}  [{qual}]")
    return 0


def cmd_counterexample(args) -> int:
    if args.m < 2:
        print(
            "m must be >= 2: at m = 1 the kernel is the Drury-Arveson kernel, the "
            "bound m(N+2)/(m+N+1) stays <= 1, and the quadratic form is nonnegative",
            file=sys.stderr,
        )
        return 2
    try:
        points = [bergman_counterexample(args.m, int(n), d=args.d) for n in args.N.split(",")]
    except (CnpLabError, ValueError) as exc:
        print(f"invalid counterexample input: {exc}", file=sys.stderr)
        return 2
    print(f"{'m':>3s} {'N':>3s} {'closed_form':>22s} {'numeric':>22s} {'match_error':>12s} {'bound':>10s}")
    ok = True
    for pt in points:
        ok = ok and pt.match_error <= GATES["counterexample_match"] and pt.closed_form < 0.0
        print(f"{pt.m:>3d} {pt.N:>3d} {fmt(pt.closed_form):>22s} {fmt(pt.numeric):>22s} "
              f"{pt.match_error:>12.3e} {pt.bound_value:>10.6f}")
    out = _resolve_out(args.out)
    if out:
        payload = [dict(counterexample_row(pt), d=pt.d) for pt in points]
        os.makedirs(os.path.dirname(os.path.abspath(out)), exist_ok=True)
        with open(out, "w") as fh:
            json.dump(payload, fh, indent=2, sort_keys=True)
            fh.write("\n")
    return 0 if ok else 1


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="cnplab",
        description="verification lab for unitarily invariant kernels and commuting tuples",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_run = sub.add_parser("run", help="execute verification suites from a JSON config")
    p_run.add_argument("config", help="path to the run config")
    p_run.add_argument("--out", default=None, help="report path (joined with $CNPLAB_OUT_DIR if relative)")
    p_run.add_argument("--tol", type=float, default=None, help="override truncation tolerance")
    p_run.add_argument("--seed", type=int, default=None, help="override sampling seed")
    p_run.set_defaults(func=cmd_run)

    p_info = sub.add_parser("kernel-info", help="print coefficient tables and CNP verdict")
    p_info.add_argument("--rule", required=True,
                        choices=["szego", "drury_arveson", "bergman", "dirichlet_t", "custom"])
    p_info.add_argument("--N", type=int, required=True, help="highest degree to print")
    p_info.add_argument("--d", type=int, default=1)
    p_info.add_argument("--m", type=int, default=None, help="bergman exponent")
    p_info.add_argument("--t", type=float, default=None, help="dirichlet weight exponent")
    p_info.add_argument("--coeffs", default=None, help="comma-separated custom coefficients")
    p_info.set_defaults(func=cmd_kernel_info)

    p_ce = sub.add_parser("counterexample", help="reproduce the generalized Bergman counterexample")
    p_ce.add_argument("--m", type=int, required=True, help="kernel exponent, must be >= 2")
    p_ce.add_argument("--N", default="0,1,2,3", help="comma-separated compression degrees")
    p_ce.add_argument("--d", type=int, default=1)
    p_ce.add_argument("--out", default=None, help="optional JSON output path")
    p_ce.set_defaults(func=cmd_counterexample)
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    return args.func(args)


if __name__ == "__main__":
    raise SystemExit(main())
