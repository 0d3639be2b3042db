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
from functools import cached_property
from typing import NamedTuple

import numpy as np

from . import __version__
from .coeffs import (
    RADIUS_MIN_COEFFS,
    RULES,
    CoeffTable,
    KernelSpec,
    bergman,
    build_table,
    estimate_radius,
    is_cnp,
    shown,
)
from .errors import CnpLabError
from .tuples import (
    DefectData,
    OperatorTuple,
    PurityVerdict,
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
    CharFnEval,
    TupleLift,
    ball_points,
    build_lift,
    charfn_eval,
    check_eval,
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

# each suite through identities is skipped when the nearest requested one
# before it did not pass; counterexample stands alone
SUITE_CHAIN = SUITE_ORDER[:SUITE_ORDER.index("identities") + 1]

# the verdict a suite must reach to pass when the config's expect names none;
# any verdict of another suite passes
DEFAULT_VERDICTS = {"contraction": "yes", "purity": "pure", "existence": "admits",
                    "counterexample": "reproduced"}

ENV_OUT_DIR = "CNPLAB_OUT_DIR"

# the largest series degree a config or a command may ask for; build_table
# is quadratic in it (about 10 ms at 1000)
MAX_DEGREE = 1000

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

class RunConfig(NamedTuple):
    kernel: KernelSpec
    n_table: int
    ops: OperatorTuple | None
    truncation: TruncationParams
    suites: tuple
    expect: dict
    seed: int
    output: str | None
    counterexample: dict
    label: str
    raw: dict


def integer(text: str) -> int:
    """int(text), the JSON hook and option type for integers; past the digits int() converts, the
    10^(n-1) of text's n digits, beyond the float range that `strict_int` and `strict_float` allow,
    so the field's own check refuses it by name and shows it by n (`shown`)."""
    try:
        return int(text)
    except ValueError:  # not an integer, or too long for int()
        digits = text.strip().lstrip("+-")
        return 10 ** (len(digits) - 1) if digits.isdecimal() else int(text)


def strict_int(value, name: str, minimum: int | None = None) -> int:
    """An int or integral float within the float range, at least minimum if given, as an int."""
    if isinstance(value, bool) or not (
            isinstance(value, int) or isinstance(value, float) and value.is_integer()):
        raise ValueError(f"{name} must be an integer, got {shown(value)}")
    if abs(value) > sys.float_info.max:
        raise ValueError(f"{name} must be within the float range, got {shown(value)}")
    if minimum is not None and value < minimum:
        raise ValueError(f"{name} must be >= {minimum}, got {shown(value)}")
    return int(value)


def strict_degree(value, name: str, minimum: int | None = None) -> int:
    """strict_int, at most MAX_DEGREE."""
    n = strict_int(value, name, minimum)
    if n > MAX_DEGREE:
        raise ValueError(f"{name} must be at most {MAX_DEGREE}, got {shown(value)}")
    return n


def strict_float(value, name: str) -> float:
    """value as a finite float; ints pass, while bools, strings, NaN and infinities are rejected."""
    if isinstance(value, bool) or not (
            isinstance(value, (int, float)) and abs(value) <= sys.float_info.max):
        raise ValueError(f"{name} must be a finite number, got {shown(value)}")
    return float(value)


def json_string(value, name: str) -> str:
    """value, which must be a string."""
    if not isinstance(value, str):
        raise ValueError(f"{name} must be a string, got {value!r}")
    return value


def json_object(value, name: str) -> dict:
    """value, which must be a JSON object."""
    if not isinstance(value, dict):
        raise ValueError(f"{name} must be an object, got {type(value).__name__}")
    return value


def kernel_from_dict(spec: dict) -> tuple[KernelSpec, int]:
    rule = json_object(spec, "kernel").get("rule")
    if not isinstance(rule, str):
        raise ValueError(f"kernel.rule must be one of the strings {RULES}, got {rule!r}")
    params = json_object({} if spec.get("params") is None else spec["params"], "kernel.params")
    d = strict_int(spec.get("d", 1), "kernel.d")
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
    label = json_string(spec.get("label", ""), "kernel.label")
    return (KernelSpec(d=d, rule=rule, param=param, label=label),
            strict_degree(spec.get("N_max", 64), "kernel.N_max"))


def matrices_from_nested(entries) -> np.ndarray:
    """Nested lists of [re, im] pairs to a complex matrix; each part must be a JSON number
    within the float range (`strict_float`): "0.1", true and 10**400 are refused, not parsed."""
    arr = np.asarray(entries, dtype=object)  # lists nest into axes; anything else is an entry
    if arr.ndim != 3 or arr.shape[2] != 2:
        raise ValueError("matrix entries must be nested [re, im] pairs")
    parts = [strict_float(value, f"matrix entry [{row}][{col}] {('real', 'imaginary')[part]} part")
             for (row, col, part), value in np.ndenumerate(arr)]
    arr = np.reshape(parts, arr.shape)
    return arr[..., 0] + 1j * arr[..., 1]


def mats_from_tuple_dict(data: dict) -> tuple:
    """The tuple's matrices, shape-checked; `parse_config` checks that they commute."""
    json_object(data, "tuple")
    h = strict_int(data.get("h"), "tuple.h")
    d = strict_int(data.get("d"), "tuple.d")
    mats = data.get("mats")
    if not isinstance(mats, list):
        raise ValueError(f"tuple.mats must be a list of matrices, got {mats!r}")
    mats = tuple(matrices_from_nested(m) for m in mats)
    if len(mats) != d or any(m.shape != (h, h) for m in mats):
        raise ValueError(f"expected {d} matrices of shape ({h}, {h})")
    return mats


def load_tuple_source(source: dict, base_dir: str = ".") -> tuple:
    if "inline" in json_object(source, "tuple"):
        return mats_from_tuple_dict(source["inline"])
    if "path" in source:
        path = json_string(source["path"], "tuple.path")
        if not os.path.isabs(path):
            path = os.path.join(base_dir, path)
        with open(path) as fh:
            return mats_from_tuple_dict(json.load(fh, parse_int=integer))
    raise ValueError("tuple source needs an 'inline' block or a 'path'")


def counterexample_block(ce: dict) -> dict:
    """The counterexample block {m, d, N_list} with its defaults filled in, checked."""
    json_object(ce, "counterexample")
    m = strict_int(ce.get("m", 2), "counterexample.m")
    if m < 2:
        raise ValueError(
            f"counterexample.m must be >= 2, got {shown(m)}: at m = 1 the kernel is the Drury-Arveson "
            "kernel, the bound m(N+2)/(m+N+1) stays <= 1, and the quadratic form is nonnegative")
    n_list = ce.get("N_list", [0, 1, 2, 3])
    if not isinstance(n_list, list) or not n_list:
        raise ValueError(f"counterexample.N_list must be a non-empty list of integers, got {n_list!r}")
    n_list = [strict_degree(n, f"counterexample.N_list[{i}]", 0) for i, n in enumerate(n_list)]
    d = strict_int(ce.get("d", 1), "counterexample.d", 1)
    return {"m": m, "N_list": n_list, "d": d}


def parse_config(raw: dict, base_dir: str = ".") -> RunConfig:
    json_object(raw, "config")
    kernel, n_table = kernel_from_dict(raw.get("kernel"))
    if kernel.rule == "custom" and len(kernel.param) <= n_table:
        raise ValueError(f"kernel.params.coeffs has {len(kernel.param)} entries, but kernel.N_max "
                         f"= {n_table} needs {n_table + 1}")
    trunc_raw = json_object(raw.get("truncation", {}), "truncation")
    trunc = TruncationParams(
        N=strict_degree(trunc_raw.get("N", 32), "truncation.N"),
        tol=strict_float(trunc_raw.get("tol", 1e-9), "truncation.tol"),
        tail_window=strict_int(trunc_raw.get("tail_window", 3), "truncation.tail_window"),
    )
    # the shift weights read a_(N+1), the deepest coefficient any suite needs
    if n_table < trunc.N + 1:
        raise ValueError(
            f"kernel.N_max ({n_table}) must be at least truncation.N + 1 ({trunc.N + 1})")
    suites = raw.get("suites", [])
    if not isinstance(suites, (list, tuple)):
        raise ValueError(f"suites must be a list of suite names, got {suites!r}")
    suites = tuple(suites)
    if not suites:
        raise ValueError("config must request at least one suite")
    unknown = [s for s in suites if s not in SUITE_ORDER]
    if unknown:
        raise ValueError(f"unknown suites {unknown}; valid: {list(SUITE_ORDER)}")
    if "coeffs" in suites and n_table < RADIUS_MIN_COEFFS:
        raise ValueError(f"kernel.N_max ({n_table}) must be at least {RADIUS_MIN_COEFFS} for the "
                         f"coeffs suite: its radius estimator needs {RADIUS_MIN_COEFFS} "
                         "coefficients of each series")
    ops = None if raw.get("tuple") is None else OperatorTuple(
        load_tuple_source(raw["tuple"], base_dir))
    needs_tuple = [s for s in suites if s not in ("coeffs", "counterexample")]
    if needs_tuple and ops is None:
        raise ValueError(f"suites {needs_tuple} require a tuple source")
    if ops is not None and ops.d != kernel.d:
        raise ValueError(f"tuple has d={ops.d} but kernel has d={kernel.d}")
    expect = json_object(raw.get("expect", {}), "expect")
    for name, verdict in expect.items():
        if name not in SUITE_ORDER or not isinstance(verdict, str):
            raise ValueError(f"expect must map suite names {list(SUITE_ORDER)} to verdict "
                             f"strings, got {name!r}: {verdict!r}")
    output = raw.get("output")
    if output is not None:
        json_string(output, "output")
    counterexample = counterexample_block(raw.get("counterexample", {}))
    if "counterexample" in suites:  # the largest table a point builds; raises on overflow
        build_table(bergman(counterexample["m"]), max(counterexample["N_list"]) + 4)
    return RunConfig(
        kernel=kernel,
        n_table=n_table,
        ops=ops,
        truncation=trunc,
        suites=suites,
        expect=dict(expect),
        seed=strict_int(raw.get("seed", 2024), "seed", 0),
        output=output,
        counterexample=counterexample,
        label=json_string(raw.get("label", ""), "label"),
        raw=raw,
    )


# ---------------------------------------------------------------------------
# Suite runners
# ---------------------------------------------------------------------------

class SuiteResult:
    """One suite's entry in the report: the suite runner fills it in, vars() serialises it."""

    def __init__(self, name: str, expected: str | None = None):
        self.name = name
        self.outcome = "pass"  # "pass" | "fail" | "error" | "skip"
        self.verdict = ""
        self.expected = expected
        self.residuals: dict = {}
        self.tolerances: dict = {}
        self.details: dict = {}
        self.error: str | None = None
        self.wall_time = 0.0

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
    def defect(self) -> DefectData:
        return defect(self.cfg.ops, self.table, self.cfg.truncation)

    @cached_property
    def purity(self) -> PurityVerdict:
        return is_pure(self.defect)

    @cached_property
    def dilation(self) -> DilationMap:
        return build_dilation(self.defect)

    @cached_property
    def lift(self) -> TupleLift:
        return build_lift(self.dilation)

    @cached_property
    def theta(self) -> dict[str, CharFnEval]:
        """theta at each sample point of the requested suites, by sample, from one charfn_eval:
        each suite checks the samples it reads (`check_eval`), so a bad point fails only the
        suite whose sample holds it, with its index in that sample."""
        d, seed, samples = self.cfg.kernel.d, self.cfg.seed, {}
        if "charfn" in self.cfg.suites:
            samples["charfn"] = ball_points(d, 100, seed + 1)
        if "identities" in self.cfg.suites:  # the z and the w of 20 pairs, 5 multiplier points
            pairs = ball_points(d, 40, seed + 2)
            samples.update(z=pairs[0::2], w=pairs[1::2], multiplier=ball_points(d, 5, seed + 3))
        ev = charfn_eval(self.lift, np.concatenate(list(samples.values())))
        ends = np.cumsum([0] + [len(pts) for pts in samples.values()])
        return {name: ev._make(f[i:j] for f in ev) for name, i, j in zip(samples, ends, ends[1:])}


def _suite_coeffs(ctx: _SuiteContext, res: SuiteResult):
    table = ctx.table
    a, b = table.a, table.b
    n = table.n_max
    conv = np.zeros(n + 1)
    for k in range(1, n + 1):
        conv[k] = a[k] - np.dot(b[1:k + 1], a[:k][::-1])
    res.gate("roundtrip_max", float(np.max(np.abs(conv[1:]))) if n else 0.0, GATES["roundtrip"])
    res.verdict = is_cnp(table).describe()
    for which in ("a", "b"):
        r = estimate_radius(table, which)
        res.details[f"radius_{which}"] = {"radius": fmt(r.radius), "reliable": r.reliable,
                                          "exact_polynomial": r.exact_polynomial}


def _suite_contraction(ctx: _SuiteContext, res: SuiteResult):
    verdict = is_contraction(ctx.defect)
    res.verdict = verdict.status
    res.residuals["min_eig"] = fmt(verdict.min_eig)
    res.residuals["tail_norm"] = fmt(verdict.tail_norm)
    res.tolerances["tol"] = fmt(ctx.cfg.truncation.tol)


def _suite_purity(ctx: _SuiteContext, res: SuiteResult):
    res.verdict = ctx.purity.status
    res.residuals["purity_residual"] = fmt(ctx.purity.residual)
    res.tolerances["tol"] = fmt(ctx.cfg.truncation.tol)


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
    v = ctx.dilation
    report = admits_charfn(v, ctx.purity)
    res.verdict = report.status
    res.residuals["assoc_min_eig"] = fmt(report.value)
    res.residuals["invariance"] = fmt(report.invariance_residual)
    fact = check_factorability(v.span, ctx.cfg.truncation.tol)
    res.details["factorability"] = fact.verdict
    res.details["factorability_failed_condition"] = fact.failed_condition
    # the margins: cond1 fails on any count above 0, cond2 on a min eig below -tol
    res.details["factorability_cond1_negative_counts"] = list(fact.cond1_negative_counts)
    res.details["factorability_cond2_min_eig"] = fmt(fact.cond2_min_eig)
    consistent = (report.status == "admits") == (fact.verdict == "factorable")
    res.details["existence_factorability_agree"] = consistent
    if not consistent:
        res.outcome = "fail"


def _suite_charfn(ctx: _SuiteContext, res: SuiteResult):
    cfg = ctx.cfg
    lift = ctx.lift
    res.verdict = "contractive" if lift.contractive else "non_contractive"
    res.gate("ttstar_identity", lift.ttstar_residual, GATES["lift"])
    res.gate("defect_intertwine", lift.intertwine_residual, GATES["lift"])
    ev = check_eval(ctx.theta["charfn"], cfg.truncation)
    # |Z(z)|^2 = 1 - 1/s(z, z), with Z's own cut: the series of 1/s(z, z) through degree N
    recip = reciprocal_kernel(ctx.table, ev.z, ev.z, cfg.truncation.N)
    res.gate("theta_norm_excess", ev.norm.max() - 1.0, GATES["theta_norm_excess"])
    res.gate("z_row_identity", np.max(np.abs(ev.z_norm_sq - (1.0 - recip.value.real))),
             GATES["z_identity"])
    res.details["z_row_series_last_term"] = fmt(recip.tail_term.max())
    res.residuals["inverse_residual_max"] = fmt(ev.inverse_residual.max())
    # theta on its own columns, and the full input dimension they sit in
    res.details["sample_evaluation"] = dict(eval_to_dict(ev, 0), defect_rank=lift.defect_rank)


def _suite_identities(ctx: _SuiteContext, res: SuiteResult):
    lift, p = ctx.lift, ctx.cfg.truncation
    res.verdict = "identities"
    ez, ew = (check_eval(ctx.theta[name], p) for name in ("z", "w"))
    res.gate("identity_i1", verify_defect_identity(lift, ez, ew).max(), GATES["identity_i1"])
    mult = verify_multiplier(lift, check_eval(ctx.theta["multiplier"], p))
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


def counterexample_points(ce: dict) -> list[tuple[CounterexamplePoint, bool]]:
    """Each point of a parsed block, and whether it reproduces: a negative form, matched."""
    points = bergman_counterexample(ce["m"], ce["N_list"], d=ce["d"])
    return [(pt, pt.closed_form < 0.0 and pt.match_error <= GATES["counterexample_match"])
            for pt in points]


def _suite_counterexample(ctx: _SuiteContext, res: SuiteResult):
    points = counterexample_points(ctx.cfg.counterexample)
    res.verdict = "reproduced" if all(ok for _, ok in points) else "bound_not_violated"
    res.gate("match_error_max", np.max([pt.match_error for pt, _ in points]),
             GATES["counterexample_match"])
    res.details["rows"] = [counterexample_row(pt) for pt, _ in points]


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
    """Execute the requested suites in dependency order, decide each outcome, assemble the report."""
    ctx = _SuiteContext(cfg)
    suites = []
    prior = None  # the nearest requested chain suite so far
    for name in (s for s in SUITE_ORDER if s in cfg.suites):
        res = SuiteResult(name=name, expected=cfg.expect.get(name))
        if name in SUITE_CHAIN and prior is not None and prior.outcome != "pass":
            res.outcome = "skip"
            res.verdict = f"skipped: prerequisite {prior.name} did not pass"
        else:
            start = time.perf_counter()
            try:
                SUITE_RUNNERS[name](ctx, res)
                expected = cfg.expect.get(name, DEFAULT_VERDICTS.get(name))
                if expected is not None and res.verdict != expected:
                    res.outcome = "fail"
            except Exception as exc:  # a fault inside a suite is that suite's error
                res.outcome = "error"
                res.error = f"{type(exc).__name__}: {exc}"
                if not isinstance(exc, CnpLabError):  # unexpected: show where it was raised
                    import traceback

                    traceback.print_exc()
            res.wall_time = time.perf_counter() - start
        if name in SUITE_CHAIN:
            prior = res
        suites.append(res)
    overall = "pass" if all(r.outcome == "pass" for r in suites) else "fail"
    return {
        "artifact": {"name": "cnplab", "version": __version__},
        "generated_at": datetime.datetime.now(datetime.timezone.utc).isoformat(),
        "config": cfg.raw,
        "label": cfg.label,
        "suites": [dict(vars(r)) for r in suites],
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


def _write_out(path: str | None, text: str) -> None:
    """text and a newline to path, joined with $CNPLAB_OUT_DIR if relative; no path, no file."""
    if path and not os.path.isabs(path) and os.environ.get(ENV_OUT_DIR):
        path = os.path.join(os.environ[ENV_OUT_DIR], path)
    if path:
        os.makedirs(os.path.dirname(os.path.abspath(path)), exist_ok=True)
        with open(path, "w") as fh:
            fh.write(text + "\n")


# ---------------------------------------------------------------------------
# Command-line entry points
# ---------------------------------------------------------------------------

def cmd_run(args) -> int:
    try:
        with open(args.config) as fh:
            raw = json_object(json.load(fh, parse_int=integer), "config")
        if args.tol is not None:
            json_object(raw.setdefault("truncation", {}), "truncation")["tol"] = args.tol
        if args.seed is not None:
            raw["seed"] = args.seed
        cfg = parse_config(raw, base_dir=os.path.dirname(os.path.abspath(args.config)))
        report = run(cfg)  # builds the kernel's table first, so an overflow is a config error
        text = dump_report(report)  # fails on a key no field reads past int()'s digits (`integer`)
    except (OSError, ValueError, KeyError, CnpLabError) as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    _write_out(args.out or cfg.output, text)
    print(text)
    outcomes = {s["outcome"] for s in report["suites"]}
    return 1 if "fail" in outcomes else 3 if "error" in outcomes else 0


def cmd_kernel_info(args) -> int:
    try:
        strict_degree(args.N, "--N", 0)
        params = {"m": args.m, "t": args.t,
                  "coeffs": [float(c) for c in args.coeffs.split(",")] if args.coeffs else None}
        spec, _ = kernel_from_dict({"rule": args.rule, "d": args.d, "params": params})
        top = max(args.N, 16)  # the radius estimator needs a longer prefix than small printouts
        if spec.rule == "custom" and len(spec.param) <= top:
            raise ValueError(f"--coeffs has {len(spec.param)} entries, but --N {args.N} and the "
                             f"radius estimate need the table through degree {top}, so "
                             f"{top + 1} coefficients")
        table = build_table(spec, top)
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
    try:
        points = counterexample_points(counterexample_block(
            {"m": args.m, "d": args.d, "N_list": [integer(n) for n in args.N.split(",")]}))
    except (CnpLabError, ValueError) as exc:
        print(f"invalid counterexample input: {exc}", file=sys.stderr)
        return 2
    print(f"{'m':>3s} {'N':>3s} {'closed_form':>22s} {'numeric':>22s} {'match_error':>12s} {'bound':>10s}")
    for pt, _ in points:
        print(f"{pt.m:>3d} {pt.N:>3d} {fmt(pt.closed_form):>22s} {fmt(pt.numeric):>22s} "
              f"{pt.match_error:>12.3e} {pt.bound_value:>10.6f}")
    if args.out:
        _write_out(args.out, json.dumps([dict(counterexample_row(pt), d=pt.d) for pt, _ in points],
                                        indent=2, sort_keys=True))
    return 0 if all(ok for _, ok in points) else 1


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
    p_run.add_argument("--seed", type=integer, default=None, help="override sampling seed")
    p_run.set_defaults(func=cmd_run)

    p_info = sub.add_parser("kernel-info", help="print coefficient tables and CNP verdict")
    p_info.add_argument("--rule", required=True, choices=RULES)
    p_info.add_argument("--N", type=integer, required=True, help="highest degree to print")
    p_info.add_argument("--d", type=integer, default=1)
    p_info.add_argument("--m", type=integer, default=None, help="bergman exponent")
    p_info.add_argument("--t", type=float, default=None, help="dirichlet weight exponent")
    p_info.add_argument("--coeffs", default=None, help="comma-separated custom coefficients")
    p_info.set_defaults(func=cmd_kernel_info)

    p_ce = sub.add_parser("counterexample", help="reproduce the generalized Bergman counterexample")
    p_ce.add_argument("--m", type=integer, required=True, help="kernel exponent, must be >= 2")
    p_ce.add_argument("--N", default="0,1,2,3", help="comma-separated compression degrees")
    p_ce.add_argument("--d", type=integer, default=1)
    p_ce.add_argument("--out", default=None, help="optional JSON output path")
    p_ce.set_defaults(func=cmd_counterexample)
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except OSError as exc:  # a report or rows path that cannot be written (`_write_out`)
        print(f"cannot write the output: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    raise SystemExit(main())
