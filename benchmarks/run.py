"""cnplab benchmark: each workload runs as a CLI user runs it.

    python3 benchmarks/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source checkout; the program is imported from its
`src/` directory, so nothing needs installing.  One generating process runs
one child at a time (a closed loop with a single client): every config of a
pass is one `cnplab run` in a fresh process, with BLAS held to one thread in
the child's environment.  Passes repeat while the next one is expected to
end within S seconds; there is always at least one.

--trace 0 reports the end-to-end metrics:
  pass_s       mean over passes of the cli.run seconds summed over the
               pass's configs (start-up and import excluded)
  setup_s      mean over children of process start -> parsed config
  peak_rss_mb  median over passes of the largest child peak RSS in the pass
The shared host slows by 1.4x and more, in stretches from seconds to
minutes (see README.md).  So a fixed kernel that runs no cnplab code
(calibrate) is timed before every child, and both times are scaled by
CAL_REF_S over its mean time in the run: seconds at a fixed host speed.
The detail line keeps every unscaled sample, with medians and high
percentiles.
--trace 1 makes one pass that records memory peaks, then alternates
untraced passes with passes whose children record spans, and reports the
per-layer metrics of tracer.py, plus trace.overhead_s (pass_s of the spans
passes minus pass_s of the untraced passes, both taken as above).

Every config run is an op; it fails when the child exits abnormally, writes
no report, or any suite's outcome or verdict differs from the reference.
The last stdout line is the JSON result; the line before it holds the
environment record and the sample details.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

BLAS_THREADS = "1"
# set before numpy loads: children inherit it, and calibrate() runs here alike
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = BLAS_THREADS

import numpy as np  # noqa: E402

import tracer
import workloads

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
RUN_LIMIT_S = 170.0
SETUP_PROBES = 5
CHILD_TIMEOUT_S = 150.0
# calibrate()'s usual mean time on the VM of README.md; it only fixes the unit
CAL_REF_S = 0.055
SUITES = ("coeffs", "contraction", "purity", "dilation",
          "existence", "charfn", "identities", "counterexample")


def child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC)
    env.pop("CNPLAB_OUT_DIR", None)
    return env


def environment() -> dict:
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads_in_children": int(BLAS_THREADS),
        "loadavg_at_start": list(os.getloadavg()),
    }


_rng = np.random.default_rng(0)
CAL_BIG = _rng.standard_normal((200, 200)) + 1j * _rng.standard_normal((200, 200))
CAL_SMALL = [_rng.standard_normal((3, 3)) + 1j * _rng.standard_normal((3, 3)) for _ in range(8)]


def calibrate() -> float:
    """Seconds of a fixed kernel that runs no cnplab code.

    Its mix is that of cli.run: complex matmuls in BLAS, 3x3 products with
    spectral norms, and an interpreter loop.  The runner times it before
    every child, so its mean over a run samples the host's speed over the
    same stretch as the children's mean times.
    """
    began = time.perf_counter()
    big = CAL_BIG
    for _ in range(4):
        big = CAL_BIG @ big
        big /= np.abs(big).max()
    acc = np.eye(3, dtype=complex)
    for i in range(1500):
        acc = acc @ CAL_SMALL[i % 8]
        acc /= np.linalg.norm(acc, 2)
    counts: dict[int, int] = {}
    for i in range(20000):
        counts[i % 97] = counts.get(i % 97, 0) + i
    return time.perf_counter() - began


def quantile_summary(values: list[float]) -> dict:
    """Median, count, and the highest percentile with >= 10 samples beyond it."""
    out = {"n": len(values), "median": statistics.median(values) if values else None,
           "high_percentile": None, "values": values}
    if len(values) >= 11:
        ordered = sorted(values)
        k = len(ordered) - 11
        out["high_percentile"] = {"q": (k + 1) / len(ordered), "value": ordered[k]}
    return out


class Runner:
    """Starts children one at a time and keeps the op tally."""

    def __init__(self, work: Path, deadline: float):
        self.work = work
        self.deadline = deadline
        self.env = child_env()
        self.attempted = 0
        self.failed = 0
        self.errors: list[str] = []
        self.timed_out = False
        self.cal_s: list[float] = []
        self._seq = 0

    def child(self, config: Path, report: bool, mode: str | None):
        """Run child.py once; returns ((timing, report path, trace path), None)
        or (None, error)."""
        self._seq += 1
        self.cal_s.append(calibrate())
        stem = self.work / f"c{self._seq}"
        report_path = f"{stem}.report.json" if report else "-"
        timing_path = f"{stem}.timing.json"
        trace_path = f"{stem}.trace.json" if mode else None
        extra = [mode, trace_path] if mode else []
        timeout = max(1.0, min(CHILD_TIMEOUT_S, self.deadline - time.monotonic()))
        args = [sys.executable, str(BENCH / "child.py"), str(SRC), repr(time.monotonic()),
                str(config), report_path, timing_path, *extra]
        with subprocess.Popen(args, env=self.env, cwd=str(self.work),
                              stdin=subprocess.DEVNULL, stdout=subprocess.DEVNULL,
                              stderr=subprocess.PIPE, text=True) as proc:
            try:
                _, err = proc.communicate(timeout=timeout)
            except BaseException as exc:
                proc.kill()  # leaving the with block waits for it to end
                if not isinstance(exc, subprocess.TimeoutExpired):
                    raise
                self.timed_out = True
                return None, f"timed out after {timeout:.0f} s"
        if proc.returncode != 0 or not os.path.exists(timing_path):
            last = (err or "").strip().splitlines()[-1:] or [""]
            return None, f"exit code {proc.returncode}: {last[0]}"
        with open(timing_path) as fh:
            timing = json.load(fh)
        return (timing, report_path, trace_path), None

    def op(self, name: str, config: Path, reference: dict, mode: str | None):
        """One counted config run, checked against its reference."""
        self.attempted += 1
        result, error = self.child(config, report=True, mode=mode)
        report = None
        if result is not None:
            with open(result[1]) as fh:
                report = json.load(fh)
            problems = workloads.check_report(report, reference)
            if problems:
                error = "; ".join(problems)
        if error is not None:
            self.failed += 1
            self.errors.append(f"{name}: {error}")
            print(f"op failed: {name}: {error}", file=sys.stderr)
            return None
        return result[0], report, result[2]


def run_pass(runner: Runner, ops, paths, mode: str | None = None):
    """One pass over the workload's configs; None when any op failed."""
    pass_s, rss_kb, setups, traces = 0.0, 0, [], []
    suite_wall = {s: 0.0 for s in SUITES}
    ok = True
    for op, path in zip(ops, paths):
        got = runner.op(op.name, path, op.reference, mode)
        if got is None:
            ok = False
            if runner.timed_out:
                break
            continue
        timing, report, trace_path = got
        pass_s += timing["ran"] - timing["parsed"]
        rss_kb = max(rss_kb, timing["maxrss_kb"])
        setups.append(timing["parsed"] - timing["spawn"])
        for suite in report["suites"]:
            suite_wall[suite["name"]] += suite["wall_time"]
        if trace_path:
            with open(trace_path) as fh:
                traces.append(json.load(fh))
    if not ok:
        return None
    return {"pass_s": pass_s, "peak_rss_mb": rss_kb * 1024 / 1e6, "setups": setups,
            "suite_wall": suite_wall, "traces": traces}


def layer_metrics(traced_pass: dict) -> dict:
    """Per-layer metrics of one spans pass, summed over its children."""
    values: dict[str, float] = {}
    for name in (f"{layer}.{fn}" for layer, fns in tracer.TRACED.items() for fn in fns):
        for stat in ("calls", "s", "self_s"):
            values[f"{name}.{stat}"] = 0
    for fn in tracer.LINALG:
        values[f"linalg.{fn}.calls"] = values[f"linalg.{fn}.s"] = 0
    for key in ("tuples.TuplePowers.calls", "tuples.TuplePowers.s",
                "tuples.TuplePowers.bytes_computed", "coeffs.multi_coeff.calls",
                "model.big_dim", "charfn.lift_dim"):
        values[key] = 0
    for data in traced_pass["traces"]:
        for name, stats in tracer.summarize(data["spans"]).items():
            for stat, v in stats.items():
                key = f"{name}.{stat}"
                if key in values:
                    values[key] += v
        for key, v in data["counts"].items():
            values[key] += v
        for key, v in data["maxima"].items():
            values[key] = max(values[key], v)
    run_s = values["cli.run.s"]
    # share of cli.run spent inside traced layer functions
    values["trace.stage_share"] = 1.0 - values["cli.run.self_s"] / run_s if run_s else 0.0
    return values


def peak_metrics(peak_pass: dict) -> dict:
    values = {f"{name}.peak_mb": 0.0 for name in tracer.PEAK}
    for data in peak_pass["traces"]:
        for name, v in data["peaks"].items():
            values[f"{name}.peak_mb"] = max(values[f"{name}.peak_mb"], v / 1e6)
    return values


UNITS = {"calls": "count", "s": "s", "self_s": "s", "wall_s": "s", "peak_mb": "MB",
         "bytes_computed": "bytes", "big_dim": "count", "lift_dim": "count",
         "stage_share": "ratio"}


def median_metrics(samples: list[dict]) -> dict:
    return {k: {"value": statistics.median(s[k] for s in samples),
                "unit": UNITS[k.rsplit(".", 1)[1]]} for k in samples[0]}


def mean_pass_s(passes: list[dict]) -> float:
    return statistics.mean(p["pass_s"] for p in passes)


def trace_metrics(plain: list[dict], spans: list[dict], peaks: dict, scale: float) -> dict:
    """Every per-layer metric: medians over the spans passes, plus the
    suite wall times of the untraced passes."""
    per_pass = [layer_metrics(p) | peak_metrics(peaks) for p in spans]
    suites = [{f"suite.{s}.wall_s": p["suite_wall"][s] for s in SUITES} for p in plain]
    overhead = (mean_pass_s(spans) - mean_pass_s(plain)) * scale
    return (median_metrics(per_pass) | median_metrics(suites)
            | {"trace.overhead_s": {"value": overhead, "unit": "s"}})


def end_to_end_metrics(plain: list[dict], setups: list[float], scale: float) -> dict:
    return {
        "pass_s": {"value": mean_pass_s(plain) * scale, "unit": "s"},
        "setup_s": {"value": statistics.mean(setups) * scale, "unit": "s"},
        "peak_rss_mb": {"value": statistics.median(p["peak_rss_mb"] for p in plain),
                        "unit": "MB"},
    }


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), required=True)
    return p.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    start = time.monotonic()
    if not (SRC / "cnplab" / "__init__.py").is_file():
        print(f"no cnplab sources under {SRC}: run from a source checkout", file=sys.stderr)
        return 2
    if args.workload not in workloads.WORKLOADS:
        print(f"unknown workload {args.workload!r}; expected one of {workloads.WORKLOADS}",
              file=sys.stderr)
        return 2
    env = environment()
    work = BENCH / f".work-{args.workload}-{args.seed}-{os.getpid()}"
    work.mkdir(parents=True, exist_ok=True)
    try:
        return measure(args, env, work, start)
    finally:
        shutil.rmtree(work, ignore_errors=True)


def measure(args, env: dict, work: Path, start: float) -> int:
    ops = workloads.build_ops(args.workload, args.seed, ROOT)
    paths = []
    for i, op in enumerate(ops):
        path = work / f"config{i}.json"
        path.write_text(json.dumps(op.config))
        paths.append(path)
    runner = Runner(work, start + RUN_LIMIT_S)

    # the first child compiles bytecode and warms the file cache; it is not timed
    warm, error = runner.child(paths[0], report=False, mode=None)
    if warm is None:
        print(f"set-up failed: {error}", file=sys.stderr)
        return 1
    setups = []
    if not args.trace:
        for _ in range(SETUP_PROBES):
            probe, error = runner.child(paths[0], report=False, mode=None)
            if probe is None:
                print(f"set-up probe failed: {error}", file=sys.stderr)
                return 1
            setups.append(probe[0]["parsed"] - probe[0]["spawn"])

    # the untimed peaks pass goes first so that its cost is known before the
    # timed passes share out what is left of the run
    t0 = time.monotonic()
    peaks = run_pass(runner, ops, paths, "peaks") if args.trace else None
    plain, spans = [], []
    while not runner.timed_out:
        began = time.monotonic()
        got = run_pass(runner, ops, paths)
        if got is not None:
            plain.append(got)
        if args.trace:
            got = run_pass(runner, ops, paths, "spans")
            if got is not None:
                spans.append(got)
        # start another round only when it should end inside the run
        now = time.monotonic()
        if now + (now - began) > t0 + args.seconds:
            break
    if not plain or (args.trace and not (spans and peaks)):
        print("no complete pass; nothing to report", file=sys.stderr)
        return 1

    # times are reported at the host speed where calibrate() takes CAL_REF_S
    scale = CAL_REF_S / statistics.mean(runner.cal_s)
    detail = {"workload": args.workload, "seed": args.seed, "environment": env,
              "ops": [op.name for op in ops],
              "pass_s": quantile_summary([p["pass_s"] for p in plain]),
              "calibrate_s": quantile_summary(runner.cal_s), "scale": scale,
              "errors": runner.errors}
    if args.trace:
        metrics = trace_metrics(plain, spans, peaks, scale)
        detail["traced_pass_s"] = quantile_summary([p["pass_s"] for p in spans])
    else:
        setups += [s for p in plain for s in p["setups"]]
        metrics = end_to_end_metrics(plain, setups, scale)
        detail["setup_s"] = quantile_summary(setups)
        detail["peak_rss_mb"] = [p["peak_rss_mb"] for p in plain]
    print(json.dumps(detail))
    print(json.dumps({"correct": runner.failed == 0, "attempted": runner.attempted,
                      "failed": runner.failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
