"""Smoke test of the benchmark itself, at tiny sizes.

    python3 -m pytest -q benchmarks/test_smoke.py

Covers both seeded d=2 generators, the correctness check and op tally, and
the trace wrapper (spans, counters, memory peaks and the rebinding of every
namespace that holds a traced function).
"""

import json
import subprocess
import sys
import time

import numpy as np
import pytest

import run
import tracer
import workloads


@pytest.mark.parametrize("workload", sorted(workloads.D2_RECIPES))
def test_generator_is_seeded_and_meets_its_recipe(workload):
    recipe = workloads.D2_RECIPES[workload]
    configs = [workloads.d2_config(workload, seed, n=4) for seed in (1, 2, 3)]
    assert workloads.d2_config(workload, 1, n=4) == configs[0]
    assert configs[0]["tuple"] != configs[1]["tuple"]
    for cfg in configs:
        t1, t2 = (np.array(m)[..., 0] + 1j * np.array(m)[..., 1]
                  for m in cfg["tuple"]["inline"]["mats"])
        assert np.linalg.norm(t1 @ t2 - t2 @ t1, 2) <= 1e-14
        gap = np.eye(3) - t1 @ t1.conj().T - t2 @ t2.conj().T
        assert np.linalg.eigvalsh(gap)[0] > recipe["margin"]
        # each joint eigenvalue has norm <= rho, so each coordinate does too
        assert np.max(np.abs(np.linalg.eigvals(t1))) <= recipe["rho"] + 1e-12
        assert cfg["suites"] == recipe["suites"]


def test_workloads_use_their_own_tuple_streams():
    a = workloads.d2_config("existence-d2", 5)["tuple"]
    b = workloads.d2_config("identities-d2", 5)["tuple"]
    assert a != b


def _report(pairs):
    return {"suites": [{"name": n, "outcome": o, "verdict": v} for n, (o, v) in pairs.items()]}


def test_check_report_flags_every_mismatch():
    ref = {"coeffs": ("pass", "cnp_consistent(N=64)"), "contraction": ("pass", "yes")}
    assert workloads.check_report(_report(ref), ref) == []
    assert workloads.check_report(None, ref) == ["no report"]
    wrong = dict(ref, contraction=("fail", "inconclusive"))
    assert len(workloads.check_report(_report(wrong), ref)) == 1
    missing = {"coeffs": ref["coeffs"]}
    assert len(workloads.check_report(_report(missing), ref)) == 1
    extra = dict(ref, purity=("pass", "pure"))
    assert workloads.check_report(_report(extra), ref) == ["unexpected suites ['purity']"]


def _tiny_all_layer_op():
    """A fast config that reaches every layer: scalar 0.1 under the Szego kernel.

    N_max stays long because the charfn suite's z_row_identity gate compares
    against the scalar kernel series truncated at N_max.
    """
    cfg = {
        "kernel": {"d": 1, "rule": "szego", "params": {}, "N_max": 84},
        "tuple": {"inline": {"h": 1, "d": 1, "mats": [[[[0.1, 0.0]]]]}},
        "truncation": {"N": 12, "tol": 1e-9, "tail_window": 3},
        "suites": list(run.SUITES),
        "counterexample": {"m": 2, "N_list": [0, 1], "d": 1},
        "seed": 7,
    }
    ref = dict(workloads.SMALL_MIX_REFERENCE["szego_scalar.json"],
               counterexample=("pass", "reproduced"))
    return cfg, ref


def _runner(tmp_path):
    return run.Runner(tmp_path, time.monotonic() + 120.0)


@pytest.mark.parametrize("workload", sorted(workloads.D2_RECIPES))
def test_generated_configs_run_and_pass_the_check(tmp_path, workload):
    # contraction under Drury-Arveson is exact at any N, so N=4 decides it
    cfg = workloads.d2_config(workload, 3, n=4)
    cfg["suites"] = ["coeffs", "contraction"]
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(cfg))
    runner = _runner(tmp_path)
    ref = {s: workloads.D2_REFERENCE[s] for s in cfg["suites"]}
    got = run.run_pass(runner, [workloads.Op(workload, cfg, ref)], [path])
    assert got is not None and runner.failed == 0 and runner.attempted == 1
    assert got["pass_s"] > 0 and got["peak_rss_mb"] > 0 and len(got["setups"]) == 1
    # a reference the program does not reproduce is a failed op, never dropped
    bad = dict(ref, contraction=("pass", "no"))
    assert run.run_pass(runner, [workloads.Op(workload, cfg, bad)], [path]) is None
    assert runner.failed == 1 and runner.attempted == 2


def test_spans_and_peaks_cover_every_layer(tmp_path):
    cfg, ref = _tiny_all_layer_op()
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(cfg))
    runner = _runner(tmp_path)
    op = workloads.Op("tiny", cfg, ref)
    spans = run.run_pass(runner, [op], [path], "spans")
    peaks = run.run_pass(runner, [op], [path], "peaks")
    assert runner.failed == 0, runner.errors
    values = run.layer_metrics(spans) | run.peak_metrics(peaks)
    for name in ("cli.parse_config", "cli.run", "coeffs.build_table", "coeffs.kernel_eval",
                 "tuples.defect", "tuples.is_pure", "tuples.shift_matrices",
                 "model.build_dilation", "model.check_factorability", "model.admits_charfn",
                 "model.bergman_counterexample", "charfn.build_lift", "charfn.charfn_eval",
                 "charfn.kernel_calculus", "charfn.verify_model", "linalg.norm", "linalg.eigh"):
        assert values[f"{name}.calls"] >= 1, name
        assert values[f"{name}.s"] >= values.get(f"{name}.self_s", 0) >= 0, name
    assert values["coeffs.multi_coeff.calls"] > 0
    assert values["tuples.TuplePowers.bytes_computed"] > 0
    assert values["model.big_dim"] >= 1 and values["charfn.lift_dim"] >= 1
    for name in tracer.PEAK:
        assert values[f"{name}.peak_mb"] > 0, name
    assert 0.0 < values["trace.stage_share"] <= 1.0

    # the reported metrics are exactly the ones BENCHMARK.json declares
    declared = json.loads((run.ROOT / "BENCHMARK.json").read_text())
    plain = run.run_pass(runner, [op], [path])
    per_layer = run.trace_metrics([plain], [spans], peaks, 1.0)
    assert {m["name"]: m["unit"] for m in declared["per_layer"]} == \
        {k: v["unit"] for k, v in per_layer.items()}
    end_to_end = run.end_to_end_metrics([plain], plain["setups"], 1.0)
    assert {m["name"]: m["unit"] for m in declared["end_to_end"]} == \
        {k: v["unit"] for k, v in end_to_end.items()}


def test_install_rebinds_every_namespace():
    script = (
        "import numpy.linalg, cnplab, cnplab.cli as cli, cnplab.model as model, "
        "cnplab.tuples as tuples, cnplab.charfn as charfn, cnplab.coeffs as coeffs, tracer\n"
        "orig = (tuples.is_contraction, charfn.charfn_eval, coeffs.multi_coeff, "
        "numpy.linalg.norm)\n"
        "tracer.install(tracer.Recorder())\n"
        "assert model.is_contraction is cli.is_contraction is tuples.is_contraction "
        "is cnplab.is_contraction is not orig[0]\n"
        "assert cli.charfn_eval is charfn.charfn_eval is cnplab.charfn_eval is not orig[1]\n"
        "assert tuples.multi_coeff is model.multi_coeff is charfn.multi_coeff "
        "is coeffs.multi_coeff is not orig[2]\n"
        "assert numpy.linalg.norm is not orig[3]\n"
    )
    env = run.child_env()
    env["PYTHONPATH"] = f"{run.SRC}:{run.BENCH}"
    proc = subprocess.run([sys.executable, "-c", script], env=env,
                          capture_output=True, text=True, timeout=60)
    assert proc.returncode == 0, proc.stderr


def test_summarize_self_time_and_reentry():
    spans = [["a", 0.0, 10.0, -1], ["b", 1.0, 4.0, 0], ["a", 5.0, 7.0, 0], ["b", 5.5, 6.0, 2]]
    out = tracer.summarize(spans)
    assert out["a"] == {"calls": 2, "s": 10.0, "self_s": 5.0 + 1.5}
    assert out["b"] == {"calls": 2, "s": 3.5, "self_s": 3.5}


def test_times_are_run_means_scaled():
    passes = [{"pass_s": 1.5, "peak_rss_mb": 5.0}, {"pass_s": 2.5, "peak_rss_mb": 6.0}]
    got = run.end_to_end_metrics(passes, [0.3, 0.2], 2.0)
    assert got["pass_s"]["value"] == 2.0 * 2.0
    assert got["setup_s"]["value"] == 2.0 * 0.25
    assert got["peak_rss_mb"]["value"] == 5.5
    assert run.calibrate() > 0


def test_high_percentile_needs_ten_samples_beyond():
    assert run.quantile_summary([1.0] * 10)["high_percentile"] is None
    got = run.quantile_summary([float(i) for i in range(20)])
    assert got["high_percentile"] == {"q": 0.5, "value": 9.0}
    assert got["n"] == 20 and got["median"] == 9.5
