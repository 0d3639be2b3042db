"""Config ingestion, suite orchestration, reports, and the command line."""

import collections
import json
import sys
from pathlib import Path

import numpy as np
import pytest

import cnplab as cl
from cnplab import charfn, cli, model, tuples

CONFIGS = Path(__file__).resolve().parents[1] / "configs"


def scalar_tuple_block(value):
    return {"h": 1, "d": 1, "mats": [[[[value, 0.0]]]]}


def base_config(**overrides):
    cfg = {
        "label": "scalar half under szego",
        "kernel": {"d": 1, "rule": "szego", "params": {}, "N_max": 84},
        "tuple": {"inline": scalar_tuple_block(0.5)},
        "truncation": {"N": 80, "tol": 1e-9, "tail_window": 3},
        "suites": ["coeffs", "contraction", "purity", "dilation",
                   "existence", "charfn", "identities"],
        "seed": 1234,
    }
    cfg.update(overrides)
    return cfg


def run_config(raw):
    return cli.run(cli.parse_config(raw))


# ---------------------------------------------------------------------------
# parsing
# ---------------------------------------------------------------------------

def test_parse_rejects_unknown_suite():
    with pytest.raises(ValueError):
        cli.parse_config(base_config(suites=["coeffs", "nonsense"]))


def test_parse_rejects_missing_tuple():
    cfg = base_config()
    del cfg["tuple"]
    with pytest.raises(ValueError):
        cli.parse_config(cfg)


def test_parse_rejects_short_table():
    cfg = base_config()
    cfg["kernel"]["N_max"] = 40
    with pytest.raises(ValueError):
        cli.parse_config(cfg)


def test_table_floor_is_sufficient_for_every_suite():
    # a config at exactly the minimum N_max must run the existence suite,
    # which reads the deepest coefficients of any suite
    cfg = {
        "kernel": {"d": 1, "rule": "dirichlet_t", "params": {"t": 1.0}, "N_max": 24},
        "tuple": {"inline": scalar_tuple_block(0.3)},
        "truncation": {"N": 20, "tol": 1e-9, "tail_window": 3},
        "suites": ["coeffs", "contraction", "purity", "dilation", "existence"],
        "seed": 5,
    }
    report = run_config(cfg)
    assert report["overall"] == "pass"
    cfg["kernel"]["N_max"] = 23
    with pytest.raises(ValueError):
        cli.parse_config(cfg)


def test_parse_dimension_mismatch():
    cfg = base_config()
    cfg["kernel"]["d"] = 2
    cfg["kernel"]["rule"] = "drury_arveson"
    with pytest.raises(ValueError):
        cli.parse_config(cfg)


def test_matrix_round_trip():
    m = np.array([[0.5 + 0.25j, -1.0j], [0.0, 2.0]])
    nested = cli.matrix_to_nested(m)
    back = cli.matrices_from_nested(nested)
    assert np.array_equal(back, m)


def test_tuple_from_file(tmp_path):
    path = tmp_path / "tuple.json"
    path.write_text(json.dumps(scalar_tuple_block(0.25)))
    cfg = base_config(tuple={"path": str(path)},
                      suites=["coeffs", "contraction"])
    report = run_config(cfg)
    assert report["overall"] == "pass"


# ---------------------------------------------------------------------------
# suite behaviour
# ---------------------------------------------------------------------------

def test_full_run_passes():
    cfg = base_config(suites=list(cli.SUITE_ORDER))  # every suite, incl. counterexample
    report = run_config(cfg)
    assert report["overall"] == "pass"
    assert [s["outcome"] for s in report["suites"]] == ["pass"] * 8


def test_counterexample_suite_error_on_bad_m():
    cfg = base_config(suites=["coeffs", "counterexample"],
                      counterexample={"m": 1, "N_list": [0], "d": 1})
    report = run_config(cfg)
    suite = [s for s in report["suites"] if s["name"] == "counterexample"][0]
    assert suite["outcome"] == "error"
    assert "PrerequisiteError" in suite["error"]
    assert report["overall"] == "fail"


def test_expected_failure_mode():
    cfg = base_config(
        kernel={"d": 1, "rule": "bergman", "params": {"m": 2}, "N_max": 40},
        tuple={"inline": {"h": 1, "d": 1, "mats": [[[[0.0, 0.0]]]]}},
        truncation={"N": 16, "tol": 1e-9, "tail_window": 3},
        suites=["coeffs", "contraction", "purity", "dilation", "existence"],
        expect={"existence": "does_not_admit"},
    )
    report = run_config(cfg)
    assert report["overall"] == "pass"
    existence = [s for s in report["suites"] if s["name"] == "existence"][0]
    assert existence["verdict"] == "does_not_admit"
    assert existence["outcome"] == "pass"
    assert existence["details"]["factorability"] == "not_factorable"


def test_unexpected_verdict_fails():
    cfg = base_config(
        kernel={"d": 1, "rule": "bergman", "params": {"m": 2}, "N_max": 40},
        tuple={"inline": {"h": 1, "d": 1, "mats": [[[[0.0, 0.0]]]]}},
        truncation={"N": 16, "tol": 1e-9, "tail_window": 3},
        suites=["coeffs", "contraction", "purity", "dilation", "existence"],
    )
    report = run_config(cfg)
    assert report["overall"] == "fail"


def test_non_commuting_tuple_is_an_error_and_skips_dependents():
    mats = [
        [[[0.0, 0.0], [1.0, 0.0]], [[0.0, 0.0], [0.0, 0.0]]],
        [[[0.0, 0.0], [0.0, 0.0]], [[1.0, 0.0], [0.0, 0.0]]],
    ]
    cfg = base_config(
        kernel={"d": 2, "rule": "drury_arveson", "params": {}, "N_max": 20},
        tuple={"inline": {"h": 2, "d": 2, "mats": mats}},
        truncation={"N": 8, "tol": 1e-9, "tail_window": 3},
        suites=["coeffs", "contraction", "purity", "dilation"],
    )
    report = run_config(cfg)
    assert report["overall"] == "fail"
    by_name = {s["name"]: s for s in report["suites"]}
    assert by_name["coeffs"]["outcome"] == "pass"
    assert by_name["contraction"]["outcome"] == "error"
    assert "CommutationError" in by_name["contraction"]["error"]
    assert by_name["purity"]["outcome"] == "skip"
    assert by_name["dilation"]["outcome"] == "skip"


def test_counterexample_suite_runs_without_tuple():
    cfg = {
        "kernel": {"d": 1, "rule": "bergman", "params": {"m": 2}, "N_max": 20},
        "truncation": {"N": 8, "tol": 1e-9, "tail_window": 3},
        "suites": ["coeffs", "counterexample"],
        "counterexample": {"m": 2, "N_list": [0, 1], "d": 1},
        "seed": 7,
    }
    report = run_config(cfg)
    assert report["overall"] == "pass"
    rows = [s for s in report["suites"] if s["name"] == "counterexample"][0]["details"]["rows"]
    assert float(rows[0]["closed_form"]) == pytest.approx(-1.0 / 3.0)


# ---------------------------------------------------------------------------
# report properties
# ---------------------------------------------------------------------------

def test_determinism_same_seed():
    cfg = base_config()
    body1 = cli.report_body(run_config(cfg))
    body2 = cli.report_body(run_config(cfg))
    assert json.dumps(body1, sort_keys=True) == json.dumps(body2, sort_keys=True)


def test_report_round_trips():
    report = run_config(base_config(suites=["coeffs", "contraction"]))
    text = cli.dump_report(report)
    assert json.loads(text) == report


def test_residual_strings_round_trip():
    report = run_config(base_config(suites=["coeffs", "contraction"]))
    for suite in report["suites"]:
        for value in suite["residuals"].values():
            assert cli.fmt(float(value)) == value


def test_gate_fails_a_nan_residual():
    upper = cli.SuiteResult("x")
    upper.gate("residual", float("nan"), 1e-8)
    lower = cli.SuiteResult("x")
    lower.gate("min_eig", float("nan"), -1e-9, lower=True)
    assert upper.outcome == "fail" and lower.outcome == "fail"
    assert upper.residuals["residual"] == "nan"
    held = cli.SuiteResult("x")
    held.gate("residual", 1e-8, 1e-8)
    held.gate("min_eig", -1e-9, -1e-9, lower=True)
    assert held.outcome == "pass"


# ---------------------------------------------------------------------------
# command line
# ---------------------------------------------------------------------------

def test_cmd_run_exit_codes(tmp_path):
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps(base_config(suites=["coeffs", "contraction"])))
    out_path = tmp_path / "report.json"
    code = cli.main(["run", str(cfg_path), "--out", str(out_path)])
    assert code == 0
    report = json.loads(out_path.read_text())
    assert report["overall"] == "pass"

    bad = base_config(suites=["coeffs", "contraction"],
                      tuple={"inline": scalar_tuple_block(2.0)})
    bad_path = tmp_path / "bad.json"
    bad_path.write_text(json.dumps(bad))
    assert cli.main(["run", str(bad_path), "--out", str(tmp_path / "bad_report.json")]) == 1


def test_fault_inside_a_suite_is_its_error(tmp_path):
    # finite but huge entries overflow the defect series, and the norm of its
    # tail window raises on the non-finite entries; that fault is the suite's
    # error, exit code 3, not a crash or a "fail", and the report is still
    # written
    huge = [[[1e300, 0.0], [0.0, 0.0]], [[1e300, 0.0], [0.0, 0.0]]]
    cfg = base_config(
        kernel={"d": 1, "rule": "szego", "params": {}, "N_max": 40},
        tuple={"inline": {"h": 2, "d": 1, "mats": [huge]}},
        truncation={"N": 30, "tol": 1e-9, "tail_window": 3},
        suites=["coeffs", "contraction", "purity"],
    )
    cfg_path = tmp_path / "huge.json"
    cfg_path.write_text(json.dumps(cfg))
    out_path = tmp_path / "huge_report.json"
    with np.errstate(all="ignore"):
        assert cli.main(["run", str(cfg_path), "--out", str(out_path)]) == 3
    by_name = {s["name"]: s for s in json.loads(out_path.read_text())["suites"]}
    assert by_name["coeffs"]["outcome"] == "pass"
    assert by_name["contraction"]["outcome"] == "error"
    assert by_name["contraction"]["error"].startswith("LinAlgError: ")
    assert by_name["purity"]["outcome"] == "skip"


def test_cmd_run_config_error(tmp_path, capsys):
    path = tmp_path / "broken.json"
    path.write_text("{not json")
    assert cli.main(["run", str(path)]) == 2
    path2 = tmp_path / "nosuite.json"
    path2.write_text(json.dumps(base_config(suites=[])))
    assert cli.main(["run", str(path2)]) == 2


def run_cli_config(tmp_path, raw):
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(raw))
    out = tmp_path / "report.json"
    code = cli.main(["run", str(path), "--out", str(out)])
    return code, out.exists()


@pytest.mark.parametrize("entry, where", [([float("nan"), 0.0], "real part: nan"),
                                          ([0.5, float("inf")], "imaginary part: inf")])
def test_non_finite_matrix_entry_is_config_error(tmp_path, capsys, entry, where):
    # json writes and reads back NaN and Infinity
    cfg = base_config(suites=["coeffs", "contraction"],
                      tuple={"inline": {"h": 1, "d": 1, "mats": [[[entry]]]}})
    assert run_cli_config(tmp_path, cfg) == (2, False)
    err = capsys.readouterr().err
    assert err.startswith("config error:") and "entry [0][0]" in err and where in err


@pytest.mark.parametrize("m", [2.5, "2", True, float("inf")])
def test_bergman_m_must_be_an_integer(tmp_path, capsys, m):
    cfg = base_config(kernel={"d": 1, "rule": "bergman", "params": {"m": m}, "N_max": 40},
                      suites=["coeffs"], tuple=None)
    assert run_cli_config(tmp_path, cfg) == (2, False)
    assert "config error: kernel.params.m must be an integer" in capsys.readouterr().err


@pytest.mark.parametrize("block, name", [({"m": 2.5}, "counterexample.m"),
                                         ({"N_list": [0, "1"]}, "counterexample.N_list[1]"),
                                         ({"N_list": [0, 1, 2.7]}, "counterexample.N_list[2]"),
                                         ({"N_list": 3}, "counterexample.N_list"),
                                         ({"d": True}, "counterexample.d")])
def test_counterexample_block_is_parsed_strictly(tmp_path, capsys, block, name):
    cfg = base_config(suites=["coeffs", "counterexample"], tuple=None, counterexample=block)
    assert run_cli_config(tmp_path, cfg) == (2, False)
    assert f"config error: {name} must be" in capsys.readouterr().err


@pytest.mark.parametrize("rule, name", [("bergman", "m"), ("dirichlet_t", "t"),
                                        ("custom", "coeffs")])
def test_missing_kernel_parameter_is_named(tmp_path, capsys, rule, name):
    message = f"the {rule} rule needs the parameter '{name}'"
    assert cli.main(["kernel-info", "--rule", rule, "--N", "3"]) == 2
    assert capsys.readouterr().err == f"invalid kernel: {message}\n"
    cfg = base_config(kernel={"d": 1, "rule": rule, "params": {}, "N_max": 40},
                      suites=["coeffs"], tuple=None)
    assert run_cli_config(tmp_path, cfg) == (2, False)
    assert capsys.readouterr().err == f"config error: {message}\n"


def test_bergman_m_accepts_integral_float():
    spec, _ = cli.kernel_from_dict({"rule": "bergman", "params": {"m": 2.0}})
    assert spec.param == 2 and isinstance(spec.param, int)


def set_entry(cfg, path, value):
    *parents, key = path
    for name in parents:
        cfg = cfg[name]
    cfg[key] = value


@pytest.mark.parametrize("overrides, name", [
    ({("kernel", "d"): 1.9, ("truncation", "N"): "12", ("truncation", "tail_window"): 3.7,
      ("seed",): 2.5}, "kernel.d"),
    ({("kernel", "N_max"): 84.5}, "kernel.N_max"),
    ({("truncation", "N"): "12"}, "truncation.N"),
    ({("truncation", "tail_window"): 3.7}, "truncation.tail_window"),
    ({("seed",): 2.5}, "seed"),
    ({("tuple", "inline", "h"): 1.5}, "tuple.h"),
    ({("tuple", "inline", "d"): True}, "tuple.d"),
])
def test_config_integers_are_parsed_strictly(tmp_path, capsys, overrides, name):
    cfg = base_config(suites=["coeffs", "contraction"])
    for path, value in overrides.items():
        set_entry(cfg, path, value)
    assert run_cli_config(tmp_path, cfg) == (2, False)
    assert f"config error: {name} must be an integer, got" in capsys.readouterr().err


def test_config_integers_accept_integral_floats():
    cfg = base_config(kernel={"d": 1.0, "rule": "szego", "params": {}, "N_max": 84.0},
                      tuple={"inline": {"h": 1.0, "d": 1.0, "mats": [[[[0.5, 0.0]]]]}},
                      truncation={"N": 80.0, "tol": 1e-9, "tail_window": 3.0}, seed=1234.0)
    parsed = cli.parse_config(cfg)
    values = (parsed.kernel.d, parsed.n_table, parsed.truncation.N,
              parsed.truncation.tail_window, parsed.seed)
    assert values == (1, 84, 80, 3, 1234) and all(type(x) is int for x in values)
    assert parsed.tuple_mats[0].shape == (1, 1)


@pytest.mark.parametrize("tol", ["nan", "inf"])
def test_non_finite_tol_exits_2(tmp_path, capsys, tol):
    # T = (2) under Szego is no contraction; a NaN or infinite tol made it pass
    cfg = base_config(suites=["coeffs", "contraction"], tuple={"inline": scalar_tuple_block(2.0)})
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(cfg))
    assert cli.main(["run", str(path), "--tol", tol, "--out", str(tmp_path / "r.json")]) == 2
    assert "config error: truncation.tol must be a finite number" in capsys.readouterr().err
    assert not (tmp_path / "r.json").exists()
    cfg["truncation"]["tol"] = float(tol)  # json writes NaN and Infinity, and reads them back
    assert run_cli_config(tmp_path, cfg) == (2, False)
    assert "config error: truncation.tol must be a finite number" in capsys.readouterr().err


@pytest.mark.parametrize("path, value, name", [
    (("truncation", "tol"), "1e-9", "truncation.tol"),
    (("truncation", "tol"), True, "truncation.tol"),
    (("truncation", "tol"), -float("inf"), "truncation.tol"),
    (("kernel", "params", "t"), "1", "kernel.params.t"),
    (("kernel", "params", "t"), True, "kernel.params.t"),
    (("kernel", "params", "t"), float("nan"), "kernel.params.t"),
    pytest.param(("kernel", "params", "t"), 10 ** 400, "kernel.params.t", id="t-past-float"),
])
def test_config_floats_are_parsed_strictly(tmp_path, capsys, path, value, name):
    cfg = base_config(kernel={"d": 1, "rule": "dirichlet_t", "params": {"t": 1.0}, "N_max": 84},
                      suites=["coeffs"], tuple=None)
    set_entry(cfg, path, value)
    assert run_cli_config(tmp_path, cfg) == (2, False)
    assert f"config error: {name} must be a finite number, got" in capsys.readouterr().err


@pytest.mark.parametrize("coeffs, name", [([1, "0.5"], "kernel.params.coeffs[1]"),
                                          ([1, True], "kernel.params.coeffs[1]"),
                                          ([1, 0.5, float("nan")], "kernel.params.coeffs[2]"),
                                          (0.5, "kernel.params.coeffs")])
def test_custom_coefficients_are_parsed_strictly(tmp_path, capsys, coeffs, name):
    cfg = base_config(kernel={"d": 1, "rule": "custom", "params": {"coeffs": coeffs}, "N_max": 2},
                      suites=["coeffs"], tuple=None)
    assert run_cli_config(tmp_path, cfg) == (2, False)
    assert f"config error: {name} must be a" in capsys.readouterr().err


def test_config_floats_accept_ints():
    spec, _ = cli.kernel_from_dict({"rule": "dirichlet_t", "params": {"t": 1}})
    assert spec.param == 1.0 and type(spec.param) is float
    spec, _ = cli.kernel_from_dict({"rule": "custom", "params": {"coeffs": [1, 2]}})
    assert spec.param == (1.0, 2.0)
    cfg = cli.parse_config(base_config(truncation={"N": 80, "tol": 1, "tail_window": 3}))
    assert cfg.truncation.tol == 1.0 and type(cfg.truncation.tol) is float


@pytest.mark.parametrize("argv, fragment", [
    (["--rule", "dirichlet_t", "--t", "nan", "--N", "3"], "kernel.params.t must be a finite"),
    (["--rule", "dirichlet_t", "--t", "inf", "--N", "3"], "kernel.params.t must be a finite"),
    (["--rule", "custom", "--coeffs", "1,nan,0.5", "--N", "2"], "coeffs[1] must be a finite"),
    (["--rule", "custom", "--coeffs", "1,x", "--N", "1"], "could not convert"),
    (["--rule", "szego", "--N", "-2"], "--N must be >= 0, got -2"),
])
def test_kernel_info_rejects_non_finite_and_negative_input(capsys, argv, fragment):
    assert cli.main(["kernel-info", *argv]) == 2
    captured = capsys.readouterr()
    assert captured.out == "" and captured.err.startswith("invalid kernel: ")
    assert fragment in captured.err


def test_suites_must_be_a_list(tmp_path, capsys):
    assert run_cli_config(tmp_path, base_config(suites="coeffs", tuple=None)) == (2, False)
    assert "config error: suites must be a list" in capsys.readouterr().err


def test_out_dir_env_var(tmp_path, monkeypatch, capsys):
    monkeypatch.setenv(cli.ENV_OUT_DIR, str(tmp_path))
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps(base_config(suites=["coeffs"], tuple=None)))
    code = cli.main(["run", str(cfg_path), "--out", "nested/report.json"])
    assert code == 0
    assert (tmp_path / "nested" / "report.json").exists()


def test_kernel_info_output(capsys):
    assert cli.main(["kernel-info", "--rule", "dirichlet_t", "--t", "1.0", "--N", "2"]) == 0
    out = capsys.readouterr().out
    assert "0.5" in out and "0.083333333333333" in out
    assert "cnp_consistent" in out

    assert cli.main(["kernel-info", "--rule", "bergman", "--m", "2", "--N", "3"]) == 0
    out = capsys.readouterr().out
    assert "not_cnp(n=2" in out

    assert cli.main(["kernel-info", "--rule", "szego", "--N", "5"]) == 0
    out = capsys.readouterr().out
    rows = [line for line in out.splitlines() if line.strip() and line.strip()[0].isdigit()]
    assert all(line.split()[-1] == "0" for line in rows[2:])  # b_n = 0 for n >= 2


def test_kernel_info_rejects_bad_spec(capsys):
    assert cli.main(["kernel-info", "--rule", "bergman", "--m", "0", "--N", "5"]) == 2
    assert cli.main(["kernel-info", "--rule", "custom", "--coeffs", "1,-2", "--N", "5"]) == 2


def test_counterexample_command(tmp_path, capsys):
    out_path = tmp_path / "ce.json"
    assert cli.main(["counterexample", "--m", "2", "--N", "0,1", "--out", str(out_path)]) == 0
    printed = capsys.readouterr().out
    assert "-0.33333333333333" in printed
    rows = json.loads(out_path.read_text())
    assert rows[0]["m"] == 2 and float(rows[0]["match_error"]) <= 1e-12


def test_counterexample_rejects_m1(capsys):
    assert cli.main(["counterexample", "--m", "1", "--N", "0"]) == 2
    err = capsys.readouterr().err.lower()
    assert "drury-arveson" in err


@pytest.mark.parametrize("argv", [["--N", "-1"], ["--N", "x"], ["--d", "0"]])
def test_counterexample_bad_input_exits_2(capsys, argv):
    assert cli.main(["counterexample", "--m", "2", *argv]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("invalid counterexample input: ")
    assert captured.err.count("\n") == 1  # one line, no traceback


def nilpotent_pair_config(suites):
    e12_blocks = lambda s: [[[0.0, 0.0], [s, 0.0]], [[0.0, 0.0], [0.0, 0.0]]]
    return {
        "label": "nilpotent pair under drury-arveson",
        "kernel": {"d": 2, "rule": "drury_arveson", "params": {}, "N_max": 90},
        "tuple": {"inline": {"h": 2, "d": 2,
                             "mats": [e12_blocks(0.4), e12_blocks(0.3)]}},
        "truncation": {"N": 8, "tol": 1e-9, "tail_window": 3},
        "suites": suites,
        "seed": 99,
    }


def record_calls(monkeypatch, originals):
    """name -> results of every call, through each cnplab binding of the function."""
    results = collections.defaultdict(list)

    def recorded(name, fn):
        def wrapper(*args, **kwargs):
            out = fn(*args, **kwargs)
            results[name].append(out)
            return out
        return wrapper

    for mod_name, mod in list(sys.modules.items()):
        if mod_name.split(".")[0] != "cnplab":
            continue
        for name, fn in originals.items():
            if vars(mod).get(name) is fn:
                monkeypatch.setattr(mod, name, recorded(name, fn))
    for cls in (tuples.TuplePowers, tuples.OperatorTuple):
        monkeypatch.setattr(cls, "__init__", recorded(cls.__name__, cls.__init__))
    monkeypatch.setattr(tuples.IndexShifts, "tensor",
                        recorded("tensor", tuples.IndexShifts.tensor))
    return results


def test_existence_run_builds_the_dilation_once(monkeypatch):
    calls = record_calls(monkeypatch, {"build_dilation": model.build_dilation,
                                       "shift_matrices": tuples.shift_matrices,
                                       "defect": tuples.defect})
    report = run_config(nilpotent_pair_config(
        ["coeffs", "contraction", "purity", "dilation", "existence"]))
    assert report["overall"] == "pass"
    # the tuple's defect is shared by contraction, purity and the dilation,
    # and the associated defect is summed on the model space; the
    # intertwining check reads the dilation's powers; every stage reads the
    # dilation's tensored shifts, and the dense shifts are never built
    assert len(calls["build_dilation"]) == 1 and len(calls["shift_matrices"]) == 1
    assert len(calls["defect"]) == 1 and len(calls["TuplePowers"]) == 1
    assert len(calls["tensor"]) == 1 and len(calls["OperatorTuple"]) == 1


def test_identities_run_builds_theta_on_the_dilation(monkeypatch):
    calls = record_calls(monkeypatch, {"build_dilation": model.build_dilation,
                                       "build_lift": charfn.build_lift,
                                       "defect": tuples.defect,
                                       "charfn_eval": charfn.charfn_eval,
                                       "kernel_calculus": charfn.kernel_calculus})
    report = run_config(nilpotent_pair_config(
        ["coeffs", "contraction", "purity", "dilation", "charfn", "identities"]))
    assert report["overall"] == "pass"
    # theta is evaluated on point stacks: the 100 charfn samples, the z and
    # the w of the 20 defect-identity pairs, and the 5 multiplier points
    assert [len(e.z) for e in calls["charfn_eval"]] == [100, 20, 20, 5]
    assert [len(c.matrix) for c in calls["kernel_calculus"]] == [100, 20, 20, 5]
    # contraction, purity and the dilation share one defect; the lift reuses
    # the dilation's defect and powers, and the model check its tensored shifts
    assert len(calls["defect"]) == 1 and len(calls["TuplePowers"]) == 1
    assert len(calls["tensor"]) == 1
    [v], [lift] = calls["build_dilation"], calls["build_lift"]
    assert lift.dilation is v
    assert any(dd is v.defect_data for dd in calls["defect"])
    # only the charfn suite reads the norms of theta, so only its stack pays the SVD
    assert ["norm" in vars(e) for e in calls["charfn_eval"]] == [True, False, False, False]


def test_identities_run_takes_batched_svds_only_where_read(monkeypatch):
    stacks = []
    svd = np.linalg.svd

    def counted(a, *args, **kwargs):
        if np.ndim(a) == 3:
            stacks.append(len(a))
        return svd(a, *args, **kwargs)

    monkeypatch.setattr(np.linalg, "svd", counted)
    report = run_config(nilpotent_pair_config(
        ["coeffs", "contraction", "purity", "dilation", "charfn", "identities"]))
    assert report["overall"] == "pass"
    # the tail and inverse residual of each of the 4 kernel calculi (100, 20,
    # 20 and 5 points), the norms of the 100 charfn samples, and the 20
    # defect-identity residuals: theta's norms at the other 45 points are never read
    assert sorted(stacks) == sorted([100, 100, 20, 20, 20, 20, 5, 5] + [100] + [20])


def test_identities_run_reads_the_coefficient_vector(monkeypatch):
    # a_alpha is computed once per multi-index, as one stack by the shifts of
    # the dilation; the lift adds b_alpha over the positive multi-indices as one more
    seen = []
    original = tuples.multi_coeff

    def counted(table, alpha, which="a"):
        seen.append((tuple(map(tuple, alpha)), which))
        return original(table, alpha, which)

    for mod in (tuples, model, charfn):
        monkeypatch.setattr(mod, "multi_coeff", counted)
    report = run_config(nilpotent_pair_config(
        ["coeffs", "contraction", "purity", "dilation", "charfn", "identities"]))
    assert report["overall"] == "pass"
    indices = cl.graded_indices(2, 8)
    assert seen == [(indices, "a"), (indices[1:], "b")]


def test_z_row_identity_measures_the_identity_not_the_kernel_tail():
    # with N_max = 15 the Drury-Arveson series s(z, z) stops at |z|^30, which
    # is 1e-3 at |z| = 0.8; 1/s(z, z) = 1 - |z|^2 has a terminating series
    raw = json.loads((CONFIGS / "drury_arveson_pair.json").read_text())
    raw["kernel"]["N_max"] = 15
    raw["suites"] = ["coeffs", "contraction", "purity", "dilation", "charfn"]
    raw.pop("output")
    suite = {s["name"]: s for s in run_config(raw)["suites"]}["charfn"]
    assert suite["outcome"] == "pass", suite["residuals"]
    assert float(suite["residuals"]["z_row_identity"]) <= 1e-15
    assert float(suite["details"]["z_row_series_last_term"]) == 0.0
    # a reciprocal series that does not terminate records its last term,
    # b_{N_max} |z|^(2 N_max) at the largest sampled |z|
    dirichlet = json.loads((CONFIGS / "dirichlet_scalar.json").read_text())
    dirichlet["suites"] = ["coeffs", "contraction", "purity", "dilation", "charfn"]
    dirichlet.pop("output", None)
    cfg = cli.parse_config(dirichlet)
    suite = {s["name"]: s for s in cli.run(cfg)["suites"]}["charfn"]
    b = cl.build_table(cfg.kernel, cfg.n_table).b
    radius = np.max(np.linalg.norm(cl.ball_points(1, 100, cfg.seed + 1), axis=1))
    want = abs(b[cfg.n_table]) * radius ** (2 * cfg.n_table)
    assert 0.0 < want <= 1e-15
    assert abs(float(suite["details"]["z_row_series_last_term"]) - want) <= 1e-12 * want


@pytest.mark.parametrize("name", sorted(path.name for path in CONFIGS.glob("*.json")))
def test_shipped_config_passes(tmp_path, monkeypatch, capsys, name):
    monkeypatch.setenv(cli.ENV_OUT_DIR, str(tmp_path))
    assert cli.main(["run", str(CONFIGS / name)]) == 0


def test_full_run_two_variables():
    report = run_config(nilpotent_pair_config(["coeffs", "contraction", "purity", "dilation",
                                               "existence", "charfn", "identities"]))
    assert report["overall"] == "pass", [
        (s["name"], s["outcome"], s["residuals"], s["error"]) for s in report["suites"]
    ]


def test_determinism_across_processes(tmp_path):
    import subprocess
    import sys

    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps(base_config(suites=["coeffs", "contraction", "purity"])))
    bodies = []
    for run_idx in range(2):
        out = tmp_path / f"rep{run_idx}.json"
        proc = subprocess.run(
            [sys.executable, "-m", "cnplab", "run", str(cfg_path), "--out", str(out)],
            capture_output=True, text=True,
        )
        assert proc.returncode == 0, proc.stderr
        bodies.append(json.dumps(cli.report_body(json.loads(out.read_text())), sort_keys=True))
    assert bodies[0] == bodies[1]
