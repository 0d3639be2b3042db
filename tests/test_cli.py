"""Config ingestion, suite orchestration, reports, and the command line."""

import collections
import json
import math
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import cnplab as cl
from cnplab import charfn, cli, model, tuples
from model_reference import projected_associated_defect

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
    # a config at exactly the minimum N_max, N + 1, must run the existence suite
    cfg = {
        "kernel": {"d": 1, "rule": "dirichlet_t", "params": {"t": 1.0}, "N_max": 21},
        "tuple": {"inline": scalar_tuple_block(0.3)},
        "truncation": {"N": 20, "tol": 1e-9, "tail_window": 3},
        "suites": ["coeffs", "contraction", "purity", "dilation", "existence"],
        "seed": 5,
    }
    report = run_config(cfg)
    assert report["overall"] == "pass"
    cfg["kernel"]["N_max"] = 20
    with pytest.raises(ValueError, match=r"must be at least truncation\.N \+ 1 \(21\)$"):
        cli.parse_config(cfg)


def test_drury_arveson_pair_runs_at_the_table_floor(tmp_path, capsys):
    # N_max = N + 1 holds every coefficient coeffs..charfn reads; one less exits 2
    raw = json.loads((CONFIGS / "drury_arveson_pair.json").read_text())
    raw.pop("output")
    raw["suites"] = ["coeffs", "contraction", "purity", "dilation", "existence", "charfn"]
    raw["kernel"]["N_max"] = raw["truncation"]["N"] + 1
    assert run_config(raw)["overall"] == "pass"
    raw["kernel"]["N_max"] -= 1
    assert run_cli_config(tmp_path, raw) == (2, False)
    assert capsys.readouterr().err == ("config error: kernel.N_max (10) must be at least "
                                       "truncation.N + 1 (11)\n")


def test_parse_dimension_mismatch():
    cfg = base_config()
    cfg["kernel"]["d"] = 2
    cfg["kernel"]["rule"] = "drury_arveson"
    with pytest.raises(ValueError):
        cli.parse_config(cfg)


def test_matrix_round_trip():
    m = np.array([[0.5 + 0.25j, -1.0j], [0.0, 2.0]])
    back = cli.matrices_from_nested([[[0.5, 0.25], [0.0, -1.0]], [[0.0, 0.0], [2.0, 0.0]]])
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


def test_scalar_tuple_in_33_variables_passes_every_tuple_suite():
    # d = 33, N = 3: 7,140 multi-indices, past where base-(N + 1) integer keys overflow.
    # tail_window 1, as Drury-Arveson's degree-1 defect increment (3.3e-7) lies in a window
    # of 3; N_max 64, as verify_multiplier reads the kernel series cut there
    suites = ["contraction", "purity", "dilation", "existence", "charfn", "identities"]
    cfg = base_config(kernel={"d": 33, "rule": "drury_arveson", "params": {}, "N_max": 64},
                      tuple={"inline": {"h": 1, "d": 33, "mats": [[[[1e-4, 0.0]]]] * 33}},
                      truncation={"N": 3, "tol": 1e-9, "tail_window": 1}, suites=suites)
    for seed in (1234, 2):
        cfg["seed"] = seed
        report = run_config(cfg)
        assert [(s["name"], s["outcome"]) for s in report["suites"]] == [
            (name, "pass") for name in suites]


def test_counterexample_suite_error_on_bad_m(tmp_path, capsys):
    # m = 1 is the Drury-Arveson kernel, where the form is nonnegative: a config error
    cfg = base_config(suites=["coeffs", "counterexample"],
                      counterexample={"m": 1, "N_list": [0], "d": 1})
    assert run_cli_config(tmp_path, cfg) == (2, False)
    err = capsys.readouterr().err
    assert err.startswith("config error: counterexample.m must be >= 2") and "Drury-Arveson" in err


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


@pytest.mark.parametrize("suite, verdict", [("coeffs", "cnp_consistent(N=84)"),
                                            ("dilation", "isometry"), ("charfn", "contractive"),
                                            ("identities", "identities"),
                                            ("counterexample", "reproduced")])
def test_expect_holds_for_every_suite(suite, verdict):
    suites = list(cli.SUITE_ORDER)
    report = run_config(base_config(suites=suites, expect={suite: verdict}))
    assert report["overall"] == "pass"
    report = run_config(base_config(suites=suites, expect={suite: "something_else"}))
    by_name = {s["name"]: s for s in report["suites"]}
    assert by_name[suite]["verdict"] == verdict and by_name[suite]["expected"] == "something_else"
    assert by_name[suite]["outcome"] == "fail"
    # the suites after it in the chain are skipped; counterexample stands alone
    after = suites[suites.index(suite) + 1:]
    assert [by_name[s]["outcome"] for s in after] == \
        ["skip"] * len(set(after) & set(cli.SUITE_CHAIN)) + ["pass"] * ("counterexample" in after)


def test_skip_names_the_nearest_requested_suite():
    # scalar 1 is a contraction that is not pure; dilation is not requested
    report = run_config(base_config(tuple={"inline": scalar_tuple_block(1.0)},
                                    suites=["coeffs", "purity", "existence"]))
    by_name = {s["name"]: s for s in report["suites"]}
    assert by_name["purity"]["outcome"] == "fail" and by_name["purity"]["verdict"] == "not_pure"
    assert by_name["existence"]["outcome"] == "skip"
    assert by_name["existence"]["verdict"] == "skipped: prerequisite purity did not pass"


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


def test_a_nan_match_error_in_a_later_row_reaches_the_residual(monkeypatch):
    def nan_at_degree_1(m, ns, d=1):
        points = model.bergman_counterexample(m, ns, d=d)
        return [p._replace(match_error=math.nan) if p.N == 1 else p for p in points]

    monkeypatch.setattr(cli, "bergman_counterexample", nan_at_degree_1)
    report = run_config(base_config(suites=["coeffs", "counterexample"], tuple=None,
                                    counterexample={"m": 2, "N_list": [0, 1, 2]}))
    suite = report["suites"][1]
    assert (suite["outcome"], suite["verdict"]) == ("fail", "bound_not_violated")
    assert suite["residuals"]["match_error_max"] == "nan"


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


def test_fault_inside_a_suite_is_its_error(tmp_path, capsys):
    # finite but huge entries overflow the defect series, and the norm of its
    # tail window raises on the non-finite entries (the one spectral-norm kernel's
    # error); that fault is the suite's error, exit code 3, not a crash or a
    # "fail", and the report is still written; being no CnpLabError, it also
    # prints its traceback to stderr
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
    assert by_name["contraction"]["error"] == ("LinAlgError: spectral norm of a matrix "
                                               "with non-finite entries")
    assert by_name["purity"]["outcome"] == "skip"
    err = capsys.readouterr().err
    assert "Traceback (most recent call last):" in err
    assert "LinAlgError: " in err.rstrip("\n").splitlines()[-1]


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


@pytest.mark.parametrize("block, message", [
    ({"m": 1, "N_list": [0]}, "counterexample.m must be >= 2, got 1: at m = 1 the kernel is the "
                              "Drury-Arveson kernel"),
    ({"d": 0}, "counterexample.d must be >= 1, got 0"),
    ({"N_list": [-1]}, "counterexample.N_list[0] must be >= 0, got -1"),
    ({"N_list": []}, "counterexample.N_list must be a non-empty list of integers, got []"),
], ids=["m", "d", "N_list-entry", "N_list-empty"])
def test_counterexample_block_out_of_range_exits_2(tmp_path, capsys, block, message):
    cfg = base_config(suites=["coeffs", "counterexample"], tuple=None, counterexample=block)
    assert run_cli_config(tmp_path, cfg) == (2, False)
    captured = capsys.readouterr()
    assert captured.out == "" and captured.err.startswith(f"config error: {message}")
    assert captured.err.count("\n") == 1  # one line, no traceback


@pytest.mark.parametrize("change, message", [
    (lambda cfg: [cfg], "config must be an object, got list"),
    (lambda cfg: dict(cfg, kernel="szego"), "kernel must be an object, got str"),
    (lambda cfg: dict(cfg, kernel=dict(cfg["kernel"], params=[2])), "kernel.params must be an object"),
    (lambda cfg: dict(cfg, truncation="abc"), "truncation must be an object"),
    (lambda cfg: dict(cfg, tuple=5), "tuple must be an object"),
    (lambda cfg: dict(cfg, tuple={"inline": [0.5]}), "tuple must be an object"),
    (lambda cfg: dict(cfg, counterexample=5), "counterexample must be an object"),
    (lambda cfg: dict(cfg, expect=[1]), "expect must be an object"),
    (lambda cfg: dict(cfg, expect={"existance": "admits"}),
     f"expect must map suite names {list(cli.SUITE_ORDER)} to verdict strings, "
     "got 'existance': 'admits'"),
    (lambda cfg: dict(cfg, expect={"existence": 1}), "expect must map suite names"),
    (lambda cfg: dict(cfg, output=5), "output must be a string, got 5"),
    (lambda cfg: dict(cfg, tuple={"inline": dict(cfg["tuple"]["inline"], mats=5)}),
     "tuple.mats must be a list of matrices, got 5"),
    (lambda cfg: dict(cfg, tuple={"inline": dict(cfg["tuple"]["inline"], mats=None)}),
     "tuple.mats must be a list of matrices, got None"),
    (lambda cfg: dict(cfg, tuple={"inline": dict(cfg["tuple"]["inline"], mats=[{"re": 0.5}])}),
     "matrix entries must be nested [re, im] pairs"),
    (lambda cfg: dict(cfg, tuple={"path": 5}), "tuple.path must be a string, got 5"),
    (lambda cfg: dict(cfg, kernel=dict(cfg["kernel"], rule=["szego"])),
     "kernel.rule must be one of the strings ('szego', 'drury_arveson', 'bergman', "
     "'dirichlet_t', 'custom'), got ['szego']"),
    (lambda cfg: dict(cfg, kernel=dict(cfg["kernel"], rule={"name": "szego"})),
     "kernel.rule must be one of the strings"),
    # an entry that is not a JSON number is refused, not parsed or coerced
    (lambda cfg: dict(cfg, tuple={"inline": dict(cfg["tuple"]["inline"], mats=[[[["0.1", "0"]]]])}),
     "matrix entry [0][0] has a non-number real part: '0.1'"),
    (lambda cfg: dict(cfg, tuple={"inline": dict(cfg["tuple"]["inline"], mats=[[[[True, 0.0]]]])}),
     "matrix entry [0][0] has a non-number real part: True"),
    (lambda cfg: dict(cfg, tuple={"inline": dict(cfg["tuple"]["inline"], mats=[[[[0.5, False]]]])}),
     "matrix entry [0][0] has a non-number imaginary part: False"),
    (lambda cfg: dict(cfg, tuple={"inline": dict(cfg["tuple"]["inline"], mats=[[[[0.5, "0"]]]])}),
     "matrix entry [0][0] has a non-number imaginary part: '0'"),
    # null and a missing key are absent; any other falsy non-object is refused
    (lambda cfg: dict(cfg, kernel=dict(cfg["kernel"], params=[])), "kernel.params must be an object"),
    (lambda cfg: dict(cfg, kernel=dict(cfg["kernel"], params=0)), "kernel.params must be an object"),
    (lambda cfg: dict(cfg, kernel=dict(cfg["kernel"], params=False)),
     "kernel.params must be an object"),
    (lambda cfg: dict(cfg, kernel=dict(cfg["kernel"], params="")), "kernel.params must be an object"),
    (lambda cfg: dict(cfg, tuple=[]), "tuple must be an object"),
    (lambda cfg: dict(cfg, tuple=0), "tuple must be an object"),
    (lambda cfg: dict(cfg, tuple=False), "tuple must be an object"),
    (lambda cfg: dict(cfg, tuple=""), "tuple must be an object"),
    # a missing required key is named by its field's own check
    (lambda cfg: {k: v for k, v in cfg.items() if k != "kernel"},
     "kernel must be an object, got NoneType"),
    (lambda cfg: dict(cfg, tuple={"inline": {"d": 1, "mats": [[[[0.5, 0.0]]]]}}),
     "tuple.h must be an integer, got None"),
    (lambda cfg: dict(cfg, tuple={"inline": {"h": 1, "mats": [[[[0.5, 0.0]]]]}}),
     "tuple.d must be an integer, got None"),
    (lambda cfg: dict(cfg, tuple={"inline": {"h": 1, "d": 1}}),
     "tuple.mats must be a list of matrices, got None"),
], ids=["top-level", "kernel", "params", "truncation", "tuple", "inline", "counterexample",
        "expect", "expect-name", "expect-verdict", "output", "mats-number", "mats-null",
        "mats-object", "path-number", "rule-list", "rule-object", "entry-string", "entry-bool",
        "entry-bool-among-numbers", "entry-string-among-numbers", "params-empty-list",
        "params-zero", "params-false", "params-empty-string", "tuple-empty-list", "tuple-zero",
        "tuple-false", "tuple-empty-string", "no-kernel", "no-h", "no-d", "no-mats"])
def test_config_value_of_the_wrong_json_type_exits_2(tmp_path, capsys, change, message):
    # exit 1 is a suite's fail; a config that cannot be read is exit 2, before any suite runs
    assert run_cli_config(tmp_path, change(base_config(suites=["coeffs", "contraction"]))) == \
        (2, False)
    captured = capsys.readouterr()
    assert captured.out == "" and captured.err.startswith(f"config error: {message}")
    assert captured.err.count("\n") == 1


@pytest.mark.parametrize("change, message", [
    (lambda cfg: dict(cfg, label=[1]), "label must be a string, got [1]"),
    (lambda cfg: dict(cfg, kernel=dict(cfg["kernel"], label=5)),
     "kernel.label must be a string, got 5"),
], ids=["top-level", "kernel"])
def test_label_of_another_type_exits_2(tmp_path, capsys, change, message):
    # a label is carried into the report as it is; a non-string one used to run
    assert run_cli_config(tmp_path, change(base_config(suites=["coeffs"], tuple=None))) == \
        (2, False)
    assert capsys.readouterr().err == f"config error: {message}\n"


def test_counterexample_tables_are_built_only_for_its_suite(monkeypatch):
    # the counterexample block is checked on every config, but its overflow
    # check builds a Bergman table, which only the counterexample suite needs
    built = []
    original = cli.build_table

    def counted(spec, n):
        built.append((spec.rule, n))
        return original(spec, n)

    monkeypatch.setattr(cli, "build_table", counted)
    report = run_config(base_config(suites=["identities"]))
    assert report["overall"] == "pass"
    assert built == [("szego", 84)]
    built.clear()
    cli.parse_config(base_config(suites=["coeffs", "counterexample"], tuple=None,
                                 counterexample={"m": 3, "N_list": [0, 5]}))
    assert built == [("bergman", 9)]


def test_coeffs_suite_needs_ten_coefficients(tmp_path, capsys):
    # the radius estimator reads 10 coefficients of each series, b_1..b_10 among them
    cfg = {"kernel": {"d": 1, "rule": "szego", "N_max": 5},
           "truncation": {"N": 1, "tail_window": 1}, "suites": ["coeffs"]}
    assert run_cli_config(tmp_path, cfg) == (2, False)
    assert capsys.readouterr().err == (
        "config error: kernel.N_max (5) must be at least 10 for the coeffs suite: its radius "
        "estimator needs 10 coefficients of each series\n")
    cfg["kernel"]["N_max"] = 10
    assert run_cli_config(tmp_path, cfg) == (0, True)
    cfg["kernel"]["N_max"], cfg["suites"] = 5, ["counterexample"]  # no radius estimate
    assert run_cli_config(tmp_path, cfg) == (0, True)


def test_tol_override_needs_a_truncation_object(tmp_path, capsys):
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(base_config(truncation="abc")))
    assert cli.main(["run", str(path), "--tol", "1e-8"]) == 2
    assert capsys.readouterr().err == "config error: truncation must be an object, got str\n"


@pytest.mark.parametrize("m", [10 ** 200, 10 ** 400], ids=["1e200", "1e400"])
def test_kernel_without_a_finite_table_exits_2(tmp_path, capsys, m):
    assert cli.main(["kernel-info", "--rule", "bergman", "--m", str(m), "--N", "3"]) == 2
    captured = capsys.readouterr()
    assert captured.out == "" and captured.err.startswith("invalid kernel: ")
    assert captured.err.count("\n") == 1
    assert cli.main(["counterexample", "--m", str(m), "--N", "0"]) == 2
    captured = capsys.readouterr()
    assert captured.out == "" and captured.err.startswith("invalid counterexample input: ")
    cfg = base_config(kernel={"d": 1, "rule": "bergman", "params": {"m": m}, "N_max": 84},
                      suites=["coeffs"], tuple=None)
    assert run_cli_config(tmp_path, cfg) == (2, False)
    captured = capsys.readouterr()
    assert captured.out == "" and captured.err.startswith("config error: ")
    assert captured.err.count("\n") == 1
    # the counterexample block's own tables are checked when the config is parsed
    cfg = base_config(suites=["coeffs", "counterexample"], tuple=None,
                      counterexample={"m": m, "N_list": [0]})
    assert run_cli_config(tmp_path, cfg) == (2, False)
    captured = capsys.readouterr()
    assert captured.out == "" and captured.err.startswith("config error: ")
    assert captured.err.count("\n") == 1


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


@pytest.mark.parametrize("overrides, name", [
    # 1e300 passes as an integral float; numpy cannot allocate its table
    ({("kernel", "N_max"): 1e300}, "kernel.N_max"),
    ({("kernel", "N_max"): cli.MAX_DEGREE + 1}, "kernel.N_max"),
    ({("kernel", "N_max"): 10 ** 11, ("truncation", "N"): 10 ** 11 - 4}, "kernel.N_max"),
    ({("truncation", "N"): 1e300}, "truncation.N"),
    ({("counterexample",): {"m": 2, "N_list": [0, 10 ** 11]}}, "counterexample.N_list[1]"),
])
def test_huge_degrees_exit_2(tmp_path, capsys, overrides, name):
    cfg = base_config(suites=["coeffs", "contraction"])
    for path, value in overrides.items():
        set_entry(cfg, path, value)
    assert run_cli_config(tmp_path, cfg) == (2, False)
    err = capsys.readouterr().err
    assert err.startswith(f"config error: {name} must be at most {cli.MAX_DEGREE}, got ")
    assert err.count("\n") == 1  # one line, no traceback


def test_negative_seed_exits_2(tmp_path, capsys):
    # the charfn suite samples with default_rng(seed + 1), which rejects a
    # negative seed: the run used to end in that suite's error, exit 3
    assert run_cli_config(tmp_path, base_config(seed=-2)) == (2, False)
    assert capsys.readouterr().err == "config error: seed must be >= 0, got -2\n"
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(base_config()))
    out = tmp_path / "r.json"
    assert cli.main(["run", str(path), "--seed", "-7", "--out", str(out)]) == 2
    assert capsys.readouterr().err == "config error: seed must be >= 0, got -7\n"
    assert not out.exists()
    assert cli.parse_config(base_config(seed=0)).seed == 0


def test_custom_coefficients_shorter_than_the_table_exit_2(tmp_path, capsys):
    # the table is built outside every suite, so a short list used to end in
    # an InvalidKernelError traceback with exit 1
    cfg = base_config(kernel={"d": 1, "rule": "custom", "params": {"coeffs": [1, 0.5, 0.25]},
                              "N_max": 40}, suites=["coeffs"], tuple=None)
    assert run_cli_config(tmp_path, cfg) == (2, False)
    assert capsys.readouterr().err == ("config error: kernel.params.coeffs has 3 entries, but "
                                       "kernel.N_max = 40 needs 41\n")
    cfg["kernel"]["params"]["coeffs"] = [0.5 ** k for k in range(41)]
    cfg["truncation"] = {"N": 20, "tol": 1e-9, "tail_window": 3}
    assert run_cli_config(tmp_path, cfg) == (0, True)


def test_degrees_up_to_the_bound_are_accepted():
    cfg = cli.parse_config(base_config(
        kernel={"d": 1, "rule": "szego", "params": {}, "N_max": cli.MAX_DEGREE},
        truncation={"N": cli.MAX_DEGREE - 4, "tol": 1e-9, "tail_window": 3},
        counterexample={"N_list": [cli.MAX_DEGREE]}))
    assert (cfg.n_table, cfg.truncation.N, cfg.counterexample["N_list"]) == \
        (cli.MAX_DEGREE, cli.MAX_DEGREE - 4, [cli.MAX_DEGREE])


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
    # the table of a huge degree does not fit in memory
    (["--rule", "szego", "--N", "100000000000"], f"--N must be at most {cli.MAX_DEGREE}, got"),
    # the radius lines read the table through degree 16, whatever --N asks for
    (["--rule", "custom", "--coeffs", "1,0.5,0.25,0.125", "--N", "3"],
     "radius estimate need the table through degree 16, so 17 coefficients"),
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


def test_counterexample_rows_do_not_grow_with_d(capsys):
    # every term lives on the first coordinate axis, so d = 60 costs what d = 1 does; in 60
    # variables the degree-8 graded space alone has about 1.2e10 multi-indices
    assert cli.main(["counterexample", "--m", "2", "--d", "60", "--N", "5"]) == 0
    assert "-0.75" in capsys.readouterr().out


def test_counterexample_rejects_m1(capsys):
    assert cli.main(["counterexample", "--m", "1", "--N", "0"]) == 2
    err = capsys.readouterr().err.lower()
    assert "drury-arveson" in err


@pytest.mark.parametrize("argv", [["--N", "-1"], ["--N", "x"], ["--d", "0"],
                                  ["--N", "0,100000000000"]])
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
    # theta is evaluated once, on one stack of every sample point: the 100
    # charfn samples, the z and the w of the 20 defect-identity pairs, and the
    # 5 multiplier points
    assert [len(e.z) for e in calls["charfn_eval"]] == [145]
    assert [len(c.matrix) for c in calls["kernel_calculus"]] == [145]
    # contraction, purity and the dilation share one defect; the lift reuses
    # the dilation's defect and powers, and the model check its tensored shifts
    assert len(calls["defect"]) == 1 and len(calls["TuplePowers"]) == 1
    assert len(calls["tensor"]) == 1
    [v], [lift] = calls["build_dilation"], calls["build_lift"]
    assert lift.dilation is v
    assert any(dd is v.defect_data for dd in calls["defect"])


def test_identities_run_takes_batched_norms_only_where_read(monkeypatch):
    stacks, svd_stacks = [], []
    eigvalsh, svd = np.linalg.eigvalsh, np.linalg.svd

    def counted_eigvalsh(a, *args, **kwargs):
        if np.ndim(a) == 3:
            stacks.append(len(a))
        return eigvalsh(a, *args, **kwargs)

    def counted_svd(a, *args, **kwargs):
        if np.ndim(a) == 3:
            svd_stacks.append(len(a))
        return svd(a, *args, **kwargs)

    monkeypatch.setattr(np.linalg, "eigvalsh", counted_eigvalsh)
    monkeypatch.setattr(np.linalg, "svd", counted_svd)
    report = run_config(nilpotent_pair_config(
        ["coeffs", "contraction", "purity", "dilation", "charfn", "identities"]))
    assert report["overall"] == "pass"
    # a stack's norms come from one batched eigvalsh of its scaled Gram
    # matrices: the tail and inverse residual of the one kernel calculus (145
    # points), the norms of the 100 charfn samples, and the 20 defect-identity
    # residuals; theta's norms at the other 45 points are never read, and no
    # stack is passed to an SVD
    assert stacks == [145, 145, 100, 20]
    assert svd_stacks == []


# (seed offset, sample size, moved point, the sub-stack that holds it, its index there)
BAD_SAMPLE_POINTS = {
    "charfn": (1, 100, 7, slice(None), 7),
    "identities z": (2, 40, 4, slice(0, None, 2), 2),
    "identities w": (2, 40, 5, slice(1, None, 2), 2),
    "identities multiplier": (3, 5, 3, slice(None), 3),
}


@pytest.mark.parametrize("where", BAD_SAMPLE_POINTS)
def test_a_bad_sample_point_fails_the_suite_whose_sample_holds_it(monkeypatch, where):
    # theta is evaluated once on every sample point, but each suite checks only
    # its own: a point whose series tail exceeds tol fails that suite with the
    # error its sub-stack raises alone, the index counted within the sub-stack
    offset, count, moved, sub_stack, index = BAD_SAMPLE_POINTS[where]
    raw = json.loads((CONFIGS / "drury_arveson_pair.json").read_text())
    raw.pop("output")
    original = cli.ball_points

    def with_moved_point(d, n, seed):
        pts = original(d, n, seed)
        if seed == raw["seed"] + offset:
            pts[moved] = [0.99, 0.0]
        return pts

    monkeypatch.setattr(cli, "ball_points", with_moved_point)
    cfg = cli.parse_config(raw, base_dir=str(CONFIGS))
    alone_ev = cl.charfn_eval(cli._SuiteContext(cfg).lift,
                              with_moved_point(2, count, raw["seed"] + offset)[sub_stack])
    with pytest.raises(cl.NonConvergedError, match=f"at point {index} ") as alone:
        cl.check_eval(alone_ev, cfg.truncation)
    suites = {s["name"]: s for s in cli.run(cfg)["suites"]}
    bad_suite = where.split()[0]
    assert suites[bad_suite]["outcome"] == "error"
    assert suites[bad_suite]["error"] == f"NonConvergedError: {alone.value}"
    if bad_suite == "identities":
        assert suites["charfn"]["outcome"] == "pass"
    else:
        # identities waits on charfn; run without it, it never evaluates charfn's sample
        assert suites["identities"]["outcome"] == "skip"
        raw["suites"] = ["identities"]
        [alone_run] = cli.run(cli.parse_config(raw, base_dir=str(CONFIGS)))["suites"]
        assert alone_run["outcome"] == "pass"


def test_identities_run_reads_the_coefficient_vector(monkeypatch):
    # a_alpha is computed once per multi-index, as one stack by the shifts of
    # the dilation; its span adds b_alpha on the degrees 1..m it gathers (m = 1
    # here), and the lift b_alpha over the positive multi-indices as one more
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
    assert seen == [(indices, "a"), (cl.graded_indices(2, 1)[1:], "b"), (indices[1:], "b")]


@pytest.mark.parametrize("name", ["drury_arveson_pair", "bergman_zero_tuple", "szego_scalar",
                                  "dirichlet_scalar"])
@pytest.mark.parametrize("suites", [["coeffs", "contraction", "purity", "dilation", "existence"],
                                    ["dilation", "existence"]])
def test_existence_reuses_the_purity_verdict(monkeypatch, name, suites):
    # the purity suite and the existence suite read one verdict, and existence
    # decides it once when the purity suite is not requested
    calls = []
    original = tuples.is_pure

    def counted(*args, **kwargs):
        calls.append(args)
        return original(*args, **kwargs)

    for mod in (tuples, cli):
        monkeypatch.setattr(mod, "is_pure", counted)
    raw = json.loads((CONFIGS / f"{name}.json").read_text())
    raw["suites"] = suites
    raw.pop("output")
    report = run_config(raw)
    assert report["overall"] == "pass"
    assert len(calls) == 1


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
    # a reciprocal series that does not terminate is cut where Z is, at N, and
    # records its last term, b_N |z|^(2N) at the largest sampled |z|
    dirichlet = json.loads((CONFIGS / "dirichlet_scalar.json").read_text())
    dirichlet["suites"] = ["coeffs", "contraction", "purity", "dilation", "charfn"]
    dirichlet.pop("output", None)
    cfg = cli.parse_config(dirichlet)
    suite = {s["name"]: s for s in cli.run(cfg)["suites"]}["charfn"]
    n = cfg.truncation.N
    b = cl.build_table(cfg.kernel, n).b
    radius = np.max(np.linalg.norm(cl.ball_points(1, 100, cfg.seed + 1), axis=1))
    want = abs(b[n]) * radius ** (2 * n)
    assert 0.0 < want <= 1e-14
    assert abs(float(suite["details"]["z_row_series_last_term"]) - want) <= 1e-12 * want
    assert float(suite["residuals"]["z_row_identity"]) <= 1e-15


def test_z_row_identity_holds_when_b_never_vanishes():
    # under Dirichlet every b_k > 0, so a series of 1/s(z, z) cut past N would
    # measure its own b-tail (1e-4 here), not the identity
    raw = json.loads((CONFIGS / "drury_arveson_pair.json").read_text())
    raw.pop("output")
    raw["kernel"] = {"d": 2, "rule": "dirichlet_t", "params": {"t": 1.0}, "N_max": 64}
    raw["truncation"]["N"] = 10
    raw["suites"] = ["coeffs", "contraction", "purity", "dilation", "existence", "charfn"]
    report = run_config(raw)
    assert report["overall"] == "pass", [(s["name"], s["outcome"], s["residuals"])
                                         for s in report["suites"]]


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


def test_sampled_suites_leave_numpy_random_unimported():
    # the sample points come from the stdlib stream, so a run of charfn and
    # identities in a fresh process never pays for importing numpy.random
    code = ("import json, sys\n"
            "from cnplab import cli\n"
            f"report = cli.run(cli.parse_config(json.load(open({str(CONFIGS / 'szego_scalar.json')!r}))))\n"
            "print(json.dumps([[s['name'], s['outcome']] for s in report['suites']]))\n"
            "print('numpy.random' in sys.modules)\n")
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    outcomes, imported = proc.stdout.splitlines()
    assert ["charfn", "pass"] in json.loads(outcomes) and ["identities", "pass"] in json.loads(outcomes)
    assert imported == "False"


def charfn_config(name):
    raw = json.loads((CONFIGS / name).read_text())
    raw.pop("output", None)
    raw["suites"] = ["coeffs", "contraction", "purity", "dilation", "existence", "charfn"]
    return raw


@pytest.mark.parametrize("name, rows, columns, defect_rank", [
    ("drury_arveson_pair.json", 3, 6, 3 * 65),  # the two degree-1 blocks of h = 3, of 65
    ("szego_scalar.json", 1, 1, 80),
    ("dirichlet_scalar.json", 1, 60, 60),  # b_k > 0 at every degree: the whole direct sum
    ("szego_jordan_pair.json", 2, 2, 400),  # Delta^2 eigenvalue 5e-11 is kept: nothing drops
])
def test_sample_evaluation_writes_theta_on_its_columns(name, rows, columns, defect_rank):
    report = run_config(charfn_config(name))
    assert report["overall"] == "pass"
    charfn_suite = {s["name"]: s for s in report["suites"]}["charfn"]
    sample = charfn_suite["details"]["sample_evaluation"]
    assert sample["defect_rank"] == defect_rank
    matrix = np.array(sample["matrix"])
    assert matrix.shape == (rows, columns, 2)
    theta = matrix[..., 0] + 1j * matrix[..., 1]
    assert sample["norm"] == float(np.linalg.norm(theta, 2))


def test_drury_arveson_pair_at_degree_200_passes_every_suite(monkeypatch):
    # at N = 200 some sample point's tail a_N A_w^N has its largest entry below
    # 1/DBL_MAX, where a stack norm that formed 1/max|entry| overflowed and
    # failed the charfn suite; theta is evaluated once, on all 145 sample points
    calls = record_calls(monkeypatch, {"charfn_eval": charfn.charfn_eval})
    raw = json.loads((CONFIGS / "drury_arveson_pair.json").read_text())
    raw.pop("output")
    raw["kernel"]["N_max"], raw["truncation"]["N"] = 205, 200
    report = cli.run(cli.parse_config(raw, base_dir=str(CONFIGS)))
    assert [(s["name"], s["outcome"]) for s in report["suites"]] == [
        (name, "pass") for name in cli.SUITE_CHAIN]
    assert [len(e.z) for e in calls["charfn_eval"]] == [145]


def drury_arveson_pair_variant(name):
    """The shipped DA pair, at its own seed 1234, as the DA triple (A, A/2 + A^2, A^2 - A/2) at
    N = 8 ("da-triple-8") or under dirichlet_t(1.0) at N = 10 ("dir-pair-10")."""
    raw = json.loads((CONFIGS / "drury_arveson_pair.json").read_text())
    raw.pop("output")
    if name == "dir-pair-10":
        raw["kernel"] = {"d": 2, "rule": "dirichlet_t", "params": {"t": 1.0}, "N_max": 64}
        return raw
    a = np.array(raw["tuple"]["inline"]["mats"][0]) @ [1.0, 1j]
    mats = [a, a / 2 + a @ a, a @ a - a / 2]
    raw["kernel"]["d"], raw["truncation"]["N"] = 3, 8
    raw["tuple"]["inline"] = {"h": 3, "d": 3, "mats": [np.stack([m.real, m.imag], axis=-1).tolist()
                                                       for m in mats]}
    return raw


@pytest.mark.parametrize("name", [
    # charfn is an error: NonConvergedError, series tail 1.559e-09 at point 0 on the last term
    pytest.param("da-triple-8", marks=pytest.mark.xfail(
        strict=True, raises=AssertionError,
        reason="ROADMAP item 5: the charfn check reads the last term, not a certified tail")),
    # identities fails: vv_identity 3.28e-6 against its gate of 1e-8
    pytest.param("dir-pair-10", marks=pytest.mark.xfail(
        strict=True, raises=AssertionError,
        reason="ROADMAP item 6: verify_multiplier cuts s(z, w) at N_max while theta is cut at N")),
])
def test_live_defect_rows_pass_every_suite(name):
    report = cli.run(cli.parse_config(drury_arveson_pair_variant(name), base_dir=str(CONFIGS)))
    assert [(s["name"], s["outcome"]) for s in report["suites"]] == [
        (suite, "pass") for suite in cli.SUITE_CHAIN]


def benchmark_config(monkeypatch, name):
    """A seed-1 config of the benchmark's workloads (benchmarks/workloads.py)."""
    monkeypatch.syspath_prepend(str(CONFIGS.parent / "benchmarks"))
    import workloads

    return (workloads.bergman_shift_config(1) if name == "bergman-d2"
            else workloads.d2_config(name, 1))


@pytest.mark.parametrize("name, verdict, failed", [
    ("existence-d2", "admits", None),
    ("bergman-d2", "does_not_admit", 2),  # compressed Bergman-2 shifts in two variables
])
def test_existence_reports_the_factorability_margins(monkeypatch, name, verdict, failed):
    cfg = cli.parse_config(benchmark_config(monkeypatch, name))
    existence = {s["name"]: s for s in cli.run(cfg)["suites"]}["existence"]
    details, tol = existence["details"], cfg.truncation.tol
    assert existence["outcome"] == "pass" and existence["verdict"] == verdict
    assert details["factorability_failed_condition"] == failed
    ctx = cli._SuiteContext(cfg)
    fact = model.check_factorability(ctx.dilation.span, tol)
    counts = details["factorability_cond1_negative_counts"]
    cond2 = details["factorability_cond2_min_eig"]
    assert counts == list(fact.cond1_negative_counts) == [0, 0]
    assert cond2 == cli.fmt(fact.cond2_min_eig)
    # the margins decide the verdict: cond1 on a count above 0, then cond2 below -tol
    assert (float(cond2) < -tol) == (failed == 2)
    if failed == 2:
        assert abs(float(cond2) - float(existence["residuals"]["assoc_min_eig"])) <= 1e-12


def test_bergman_d2_witness_is_a_projected_bottom_eigenvector(monkeypatch):
    # the witness is Q_2 times the bottom eigenvector of S, read from the span's
    # one QR; the reference projects the Kronecker shifts onto Ker V^* densely.
    # -1/2 is a fourfold eigenvalue there, one per basis vector of degree 3, so
    # the witness is pinned down only up to that eigenspace
    v = cli._SuiteContext(cli.parse_config(benchmark_config(monkeypatch, "bergman-d2"))).dilation
    report = model.admits_charfn(v, tuples.is_pure(v.defect_data))
    k, delta_sq, _ = projected_associated_defect(v)
    vals, vecs = np.linalg.eigh(delta_sq)
    bottom = k @ vecs[:, vals <= vals[0] + 1e-9]
    assert report.status == "does_not_admit" and bottom.shape[1] == 4
    assert abs(report.value - vals[0]) <= 1e-12 and abs(np.linalg.norm(report.witness) - 1.0) <= 1e-12
    assert np.linalg.norm(report.witness - bottom @ (bottom.conj().T @ report.witness)) <= 1e-12


def test_seven_suite_run_factors_the_defect_span_once(monkeypatch):
    # cond2, the associated tuple and defect, and the model factorization read
    # one QR of [V, E_0, M^alpha V], and no other QR has big_dim rows
    shapes, qr = [], np.linalg.qr

    def counted_qr(a, *args, **kwargs):
        shapes.append(np.shape(a))
        return qr(a, *args, **kwargs)

    monkeypatch.setattr(np.linalg, "qr", counted_qr)
    calls = record_calls(monkeypatch, {"build_dilation": model.build_dilation})
    raw = json.loads((CONFIGS / "drury_arveson_pair.json").read_text())
    raw.pop("output")
    report = cli.run(cli.parse_config(raw, base_dir=str(CONFIGS)))
    assert [(s["name"], s["outcome"]) for s in report["suites"]] == [
        (name, "pass") for name in cli.SUITE_CHAIN]
    [v] = calls["build_dilation"]
    assert [s for s in shapes if s[0] == v.big_dim] == [(v.big_dim, v.span.r.shape[1])]
