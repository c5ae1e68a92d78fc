import json
import math
import os
import stat
import subprocess
import sys

import numpy as np
import pytest

import fdvi.cli
import fdvi.fuzzy
from fdvi.cli import main
from fdvi.config import apply_overrides, build_problem, example_config, load_config
from fdvi.errors import ConfigError
from fdvi.fractional import GridFunction
from fdvi.hypotheses import SamplingDomain, verify
from fdvi.problem import SolverConfig
from fdvi.solver import SolutionBundle, read_solution_csv


@pytest.fixture()
def config_path(tmp_path):
    doc = example_config()
    # keep CLI runs fast: coarse grid, light sampling
    doc["solver"]["N"] = 200
    doc["sampling"]["y_samples"] = 512
    path = tmp_path / "problem.json"
    path.write_text(json.dumps(doc))
    return str(path)


# --- validation ---------------------------------------------------------------


def test_example_config_builds():
    problem = build_problem(example_config())
    assert problem.spec.q == 1.6 and problem.spec.T == 0.7
    assert problem.spec.n == 1 and problem.spec.m == 2
    assert problem.solver.N == 1000
    assert problem.claimed["eta_Q"] == pytest.approx(5 * math.pi / 2)


def test_reject_order_out_of_range():
    doc = example_config()
    doc["q"] = 2.5
    with pytest.raises(ConfigError) as err:
        build_problem(doc)
    assert err.value.pointer == "/q"
    assert "(1, 2]" in str(err.value)


def test_reject_unknown_keys():
    doc = example_config()
    doc["frobnicate"] = 1
    with pytest.raises(ConfigError) as err:
        build_problem(doc)
    assert err.value.pointer == "/frobnicate"
    doc = example_config()
    doc["solver"]["speed"] = 11
    with pytest.raises(ConfigError) as err:
        build_problem(doc)
    assert err.value.pointer == "/solver/speed"


def test_reject_claimed_names_that_are_not_sampled(tmp_path):
    doc = example_config()
    doc["claimed"] = {"eta_q": 7.85}
    with pytest.raises(ConfigError) as err:
        build_problem(doc)
    assert err.value.pointer == "/claimed/eta_q"
    path = tmp_path / "typo.json"
    path.write_text(json.dumps(doc))
    assert main(["verify", "--config", str(path), "--out", str(tmp_path / "r.json")]) == 1
    assert not (tmp_path / "r.json").exists()


def test_reject_dimension_mismatches():
    doc = example_config()
    doc["Q"] = ["1"]  # m = 2 expected
    with pytest.raises(ConfigError) as err:
        build_problem(doc)
    assert err.value.pointer == "/Q"
    doc = example_config()
    doc["S"]["M"] = [[3.0]]
    with pytest.raises(ConfigError):
        build_problem(doc)


def test_reject_bad_expression_with_pointer():
    doc = example_config()
    doc["c1"] = ["1.2*sin(y7)"]
    with pytest.raises(ConfigError) as err:
        build_problem(doc)
    assert err.value.pointer == "/c1/0"


def test_infinite_box_bounds_parse():
    doc = example_config()
    problem = build_problem(doc)
    assert np.all(np.isinf(problem.spec.K.hi))
    doc["K"]["hi"] = [1.0, "inf"]
    problem = build_problem(doc)
    assert problem.spec.K.hi[0] == 1.0 and math.isinf(problem.spec.K.hi[1])


def test_anchor_must_be_feasible():
    doc = example_config()
    doc["anchor_u0"] = [-1.0, 0.0]
    with pytest.raises(ConfigError) as err:
        build_problem(doc)
    assert err.value.pointer == "/anchor_u0"


def test_omitted_sections_take_the_dataclass_defaults():
    doc = example_config()
    for key in ("solver", "sampling", "selection", "claimed"):
        del doc[key]
    problem = build_problem(doc)
    assert problem.solver == SolverConfig()
    dom = problem.sampling
    assert dom.y_box_lo.tolist() == [-10.0] and dom.y_box_hi.tolist() == [10.0]
    default = SamplingDomain(dom.y_box_lo, dom.y_box_hi)
    assert (dom.t_samples, dom.y_samples, dom.seed) == (default.t_samples, default.y_samples, default.seed)
    assert problem.selection.lam.tolist() == [0.0]
    assert problem.claimed == {}


def _edited(path, value):
    """The example config with the value at path (a tuple of keys) replaced."""
    if not path:
        return value
    doc = example_config()
    target = doc
    for key in path[:-1]:
        target = target[key]
    target[path[-1]] = value
    return doc


@pytest.mark.parametrize("path, value, pointer", [
    ((), [], "/"),
    (("S",), [[3.0, 0.0], [0.0, 3.0]], "/S"),
    (("fuzzy", 0, "a"), 0.25, "/fuzzy/0"),  # a > b
    (("solver", "N"), 4, "/solver"),
    (("solver", "N"), 1.5, "/solver/N"),
    (("sampling", "y_samples"), 1, "/sampling"),
    (("sampling", "y_box"), {"lo": [-1.0]}, "/sampling/y_box"),
    (("selection", "lambda"), [1.5], "/selection/lambda"),
    (("claimed",), ["eta_Q"], "/claimed"),
    # JSON's NaN and Infinity literals are numbers to Python, but no config number may be one
    (("T",), math.inf, "/T"),
    (("T",), 10**400, "/T"),  # an int beyond the float range
    (("solver", "vi_tol"), math.nan, "/solver/vi_tol"),
    (("solver", "picard_tol"), math.nan, "/solver/picard_tol"),
    (("K", "lo", 0), math.nan, "/K/lo/0"),
    (("claimed", "eta_Q"), math.nan, "/claimed/eta_Q"),
    (("K", "hi", 0), -1.0, "/K"),  # lo > hi
    (("sampling", "t_samples"), 2.5, "/sampling/t_samples"),
    (("sampling", "y_box", "lo", 0), math.nan, "/sampling/y_box/lo/0"),
    (("sampling", "y_box", "hi", 0), math.inf, "/sampling/y_box/hi/0"),
    (("sampling", "seed"), -1, "/sampling"),
    (("sampling", "seed"), 2**64, "/sampling"),
    (("sampling", "seed"), 2.5, "/sampling/seed"),
    (("n",), 0, "/n"),
    (("m",), 0, "/m"),
    (("c1", 0), "2*1e999", "/c1/0"),  # a literal beyond the float range
    (("T",), 0.0, "/T"),
    (("alpha",), 1.5, "/alpha"),
    ((), {k: v for k, v in example_config().items() if k != "q"}, "/q"),  # a required key is missing
    (("fuzzy",), [], "/fuzzy"),
    (("fuzzy", 0, "d"), 0.75, "/fuzzy/0/d"),  # the example's number is triangular
    (("fuzzy", 0, "type"), "gaussian", "/fuzzy/0/type"),
    (("g",), [], "/g"),
    (("K", "type"), "ball", "/K/type"),
    (("K", "lo"), [0.0], "/K"),
    (("Q", 0), 1.0, "/Q/0"),
    (("anchor_u0",), [0.0], "/anchor_u0"),
    (("sampling", "y_box"), {"lo": [-1e308], "hi": [1e308]}, "/sampling"),  # hi - lo overflows
])
def test_config_errors_point_at_the_offending_value(path, value, pointer):
    with pytest.raises(ConfigError) as err:
        build_problem(_edited(path, value))
    assert err.value.pointer == pointer


def test_infinite_box_bounds_accept_json_infinity():
    doc = _edited(("K", "hi"), [math.inf, "inf"])
    doc["K"]["lo"] = [-math.inf, "-inf"]
    doc["anchor_u0"] = [-1.0, 0.0]
    problem = build_problem(json.loads(json.dumps(doc)))
    assert problem.spec.K.lo.tolist() == [-math.inf, -math.inf]
    assert problem.spec.K.hi.tolist() == [math.inf, math.inf]


def test_claims_keep_their_order_in_the_report_flags():
    doc = example_config()
    doc["sampling"].update(t_samples=8, y_samples=256)
    # neither the order of SAMPLED_CONSTANTS nor sorted order
    doc["claimed"] = {"eta_g": 0.0, "p_sup": 0.0, "M1": 0.0}
    problem = build_problem(doc)
    report = verify(problem.spec, problem.sampling, claimed=problem.claimed)
    assert [flag.split()[1] for flag in report.flags] == ["eta_g", "p_sup", "M1"]


def test_overrides():
    doc = example_config()
    out = apply_overrides(doc, ["solver.N=50", "alpha=0.25"])
    assert out["solver"]["N"] == 50 and out["alpha"] == 0.25
    assert doc["solver"]["N"] == 1000  # original untouched
    with pytest.raises(ConfigError):
        apply_overrides(doc, ["solver.bogus=1"])
    with pytest.raises(ConfigError):
        apply_overrides(doc, ["no-equals-sign"])
    with pytest.raises(ConfigError) as err:
        apply_overrides(doc, ["fuzzy.3.scale=1"])  # the example has one fuzzy component
    assert err.value.pointer == "/fuzzy/3/scale"


def test_malformed_json_reported(tmp_path):
    path = tmp_path / "bad.json"
    path.write_text("{ not json")
    with pytest.raises(ConfigError):
        load_config(path)


def test_unreadable_config_reported(tmp_path):
    with pytest.raises(ConfigError, match="cannot read config") as err:
        load_config(tmp_path)  # a directory
    assert err.value.pointer == "/"


# --- CLI ------------------------------------------------------------------------


def test_cli_solve_writes_artifacts(tmp_path, config_path):
    out = tmp_path / "out"
    rc = main(["solve", "--config", config_path, "--out", str(out)])
    assert rc == 0
    y, u, f = read_solution_csv(out / "solution.csv")
    assert y.grid.N == 200
    diag = json.loads((out / "solution_diagnostics.json").read_text())
    assert diag["converged"] and diag["N"] == 200


def test_cli_solve_override_recorded(tmp_path, config_path):
    out = tmp_path / "out"
    rc = main(["solve", "--config", config_path, "--out", str(out), "--override", "solver.N=50"])
    assert rc == 0
    diag = json.loads((out / "solution_diagnostics.json").read_text())
    assert diag["N"] == 50


def test_cli_solve_rejects_bad_config(tmp_path, config_path):
    out = tmp_path / "out"
    rc = main(["solve", "--config", config_path, "--out", str(out), "--override", "q=2.5"])
    assert rc == 1


def test_cli_solve_nonconvergence_exit_code(tmp_path, config_path):
    out = tmp_path / "out"
    rc = main(["solve", "--config", config_path, "--out", str(out),
               "--override", "solver.max_picard=1"])
    assert rc == 2


@pytest.mark.filterwarnings("error::RuntimeWarning")
def test_cli_solve_blowup_exit_code(tmp_path):
    # c1 = y1^2 from y0 = 4 overflows (see test_picard_nonfinite_blowup_detected);
    # overrides cannot add solver.y0, so the config is written out whole
    doc = example_config()
    doc["c1"] = ["y1*y1"]
    doc["solver"]["y0"] = [4]
    doc["solver"]["N"] = 200
    path = tmp_path / "blowup.json"
    path.write_text(json.dumps(doc))
    rc = main(["solve", "--config", str(path), "--out", str(tmp_path / "out")])
    assert rc == 2


@pytest.mark.parametrize("command, horizon, code", [
    (["verify", "--out", "report.json"], "1e200", 3),
    (["solve", "--out", "out"], "1e200", 2),
    (["band", "--out", "band", "--alpha", "1", "--lambda=0"], "1e200", 2),
    (["solve", "--out", "out"], "1e300", 2),  # h^q overflows in the quadrature weights too
])
def test_cli_overflowing_horizon_power_reads_as_inf(tmp_path, config_path, capsys, command, horizon, code):
    # T^q is beyond the float range: rho = inf fails the contraction, and a
    # sweep's overflow is a NonfiniteValue, not a traceback
    argv = [command[0], "--config", config_path, "--override", f"T={horizon}", *command[1:]]
    argv[argv.index("--out") + 1] = str(tmp_path / argv[argv.index("--out") + 1])
    if command[0] == "verify":
        assert main(argv) == code
        assert "rho = inf" in capsys.readouterr().out
    else:
        with pytest.warns(UserWarning, match="rho = inf"):
            assert main(argv) == code
        assert "non-finite values while applying the operator at sweep 1" in capsys.readouterr().err


_CYCLE4 = "3,-1,0,-1;-1,3,-1,0;0,-1,3,-1;-1,0,-1,3"  # I + the 4-cycle Laplacian: mu = 1, ||M||_2 = 5


def test_cli_solve_cycle_operator_on_the_whole_space(tmp_path):
    # every node VI contracts only if its step mu / L^2 uses the exact ||M||_2 = 5
    doc = example_config()
    doc.update(m=4, g=[["1.2*sin(t)", "-2.5*cos(y1)", "0", "0"]],
               Q=["atan(y1) + 2*pi", "-1.4*exp(-t)", "0", "0"],
               S={"M": [[float(v) for v in row.split(",")] for row in _CYCLE4.split(";")], "b": [0.0] * 4},
               K={"type": "box", "lo": ["-inf"] * 4, "hi": ["inf"] * 4}, anchor_u0=[0.0] * 4)
    doc["solver"]["N"] = 64
    path = tmp_path / "cycle.json"
    path.write_text(json.dumps(doc))
    out = tmp_path / "out"
    assert main(["solve", "--config", str(path), "--out", str(out)]) == 0
    diag = json.loads((out / "solution_diagnostics.json").read_text())
    assert diag["converged"] and diag["N"] == 64


@pytest.mark.parametrize("override", ["solver.vi_tol=NaN", "solver.picard_tol=NaN", "fuzzy.0.scale=2*1e999"])
def test_cli_nan_override_is_config_error(tmp_path, config_path, override, capsys):
    rc = main(["solve", "--config", config_path, "--out", str(tmp_path / "out"), "--override", override])
    assert rc == 1
    assert f"/{override.split('=')[0].replace('.', '/')}:" in capsys.readouterr().err


def test_cli_solve_and_band_warn_on_sampled_rho(tmp_path, config_path):
    # the field is flat on [-5, 5] and steep beyond it, so only an estimate
    # over the configured sampling box ([-1000, 1000]) sees rho = 1.19 >= 1
    args = ["--config", config_path, "--override", "fuzzy.0.scale=3*max(y1 - 5, 0)"]
    with pytest.warns(UserWarning, match=r"rho = 1\.1\d* >= 1"):
        assert main(["solve", "--out", str(tmp_path / "solve"), *args]) == 0
    with pytest.warns(UserWarning, match=r"rho = 1\.1\d* >= 1"):
        assert main(["band", "--out", str(tmp_path / "band"), "--alpha", "1", "--lambda=0", *args]) == 0


def test_rho_warning_evaluates_at_most_2048_slope_rows(tmp_path, config_path, monkeypatch):
    rows = []
    slope = fdvi.fuzzy.FuzzyBoxField.slope

    def counted(self, ts, ys):
        out = slope(self, ts, ys)
        rows.append(out.size)
        return out

    monkeypatch.setattr(fdvi.fuzzy.FuzzyBoxField, "slope", counted)
    assert main(["solve", "--config", config_path, "--out", str(tmp_path / "out")]) == 0
    assert 0 < sum(rows) <= 2048


@pytest.mark.parametrize("scale, error", [("sqrt(y1 + 1)", "sqrt of a negative value"),
                                          ("0.1*exp(y1)", "overflow encountered in exp")])
def test_rho_warning_that_cannot_evaluate_the_field_does_not_abort_the_solve(tmp_path, config_path, scale, error):
    # the field is undefined (or overflows) on part of the sampling box [-1000, 1000],
    # but not where the trajectory goes
    args = ["--config", config_path, "--override", f"fuzzy.0.scale={scale}",
            "--override", 'c1=["1.2*sin(y1) + 2"]']
    match = f"could not estimate the contraction constant rho on the sampling box: {error}"
    with pytest.warns(UserWarning, match=match):
        assert main(["solve", "--out", str(tmp_path / "solve"), *args]) == 0
    with pytest.warns(UserWarning, match=match):
        assert main(["band", "--out", str(tmp_path / "band"), "--alpha", "1", "--lambda=0", *args]) == 0
    # verify needs every constant on the whole box
    assert main(["verify", "--out", str(tmp_path / "report.json"), *args]) == 1


def test_cli_verify_fails_a_field_that_is_not_lipschitz(tmp_path, config_path):
    # sqrt(y1) has no finite slope at y1 = 0; the grid's states are drawn from
    # [0, 1), so the polish must reach the box's end to see it
    report_path = tmp_path / "report.json"
    args = ["verify", "--config", config_path, "--out", str(report_path), "--override", "fuzzy.0.scale=sqrt(y1)",
            "--override", "sampling.y_box.lo=[0]", "--override", "sampling.y_box.hi=[1]"]
    assert main(args) == 3
    report = json.loads(report_path.read_text())
    assert report["constants"]["L_F"] == math.inf
    assert report["verdicts"]["A1_lipschitz_field"] == {"pass": False, "L_F": math.inf}
    assert report["verdicts"]["contraction"] == {"pass": False, "rho": math.inf}
    assert report["delta"] is None and not report["overall_pass"]
    assert report["witnesses"]["L_F"]["y"] == [0.0]
    again = tmp_path / "again.json"
    assert main([*args[:4], str(again), *args[5:]]) == 3
    assert again.read_bytes() == report_path.read_bytes()


def test_retired_pair_samples_key_is_accepted_and_ignored(tmp_path):
    doc = example_config()
    doc["sampling"].update(t_samples=8, y_samples=256)
    plain = tmp_path / "plain.json"
    plain.write_text(json.dumps(doc))
    doc["sampling"]["pair_samples"] = 5000
    with_pairs = tmp_path / "pairs.json"
    with_pairs.write_text(json.dumps(doc))
    reports = [tmp_path / "plain_report.json", tmp_path / "pairs_report.json"]
    for config, report in zip((plain, with_pairs), reports):
        assert main(["verify", "--config", str(config), "--out", str(report)]) == 0
    assert reports[0].read_bytes() == reports[1].read_bytes()
    assert "pair_samples" not in json.loads(reports[0].read_text())["sampling"]


def test_cli_failed_write_leaves_no_temp_file(tmp_path, config_path, monkeypatch, capsys):
    def failing_write(self, path):
        with open(path, "w") as fh:
            fh.write("t,y1\n")
        raise OSError("disk full")

    monkeypatch.setattr(SolutionBundle, "write_csv", failing_write)
    out = tmp_path / "out"
    assert main(["solve", "--config", config_path, "--out", str(out)]) == 1
    assert "error: disk full" in capsys.readouterr().err
    assert list(out.iterdir()) == []


def test_cli_output_path_errors_exit_1(tmp_path, config_path, capsys):
    taken_dir = tmp_path / "taken_dir"
    taken_dir.mkdir()
    assert main(["verify", "--config", config_path, "--out", str(taken_dir)]) == 1
    assert "error:" in capsys.readouterr().err
    taken_file = tmp_path / "taken_file"
    taken_file.write_text("")
    assert main(["solve", "--config", config_path, "--out", str(taken_file)]) == 1
    assert "error:" in capsys.readouterr().err


def test_cli_verify_into_a_directory_fails_before_sampling(tmp_path, config_path, monkeypatch, capsys):
    def must_not_run(*args, **kwargs):
        raise AssertionError("verify ran although its report path is a directory")

    monkeypatch.setattr(fdvi.cli, "verify", must_not_run)
    taken_dir = tmp_path / "taken_dir"
    taken_dir.mkdir()
    assert main(["verify", "--config", config_path, "--out", str(taken_dir)]) == 1
    err = capsys.readouterr().err
    assert str(taken_dir) in err and ".tmp-" not in err


_BAND = ["band", "--alpha", "0,1", "--lambda=0"]


@pytest.mark.parametrize("command, taken", [
    (["solve"], "solution.csv"),
    (["solve"], "solution_diagnostics.json"),
    (_BAND, "band_alpha1_lambda0.csv"),
    (_BAND, "band_alpha0_lambda0_diagnostics.json"),
    (_BAND, "envelope.csv"),
    (_BAND, "band_runs.json"),
    (["example"], "solution.csv"),
    (["example"], "band/envelope.csv"),
])
def test_cli_output_name_that_is_a_directory_fails_before_solving(tmp_path, config_path, monkeypatch,
                                                                  capsys, command, taken):
    def must_not_run(*args, **kwargs):
        raise AssertionError("the work ran although an output name is a directory")

    for name in ("picard_solve", "solve_band", "verify"):
        monkeypatch.setattr(fdvi.cli, name, must_not_run)
    out = tmp_path / "out"
    (out / taken).mkdir(parents=True)
    config = [] if command == ["example"] else ["--config", config_path]
    assert main([*command, *config, "--out", str(out)]) == 1
    err = capsys.readouterr().err
    assert str(out / taken) in err and ".tmp-" not in err


def test_atomic_write_names_the_target_path(tmp_path):
    target = tmp_path / "taken"
    target.mkdir()
    with pytest.raises(IsADirectoryError) as info:  # the move onto a directory fails
        fdvi.cli._atomic_write(str(target), lambda tmp: open(tmp, "w").close())
    assert info.value.filename == str(target) and ".tmp-" not in str(info.value)
    assert list(tmp_path.iterdir()) == [target]


def test_python_dash_m_runs_the_cli():
    src = os.path.dirname(os.path.dirname(fdvi.cli.__file__))
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
    done = subprocess.run([sys.executable, "-m", "fdvi", "--help"], env=env, capture_output=True, text=True)
    assert done.returncode == 0
    assert "usage: fdvi" in done.stdout


def test_cli_verify_pass_and_fail(tmp_path, config_path):
    report_path = tmp_path / "report.json"
    rc = main(["verify", "--config", config_path, "--out", str(report_path)])
    assert rc == 0
    report = json.loads(report_path.read_text())
    assert report["overall_pass"] and abs(report["rho"] - 0.3953) < 5e-4
    assert any("eta_Q" in f for f in report["flags"])
    # scale up the fuzzy field: rho > 1, hypotheses fail, exit 3
    rc = main(["verify", "--config", config_path, "--out", str(report_path),
               "--override", "fuzzy.0.scale=10*cos(y1)"])
    assert rc == 3
    report = json.loads(report_path.read_text())
    assert report["rho"] > 1.0


def test_cli_verify_malformed_json_exit_1(tmp_path):
    bad = tmp_path / "bad.json"
    bad.write_text("{")
    rc = main(["verify", "--config", str(bad), "--out", str(tmp_path / "r.json")])
    assert rc == 1


@pytest.mark.parametrize("q, failing", [
    (["log(t)", "log(y1)"], "log(t)"),
    (["log(y1)", "log(t)"], "log(y1)"),
    (["log(t*y1) + 1", "log(t)"], "log(t * y1)"),
    (["log(t)", "log(t*y1) + 1"], "log(t)"),
])
def test_cli_verify_names_the_first_failing_q_entry(tmp_path, capsys, q, failing):
    # both entries fail on the sampling grid, which holds t = 0 and states <= 0;
    # the error names the first in order, whether or not the sum is separable
    doc = example_config()
    doc["Q"] = q
    path = tmp_path / "problem.json"
    path.write_text(json.dumps(doc))
    assert main(["verify", "--config", str(path), "--out", str(tmp_path / "r.json")]) == 1
    errors = [line for line in capsys.readouterr().err.splitlines() if line.startswith("error:")]
    assert errors == [f"error: log of a nonpositive value in subexpression {failing}"]


def test_cli_verify_creates_report_directory(tmp_path, config_path):
    report_path = tmp_path / "a" / "b" / "report.json"
    rc = main(["verify", "--config", config_path, "--out", str(report_path)])
    assert rc == 0
    assert json.loads(report_path.read_text())["overall_pass"]


def test_cli_verify_report_layout(tmp_path, config_path):
    report_path = tmp_path / "report.json"
    assert main(["verify", "--config", config_path, "--out", str(report_path)]) == 0
    report = json.loads(report_path.read_text())
    assert set(report) == {"constants", "rho", "delta", "expected_sup_norm_bound", "verdicts",
                           "overall_pass", "witnesses", "flags", "sampling", "norms"}
    sampled = {"L_F", "p_sup", "eta_g", "eta_Q", "M1", "M2"}
    assert set(report["constants"]) == sampled | {"M0", "mu", "coercive_liminf", "eta_S"}
    assert set(report["witnesses"]) == sampled | {"M0"}
    assert all(set(report["witnesses"][name]) == {"t", "y"} for name in sampled)
    assert set(report["witnesses"]["M0"]) == {"t"}
    assert {name: set(v) for name, v in report["verdicts"].items()} == {
        "A1_lipschitz_field": {"pass", "L_F"},
        "A2_measurability": {"pass", "note"},
        "A3_field_bound": {"pass", "p_sup"},
        "A4_g_bound": {"pass", "eta_g"},
        "A5_Q_bound": {"pass", "eta_Q"},
        "A6_coercivity": {"pass", "monotone", "mu", "liminf_quotient"},
        "contraction": {"pass", "rho"},
    }
    assert set(report["norms"]) == set(report["constants"])


def test_cli_band(tmp_path, config_path):
    out = tmp_path / "band"
    rc = main(["band", "--config", config_path, "--out", str(out),
               "--alpha", "0,1", "--lambda=-1,1"])
    assert rc == 0
    files = sorted(p.name for p in out.glob("*.csv"))
    assert "envelope.csv" in files
    assert len([f for f in files if f.startswith("band_")]) == 4
    status = json.loads((out / "band_runs.json").read_text())
    assert len(status) == 4 and all(s["converged"] for s in status)


def test_cli_band_reports_failed_runs_and_envelopes_the_rest(tmp_path, config_path, capsys):
    # with a steep field the lambda = -1 and +1 runs at alpha = 0 take 16 and 13 sweeps, the rest 9
    out = tmp_path / "band"
    with pytest.warns(UserWarning, match=r"rho = 15\.8"):
        rc = main(["band", "--config", config_path, "--out", str(out), "--alpha", "0,1",
                   "--lambda=-1,0,1", "--override", "fuzzy.0.scale=40*cos(y1)",
                   "--override", "solver.max_picard=12"])
    assert rc == 2
    status = json.loads((out / "band_runs.json").read_text())
    failed = [(s["alpha"], s["lambda"]) for s in status if not s["converged"]]
    assert failed == [(0.0, [-1.0]), (0.0, [1.0])]
    for s in status:
        assert ("error" in s) != s["converged"] and ("csv" in s) == s["converged"]
        assert s["converged"] or "MaxPicardExceeded" in s["error"]
    assert not (out / "band_alpha0_lambda-1.csv").exists() and not (out / "band_alpha0_lambda1.csv").exists()
    err = capsys.readouterr().err
    assert "run alpha=0 lambda=-1 failed" in err and "run alpha=0 lambda=1 failed" in err
    ys = np.stack([read_solution_csv(out / s["csv"])[0].values for s in status if s["converged"]])
    assert len(ys) == 4
    envelope = GridFunction.read_csv(out / "envelope.csv").values
    assert np.array_equal(envelope, np.column_stack([ys.min(axis=0), ys.max(axis=0)]))


def test_cli_band_empty_alpha_is_usage_error(tmp_path, config_path):
    rc = main(["band", "--config", config_path, "--out", str(tmp_path / "b"),
               "--alpha", "", "--lambda=0"])
    assert rc == 1


@pytest.mark.parametrize("alphas, lambdas, message", [
    ("0", "0,x", "bad lambda list '0,x'"),
    ("1.5", "0", "alpha 1.5 outside [0, 1]"),
    ("0", "-2", "lambda -2.0 outside [-1, 1]"),
])
def test_cli_band_bad_level_or_selection_is_config_error(tmp_path, config_path, capsys, alphas, lambdas, message):
    out = tmp_path / "band"
    assert main(["band", "--config", config_path, "--out", str(out),
                 "--alpha", alphas, f"--lambda={lambdas}"]) == 1
    assert message in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("alphas, lambdas", [
    ("0.1234561,0.1234562", "1"),  # equal to 6 significant digits
    ("1", "0.5,0.5"),  # exact duplicate
    ("0,1,0", "0"),
])
def test_cli_band_colliding_output_names_is_config_error(tmp_path, config_path, capsys, alphas, lambdas):
    # two runs writing one CSV would leave band_runs.json pointing both at the survivor
    out = tmp_path / "band"
    assert main(["band", "--config", config_path, "--out", str(out),
                 "--alpha", alphas, f"--lambda={lambdas}"]) == 1
    assert "would both write" in capsys.readouterr().err
    assert not out.exists()


def test_cli_band_single_pair_matches_solve(tmp_path, config_path):
    out_b = tmp_path / "band"
    out_s = tmp_path / "solve"
    assert main(["band", "--config", config_path, "--out", str(out_b),
                 "--alpha", "1", "--lambda=0"]) == 0
    assert main(["solve", "--config", config_path, "--out", str(out_s)]) == 0
    band_csv = (out_b / "band_alpha1_lambda0.csv").read_bytes()
    solve_csv = (out_s / "solution.csv").read_bytes()
    assert band_csv == solve_csv


def test_cli_csvs_read_back_bit_exactly(tmp_path, config_path):
    # the solve's, every band run's and the envelope's CSV, read and written again
    assert main(["solve", "--config", config_path, "--out", str(tmp_path / "solve")]) == 0
    assert main(["band", "--config", config_path, "--out", str(tmp_path / "band"),
                 "--alpha", "0,1", "--lambda=-1,1"]) == 0
    solution = tmp_path / "solve" / "solution.csv"
    paths = [solution, *sorted((tmp_path / "band").glob("*.csv"))]
    assert [p.name for p in paths[-2:]] == ["band_alpha1_lambda1.csv", "envelope.csv"]
    again = tmp_path / "again.csv"
    for path in paths:
        columns = path.read_text().splitlines()[0].split(",")[1:]
        GridFunction.read_csv(path).to_csv(again, columns)
        assert again.read_bytes() == path.read_bytes(), path.name
    y, u, f = read_solution_csv(solution)
    SolutionBundle(y, u, f, alpha=1.0, lam=np.zeros(y.dim), diagnostics={}).write_csv(again)
    assert again.read_bytes() == solution.read_bytes()


def test_cli_vi_closed_form(capsys):
    rc = main(["vi", "--w", f"{2 * math.pi},-1.4", "--M", "3,0;0,3", "--b", "0,0",
               "--K-lo", "0,0", "--K-hi", "inf,inf"])
    assert rc == 0
    payload = json.loads(capsys.readouterr().out)
    assert abs(payload["u"][0]) < 1e-12
    assert abs(payload["u"][1] - 1.4 / 3.0) < 1e-9
    assert payload["residual"] <= 1e-10


def test_cli_vi_cycle_operator_on_the_whole_space(capsys):
    rc = main(["vi", "--w", "1,0,0,0", "--M", _CYCLE4, "--b", "0,0,0,0",
               "--K-lo=-inf,-inf,-inf,-inf", "--K-hi", "inf,inf,inf,inf"])
    assert rc == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["residual"] <= 1e-10


def test_cli_vi_trivial_zero(capsys):
    rc = main(["vi", "--w", "1,1", "--M", "1,0;0,1", "--b", "0,0",
               "--K-lo", "0,0", "--K-hi", "inf,inf"])
    assert rc == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["u"] == [0.0, 0.0]


def test_cli_vi_non_monotone_exit_3():
    rc = main(["vi", "--w", "1,1", "--M=-1,0;0,-1", "--b", "0,0",
               "--K-lo", "0,0", "--K-hi", "inf,inf"])
    assert rc == 3


def test_cli_vi_no_solution_exit_2(capsys):
    rc = main(["vi", "--w", "1,0", "--M", "0,0;0,0", "--b", "0,0",
               "--K-lo=-inf,-inf", "--K-hi", "inf,inf"])
    assert rc == 2
    assert capsys.readouterr().err.startswith("did not converge: 12 proximal steps")


@pytest.mark.parametrize("lo, hi, code", [("-1,-1", "1,1", 0), ("-inf,-inf", "inf,inf", 2)])
def test_cli_vi_with_mu_slightly_below_zero(capsys, lo, hi, code):
    # mu = -1e-11 passes the monotonicity tolerance; no proximal shift may cancel it
    rc = main(["vi", "--w", "0.5,-0.25", "--M=-1e-11,0;0,-1e-11", "--b", "0,0", f"--K-lo={lo}", "--K-hi", hi])
    assert rc == code
    out, err = capsys.readouterr()
    if code == 0:
        payload = json.loads(out)
        assert payload["u"] == [-1.0, 1.0] and payload["residual"] == 0.0
    else:
        assert err.startswith("did not converge: 12 proximal steps")


def test_cli_vi_dimension_error_exit_1():
    rc = main(["vi", "--w", "1,1,1", "--M", "1,0;0,1", "--b", "0,0",
               "--K-lo", "0,0", "--K-hi", "inf,inf"])
    assert rc == 1


@pytest.mark.parametrize("m, named", [("1,2;3", "M row 2 '3' has 1 entries, expected 2"),
                                      ("1;2,3", "M row 1 '1' has 1 entries, expected 2")])
def test_cli_vi_ragged_matrix_names_the_short_row(capsys, m, named):
    rc = main(["vi", "--w", "1,1", "--M", m, "--b", "0,0", "--K-lo=-1,-1", "--K-hi", "1,1"])
    assert rc == 1
    assert capsys.readouterr().err == f"config error: /: {named}\n"


@pytest.mark.parametrize("flags", [
    ["--w", "nan,1", "--M", "3,0;0,3", "--b", "0,0", "--K-lo", "0,0"],
    ["--w", "1,1", "--M", "3,0;0,nan", "--b", "0,0", "--K-lo", "0,0"],
    ["--w", "inf,1", "--M", "3,0;0,3", "--b", "0,0", "--K-lo", "0,0"],
    ["--w", "1,1", "--M", "3,0;0,3", "--b", "0,-inf", "--K-lo", "0,0"],
    ["--w", "1,1", "--M", "3,0;0,3", "--b", "0,0", "--K-lo", "0,nan"],
])
def test_cli_vi_nonfinite_data_exit_1(flags):
    assert main(["vi", *flags, "--K-hi", "inf,inf"]) == 1


@pytest.mark.parametrize("tol", ["nan", "inf"])
def test_cli_vi_nonfinite_tol_exit_1(tol):
    # rejected before iterating; NaN used to pass the positivity check and spin max_iter
    assert main(["vi", "--w", "1,-1", "--M", "3,0;0,3", "--b", "0,0",
                 "--K-lo", "0,0", "--K-hi", "inf,inf", "--tol", tol]) == 1


@pytest.mark.parametrize("doc, pointer", [
    ([1], "/"),
    ({**example_config(), "sampling": [1]}, "/sampling"),
])
def test_cli_seed_with_non_object_container_is_config_error(tmp_path, capsys, doc, pointer):
    path = tmp_path / "problem.json"
    path.write_text(json.dumps(doc))
    rc = main(["verify", "--config", str(path), "--out", str(tmp_path / "r.json"), "--seed", "3"])
    assert rc == 1
    assert f"config error: {pointer}:" in capsys.readouterr().err


@pytest.mark.parametrize("seed", ["-1", "18446744073709551616"])
def test_cli_seed_outside_the_key_range_is_config_error(tmp_path, config_path, capsys, seed):
    report = tmp_path / "r.json"
    assert main(["verify", "--config", config_path, "--out", str(report), "--seed", seed]) == 1
    assert "config error: /sampling: seed must be an integer in [0, 2^64)" in capsys.readouterr().err
    assert not report.exists()


def test_cli_usage_error():
    assert main(["solve"]) == 1  # missing required flags
    assert main(["bogus-subcommand"]) == 1


@pytest.mark.parametrize("command, extra", [
    ("solve", []),
    ("band", ["--alpha", "1", "--lambda=0"]),
    ("verify", []),
])
def test_cli_config_commands_take_the_shared_options(command, extra):
    parser = fdvi.cli._build_parser()
    args = parser.parse_args([command, "--out", "out", *extra, "--config", "c.json",
                              "--override", "solver.N=50", "--override", "alpha=0.5", "--seed", "7"])
    assert (args.config, args.override, args.seed) == ("c.json", ["solver.N=50", "alpha=0.5"], 7)
    args = parser.parse_args([command, "--out", "out", *extra, "--config", "c.json"])
    assert (args.override, args.seed) == (None, None)
    assert main([command, "--out", "out", *extra]) == 1  # --config is required


def test_cli_example_end_to_end(tmp_path):
    out = tmp_path / "example"
    rc = main(["example", "--out", str(out)])
    assert rc == 0
    report = json.loads((out / "report.json").read_text())
    assert report["overall_pass"]
    assert abs(report["rho"] - 0.3953) < 5e-4
    y, u, f = read_solution_csv(out / "solution.csv")
    assert y.grid.N == 1000
    nodes = y.grid.nodes
    assert np.max(np.abs(u.values[:, 0])) == 0.0
    assert np.max(np.abs(u.values[:, 1] - 1.4 / 3.0 * np.exp(-nodes))) <= 1e-8
    band_files = sorted(p.name for p in (out / "band").glob("band_*.csv"))
    assert len(band_files) == 9
    assert (out / "band" / "envelope.csv").exists()


def test_cli_example_warns_on_sampled_rho(tmp_path, monkeypatch):
    # example runs the same pre-solve check as solve and band
    monkeypatch.setattr(fdvi.cli, "estimate_field_lipschitz", lambda *args, **kwargs: 10.0)
    with pytest.warns(UserWarning, match=r"rho = \S+ >= 1"):
        assert main(["example", "--out", str(tmp_path / "example")]) == 0


def test_cli_outputs_get_the_mode_of_a_plain_open(tmp_path):
    out = tmp_path / "example"
    old_umask = os.umask(0o022)
    try:
        assert main(["example", "--out", str(out)]) == 0
        with open(out / "plain.txt", "w"):
            pass
    finally:
        os.umask(old_umask)
    plain_mode = stat.S_IMODE((out / "plain.txt").stat().st_mode)
    assert plain_mode == 0o644
    written = [p for p in out.rglob("*") if p.is_file() and p.name != "plain.txt"]
    assert len(written) > 20
    assert {p.name: stat.S_IMODE(p.stat().st_mode) for p in written} == {p.name: plain_mode for p in written}


def test_cli_determinism_byte_identical(tmp_path, config_path):
    out1, out2 = tmp_path / "a", tmp_path / "b"
    for out in (out1, out2):
        assert main(["solve", "--config", config_path, "--out", str(out)]) == 0
    assert (out1 / "solution.csv").read_bytes() == (out2 / "solution.csv").read_bytes()
    assert (out1 / "solution_diagnostics.json").read_bytes() == (out2 / "solution_diagnostics.json").read_bytes()
    r1, r2 = tmp_path / "r1.json", tmp_path / "r2.json"
    for r in (r1, r2):
        assert main(["verify", "--config", config_path, "--out", str(r)]) == 0
    assert r1.read_bytes() == r2.read_bytes()


def test_cli_band_determinism_byte_identical(tmp_path, config_path):
    outs = (tmp_path / "a", tmp_path / "b")
    for out in outs:
        assert main(["band", "--config", config_path, "--out", str(out), "--override", "solver.N=64",
                     "--alpha", "0,0.5,1", "--lambda=-1,0,1"]) == 0
    names = sorted(p.name for p in outs[0].iterdir())
    assert names == sorted(p.name for p in outs[1].iterdir())
    assert {"envelope.csv", "band_runs.json"} <= set(names)
    assert len([n for n in names if n.startswith("band_") and n.endswith(".csv")]) == 9
    for name in names:
        assert (outs[0] / name).read_bytes() == (outs[1] / name).read_bytes(), name
