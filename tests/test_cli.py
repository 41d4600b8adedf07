import copy
import errno
import importlib.util
import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

import mildsim
from mildsim import cli, kernels
from mildsim.cli import _model_and_initial, build_initial, main
from mildsim.config import EXPERIMENTS, ConfigError, apply_override, as_json, parse_config
from mildsim.grids import Grid


def _hjm_cfg():
    return {
        "experiment": "hjm",
        "grid": {"x_max": 1.0, "n_nodes": 201, "alpha": 0.5},
        "model": {
            "modes": [{"kind": "proportional-capped", "c": 8.0, "cap": 2e-4}],
            "initial": {"flat": 4e-4},
        },
        "run": {"dt": 5e-3, "t_final": 0.05, "n_paths": 10, "seed": 2026},
        "check": {"n_samples": 20, "seed": 1},
    }


def test_parse_config_accepts_valid():
    cfg = parse_config(_hjm_cfg(), "hjm")
    assert cfg.experiment == "hjm"


def test_parse_config_rejects_unknown_keys():
    bad = _hjm_cfg()
    bad["grid"]["xmax"] = 2.0
    with pytest.raises(ConfigError) as ei:
        parse_config(bad, "hjm")
    assert any("grid.xmax" in p for p in ei.value.problems)


def test_parse_config_rejects_wrong_types():
    bad = _hjm_cfg()
    bad["grid"]["n_nodes"] = 200.5
    with pytest.raises(ConfigError) as ei:
        parse_config(bad, "hjm")
    assert any("n_nodes" in p and "int" in p for p in ei.value.problems)


def test_parse_config_requires_sections():
    bad = _hjm_cfg()
    del bad["run"]
    with pytest.raises(ConfigError) as ei:
        parse_config(bad, "hjm")
    assert any("config.run" in p for p in ei.value.problems)


def test_parse_config_experiment_cross_check():
    with pytest.raises(ConfigError):
        parse_config(_hjm_cfg(), "simulate")
    no_exp = _hjm_cfg()
    del no_exp["experiment"]
    cfg = parse_config(no_exp, "hjm")
    assert cfg.experiment == "hjm"
    with pytest.raises(ConfigError):
        parse_config(no_exp, None)


def test_parse_config_mode_and_initial_shape():
    bad = _hjm_cfg()
    bad["model"]["modes"] = [{"c": 1.0}]
    bad["model"]["initial"] = {"flat": 0.01, "table": [1.0]}
    with pytest.raises(ConfigError) as ei:
        parse_config(bad, "hjm")
    msgs = "\n".join(ei.value.problems)
    assert "modes[0].kind" in msgs
    assert "exactly one of" in msgs


def test_parse_config_collects_all_problems():
    bad = _hjm_cfg()
    bad["grid"]["bogus"] = 1
    bad["run"]["dt"] = "fast"
    del bad["model"]
    with pytest.raises(ConfigError) as ei:
        parse_config(bad, "hjm")
    assert len(ei.value.problems) >= 3


def test_apply_override():
    cfg = _hjm_cfg()
    apply_override(cfg, "run.dt=0.001")
    assert cfg["run"]["dt"] == 0.001
    apply_override(cfg, "expect_verdict=inconclusive")
    assert cfg["expect_verdict"] == "inconclusive"
    apply_override(cfg, "model.alpha_in_drift=false")
    assert cfg["model"]["alpha_in_drift"] is False
    with pytest.raises(ConfigError):
        apply_override(cfg, "run.dt")
    with pytest.raises(ConfigError):
        apply_override(cfg, "run.dt.deeper=1")


def test_builders():
    cli._bind_run_names()  # the builders use the names a run binds
    # the hjm experiment reads no drift key: build_hjm makes its drift
    # (test_hjm), and they resolve to None and stay out of the manifest
    cfg = parse_config(_hjm_cfg(), "hjm")
    m = cfg.model
    assert (m.drift, m.drift_c, m.alpha_correction) == (None, None, None)
    assert {"drift", "drift_c", "alpha_correction"}.isdisjoint(as_json(cfg)["model"])
    # simulate reads them: the same model with the hjm drift given
    sim = _hjm_cfg()
    sim["experiment"] = "simulate"
    sim["model"].update(drift="hjm", alpha_correction=0.5)
    model, u0 = _model_and_initial(parse_config(sim))
    grid = model.grid
    assert grid.n == 201
    assert (model.drift, model.drift_c, model.alpha_correction) == ("hjm", 0.0, 0.5)
    assert u0.grid is grid
    assert np.all(u0.values == 4e-4)


def _hjm_model(**model):
    raw = _hjm_cfg()
    raw["model"].update(model)
    return parse_config(raw, "hjm")


def test_build_initial_forms():
    cli._bind_run_names()
    grid = Grid.uniform(1.0, 201, 0.5)
    cfg = _hjm_model(initial={"exp-decay": {"base": 0.02, "amp": 0.01, "decay": 2.0}})
    u = build_initial(cfg.model.initial, grid)
    assert u.values[0] == pytest.approx(0.03, rel=1e-15)
    cfg = _hjm_model(initial={"table": [0.01] * grid.n, "tail": 0.02})
    u2 = build_initial(cfg.model.initial, grid)
    assert u2.tail_value == 0.02
    with pytest.raises(ConfigError):
        _hjm_model(initial={"table": [0.01] * 5})
    no_initial = _hjm_cfg()
    del no_initial["model"]["initial"]
    with pytest.raises(ConfigError):
        parse_config(no_initial, "hjm")


def test_build_modes_table_mismatch():
    with pytest.raises(ConfigError) as ei:
        _hjm_model(modes=[{"kind": "custom", "table": [1.0, 2.0]}])
    assert ei.value.problems == ["model.modes[0].table: needs 201 values"]


def _write_cfg(tmp_path, cfg, name="run.json"):
    p = tmp_path / name
    p.write_text(json.dumps(cfg))
    return str(p)


def _reject(name):
    raise ValueError(f"manifest holds {name}, which is not JSON")


def _manifest(out):
    """The run's manifest.json, parsed strictly: NaN and Infinity raise."""
    return json.loads((out / "manifest.json").read_text(), parse_constant=_reject)


def test_cli_validate_only(tmp_path, capsys):
    path = _write_cfg(tmp_path, _hjm_cfg())
    assert main(["hjm", "--config", path, "--validate-only"]) == 0
    assert "config valid" in capsys.readouterr().out


def test_cli_invalid_config_exits_2(tmp_path, capsys):
    bad = _hjm_cfg()
    bad["grid"]["bogus"] = 1
    path = _write_cfg(tmp_path, bad)
    assert main(["hjm", "--config", path]) == 2
    assert "config error" in capsys.readouterr().err
    missing = str(tmp_path / "nope.json")
    assert main(["hjm", "--config", missing]) == 2
    garbled = tmp_path / "bad.json"
    garbled.write_text("{not json")
    assert main(["hjm", "--config", str(garbled)]) == 2


def test_cli_bad_override_exits_2(tmp_path, capsys):
    path = _write_cfg(tmp_path, _hjm_cfg())
    assert main(["hjm", "--config", path, "--set", "run.dt"]) == 2
    assert main(["hjm", "--config", path, "--set", "grid.n_nodes=10.5"]) == 2
    capsys.readouterr()


def test_cli_hjm_run_writes_artifacts(tmp_path, capsys):
    path = _write_cfg(tmp_path, _hjm_cfg())
    out = tmp_path / "out"
    assert main(["hjm", "--config", path, "--out", str(out)]) == 0
    manifest = _manifest(out)
    assert manifest["tool"] == "mildsim"
    # the resolved config, every default applied
    assert manifest["config"] == as_json(parse_config(_hjm_cfg(), "hjm"))
    assert manifest["config"]["run"]["chunk_size"] == 2048
    assert manifest["experiment"] == "hjm"
    assert manifest["results"]["verdict"] == "consistent-with-theorem"
    assert manifest["results"]["n_aborted"] == 0
    assert manifest["passed"] is True
    ens = (out / "ensemble.csv").read_text().splitlines()
    assert ens[0].startswith("t,neg_energy_mean")
    assert len(ens) == 2 + int(round(0.05 / 5e-3))
    curve = (out / "curve.csv").read_text().splitlines()
    assert curve[0] == "x,u_mean,u_p5,u_p95"
    assert len(curve) == 202
    capsys.readouterr()


def test_cli_rerun_is_byte_identical(tmp_path, capsys):
    path = _write_cfg(tmp_path, _hjm_cfg())
    out1, out2 = tmp_path / "a", tmp_path / "b"
    assert main(["hjm", "--config", path, "--out", str(out1)]) == 0
    assert main(["hjm", "--config", path, "--out", str(out2)]) == 0
    for name in ("manifest.json", "ensemble.csv", "curve.csv"):
        assert (out1 / name).read_bytes() == (out2 / name).read_bytes(), name
    capsys.readouterr()


def test_cli_seed_shortcut_changes_output(tmp_path, capsys):
    path = _write_cfg(tmp_path, _hjm_cfg())
    out1, out2 = tmp_path / "a", tmp_path / "b"
    assert main(["hjm", "--config", path, "--out", str(out1)]) == 0
    assert main(["hjm", "--config", path, "--out", str(out2), "--set", "run.seed=99"]) == 0
    m2 = _manifest(out2)
    assert m2["config"]["run"]["seed"] == 99
    assert (out1 / "ensemble.csv").read_bytes() != (out2 / "ensemble.csv").read_bytes()
    capsys.readouterr()


@pytest.mark.parametrize("flag, value", [("--seed", "5"), ("--paths", "2"), ("--dt", "0.1")])
def test_cli_removed_shorthand_flag_exits_2(tmp_path, capsys, flag, value):
    # --set run.seed=N is the one way to override a config value
    path = _write_cfg(tmp_path, _hjm_cfg())
    out = tmp_path / "out"
    with pytest.raises(SystemExit) as ei:
        main(["hjm", "--config", path, "--out", str(out), flag, value])
    assert ei.value.code == 2 and not out.exists()
    assert capsys.readouterr().err.splitlines()[-1] == (
        f"mildsim: error: unrecognized arguments: {flag} {value}")


def test_cli_assert_on_verdict(tmp_path, capsys):
    cfg = _hjm_cfg()
    cfg["expect_verdict"] = "counterexample-regime"
    path = _write_cfg(tmp_path, cfg)
    out = tmp_path / "out"
    # without --assert the mismatch is only recorded
    assert main(["hjm", "--config", path, "--out", str(out)]) == 0
    manifest = _manifest(out)
    assert manifest["passed"] is False
    assert main(["hjm", "--config", path, "--out", str(out), "--assert"]) == 3
    capsys.readouterr()


def test_cli_abort_exits_4(tmp_path, capsys):
    cfg = {
        "experiment": "simulate",
        "grid": {"x_max": 2.0, "n_nodes": 101, "alpha": 0.5},
        "model": {"drift": "linear-decay", "drift_c": -10.0, "initial": {"flat": 0.5}},
        "run": {"dt": 0.02, "t_final": 2.0, "n_paths": 2, "seed": 1, "blow_threshold": 1e3},
    }
    path = _write_cfg(tmp_path, cfg)
    out = tmp_path / "out"
    assert main(["simulate", "--config", path, "--out", str(out)]) == 4
    manifest = _manifest(out)
    assert manifest["results"]["n_aborted"] == 2
    assert manifest["passed"] is False
    capsys.readouterr()


def test_cli_coeff_check(tmp_path, capsys):
    cfg = {
        "experiment": "coeff-check",
        "grid": {"x_max": 1.0, "n_nodes": 501, "alpha": 0.5},
        "model": {
            "modes": [{"kind": "constant", "c": 0.2}],
            "drift": "hjm",
        },
        "check": {"n_samples": 30, "seed": 1, "expect_admissible": False},
    }
    path = _write_cfg(tmp_path, cfg)
    out = tmp_path / "out"
    assert main(["coeff-check", "--config", path, "--out", str(out), "--assert"]) == 0
    manifest = _manifest(out)
    assert manifest["results"]["admissible"] is False
    assert manifest["results"]["estimated_c"] == "inf"
    # expecting the wrong answer flips the assertion
    cfg["check"]["expect_admissible"] = True
    path2 = _write_cfg(tmp_path, cfg, "run2.json")
    assert main(["coeff-check", "--config", path2, "--out", str(out), "--assert"]) == 3
    capsys.readouterr()


@pytest.mark.parametrize("c, violations", [(1e150, 1), (1e155, 10), (1e300, 10)])
def test_cli_coeff_check_overflowing_functional(tmp_path, capsys, c, violations):
    # from c ~ 1e155 sigma times its integral overflows and the functional
    # is NaN; each such probe is a violation (it read "admissible, C = 0")
    cfg = _small_cfgs()["coeff-check"]
    cfg["model"]["modes"][0]["c"] = c
    path = _write_cfg(tmp_path, cfg)
    out = tmp_path / "out"
    assert main(["coeff-check", "--config", path, "--out", str(out), "--assert"]) == 3
    res = _manifest(out)["results"]
    assert (res["admissible"], res["estimated_c"], res["violations"]) == (False, "inf", violations)
    capsys.readouterr()


def test_cli_operator_tests(tmp_path, capsys):
    cfg = {
        "experiment": "operator-tests",
        "grid": {"x_max": 4.0, "n_nodes": 40001, "alpha": 1.0},
        "check": {"n_samples": 10, "seed": 3},
    }
    path = _write_cfg(tmp_path, cfg)
    out = tmp_path / "out"
    assert main(["operator-tests", "--config", path, "--out", str(out), "--assert"]) == 0
    manifest = _manifest(out)
    for label in ("submarkov", "l1-contraction", "monotone-pairing", "jensen-chain"):
        assert manifest["results"][label]["n_violations"] == 0
    assert (out / "operator_tests.csv").exists()
    capsys.readouterr()


@pytest.mark.parametrize("alpha", [1e-15, 1e-20, 1e-100])
def test_cli_operator_tests_at_small_alpha(tmp_path, capsys, alpha):
    # the tail weight exp(-alpha x_max) / alpha magnifies any rounding in the Yosida tail
    cfg = {
        "experiment": "operator-tests",
        "grid": {"x_max": 1.0, "n_nodes": 101, "alpha": alpha},
        "check": {"n_samples": 20, "seed": 1},
    }
    path = _write_cfg(tmp_path, cfg)
    out = tmp_path / "out"
    assert main(["operator-tests", "--config", path, "--out", str(out), "--assert"]) == 0
    assert _manifest(out)["results"]["monotone-pairing"]["n_violations"] == 0
    capsys.readouterr()


def test_cli_lambda_study(tmp_path, capsys):
    cfg = {
        "experiment": "lambda-study",
        "grid": {"x_max": 2.0, "n_nodes": 401, "alpha": 0.5},
        "model": {
            "modes": [{"kind": "level-scaled", "c": 0.3, "cap": 0.05, "decay": 1.0}],
            "drift": "hjm",
            "alpha_correction": 0.5,
            "initial": {"exp-decay": {"base": 0.02, "amp": 0.01, "decay": 1.0}},
        },
        "run": {"dt": 5e-3, "t_final": 0.5, "seed": 100},
        "lambda_study": {"lams": [0.2, 0.1, 0.05, 0.025], "n_seeds": 2},
    }
    path = _write_cfg(tmp_path, cfg)
    out = tmp_path / "out"
    assert main(["lambda-study", "--config", path, "--out", str(out), "--assert"]) == 0
    manifest = _manifest(out)
    assert manifest["results"]["all_seeds_monotone"] is True
    assert manifest["results"]["n_aborted"] == 0
    rows = (out / "lambda_study.csv").read_text().splitlines()
    assert len(rows) == 1 + 2 * 4
    capsys.readouterr()


def test_cli_ito_check(tmp_path, capsys):
    cfg = {
        "experiment": "ito-check",
        "grid": {"x_max": 5.0, "n_nodes": 251, "alpha": 1.0},
        "model": {
            "modes": [
                {"kind": "exponential-decay", "c": 0.25, "decay": 0.3},
                {"kind": "constant", "c": 0.1},
            ],
            "drift": "linear-decay",
            "drift_c": 0.2,
            "initial": {"exp-decay": {"base": -0.05, "amp": 0.3, "decay": 0.5}},
        },
        "ito": {"n": 50.0, "dt_values": [1e-2, 2.5e-3], "t_final": 0.5, "n_paths": 50, "seed": 314},
    }
    path = _write_cfg(tmp_path, cfg)
    out = tmp_path / "out"
    assert main(["ito-check", "--config", path, "--out", str(out), "--assert"]) == 0
    manifest = _manifest(out)
    assert manifest["results"]["det_order"] >= 0.9
    assert manifest["results"]["sto_decreasing"] is True
    assert (out / "ito_check.csv").exists()
    capsys.readouterr()


@pytest.mark.parametrize("n_seeds", [1, 3])
def test_cli_lambda_study_with_aborting_paths_exits_4(tmp_path, capsys, n_seeds):
    # a 1e300 curve's energy passes run.blow_threshold at step 0, so every
    # stream aborts; the study exits 4 and counts them, like the ensembles
    cfg = _small_cfgs()["lambda-study"]
    cfg["lambda_study"]["n_seeds"] = n_seeds
    out = tmp_path / "out"
    argv = ["lambda-study", "--config", _write_cfg(tmp_path, cfg), "--out", str(out),
            "--set", "model.initial.flat=1e300"]
    assert main(argv) == 4
    assert capsys.readouterr().err == "at least one path aborted\n"
    assert _manifest(out)["results"]["n_aborted"] == n_seeds
    assert main(argv + ["--assert"]) == 4
    capsys.readouterr()


def test_cli_lambda_study_fails_when_some_seeds_abort(tmp_path, capsys):
    # a growing drift under proportional noise: 3 of the 8 seeds pass
    # run.blow_threshold, and the others stay monotone in lambda; the
    # study fails, as simulate and hjm do when a path aborts, and its
    # mean distances are over the seeds that finished
    cfg = {
        "experiment": "lambda-study",
        "grid": {"x_max": 2.0, "n_nodes": 101, "alpha": 0.5},
        "model": {"modes": [{"kind": "proportional", "c": 3.0}], "drift": "linear-decay",
                  "drift_c": -4.0, "initial": {"flat": 1.0}},
        "run": {"dt": 0.02, "t_final": 1.0, "seed": 0, "blow_threshold": 60.0},
        "lambda_study": {"lams": [0.2, 0.1], "n_seeds": 8},
    }
    out = tmp_path / "out"
    assert main(["lambda-study", "--config", _write_cfg(tmp_path, cfg), "--out", str(out)]) == 4
    captured = capsys.readouterr()
    assert captured.out.startswith("experiment lambda-study: FAIL ")
    assert captured.err == "at least one path aborted\n"
    manifest = _manifest(out)
    assert manifest["results"]["n_aborted"] == 3
    assert manifest["results"]["all_seeds_monotone"] is True
    assert manifest["passed"] is False
    assert manifest["results"]["aborted_seeds"] == [1, 6, 7]
    # the finished seeds' rows of the CSV, summed in seed order
    rows = [line.split(",") for line in (out / "lambda_study.csv").read_text().splitlines()[1:]]
    means = manifest["results"]["mean_sup_distance"]
    for lam, mean in zip(cfg["lambda_study"]["lams"], means):
        finished = [float(d) for seed, lm, d in rows
                    if float(lm) == lam and int(float(seed)) not in (1, 6, 7)]
        assert len(finished) == 5 and mean == sum(finished) / 5
    # over all 8 seeds, the aborted ones included, they would read 0.775 and 0.423
    assert means == pytest.approx([0.435, 0.240], abs=5e-4)


NON_FINITE_CASES = {
    # the contraction battery's worst starts at -inf and no sample lowers it
    "operator-tests": ({"grid": {"x_max": 1.0, "n_nodes": 11, "alpha": 1.0},
                        "check": {"n_samples": 0}},
                       0, ("l1-contraction", "worst_excess"), "-inf"),
    # with no modes and no drift the deterministic residual is 0 at every dt
    "ito-check": ({"grid": {"x_max": 1.0, "n_nodes": 11, "alpha": 0.5},
                   "model": {"drift": "zero", "initial": {"flat": 0.01}},
                   "ito": {"dt_values": [0.1, 0.05], "t_final": 0.2, "n_paths": 2}},
                  0, ("det_order",), "inf"),
    # every path aborts, so the final statistics have no path left
    "simulate": ({"grid": {"x_max": 2.0, "n_nodes": 101, "alpha": 0.5},
                  "model": {"drift": "linear-decay", "drift_c": -10.0, "initial": {"flat": 0.5}},
                  "run": {"dt": 0.02, "t_final": 2.0, "n_paths": 2, "seed": 1,
                          "blow_threshold": 1e3}},
                 4, ("final_neg_energy_mean",), "nan"),
}


@pytest.mark.parametrize("experiment", sorted(NON_FINITE_CASES))
def test_cli_manifest_is_strict_json_with_non_finite_results(tmp_path, capsys, experiment):
    # a non-finite result is written as the string the CSVs print for it
    cfg, code, key, text = NON_FINITE_CASES[experiment]
    path = _write_cfg(tmp_path, {"experiment": experiment, **cfg})
    out = tmp_path / "out"
    assert main([experiment, "--config", path, "--out", str(out)]) == code
    value = _manifest(out)["results"]
    for k in key:
        value = value[k]
    assert value == text
    if code == 0:
        # these runs checked nothing (no battery sample, no measured order),
        # so they have not passed, and --assert says so
        assert _manifest(out)["passed"] is False
        assert main([experiment, "--config", path, "--out", str(out), "--assert"]) == 3
    capsys.readouterr()


def test_operator_tests_bits_do_not_depend_on_blas_threads(tmp_path):
    # 20,001 nodes is past OpenBLAS's 10,000-element threshold for a
    # threaded dot; at this config the unchunked dots gave different
    # manifests under 1 and 2 threads.  4 x 60 samples reach the battery
    # split on a host with two usable cores.
    cfg = {"experiment": "operator-tests", "grid": {"x_max": 4.0, "n_nodes": 20001, "alpha": 1.0},
           "check": {"n_samples": 60, "seed": 4}}
    path = _write_cfg(tmp_path, cfg)
    src = str(Path(mildsim.__file__).resolve().parents[1])
    outs = []
    for threads in ("1", "2"):
        out = tmp_path / f"out{threads}"
        env = {**os.environ, "OPENBLAS_NUM_THREADS": threads,
               "PYTHONPATH": os.pathsep.join([src, os.environ.get("PYTHONPATH", "")])}
        subprocess.run([sys.executable, "-m", "mildsim.cli", "operator-tests", "--config", path,
                        "--out", str(out), "--assert"], env=env, check=True, capture_output=True)
        outs.append(out)
    for name in ("operator_tests.csv", "manifest.json"):
        assert (outs[0] / name).read_bytes() == (outs[1] / name).read_bytes(), name


def test_cli_out_dir_from_env(tmp_path, capsys, monkeypatch):
    target = tmp_path / "envout"
    monkeypatch.setenv("MILDSIM_OUT", str(target))
    monkeypatch.chdir(tmp_path)
    path = _write_cfg(tmp_path, _hjm_cfg())
    assert main(["hjm", "--config", path]) == 0
    assert (target / "manifest.json").exists()
    capsys.readouterr()


def _small_cfgs():
    """One small valid config per experiment."""
    model = {
        "modes": [{"kind": "constant", "c": 0.1}],
        "drift": "linear-decay",
        "drift_c": 0.2,
        "initial": {"flat": 0.01},
    }
    return {
        "simulate": {
            "experiment": "simulate",
            "grid": {"x_max": 1.0, "n_nodes": 11, "alpha": 0.5},
            "model": model,
            "run": {"dt": 0.1, "t_final": 0.3, "n_paths": 3, "seed": 1},
        },
        "hjm": {
            "experiment": "hjm",
            "grid": {"x_max": 1.0, "n_nodes": 11, "alpha": 0.5},
            "model": {
                "modes": [{"kind": "proportional-capped", "c": 8.0, "cap": 2e-4}],
                "initial": {"flat": 4e-4},
            },
            "run": {"dt": 0.1, "t_final": 0.3, "n_paths": 3, "seed": 1},
            "check": {"n_samples": 5},
        },
        "coeff-check": {
            "experiment": "coeff-check",
            "grid": {"x_max": 1.0, "n_nodes": 11, "alpha": 0.5},
            "model": {"modes": [{"kind": "constant", "c": 0.2}], "drift": "hjm"},
            "check": {"n_samples": 5},
        },
        "operator-tests": {
            "experiment": "operator-tests",
            "grid": {"x_max": 1.0, "n_nodes": 11, "alpha": 1.0},
            "check": {"n_samples": 2},
        },
        "lambda-study": {
            "experiment": "lambda-study",
            "grid": {"x_max": 1.0, "n_nodes": 11, "alpha": 0.5},
            "model": model,
            "run": {"dt": 0.1, "t_final": 0.3, "seed": 1},
            "lambda_study": {"lams": [0.2, 0.1], "n_seeds": 1},
        },
        "ito-check": {
            "experiment": "ito-check",
            "grid": {"x_max": 1.0, "n_nodes": 11, "alpha": 0.5},
            "model": model,
            "ito": {"dt_values": [0.1, 0.05], "t_final": 0.2, "n_paths": 2},
        },
    }


def _run_expecting_errors(tmp_path, capsys, experiment, cfg, overrides=()):
    path = _write_cfg(tmp_path, cfg)
    out = tmp_path / "out"
    argv = [experiment, "--config", path, "--out", str(out)]
    for item in overrides:
        argv += ["--set", item]
    assert main(argv) == 2
    assert not out.exists()
    lines = capsys.readouterr().err.splitlines()
    assert all(line.startswith("config error: ") for line in lines)
    return [line.removeprefix("config error: ") for line in lines]


@pytest.mark.parametrize(
    "experiment, override, path",
    [
        ("simulate", "run.chunk_size=0", "run.chunk_size"),
        ("simulate", "run.chunk_size=-1", "run.chunk_size"),
        ("hjm", "run.chunk_size=0", "run.chunk_size"),
        ("simulate", "run.dt=0.05", "run.dt"),
        ("simulate", "run.dt=-0.1", "run.dt"),
        ("simulate", "run.t_final=0.25", "run.t_final"),
        ("simulate", "run.n_paths=0", "run.n_paths"),
        ("lambda-study", "model.drift=leapfrog", "model.drift"),
        ("simulate", "run.lam=-0.1", "run.lam"),
        ("simulate", "run.seed=-1", "run.seed"),
        ("simulate", "model.drift=table", "model.drift"),
        ("simulate", "model.modes=[{\"kind\": \"custom\"}]", "model.modes[0]"),
        ("simulate", "model.modes=[{\"kind\": \"proportional-capped\"}]", "model.modes[0]"),
        ("hjm", "grid.n_nodes=1", "grid.n_nodes"),
        ("hjm", "expect_verdict=maybe", "config.expect_verdict"),
        ("lambda-study", "lambda_study.lams=[]", "lambda_study.lams"),
        ("lambda-study", "lambda_study.lams=[0.1, 0]", "lambda_study.lams"),
        ("lambda-study", "lambda_study.n_seeds=0", "lambda_study.n_seeds"),
        ("ito-check", "ito.n=0", "ito.n"),
        ("ito-check", "ito.n_paths=0", "ito.n_paths"),
        ("ito-check", "ito.dt_values=[]", "ito.dt_values"),
        ("ito-check", "ito.dt_values=[0.1, 0.15]", "ito.dt_values[1]"),
        ("ito-check", "ito.dt_values=[1e-300]", "ito.dt_values[0]"),
        ("hjm", "run.n_paths=4611686018427387904", "run.n_paths"),
        # the study snapshots every step of every node; ito runs its paths as one batch
        ("lambda-study", "run.t_final=2.8823037615171176e16", "run.dt"),
        ("ito-check", "ito.n_paths=2305843009213693952", "ito.n_paths"),
        ("simulate", "run.t_final=1e300", "run.dt"),
        ("operator-tests", "grid.n_nodes=2305843009213693952", "grid.n_nodes"),
        ("operator-tests", "check.n_samples=-1", "check.n_samples"),
        # simulate's check only estimates c_const, so a given c_const leaves it unread
        pytest.param("simulate", ["run.c_const=0.5", 'check={"n_samples": 7, "seed": 3}'],
                     "check", id="simulate-run.c_const+check-check"),
        # the node weights e^(-alpha*x) cannot be formed in doubles
        pytest.param("ito-check", ["grid.x_max=1e300", "grid.alpha=1e300"], "grid.alpha",
                     id="ito-check-grid.alpha*x_max-grid.alpha"),
    ],
)
def test_cli_semantic_errors_exit_2(tmp_path, capsys, experiment, override, path):
    cfg = _small_cfgs()[experiment]
    overrides = [override] if isinstance(override, str) else override
    problems = _run_expecting_errors(tmp_path, capsys, experiment, cfg, overrides)
    assert len(problems) == 1 and problems[0].startswith(f"{path}: "), problems


@pytest.mark.parametrize("experiment", ["simulate", "hjm"])
def test_cli_snapshot_stride_is_an_unknown_key(tmp_path, capsys, experiment):
    # run.snapshot_stride filled snapshot arrays that no output read; a
    # key that does nothing is an unknown key, at any value
    cfg = _small_cfgs()[experiment]
    problems = _run_expecting_errors(tmp_path, capsys, experiment, cfg, ["run.snapshot_stride=0"])
    assert problems == ["run.snapshot_stride: unknown key"]


@pytest.mark.parametrize("experiment", ["simulate", "hjm"])
def test_cli_stream_base_is_an_unknown_key(tmp_path, capsys, experiment):
    # run.stream_base offset the noise streams of one ensemble, and no
    # workload set it; a key that does nothing is an unknown key
    cfg = _small_cfgs()[experiment]
    problems = _run_expecting_errors(tmp_path, capsys, experiment, cfg, ["run.stream_base=0"])
    assert problems == ["run.stream_base: unknown key"]


@pytest.mark.parametrize("experiment", ["simulate", "hjm", "lambda-study"])
def test_cli_scheme_is_an_unknown_key(tmp_path, capsys, experiment):
    # the integrator has one split order, shift-then-react, so no key
    # chooses it, at any value
    cfg = _small_cfgs()[experiment]
    problems = _run_expecting_errors(tmp_path, capsys, experiment, cfg,
                                     ["run.scheme=shift-then-react"])
    assert problems == ["run.scheme: unknown key"]


@pytest.mark.parametrize("experiment", ["simulate", "coeff-check", "operator-tests"])
@pytest.mark.parametrize("alpha", [1e-320, 5.5e-309, 5.6e-309, 1e-308, 1e-289])
def test_cli_overflowing_tail_weight_exits_2(tmp_path, capsys, experiment, alpha):
    # at x_max = 1, e^(-alpha*x_max)/alpha is inf below alpha = 5.6e-309, and
    # a finite tail weight up to 1e308 still overflowed the probes' norms:
    # such grids used to pass and give wrong verdicts.  The tail weight
    # times 2**64 must stay finite, which holds from alpha = 1.03e-289 on.
    cfg = _small_cfgs()[experiment]
    cfg["grid"] = {"x_max": 1.0, "n_nodes": 11, "alpha": alpha}
    problems = _run_expecting_errors(tmp_path, capsys, experiment, cfg)
    assert problems == ["grid.alpha: the tail weight e^(-alpha*x_max)/alpha times 2**64 overflows"]
    path = _write_cfg(tmp_path, cfg)
    assert main([experiment, "--config", path, "--validate-only"]) == 2
    cfg["grid"]["alpha"] = 1.1e-289  # the tail weight times 2**64 is finite
    assert main([experiment, "--config", _write_cfg(tmp_path, cfg), "--validate-only"]) == 0
    capsys.readouterr()


@pytest.mark.parametrize("exc", [MemoryError(), OSError(errno.ENOMEM, "Cannot allocate memory")],
                         ids=["MemoryError", "ENOMEM"])
def test_cli_unallocatable_run_exits_2(tmp_path, capsys, monkeypatch, exc):
    # a run inside the parser's size bound can still exceed what the machine
    # maps; it ends in one named problem, not a traceback
    def refuse(*args):
        raise exc

    monkeypatch.setattr(kernels, "outputs", refuse)
    path = _write_cfg(tmp_path, _small_cfgs()["simulate"])
    assert main(["simulate", "--config", path, "--out", str(tmp_path / "out")]) == 2
    lines = capsys.readouterr().err.splitlines()
    assert len(lines) == 1 and lines[0].startswith("config error: ") and "memory" in lines[0]
    assert not (tmp_path / "out" / "manifest.json").exists()
    # the directories the run made go, as after a parser error; one that
    # was there before stays
    assert not (tmp_path / "out").exists()
    assert main(["simulate", "--config", path, "--out", str(tmp_path / "new" / "out")]) == 2
    assert not (tmp_path / "new").exists()
    (tmp_path / "old").mkdir()
    assert main(["simulate", "--config", path, "--out", str(tmp_path / "old")]) == 2
    assert (tmp_path / "old").is_dir() and not any((tmp_path / "old").iterdir())
    capsys.readouterr()
    # any other OSError is not a config problem and still propagates
    exc = OSError(errno.EIO, "Input/output error")
    with pytest.raises(OSError):
        main(["simulate", "--config", path, "--out", str(tmp_path / "out")])
    capsys.readouterr()


def test_hjm_run_builds_one_grid(tmp_path, capsys, monkeypatch):
    # the model, the operators and the curves of an hjm run share the grid it builds
    calls = []
    uniform = Grid.uniform.__func__

    def counted(cls, *args):
        calls.append(args)
        return uniform(cls, *args)

    monkeypatch.setattr(Grid, "uniform", classmethod(counted))
    path = _write_cfg(tmp_path, _small_cfgs()["hjm"])
    assert main(["hjm", "--config", path, "--out", str(tmp_path / "out")]) == 0
    assert calls == [(1.0, 11, 0.5)]
    capsys.readouterr()


@pytest.mark.parametrize("case", ["not-utf8", "deep-file", "deep-override", "out-is-file",
                                  "out-under-file"])
def test_cli_unreadable_inputs_exit_2(tmp_path, capsys, case):
    # inputs that fail before the parser sees a value end in one named
    # problem, not a traceback, and nothing is written
    cfg = _write_cfg(tmp_path, _small_cfgs()["simulate"])
    blocker = tmp_path / "blocker"
    blocker.write_text("a file\n")
    out, extra = tmp_path / "out", []
    if case == "not-utf8":
        cfg = named = str(tmp_path / "utf16.json")
        (tmp_path / "utf16.json").write_bytes(b"\xff\xfe{}")
    elif case == "deep-file":
        cfg = named = str(tmp_path / "deep.json")
        (tmp_path / "deep.json").write_text("[" * 100_000)
    elif case == "deep-override":
        named, extra = "override 'run.seed'", ["--set", "run.seed=" + "[" * 100_000]
    elif case == "out-is-file":
        out = blocker
        named = f"output directory {out}"
    else:
        out = blocker / "out"
        named = f"output directory {out}"
    assert main(["simulate", "--config", cfg, "--out", str(out), *extra]) == 2
    lines = capsys.readouterr().err.splitlines()
    assert len(lines) == 1 and lines[0].startswith("config error: "), lines
    assert named in lines[0], lines
    assert blocker.read_text() == "a file\n"
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("case", ["out-is-file", "out-under-file", "out-too-long", "new-too-long",
                                  "old-too-long", "out-new", "out-existing"])
def test_cli_validate_only_checks_output_dir(tmp_path, capsys, case):
    # --validate-only exits as the run would on an unusable --out, and makes nothing
    cfg = _write_cfg(tmp_path, _small_cfgs()["coeff-check"])
    blocker = tmp_path / "blocker"
    blocker.write_text("a file\n")
    (tmp_path / "old").mkdir()
    long = "a" * 300  # longer than any file system's name limit here
    out = {"out-is-file": blocker, "out-under-file": blocker / "out",
           "out-too-long": tmp_path / long, "new-too-long": tmp_path / "new" / long,
           "old-too-long": tmp_path / "old" / long,
           "out-new": tmp_path / "new" / "out", "out-existing": tmp_path}[case]
    reason = {"out-is-file": errno.EEXIST, "out-under-file": errno.ENOTDIR}.get(
        case, errno.ENAMETOOLONG)
    before = sorted(tmp_path.rglob("*"))
    rc = main(["coeff-check", "--config", cfg, "--out", str(out), "--validate-only"])
    captured = capsys.readouterr()
    if case not in ("out-new", "out-existing"):
        assert rc == 2
        assert captured.err.splitlines() == [
            f"config error: output directory {out}: {os.strerror(reason)}"]
        # the run without the flag fails with the same line, and removes the
        # directories it made (new/) but not one that was there (old/)
        assert main(["coeff-check", "--config", cfg, "--out", str(out)]) == 2
        assert capsys.readouterr().err == captured.err
    else:
        assert rc == 0 and captured.out == "config valid\n"
    assert sorted(tmp_path.rglob("*")) == before
    assert blocker.read_text() == "a file\n"


_HJM_UNREAD = [
    "model.drift=zero",
    "model.drift_c=50",
    "model.alpha_correction=5",
    "run.lam=0.1",
    "run.blow_threshold=1e3",
    "run.c_const=1.0",
    "check.tol=1e-6",
    "check.expect_admissible=false",
]


@pytest.mark.parametrize(
    "experiment, overrides",
    [
        ("simulate", ["model.alpha_in_drift=false"]),
        ("hjm", _HJM_UNREAD),
        ("coeff-check", ["model.initial={\"flat\": 0.01}", "check.tol=1e-6"]),
        ("operator-tests", ["check.expect_admissible=true", "model={}"]),
        ("lambda-study", ["run.n_paths=10", "run.lam=0.1", "check={}"]),
        ("ito-check", ["run={}", "expect_verdict=inconclusive"]),
    ],
)
def test_cli_unread_key_exits_2(tmp_path, capsys, experiment, overrides):
    cfg = _small_cfgs()[experiment]
    problems = _run_expecting_errors(tmp_path, capsys, experiment, cfg, overrides)
    keys = [item.partition("=")[0] for item in overrides]
    want = [
        f"{'config.' if '.' not in key else ''}{key}: not read by experiment {experiment!r}"
        for key in keys
    ]
    assert sorted(problems) == sorted(want)


@pytest.mark.parametrize(
    "section, unread, reader",
    [
        ({"kind": "constant", "cap": 0.1}, ["cap"], "mode kind 'constant'"),
        ({"kind": "proportional", "decay": 1.0}, ["decay"], "mode kind 'proportional'"),
        ({"kind": "proportional-capped", "cap": 0.1, "decay": 2.0, "table": [0.0] * 11},
         ["decay", "table"], "mode kind 'proportional-capped'"),
        ({"kind": "exponential-decay", "cap": 0.1, "tail": 0.0},
         ["cap", "tail"], "mode kind 'exponential-decay'"),
        ({"kind": "level-scaled", "cap": 0.1, "tail": 0.0}, ["tail"], "mode kind 'level-scaled'"),
        ({"kind": "custom", "table": [0.1] * 11, "cap": 0.1, "decay": 1.0},
         ["cap", "decay"], "mode kind 'custom'"),
        ({"flat": 0.01, "tail": 0.0}, ["tail"], "initial form 'flat'"),
        ({"exp-decay": {"amp": 0.01}, "tail": 0.0}, ["tail"], "initial form 'exp-decay'"),
    ],
)
def test_cli_unread_mode_and_initial_keys_exit_2(tmp_path, capsys, section, unread, reader):
    # decay has a default, so a given key counts, not a value that differs from it
    cfg = _small_cfgs()["simulate"]
    where = "model.initial" if "kind" not in section else "model.modes[0]"
    if "kind" in section:
        cfg["model"]["modes"] = [section]
    else:
        cfg["model"]["initial"] = section
    problems = _run_expecting_errors(tmp_path, capsys, "simulate", cfg)
    assert sorted(problems) == [f"{where}.{key}: not read by {reader}" for key in unread]


def test_mode_and_initial_keys_that_are_read_pass():
    cfg = _small_cfgs()["simulate"]
    cfg["model"]["modes"] = [
        {"kind": "constant", "c": 0.1},
        {"kind": "proportional", "c": 0.1},
        {"kind": "proportional-capped", "c": 0.1, "cap": 0.2},
        {"kind": "exponential-decay", "c": 0.1, "decay": 2.0},
        {"kind": "level-scaled", "c": 0.1, "cap": 0.2, "decay": 2.0},
        {"kind": "custom", "c": 0.1, "table": [0.1] * 11, "tail": 0.1},
    ]
    cfg["model"]["initial"] = {"table": [0.01] * 11, "tail": 0.01}
    parse_config(cfg)
    cfg["model"]["initial"] = {"exp-decay": {"amp": 0.01}}
    parse_config(cfg)


def test_cli_reports_every_bad_field_of_a_section(tmp_path, capsys):
    # and the bad field of another section beside them
    cfg = _small_cfgs()["simulate"]
    cfg["run"].update({"chunk_size": 0, "n_paths": "many"})
    cfg["model"]["drift"] = "leapfrog"
    problems = _run_expecting_errors(tmp_path, capsys, "simulate", cfg)
    assert sorted(problems) == [
        "model.drift: must be one of zero, linear-decay, hjm",
        "run.chunk_size: must be at least 1",
        "run.n_paths: expected int",
    ]


def test_small_configs_validate(tmp_path, capsys):
    for experiment, cfg in _small_cfgs().items():
        path = _write_cfg(tmp_path, cfg)
        assert main([experiment, "--config", path, "--validate-only"]) == 0
    capsys.readouterr()


def _workload_cfgs(seed):
    """The config of each experiment of the benchmark's workloads, by workload and experiment."""
    path = Path(__file__).resolve().parents[1] / "perfbench" / "workloads.py"
    spec = importlib.util.spec_from_file_location("perfbench_workloads", path)
    mod = sys.modules[spec.name] = importlib.util.module_from_spec(spec)  # for its dataclass
    spec.loader.exec_module(mod)
    return {f"{w}-{e.name}": e.config for w in mod.WORKLOADS for e in mod.experiments(w, seed)}


@pytest.mark.parametrize("cfg", [pytest.param(cfg, id=name) for name, cfg in
                                 [*_small_cfgs().items(), *_workload_cfgs(7).items()]])
def test_manifest_config_replays_byte_for_byte(tmp_path, capsys, cfg):
    # a manifest's config block is a config: fed back, it gives the same
    # files, manifest.json included
    exp = cfg["experiment"]
    first, second = tmp_path / "first", tmp_path / "second"
    assert main([exp, "--config", _write_cfg(tmp_path, cfg), "--out", str(first)]) == 0
    replay = _write_cfg(tmp_path, _manifest(first)["config"], "replay.json")
    assert main([exp, "--config", replay, "--out", str(second)]) == 0
    names = sorted(p.name for p in first.iterdir())
    assert names == sorted(p.name for p in second.iterdir())
    for name in names:
        assert (first / name).read_bytes() == (second / name).read_bytes(), name
    capsys.readouterr()


def test_parse_config_resolves_defaults():
    small = _small_cfgs()
    ops = parse_config(small["operator-tests"])
    assert ops.check.n_samples == 2 and ops.check.tol == 1e-8
    del small["operator-tests"]["check"]
    assert parse_config(small["operator-tests"]).check.n_samples == 100
    assert parse_config(small["coeff-check"]).check.n_samples == 5
    # simulate runs the coefficient check only when the section is given
    sim = parse_config(small["simulate"])
    assert sim.check is None and sim.run.c_const == 0.0
    assert sim.run.chunk_size == 2048
    small["simulate"]["check"] = {}
    sim = parse_config(small["simulate"])
    assert sim.check.n_samples == 200 and sim.run.c_const is None
    hjm = parse_config(small["hjm"])
    assert hjm.model.alpha_in_drift is True
    small["hjm"]["model"]["alpha_in_drift"] = False
    assert parse_config(small["hjm"]).model.alpha_in_drift is False
    # fields an experiment does not read stay None and out of the manifest;
    # the hjm drift terms are in the manifest's resolved block (test_hjm)
    assert hjm.run.lam is None and hjm.lambda_study is None
    assert (hjm.model.drift, hjm.model.drift_c, hjm.model.alpha_correction) == (None,) * 3
    assert "lam" not in as_json(hjm)["run"]
    assert {"drift", "drift_c", "alpha_correction"}.isdisjoint(as_json(hjm)["model"])
    assert "run" not in as_json(parse_config(small["coeff-check"]))
    # so do the keys a mode's kind does not read, defaults included
    assert sim.model.modes[0].decay is None and hjm.model.modes[0].decay is None
    assert as_json(hjm)["model"]["modes"] == [{"kind": "proportional-capped", "c": 8.0,
                                               "cap": 2e-4}]


# Property tests: mutate random fields of the small configs to random JSON.
# Nearby values keep many mutants valid, so the run itself gets exercised.
_JSON = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats(allow_nan=False) | st.text(max_size=4),
    lambda kids: st.lists(kids, max_size=3) | st.dictionaries(st.text(max_size=4), kids, max_size=3),
    max_leaves=6,
)
_NEAR = st.sampled_from([
    0, 1, 2, 3, -1, 0.0, 0.05, 0.1, 0.2, 0.3, 1.0, -0.1, 1e-300, 1e300, True, False,
    "hjm", "zero", "linear-decay", "constant", "proportional", "proportional-capped",
    "level-scaled", "custom", "react-then-shift", [], [0.1], [0.1, 0.05], [0.0] * 11, {},
    {"flat": 0.01}, {"table": [0.01] * 11}, {"kind": "custom", "table": [0.1] * 11},
])
_DELETE = object()


def _leaf_paths(obj, prefix=()):
    if isinstance(obj, dict):
        for k, v in obj.items():
            yield prefix + (k,)
            yield from _leaf_paths(v, prefix + (k,))
    elif isinstance(obj, list):
        for i, v in enumerate(obj):
            yield prefix + (i,)
            yield from _leaf_paths(v, prefix + (i,))


# per experiment, every key it reads (defaults included) and the list entries,
# and some keys that the small configs leave unread
_PATHS = {
    exp: sorted(set(_leaf_paths(as_json(parse_config(cfg))))
                | {("expect_verdict",), ("run", "c_const"), ("model", "modes", 0, "cap"),
                   ("model", "modes", 0, "decay")}, key=str)
    for exp, cfg in _small_cfgs().items()
}
_ALL_PATHS = sorted({p for paths in _PATHS.values() for p in paths}, key=str)


def _mutate(cfg, path, value):
    here = cfg
    for k in path[:-1]:
        if isinstance(here, dict):
            here = here.setdefault(k, {})
        elif isinstance(here, list) and isinstance(k, int) and k < len(here):
            here = here[k]
        else:
            return
    last = path[-1]
    if isinstance(here, dict) and value is _DELETE:
        here.pop(last, None)
    elif isinstance(here, dict) or (isinstance(here, list) and isinstance(last, int)
                                    and last < len(here) and value is not _DELETE):
        here[last] = value


@st.composite
def _mutants(draw):
    experiment = draw(st.sampled_from(EXPERIMENTS))
    cfg = copy.deepcopy(_small_cfgs()[experiment])
    for _ in range(draw(st.integers(1, 3))):
        path = draw(st.sampled_from(_PATHS[experiment]) | st.sampled_from(_ALL_PATHS))
        value = draw(st.just(_DELETE) | _NEAR | _JSON)
        _mutate(cfg, path, value if value is _DELETE else copy.deepcopy(value))
    return experiment, cfg


def _is_small(cfg):
    """At most 51 nodes and a few steps, paths and samples."""
    r, ck, ls, it = cfg.run, cfg.check, cfg.lambda_study, cfg.ito
    return (
        cfg.grid.n_nodes <= 51
        and (cfg.model is None or len(cfg.model.modes) <= 4)
        and (r is None or (r.t_final / r.dt <= 50 and (r.n_paths or 0) <= 20))
        and (ck is None or ck.n_samples <= 20)
        and (ls is None or (ls.n_seeds <= 3 and len(ls.lams) <= 4))
        and (it is None or (it.n_paths <= 5 and len(it.dt_values) <= 4
                            and all(it.t_final / dt <= 50 for dt in it.dt_values)))
    )


# small configs with a value that overflows a double in the run: the
# overrides, the exit code (None: not pinned), the pass flag and results
# of the manifest.  Each outcome is defined, and no numpy warning escapes
# (pyproject.toml makes one an error)
_OVERFLOWS = {
    "hjm-capped-mode": ("hjm", ['model.modes=[{"kind": "proportional-capped", "c": 1e300, '
                                '"cap": 2e-4}]'], 4, False,
                        {"c_const": 0.0, "verdict": "inconclusive", "check": {
                            "estimated_c": "inf", "samples": 10, "violations": 2,
                            "worst_ratio": 0.5}}),
    "simulate-alpha": ("simulate", ["grid.alpha=1e300"], 0, True, {"n_aborted": 0}),
    "lambda-study-flat": ("lambda-study", ["model.initial.flat=1e300"], 4, False,
                          {"mean_sup_distance": ["nan", "nan"], "n_aborted": 1,
                           "aborted_seeds": [1]}),
    "lambda-study-alpha-and-flat": ("lambda-study", ["grid.alpha=1e300",
                                                     "model.initial.flat=1e300"], None, False, {}),
    "ito-check-mode": ("ito-check", ['model.modes=[{"kind": "constant", "c": 1e300}]'], 0, False,
                       {"sto_mean_abs": ["nan", "nan"], "sto_decreasing": False}),
    "ito-check-hjm-drift": ("ito-check", ['model.modes=[{"kind": "constant", "c": 1e300}]',
                                          "model.drift=hjm"], 0, False,
                            {"det_total_abs": ["nan", "nan"], "sto_mean_abs": ["nan", "nan"]}),
    "ito-check-tiny-n": ("ito-check", ["ito.n=1e-300"], 0, False, {"sto_decreasing": False}),
    "operator-tests-x-max": ("operator-tests", ["grid.x_max=1e300"], 0, True, {}),
}


def _overflowing(name):
    experiment, overrides = _OVERFLOWS[name][:2]
    cfg = _small_cfgs()[experiment]
    for item in overrides:
        apply_override(cfg, item)
    return experiment, cfg


@pytest.mark.parametrize("name", sorted(_OVERFLOWS))
def test_cli_overflowing_value_has_a_defined_outcome(tmp_path, capsys, name):
    experiment, cfg = _overflowing(name)
    rc, passed, results = _OVERFLOWS[name][2:]
    out = tmp_path / "out"
    got = main([experiment, "--config", _write_cfg(tmp_path, cfg), "--out", str(out)])
    assert rc is None or got == rc
    manifest = _manifest(out)
    assert manifest["passed"] is passed
    assert {k: manifest["results"][k] for k in results} == results
    capsys.readouterr()


@settings(max_examples=200, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture, HealthCheck.too_slow])
@given(_mutants())
@example(mutant=_overflowing("hjm-capped-mode"))
@example(mutant=_overflowing("simulate-alpha"))
@example(mutant=_overflowing("lambda-study-flat"))
@example(mutant=_overflowing("lambda-study-alpha-and-flat"))
@example(mutant=_overflowing("ito-check-mode"))
@example(mutant=_overflowing("ito-check-hjm-drift"))
@example(mutant=_overflowing("ito-check-tiny-n"))
@example(mutant=_overflowing("operator-tests-x-max"))
@example(mutant=("ito-check", dict(_small_cfgs()["ito-check"],
                                   grid={"x_max": 1e300, "n_nodes": 11, "alpha": 1e300})))
def test_no_json_config_raises(tmp_path, capsys, mutant):
    experiment, cfg = mutant
    path = _write_cfg(tmp_path, cfg)
    rc = main([experiment, "--config", path, "--validate-only"])
    assert rc in (0, 2)
    if rc == 0 and _is_small(parse_config(cfg, experiment)):
        out = tmp_path / "out"
        assert main([experiment, "--config", path, "--out", str(out), "--assert"]) in (0, 3, 4)
    capsys.readouterr()


@settings(max_examples=200, deadline=None)
@given(_mutants())
@example(mutant=("simulate", _small_cfgs()["simulate"]))
@example(mutant=("hjm", _small_cfgs()["hjm"]))
@example(mutant=("coeff-check", _small_cfgs()["coeff-check"]))
@example(mutant=("operator-tests", _small_cfgs()["operator-tests"]))
@example(mutant=("lambda-study", _small_cfgs()["lambda-study"]))
@example(mutant=("ito-check", _small_cfgs()["ito-check"]))
def test_resolved_config_parses_back_to_itself(mutant):
    # as_json writes the keys that are read, defaults applied; as JSON text
    # that parses to the same config, for every mutant that parses
    experiment, cfg = mutant
    try:
        resolved = as_json(parse_config(cfg, experiment))
    except ConfigError:
        return
    text = json.dumps(resolved, allow_nan=False)
    assert as_json(parse_config(json.loads(text), experiment)) == resolved
