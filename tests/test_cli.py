"""Command-line interface, exercised in process through main(argv)."""
from __future__ import annotations

import json
import math
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from slcd import StructuralMatrix, builtin_spec, load_dataset, sample
from slcd.cli import main


def run(*argv: str) -> int:
    return main(list(argv))


def strip_walls(obj):
    """Drop wall-clock fields so two runs can be compared exactly."""
    if isinstance(obj, dict):
        return {k: strip_walls(v) for k, v in obj.items()
                if not k.startswith("wall")}
    if isinstance(obj, list):
        return [strip_walls(v) for v in obj]
    return obj


# ---------------------------------------------------------------- top level

def test_help_exits_zero(capsys) -> None:
    assert run("--help") == 0
    assert "generate" in capsys.readouterr().out


def test_no_subcommand_is_usage_error(capsys) -> None:
    assert run() == 2


def test_unknown_flag_is_usage_error(capsys) -> None:
    assert run("generate", "--dataset", "2", "--frobnicate") == 2


# ---------------------------------------------------------------- generate

def test_generate_writes_csv_and_sidecar(tmp_path) -> None:
    out = tmp_path / "d2.csv"
    assert run("generate", "--dataset", "2", "--m", "50", "--seed", "3",
               "--out", str(out)) == 0
    ds = load_dataset(str(out))
    expected = sample(builtin_spec(2), 50, 3)
    np.testing.assert_array_equal(ds.X, expected.X)
    meta = json.loads((tmp_path / "d2.json").read_text())
    assert meta["true_links"] == 3
    assert meta["n"] == 4
    assert meta["m"] == 50
    assert meta["seed"] == 3


def test_generate_default_output_name(tmp_path, monkeypatch) -> None:
    monkeypatch.chdir(tmp_path)
    assert run("generate", "--dataset", "1", "--m", "10") == 0
    assert (tmp_path / "dataset1.csv").exists()
    assert (tmp_path / "dataset1.json").exists()


def test_generate_from_spec_file(tmp_path) -> None:
    spec_path = tmp_path / "model.json"
    spec_path.write_text(json.dumps(builtin_spec(1).to_json()))
    out = tmp_path / "d.csv"
    assert run("generate", "--spec", str(spec_path), "--m", "20",
               "--out", str(out)) == 0
    assert load_dataset(str(out)).X.shape == (3, 20)


def test_generate_rejects_zero_samples(tmp_path, capsys) -> None:
    assert run("generate", "--dataset", "2", "--m", "0",
               "--out", str(tmp_path / "x.csv")) == 2
    assert "--m" in capsys.readouterr().err


def test_generate_requires_a_model(capsys) -> None:
    assert run("generate", "--m", "10") == 2
    assert "--dataset" in capsys.readouterr().err


def test_generate_rejects_both_model_sources(tmp_path) -> None:
    spec_path = tmp_path / "model.json"
    spec_path.write_text(json.dumps(builtin_spec(1).to_json()))
    assert run("generate", "--dataset", "1", "--spec", str(spec_path)) == 2


def test_generate_rejects_unknown_dataset(capsys) -> None:
    assert run("generate", "--dataset", "9") == 2


# ---------------------------------------------------------------- discover

@pytest.fixture(scope="module")
def ds2_csv(tmp_path_factory) -> str:
    path = tmp_path_factory.mktemp("data") / "ds2.csv"
    assert run("generate", "--dataset", "2", "--m", "400",
               "--out", str(path)) == 0
    return str(path)


def test_discover_round_trip(ds2_csv, tmp_path, capsys) -> None:
    out = tmp_path / "result.json"
    assert run("discover", "--data", ds2_csv, "--restarts", "6",
               "--out", str(out)) == 0
    text = capsys.readouterr().out
    assert "links at theta=0.15" in text
    assert "x1 -> x3" in text
    obj = json.loads(out.read_text())
    assert obj["format_version"] == 1
    assert obj["estimated_matrix"]["n"] == 4
    assert obj["hyperparams"]["lambda"] == 5.0
    assert len(obj["restarts"]) == 6


def test_discover_default_output_path(ds2_csv, tmp_path, monkeypatch) -> None:
    import shutil

    local = tmp_path / "mydata.csv"
    shutil.copy(ds2_csv, local)
    assert run("discover", "--data", str(local), "--restarts", "2",
               "--iterations", "1") == 0
    assert (tmp_path / "mydata.result.json").exists()


def test_discover_deterministic(ds2_csv, tmp_path) -> None:
    a, b = tmp_path / "a.json", tmp_path / "b.json"
    for out in (a, b):
        assert run("discover", "--data", ds2_csv, "--restarts", "3",
                   "--seed", "5", "--out", str(out)) == 0
    ja = strip_walls(json.loads(a.read_text()))
    jb = strip_walls(json.loads(b.read_text()))
    assert ja == jb


def test_discover_missing_data_is_io_error(tmp_path, capsys) -> None:
    assert run("discover", "--data", str(tmp_path / "absent.csv")) == 3
    assert "cannot read dataset" in capsys.readouterr().err


def test_discover_invalid_tau_is_usage_error(ds2_csv, capsys) -> None:
    assert run("discover", "--data", ds2_csv, "--tau", "0") == 2
    assert "invalid hyperparameters" in capsys.readouterr().err


@pytest.mark.parametrize("config_text", ['{"tau": 2.5}', '{"lambda": NaN}'])
def test_discover_invalid_config_value_is_usage_error(ds2_csv, tmp_path, capsys,
                                                     config_text) -> None:
    config = tmp_path / "config.json"
    config.write_text(config_text)
    assert run("discover", "--data", ds2_csv, "--config", str(config),
               "--restarts", "1", "--iterations", "1",
               "--out", str(tmp_path / "result.json")) == 2
    err = capsys.readouterr().err
    assert "invalid hyperparameters" in err
    assert "Traceback" not in err


def test_discover_nan_data_aborts_with_diagnostics(tmp_path, capsys) -> None:
    bad = tmp_path / "bad.csv"
    bad.write_text("\n".join(["nan,nan,nan"] * 40) + "\n")
    out = tmp_path / "diag.json"
    assert run("discover", "--data", str(bad), "--restarts", "2",
               "--iterations", "1", "--out", str(out)) == 4
    assert "solver aborted" in capsys.readouterr().err
    diag = json.loads(out.read_text())
    assert diag["error"]
    assert len(diag["restarts"]) == 2


MALFORMED_CSV = {
    "empty": "",
    "blank-lines": "\n\n",
    "ragged-row": "1,2,3\n4,5\n",
    "non-numeric-cell": "1,2,3\n4,x,6\n",
    "trailing-comma": "1,2,3,\n4,5,6,\n",
    "comment-line": "# x1,x2,x3\n1,2,3\n4,5,6\n",
    "whitespace-only-line": "1,2,3\n \t\n4,5,6\n",
}


@pytest.mark.parametrize("text", MALFORMED_CSV.values(), ids=MALFORMED_CSV.keys())
def test_discover_malformed_data_is_io_error(tmp_path, capsys, text) -> None:
    bad = tmp_path / "bad.csv"
    bad.write_text(text, encoding="utf-8")
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert run("discover", "--data", str(bad), "--restarts", "1", "--iterations", "1",
                   "--out", str(tmp_path / "result.json")) == 3
    err = capsys.readouterr().err
    assert "malformed dataset" in err
    if not text.strip():
        assert "no data rows" in err
    assert "Traceback" not in err


# ------------------------------------------------------------ configuration

def test_config_precedence_flags_over_file(ds2_csv, tmp_path) -> None:
    config = tmp_path / "config.json"
    config.write_text(json.dumps(
        {"sigma": 0.9, "restarts": 2, "iterations": 1}))
    out = tmp_path / "result.json"
    assert run("discover", "--data", ds2_csv, "--config", str(config),
               "--sigma", "0.5", "--out", str(out)) == 0
    hp = json.loads(out.read_text())["hyperparams"]
    assert hp["sigma"] == 0.5        # flag beats config
    assert hp["restarts"] == 2       # config beats default (20)
    assert hp["tau"] == 2            # default survives


def test_config_controls_section(ds2_csv, tmp_path) -> None:
    config = tmp_path / "config.json"
    config.write_text(json.dumps(
        {"restarts": 2, "iterations": 1,
         "controls": {"max_inner_steps": 7, "seed": 3}}))
    out = tmp_path / "result.json"
    assert run("discover", "--data", ds2_csv, "--config", str(config),
               "--out", str(out)) == 0
    ctl = json.loads(out.read_text())["controls"]
    assert ctl["max_inner_steps"] == 7
    assert ctl["seed"] == 3


def test_config_unknown_key_rejected(ds2_csv, tmp_path, capsys) -> None:
    config = tmp_path / "config.json"
    config.write_text(json.dumps({"sigmas": 0.3}))
    assert run("discover", "--data", ds2_csv, "--config", str(config)) == 2
    assert "unknown config keys: sigmas" in capsys.readouterr().err


def test_config_invalid_json_rejected(ds2_csv, tmp_path, capsys) -> None:
    config = tmp_path / "config.json"
    config.write_text("{not json")
    assert run("discover", "--data", ds2_csv, "--config", str(config)) == 2
    assert "not valid JSON" in capsys.readouterr().err


def test_config_must_be_object(ds2_csv, tmp_path) -> None:
    config = tmp_path / "config.json"
    config.write_text("[1, 2]")
    assert run("discover", "--data", ds2_csv, "--config", str(config)) == 2


def test_config_missing_file_is_io_error(ds2_csv, tmp_path) -> None:
    assert run("discover", "--data", ds2_csv,
               "--config", str(tmp_path / "absent.json")) == 3


def test_config_removed_penalty_controls_rejected(ds2_csv, tmp_path, capsys) -> None:
    # the reference penalty weight is a constant now; its three knobs are gone
    config = tmp_path / "config.json"
    for key in ("penalty_mu_init", "penalty_growth", "penalty_outer_rounds"):
        config.write_text(json.dumps({"controls": {key: 1}}))
        assert run("discover", "--data", ds2_csv, "--config", str(config),
                   "--out", str(tmp_path / "result.json")) == 2
        assert "invalid solver controls" in capsys.readouterr().err


def test_invalid_scalar_flags_are_usage_errors(ds2_csv, tmp_path, capsys) -> None:
    assert run("generate", "--dataset", "2", "--seed", "-1",
               "--out", str(tmp_path / "x.csv")) == 2
    out = tmp_path / "result.json"
    # theta is checked before the solve, so nothing is written
    assert run("discover", "--data", ds2_csv, "--theta", "nan", "--out", str(out)) == 2
    assert not out.exists()
    assert "--theta" in capsys.readouterr().err


# Config keys read as scalars, each with commands that read it. Every
# command is small, and discover/evaluate name absent files, so a value
# that slipped through validation could not start a long run.
_SCALAR_KEY_COMMANDS = {
    "m": [("generate", "--dataset", "2"),
          ("sweep", "--dataset", "2", "--sigma-grid", "0.3", "--lambda-grid", "5"),
          ("repro", "estimates", "--datasets", "1")],
    "seed": [("generate", "--dataset", "2"), ("discover", "--data", "absent.csv"),
             ("repro", "comparison", "--datasets", "1")],
    "theta": [("discover", "--data", "absent.csv"),
              ("evaluate", "--result", "absent.json", "--data", "absent.csv", "--dataset", "2"),
              ("sweep", "--dataset", "2", "--sigma-grid", "0.3", "--lambda-grid", "5"),
              ("repro", "estimates", "--datasets", "1")],
    "jobs": [("sweep", "--dataset", "2", "--sigma-grid", "0.3", "--lambda-grid", "5"),
             ("repro", "figures", "--datasets", "1", "--sigma-grid", "0.3",
              "--lambda-grid", "5")],
    "dataset": [("generate",), ("sweep", "--sigma-grid", "0.3", "--lambda-grid", "5"),
                ("evaluate", "--result", "absent.json", "--data", "absent.csv")],
}

_NOT_A_COUNT = st.one_of(
    st.none(), st.booleans(), st.text(max_size=4), st.lists(st.integers(), max_size=2),
    st.sampled_from([math.nan, math.inf, -math.inf]), st.integers(max_value=-1),
    st.floats(max_value=-1e-3, allow_infinity=False))
_FRACTIONAL = st.floats(1e-3, 1e6).filter(lambda v: not v.is_integer())


@settings(max_examples=50)
@given(data=st.data())
def test_invalid_config_scalars_are_usage_errors(tmp_path_factory, data) -> None:
    key = data.draw(st.sampled_from(sorted(_SCALAR_KEY_COMMANDS)))
    # a positive fraction is a valid theta
    value = data.draw(_NOT_A_COUNT if key == "theta" else st.one_of(_NOT_A_COUNT, _FRACTIONAL))
    command = data.draw(st.sampled_from(_SCALAR_KEY_COMMANDS[key]))
    work = tmp_path_factory.mktemp("scalar")
    config = work / "config.json"
    config.write_text(json.dumps({key: value}))
    out = ("--out-dir",) if command[0] == "repro" else ("--out",)
    code = run(*command, "--config", str(config), *out, str(work / "out"))
    assert code == 2, (key, value, command)


# ---------------------------------------------------------------- evaluate

def test_evaluate_perfect_estimate(ds2_csv, tmp_path, capsys) -> None:
    truth = builtin_spec(2).structural_matrix()
    result = tmp_path / "result.json"
    result.write_text(json.dumps({"estimated_matrix": truth.to_json()}))
    metrics_out = tmp_path / "metrics.json"
    assert run("evaluate", "--result", str(result), "--data", ds2_csv,
               "--dataset", "2", "--out", str(metrics_out)) == 0
    text = capsys.readouterr().out
    assert "precision" in text and "correct_links" in text
    metrics = json.loads(metrics_out.read_text())
    assert metrics["precision"] == 1.0
    assert metrics["recall"] == 1.0
    assert metrics["correct_links"] == 3
    assert metrics["structure_error"] == 0.0


def test_evaluate_accepts_bare_matrix_file(ds2_csv, tmp_path) -> None:
    truth = builtin_spec(2).structural_matrix()
    result = tmp_path / "bare.json"
    result.write_text(json.dumps(truth.to_json()))
    assert run("evaluate", "--result", str(result), "--data", ds2_csv,
               "--dataset", "2") == 0


def test_evaluate_flags_empty_estimate(ds2_csv, tmp_path, capsys) -> None:
    result = tmp_path / "zeros.json"
    result.write_text(json.dumps(StructuralMatrix(np.zeros((4, 4))).to_json()))
    assert run("evaluate", "--result", str(result), "--data", ds2_csv,
               "--dataset", "2") == 0
    assert "no links estimated" in capsys.readouterr().out


def test_evaluate_shape_mismatch_is_usage_error(ds2_csv, tmp_path, capsys) -> None:
    result = tmp_path / "small.json"
    result.write_text(json.dumps(StructuralMatrix(np.eye(3)).to_json()))
    assert run("evaluate", "--result", str(result), "--data", ds2_csv,
               "--dataset", "2") == 2
    assert "estimate does not match the model" in capsys.readouterr().err


def test_evaluate_garbage_result_file(ds2_csv, tmp_path) -> None:
    result = tmp_path / "junk.json"
    result.write_text(json.dumps({"rows": "nope"}))
    assert run("evaluate", "--result", str(result), "--data", ds2_csv,
               "--dataset", "2") == 2


def test_evaluate_missing_result_is_io_error(ds2_csv, tmp_path) -> None:
    assert run("evaluate", "--result", str(tmp_path / "absent.json"),
               "--data", ds2_csv, "--dataset", "2") == 3


# ------------------------------------------------------------------- sweep

def test_sweep_writes_csv(tmp_path, capsys) -> None:
    config = tmp_path / "config.json"
    config.write_text(json.dumps({"controls": {"max_inner_steps": 25}}))
    out = tmp_path / "grid.csv"
    assert run("sweep", "--dataset", "2", "--sigma-grid", "0.3",
               "--lambda-grid", "1,5", "--m", "200", "--restarts", "2",
               "--iterations", "1", "--config", str(config),
               "--out", str(out)) == 0
    lines = out.read_text().splitlines()
    assert lines[0].startswith("dataset,sigma,lambda,")
    assert len(lines) == 3
    assert "2 cells" in capsys.readouterr().out


def test_sweep_requires_dataset(capsys) -> None:
    assert run("sweep", "--sigma-grid", "0.3", "--lambda-grid", "5") == 2
    assert "requires --dataset" in capsys.readouterr().err


def test_sweep_rejects_malformed_grid(capsys) -> None:
    assert run("sweep", "--dataset", "2", "--sigma-grid", "0.3;0.5") == 2


@pytest.mark.parametrize("command", [("sweep", "--dataset", "1"),
                                     ("repro", "figures", "--datasets", "1")])
@pytest.mark.parametrize("sigma_grid, message", [("0.3,0.3", "grid values must be unique"),
                                                 ("0", "sigma must be positive")])
def test_sweep_rejects_invalid_grid(tmp_path, monkeypatch, capsys, command, sigma_grid,
                                    message) -> None:
    """A grid that parses but that sweep() rejects is a usage error in
    both commands that run sweeps."""
    monkeypatch.chdir(tmp_path)
    assert run(*command, "--m", "50", "--restarts", "1", "--iterations", "1",
               "--sigma-grid", sigma_grid, "--lambda-grid", "5") == 2
    assert message in capsys.readouterr().err


# ------------------------------------------------------------------- repro

def test_repro_estimates_ungated_dataset(tmp_path, capsys) -> None:
    out_dir = tmp_path / "repro"
    assert run("repro", "estimates", "--datasets", "1", "--m", "300",
               "--restarts", "4", "--out-dir", str(out_dir)) == 0
    report = json.loads((out_dir / "repro_estimates.json").read_text())
    assert report["which"] == "estimates"
    assert report["passed"] is True
    [rec] = report["datasets"]
    assert rec["id"] == 1
    assert rec["gated"] is False
    assert rec["expected_unrecovered"] is True
    md = (out_dir / "repro_estimates.md").read_text()
    assert "## Dataset 1" in md
    assert "Reference estimate:" in md
    assert "Not gated" in md


def test_repro_comparison_gated_dataset(tmp_path, capsys) -> None:
    out_dir = tmp_path / "repro"
    assert run("repro", "comparison", "--datasets", "2", "--restarts", "8",
               "--out-dir", str(out_dir)) == 0
    report = json.loads((out_dir / "repro_comparison.json").read_text())
    assert report["passed"] is True
    [rec] = report["datasets"]
    assert rec["gated"] is True
    assert rec["recovered"] is True
    assert rec["metrics"]["precision"] == 1.0
    assert rec["metrics"]["recall"] == 1.0
    md = (out_dir / "repro_comparison.md").read_text()
    assert "| PC | 0.5 | 0.66 | 2 |" in md
    assert "| SLCD (reference) | 1 | 1 | 3 |" in md
    assert "| SLCD (this run) | 1 | 1 | 3 |" in md


def test_repro_figures_writes_sweep_files(tmp_path, capsys) -> None:
    config = tmp_path / "config.json"
    config.write_text(json.dumps({"controls": {"max_inner_steps": 40}}))
    out_dir = tmp_path / "repro"
    assert run("repro", "figures", "--datasets", "3", "--sigma-grid", "0.3",
               "--lambda-grid", "5", "--m", "300", "--restarts", "3",
               "--config", str(config), "--out-dir", str(out_dir)) == 0
    assert (out_dir / "sweep_dataset3.csv").exists()
    report = json.loads((out_dir / "repro_sweeps.json").read_text())
    assert report["which"] == "figures"
    [rec] = report["datasets"]
    assert rec["cells"] == 1
    assert (out_dir / "repro_sweeps.md").read_text().startswith(
        "# Hyperparameter sweeps")


def test_repro_rejects_bad_dataset_list(tmp_path, capsys) -> None:
    assert run("repro", "estimates", "--datasets", "9",
               "--out-dir", str(tmp_path)) == 2
    assert "dataset ids must be in 1..5" in capsys.readouterr().err


def test_repro_rejects_unknown_mode(tmp_path) -> None:
    assert run("repro", "tables", "--out-dir", str(tmp_path)) == 2
