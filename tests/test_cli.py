"""Command-line interface, exercised in process through main(argv)."""
from __future__ import annotations

import argparse
import csv
import hashlib
import json
import math
import warnings
from functools import partial
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from slcd import (Dataset, SolverAbort, StructuralMatrix, builtin_spec, load_dataset, sample,
                  save_dataset)
from slcd import cli, evaluation
from slcd.cli import main
from slcd.evaluation import DEFAULT_SIGMA_GRID


def run(*argv: str) -> int:
    return main(list(argv))


def strict_json(path: Path):
    """The JSON object in path; NaN, Infinity and -Infinity, which
    Python's json module writes and reads but JSON does not allow, fail."""
    def reject(name: str):
        raise ValueError(f"non-standard JSON constant {name}")
    return json.loads(path.read_text(), parse_constant=reject)


# a UTF-16 byte-order mark and "{}": JSON in a file that is not UTF-8
NOT_UTF8 = b"\xff\xfe{}"


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


_COMMON = {"-h", "--help", "--config", "--seed"}
_SOLVE = _COMMON | {"--sigma", "--lambda", "--tau", "--eps1", "--eps2", "--iterations",
                    "--restarts", "--theta"}


def test_parser_surface_is_pinned() -> None:
    """The option strings of every subcommand (and repro's positional),
    so that no flag is added or dropped unnoticed."""
    parser = cli.build_parser()
    [sub] = [a for a in parser._actions if isinstance(a, argparse._SubParsersAction)]
    surface = {name: {s for a in p._actions for s in a.option_strings or [a.dest]}
               for name, p in sub.choices.items()}
    assert surface == {
        "generate": _COMMON | {"--dataset", "--spec", "--m", "--out"},
        "discover": _SOLVE | {"--data", "--out"},
        "evaluate": {"-h", "--help", "--config", "--result", "--data", "--dataset", "--spec",
                     "--out", "--theta"},
        "sweep": _SOLVE - {"--sigma", "--lambda"} | {"--dataset", "--sigma-grid",
                                                     "--lambda-grid", "--m", "--out"},
        "repro": _SOLVE | {"which", "--out-dir", "--datasets", "--m", "--sigma-grid",
                           "--lambda-grid"},
    }


# ---------------------------------------------------------------- generate

def test_generate_writes_csv_and_sidecar(tmp_path) -> None:
    out = tmp_path / "d2.csv"
    assert run("generate", "--dataset", "2", "--m", "50", "--seed", "3",
               "--out", str(out)) == 0
    ds = load_dataset(str(out))
    expected = sample(builtin_spec(2), 50, 3)
    np.testing.assert_array_equal(ds.X, expected.X)
    meta = json.loads((tmp_path / "d2.json").read_text())
    assert meta == {"format_version": 1, "spec_name": "dataset2", "seed": 3, "m": 50, "n": 4,
                    "true_links": 3}


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


def test_generate_and_evaluate_take_a_large_coefficient(tmp_path, capsys) -> None:
    """x3 = 1e9 x1 is a valid model, however far its largest coefficient
    is from the unit rows: generate and evaluate both exit 0."""
    spec = builtin_spec(1).to_json()
    spec["variables"][1] = spec["variables"][0]
    spec["variables"][2]["terms"] = [[0, 1e9]]
    spec_path, data = tmp_path / "model.json", tmp_path / "d.csv"
    spec_path.write_text(json.dumps(spec))
    assert run("generate", "--spec", str(spec_path), "--m", "20", "--out", str(data)) == 0
    assert json.loads((tmp_path / "d.json").read_text())["true_links"] == 1
    truth = tmp_path / "truth.json"
    truth.write_text(json.dumps({"n": 3, "rows": [[1, 0, 0], [0, 1, 0], [1e9, 0, 0]]}))
    assert run("evaluate", "--result", str(truth), "--data", str(data),
               "--spec", str(spec_path)) == 0
    assert "Traceback" not in capsys.readouterr().err


MISTYPED_SPECS = {
    "parent-fraction": ("variables", 1, "terms", [[0.7, 0.5]]),
    "parent-bool": ("variables", 1, "terms", [[False, 0.5]]),
    "coefficient-string": ("variables", 1, "terms", [[0, "0.5"]]),
    "coefficient-null": ("variables", 1, "terms", [[0, None]]),
    "bound-string": ("variables", 0, "dist", {"kind": "uniform", "a": "-2.5", "b": 2.5}),
    "bound-bool": ("variables", 0, "dist", {"kind": "uniform", "a": -2.5, "b": True}),
    "bound-huge-int": ("variables", 0, "dist", {"kind": "uniform", "a": -2.5, "b": 10 ** 400}),
    "variance-string": ("variables", 0, "dist", {"kind": "gaussian", "mean": 0.0, "variance": "4"}),
    "dist-list": ("variables", 0, "dist", [-2.5, 2.5]),
    "variable-string": ("variables", 0, None, "independent"),
    "name-number": ("name", None, None, 7),
}


@pytest.mark.parametrize("where", MISTYPED_SPECS.values(), ids=MISTYPED_SPECS.keys())
def test_generate_rejects_mistyped_spec(tmp_path, capsys, where) -> None:
    """A spec value of the wrong type, in dataset 1's spec, is an invalid
    spec file (exit 2), not a value converted to the expected type."""
    key, index, field, value = where
    spec = builtin_spec(1).to_json()
    if index is None:
        spec[key] = value
    elif field is None:
        spec[key][index] = value
    else:
        spec[key][index][field] = value
    spec_path = tmp_path / "model.json"
    spec_path.write_text(json.dumps(spec))
    assert run("generate", "--spec", str(spec_path), "--m", "20",
               "--out", str(tmp_path / "d.csv")) == 2
    err = capsys.readouterr().err
    assert "invalid spec file" in err and "Traceback" not in err
    assert not (tmp_path / "d.csv").exists()


def test_generate_rejects_zero_samples(tmp_path, capsys) -> None:
    assert run("generate", "--dataset", "2", "--m", "0",
               "--out", str(tmp_path / "x.csv")) == 2
    assert "--m" in capsys.readouterr().err


def test_generate_csv_bytes_are_pinned(tmp_path) -> None:
    # sha256 of the file the row-by-row np.savetxt writer produced; any
    # drift in the CSV writer or in sample() changes it
    out = tmp_path / "d5.csv"
    assert run("generate", "--dataset", "5", "--m", "20000", "--seed", "0",
               "--out", str(out)) == 0
    assert hashlib.sha256(out.read_bytes()).hexdigest() == (
        "05ae8047de33d71ece053b599ed4673f60e8b6b2a83f07947d360d545b162863")


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


# The 1-based line of each MALFORMED_CSV case's first malformed line,
# None where the file holds no data row.
MALFORMED_LINE = {
    "empty": None,
    "blank-lines": None,
    "ragged-row": 2,
    "non-numeric-cell": 2,
    "trailing-comma": 1,
    "comment-line": 1,
    "whitespace-only-line": 2,
}


@pytest.mark.parametrize("name", MALFORMED_CSV)
def test_malformed_line_past_the_first_piece(tmp_path, capsys, monkeypatch, name) -> None:
    """Each MALFORMED_CSV case after 30 good rows, read in 16-byte pieces
    on two processes: the API raises a ValueError that names the bad
    line of the file, and discover exits 3 with it."""
    from slcd import _csvio, _fork

    monkeypatch.setattr(_csvio, "_READ_PIECE", 16)
    monkeypatch.setattr(_fork, "_usable_cpus", lambda: 2)
    line = MALFORMED_LINE[name]
    prefix = "" if line is None else "1,2,3\n" * 30
    bad = tmp_path / "bad.csv"
    bad.write_text(prefix + MALFORMED_CSV[name], encoding="utf-8")
    expected = f"no data rows in {bad}" if line is None else f"{bad}:{30 + line}: "
    with pytest.raises(ValueError) as err:
        load_dataset(str(bad))
    assert str(err.value).startswith(expected)
    assert "usecols" not in str(err.value)
    assert run("discover", "--data", str(bad), "--restarts", "1", "--iterations", "1",
               "--out", str(tmp_path / "result.json")) == 3
    assert f"malformed dataset: {expected}" in capsys.readouterr().err


def test_single_sample_dataset_is_io_error(tmp_path, capsys) -> None:
    data = str(tmp_path / "one.csv")
    assert run("generate", "--dataset", "2", "--m", "1", "--out", data) == 2
    assert "--m must be an integer of at least 2" in capsys.readouterr().err
    Path(data).write_text("0.5,-1.25,0.15,-2\n", encoding="utf-8")
    result = tmp_path / "result.json"
    result.write_text(json.dumps(StructuralMatrix(np.eye(4)).to_json()))
    capsys.readouterr()
    assert run("discover", "--data", data, "--out", str(tmp_path / "r.json")) == 3
    assert run("evaluate", "--result", str(result), "--data", data, "--dataset", "2") == 3
    err = capsys.readouterr().err
    assert err.count("holds 1 sample, at least 2 are needed") == 2
    assert "Traceback" not in err


def test_sidecar_is_not_read(ds2_csv, tmp_path) -> None:
    """discover and evaluate read the CSV alone: beside a sidecar that
    is not JSON they exit 0 and write what they write without one."""
    result = tmp_path / "result.json"
    result.write_text(json.dumps(builtin_spec(2).structural_matrix().to_json()))
    outputs = []
    for name, sidecar in (("bare", None), ("garbage", b'{"seed": \xff')):
        data = tmp_path / f"{name}.csv"
        data.write_bytes(Path(ds2_csv).read_bytes())
        if sidecar is not None:
            (tmp_path / f"{name}.json").write_bytes(sidecar)
        found, metrics = tmp_path / f"{name}.result.json", tmp_path / f"{name}.metrics.json"
        assert run("discover", "--data", str(data), "--restarts", "2", "--iterations", "1",
                   "--out", str(found)) == 0
        assert run("evaluate", "--result", str(result), "--data", str(data), "--dataset", "2",
                   "--out", str(metrics)) == 0
        outputs.append((strip_walls(json.loads(found.read_text())), metrics.read_bytes()))
    assert outputs[0] == outputs[1]


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


def _generated(key: str):
    """generate on dataset 2, reading key back from the sidecar."""
    def observe(tmp_path, capsys, *extra):
        assert run("generate", "--dataset", "2", "--out", str(tmp_path / "d.csv"), *extra) == 0
        return json.loads((tmp_path / "d.json").read_text())[key]
    return observe


def _evaluated_precision(tmp_path, capsys, *extra):
    """evaluate's printed precision for dataset 2's true matrix plus two
    spurious links, of 0.2 (x2 -> x3) and 0.4 (x2 -> x1): 5, 4 and 3
    links are estimated at theta 0.15, 0.25 and 0.35."""
    data = tmp_path / "d.csv"
    assert run("generate", "--dataset", "2", "--m", "50", "--out", str(data)) == 0
    D = builtin_spec(2).structural_matrix().entries.copy()
    D[2, 1], D[0, 1] = 0.2, 0.4
    result = tmp_path / "result.json"
    result.write_text(json.dumps(StructuralMatrix(D).to_json()))
    capsys.readouterr()
    assert run("evaluate", "--result", str(result), "--data", str(data), "--dataset", "2",
               *extra) == 0
    [line] = [ln for ln in capsys.readouterr().out.splitlines()
              if ln.startswith("precision")]
    return line.split()[-1]


def _swept_sigmas(tmp_path, capsys, *extra):
    """The sigma values of a sweep's CSV rows."""
    out = tmp_path / "grid.csv"
    assert run("sweep", "--dataset", "2", "--lambda-grid", "5", "--m", "30", "--restarts", "1",
               "--iterations", "1", "--out", str(out), *extra) == 0
    with open(out, newline="", encoding="utf-8") as fh:
        return tuple(float(row["sigma"]) for row in csv.DictReader(fh))


# key, flag, config value, observe, and what observe sees with the flag and
# the config file (flag beats config), with the config file alone (config
# beats default) and with neither (default)
PRECEDENCE_CASES = [
    pytest.param("m", ("--m", "30"), 40, _generated("m"), (30, 40, 1000), id="m"),
    pytest.param("seed", ("--seed", "3"), 4, _generated("seed"), (3, 4, 0), id="seed"),
    pytest.param("theta", ("--theta", "0.35"), 0.25, _evaluated_precision,
                 ("0.6667", "0.75", "0.6"), id="theta"),
    pytest.param("sigma_grid", ("--sigma-grid", "0.5"), "0.4,0.6", _swept_sigmas,
                 ((0.5,), (0.4, 0.6), DEFAULT_SIGMA_GRID), id="sigma_grid-string"),
    pytest.param("sigma_grid", ("--sigma-grid", "0.5"), [0.4, 0.6], _swept_sigmas,
                 ((0.5,), (0.4, 0.6), DEFAULT_SIGMA_GRID), id="sigma_grid-list"),
]


@pytest.mark.parametrize("key, flag, config_value, observe, expected", PRECEDENCE_CASES)
def test_config_precedence_per_setting(tmp_path, capsys, key, flag, config_value, observe,
                                       expected) -> None:
    config = tmp_path / "config.json"
    config.write_text(json.dumps({key: config_value}))
    at_flag, at_config, at_default = expected
    assert observe(tmp_path, capsys, *flag, "--config", str(config)) == at_flag
    assert observe(tmp_path, capsys, "--config", str(config)) == at_config
    assert observe(tmp_path, capsys) == at_default


def test_config_controls_section(ds2_csv, tmp_path) -> None:
    config = tmp_path / "config.json"
    config.write_text(json.dumps(
        {"restarts": 2, "iterations": 1, "seed": 3,
         "controls": {"max_inner_steps": 7}}))
    out = tmp_path / "result.json"
    assert run("discover", "--data", ds2_csv, "--config", str(config),
               "--out", str(out)) == 0
    ctl = json.loads(out.read_text())["controls"]
    assert ctl == {"max_inner_steps": 7, "seed": 3}


def test_config_seed_only_at_top_level(ds2_csv, tmp_path, capsys) -> None:
    # the seed is one setting, so the "controls" object cannot hold a second one
    config = tmp_path / "config.json"
    config.write_text(json.dumps({"controls": {"seed": 3}}))
    out = tmp_path / "result.json"
    assert run("discover", "--data", ds2_csv, "--config", str(config), "--out", str(out)) == 2
    assert "invalid solver controls" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("command, value", [
    (("generate", "--dataset", "2"), {"restarts": 0}),
    (("generate", "--dataset", "2"), {"sigma": "x"}),
    (("generate", "--dataset", "2"), {"theta": -3}),
    (("generate", "--dataset", "2"), {"controls": {"max_inner_steps": 0}}),
    (("discover", "--data", "absent.csv"), {"m": "x"}),
    (("discover", "--data", "absent.csv"), {"sigma_grid": 0}),
    (("discover", "--data", "absent.csv"), {"lambda_grid": []}),
    (("discover", "--data", "absent.csv"), {"dataset": None}),
    (("repro", "estimates", "--datasets", "1"), {"dataset": -1}),
])
def test_config_values_checked_when_not_read(tmp_path, capsys, command, value) -> None:
    """A config value must be valid even where the command ignores its
    key; discover names an absent file, so only the config can fail. The
    message names the config key, not a flag."""
    config = tmp_path / "config.json"
    config.write_text(json.dumps(value))
    out = ("--out-dir",) if command[0] == "repro" else ("--out",)
    assert run(*command, "--config", str(config), *out, str(tmp_path / "out")) == 2
    err = capsys.readouterr().err
    [key] = value
    assert err.startswith(f"error: config key '{key}'")
    assert "Traceback" not in err
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("which", ["estimates", "comparison"])
@pytest.mark.parametrize("flag, value", [("--sigma-grid", "x"), ("--lambda-grid", "")])
def test_flags_checked_when_not_read(tmp_path, capsys, which, flag, value) -> None:
    """repro estimates and comparison do not read the grids, yet reject
    an invalid one before writing anything."""
    out_dir = tmp_path / "out"
    assert run("repro", which, "--datasets", "1", "--m", "50", "--restarts", "1",
               "--iterations", "1", flag, value, "--out-dir", str(out_dir)) == 2
    assert capsys.readouterr().err.startswith(f"error: {flag} must be")
    assert not out_dir.exists()


@pytest.mark.parametrize("key, flag_value, config_value", [
    ("m", "1", 1), ("theta", "nan", -1), ("tau", "0", 0), ("restarts", "-2", 1.5),
    ("sigma_grid", "x", "x"), ("lambda_grid", "", []),
])
def test_messages_name_the_source(tmp_path, capsys, key, flag_value, config_value) -> None:
    """The same bad setting is reported under its flag name when given as
    a flag and under its config key when given in the config file."""
    command = ("sweep", "--dataset", "2", "--iterations", "1", "--out", str(tmp_path / "o.csv"))
    flag = "--" + key.replace("_", "-")
    assert run(*command, flag, flag_value) == 2
    assert capsys.readouterr().err.startswith(f"error: {flag}")
    config = tmp_path / "config.json"
    config.write_text(json.dumps({key: config_value}))
    assert run(*command, "--config", str(config)) == 2
    assert capsys.readouterr().err.startswith(f"error: config key '{key}'")


@pytest.mark.parametrize("key, value", [
    ("sigma_grid", {"0.3": 1}), ("lambda_grid", ["0.5"]), ("lambda_grid", [True]),
    ("sigma_grid", [0.3, None]), ("sigma_grid", [10 ** 400]),
])
def test_config_grid_must_list_numbers(tmp_path, capsys, key, value) -> None:
    """A config grid is a string or a list of finite numbers: an object,
    a string item, a bool item or an integer beyond the float range is a
    usage error under the config key."""
    config = tmp_path / "config.json"
    config.write_text(json.dumps({key: value}))
    out = tmp_path / "grid.csv"
    assert run("sweep", "--dataset", "2", "--config", str(config), "--out", str(out)) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"error: config key '{key}' must be a non-empty list of numbers")
    assert not out.exists()


def test_config_grid_of_ints(tmp_path, capsys) -> None:
    config = tmp_path / "config.json"
    config.write_text(json.dumps({"sigma_grid": [1], "lambda_grid": [5, 10]}))
    out = tmp_path / "grid.csv"
    assert run("sweep", "--dataset", "2", "--m", "30", "--restarts", "1", "--iterations", "1",
               "--config", str(config), "--out", str(out)) == 0
    with open(out, newline="", encoding="utf-8") as fh:
        cells = [(float(row["sigma"]), float(row["lambda"])) for row in csv.DictReader(fh)]
    assert cells == [(1.0, 5.0), (1.0, 10.0)]


def test_config_valid_unread_keys_are_ignored(tmp_path) -> None:
    config = tmp_path / "config.json"
    config.write_text(json.dumps({"restarts": 3, "theta": 0.2, "sigma_grid": [0.3],
                                  "controls": {"max_inner_steps": 9}}))
    data = tmp_path / "d.csv"
    assert run("generate", "--dataset", "2", "--m", "50", "--config", str(config),
               "--out", str(data)) == 0
    assert data.exists()


def test_config_unknown_key_rejected(ds2_csv, tmp_path, capsys) -> None:
    config = tmp_path / "config.json"
    config.write_text(json.dumps({"sigmas": 0.3}))
    assert run("discover", "--data", ds2_csv, "--config", str(config)) == 2
    assert "unknown config keys: sigmas" in capsys.readouterr().err


@pytest.mark.parametrize("flags, config, message", [
    (("--jobs", "2"), {}, "unrecognized arguments: --jobs 2"),
    ((), {"jobs": 2}, "unknown config keys: jobs"),
    (("--sigma", "7"), {}, "unrecognized arguments: --sigma 7"),
    (("--lambda", "7"), {}, "unrecognized arguments: --lambda 7"),
], ids=["flag", "config", "sigma-flag", "lambda-flag"])
def test_retired_jobs_is_usage_error(tmp_path, capsys, flags, config, message) -> None:
    """The sweep picks its processes itself: its former jobs setting is an
    unknown flag and an unknown config key. Each cell takes sigma and
    lambda from the grids: --sigma and --lambda are unknown flags too,
    not abbreviations of the grid flags. Nothing is written."""
    path = tmp_path / "config.json"
    path.write_text(json.dumps(config))
    out = tmp_path / "grid.csv"
    assert run("sweep", "--dataset", "2", *flags, "--config", str(path), "--out", str(out)) == 2
    assert message in capsys.readouterr().err
    assert not out.exists()


def test_config_invalid_json_rejected(ds2_csv, tmp_path, capsys) -> None:
    config = tmp_path / "config.json"
    for payload in (b"{not json", NOT_UTF8):
        config.write_bytes(payload)
        assert run("discover", "--data", ds2_csv, "--config", str(config)) == 2
        err = capsys.readouterr().err
        assert "not valid JSON" in err and "Traceback" not in err


def test_config_must_be_object(ds2_csv, tmp_path) -> None:
    config = tmp_path / "config.json"
    config.write_text("[1, 2]")
    assert run("discover", "--data", ds2_csv, "--config", str(config)) == 2


def test_config_missing_file_is_io_error(ds2_csv, tmp_path) -> None:
    assert run("discover", "--data", ds2_csv,
               "--config", str(tmp_path / "absent.json")) == 3


def test_config_removed_penalty_controls_rejected(ds2_csv, tmp_path, capsys) -> None:
    # the reference penalty weight and the SQP's line-search and stopping
    # constants are fixed; their knobs are gone
    config = tmp_path / "config.json"
    for key in ("penalty_mu_init", "penalty_growth", "penalty_outer_rounds",
                "step_init", "backtrack_factor", "armijo_c", "grad_tol"):
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
    value = data.draw(st.one_of(_NOT_A_COUNT, st.just(10 ** 400)) if key == "theta"
                      else st.one_of(_NOT_A_COUNT, _FRACTIONAL))
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
    metrics = strict_json(metrics_out)
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


GARBAGE_RESULTS = {
    "rows-not-a-list": {"rows": "nope"},
    "array": [1, 2],
    "number": 3,
    "string": "x",
    "null": None,
    "n-fraction": {"n": 2.9, "rows": [[1.0, 0.0], [0.0, 1.0]]},
    "n-string": {"n": "2", "rows": [[1.0, 0.0], [0.0, 1.0]]},
    "entry-strings": {"n": 2, "rows": [["1", "0"], [True, "1e0"]]},
    "entry-bool": {"n": 2, "rows": [[1.0, 0.0], [True, 1.0]]},
    "entry-string": {"n": 2, "rows": [[1.0, 0.0], [0.0, "1e0"]]},
    "entry-null": {"n": 2, "rows": [[1.0, None], [0.0, 1.0]]},
    "entry-list": {"n": 2, "rows": [[1.0, [0.0]], [0.0, 1.0]]},
    "entry-huge-int": {"n": 2, "rows": [[1.0, 10 ** 400], [0.0, 1.0]]},
    "row-not-a-list": {"n": 2, "rows": [[1.0, 0.0], 1.0]},
}


@pytest.mark.parametrize("payload", GARBAGE_RESULTS.values(), ids=GARBAGE_RESULTS.keys())
def test_evaluate_garbage_result_file(ds2_csv, tmp_path, capsys, payload) -> None:
    result = tmp_path / "junk.json"
    result.write_text(json.dumps(payload))
    assert run("evaluate", "--result", str(result), "--data", ds2_csv,
               "--dataset", "2") == 2
    assert "does not hold an estimated matrix" in capsys.readouterr().err


def test_evaluate_missing_result_is_io_error(ds2_csv, tmp_path) -> None:
    assert run("evaluate", "--result", str(tmp_path / "absent.json"),
               "--data", ds2_csv, "--dataset", "2") == 3


@pytest.mark.parametrize("payload", [b"{not json", NOT_UTF8], ids=["syntax", "not-utf8"])
def test_evaluate_result_not_json_is_usage_error(ds2_csv, tmp_path, capsys, payload) -> None:
    result = tmp_path / "result.json"
    result.write_bytes(payload)
    assert run("evaluate", "--result", str(result), "--data", ds2_csv, "--dataset", "2") == 2
    err = capsys.readouterr().err
    assert f"{result} is not valid JSON" in err and "Traceback" not in err


@pytest.mark.parametrize("case", ["nan", "inf", "overflowing-data", "huge-estimate"])
def test_evaluate_non_finite_data_is_numeric_abort(ds2_csv, tmp_path, capsys, case) -> None:
    """Data holding NaN or inf, data whose second moments overflow, and an
    estimate whose products with the data overflow all give metrics that
    JSON cannot hold: exit 4 with no metrics file and no RuntimeWarning."""
    data = tmp_path / "bad.csv"
    D_hat = builtin_spec(2).structural_matrix().entries.copy()
    if case == "overflowing-data":
        save_dataset(Dataset(load_dataset(ds2_csv).X * 1e160), str(data))
    elif case == "huge-estimate":
        data = Path(ds2_csv)
        D_hat[2, 0] = 1e200
    else:
        lines = Path(ds2_csv).read_text().splitlines()
        row = lines[5].split(",")
        row[1] = case
        lines[5] = ",".join(row)
        data.write_text("\n".join(lines) + "\n")
    result = tmp_path / "result.json"
    result.write_text(json.dumps(StructuralMatrix(D_hat).to_json()))
    out = tmp_path / "metrics.json"
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        code = run("evaluate", "--result", str(result), "--data", str(data), "--dataset", "2",
                   "--out", str(out))
    assert code == 4
    assert "holds NaN or inf values" in capsys.readouterr().err
    assert not out.exists()
    assert not [w for w in caught if issubclass(w.category, RuntimeWarning)]


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


def test_sweep_every_cell_aborted_is_numeric_abort(tmp_path, monkeypatch, usable_cpus,
                                                  capsys) -> None:
    """A sweep whose every cell aborts still writes its CSV, one row of
    NaN metrics per cell, and exits 4."""
    def aborting(data, hp, controls):
        raise SolverAbort("every restart aborted without a finite candidate", [])

    usable_cpus(1)
    monkeypatch.setattr(evaluation, "slcd", aborting)
    out = tmp_path / "grid.csv"
    assert run("sweep", "--dataset", "2", "--sigma-grid", "0.3", "--lambda-grid", "1,5",
               "--m", "30", "--out", str(out)) == 4
    captured = capsys.readouterr()
    assert "2 cells, 0 solved" in captured.out
    assert captured.err == "every cell aborted\n"
    with open(out, newline="", encoding="utf-8") as fh:
        rows = list(csv.DictReader(fh))
    assert [(row["sigma"], row["lambda"]) for row in rows] == [("0.3", "1"), ("0.3", "5")]
    assert all(row["precision"] == "nan" for row in rows)


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
    # the stdout verdict marks the dataset that no gate checks
    line, last = capsys.readouterr().out.splitlines()
    assert line.startswith("dataset 1: ") and "(not gated)" in line
    assert last.endswith("all gates passed")
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
    assert capsys.readouterr().out.startswith("dataset 2: recovered, max deviation")
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


def test_repro_rejects_duplicate_dataset_ids(tmp_path, capsys) -> None:
    assert run("repro", "estimates", "--datasets", "2,2", "--out-dir", str(tmp_path)) == 2
    assert "dataset ids must be unique" in capsys.readouterr().err


# (row, column, value) set in dataset 2's true matrix: a spurious 0.17
# link lies within the deviation bound, a coefficient off by 0.5 keeps
# every link
@pytest.mark.parametrize("change, code", [((0, 0, 1.0), 0), ((2, 1, 0.17), 1), ((2, 0, 0.8), 1)],
                         ids=["exact", "spurious-link", "coefficient-off"])
@pytest.mark.parametrize("which", ["estimates", "comparison"])
def test_repro_gate_needs_links_and_coefficients(tmp_path, monkeypatch, capsys, which, change,
                                                 code) -> None:
    D = builtin_spec(2).structural_matrix().entries.copy()
    row, col, value = change
    D[row, col] = value
    monkeypatch.setattr(cli, "slcd", lambda data, hp, controls: SimpleNamespace(D_opt=D,
                                                                               J_min=0.0))
    assert run("repro", which, "--datasets", "2", "--m", "50",
               "--out-dir", str(tmp_path)) == code
    [rec] = json.loads((tmp_path / f"repro_{which}.json").read_text())["datasets"]
    assert rec["recovered"] is (code == 0)


def test_repro_rejects_unknown_mode(tmp_path) -> None:
    assert run("repro", "tables", "--out-dir", str(tmp_path)) == 2


# ------------------------------------------------------------- write errors

_QUICK = ("--restarts", "2", "--iterations", "1")
# name -> (argv, the path that cannot be written). {data} is dataset 2's
# CSV; {dir} is a fresh directory that holds a true-matrix truth.json and
# two directories named as the repro reports.
_UNWRITABLE = {
    "generate-missing-dir": (("generate", "--dataset", "2", "--m", "30",
                              "--out", "{dir}/absent/d.csv"), "{dir}/absent/d.csv"),
    "discover-out-is-dir": (("discover", "--data", "{data}", *_QUICK, "--out", "{dir}"), "{dir}"),
    "evaluate-out-is-dir": (("evaluate", "--result", "{dir}/truth.json", "--data", "{data}",
                             "--dataset", "2", "--out", "{dir}"), "{dir}"),
    "sweep-out-is-dir": (("sweep", "--dataset", "2", "--sigma-grid", "0.3", "--lambda-grid", "5",
                          "--m", "30", *_QUICK, "--out", "{dir}"), "{dir}"),
    "repro-out-dir-is-file": (("repro", "estimates", "--out-dir", "{data}"), "{data}"),
    "repro-estimates-md-is-dir": (("repro", "estimates", "--datasets", "1", "--m", "50", *_QUICK,
                                   "--out-dir", "{dir}"), "{dir}/repro_estimates.md"),
    "repro-figures-md-is-dir": (("repro", "figures", "--datasets", "3", "--sigma-grid", "0.3",
                                 "--lambda-grid", "5", "--m", "50", *_QUICK, "--out-dir", "{dir}"),
                                "{dir}/repro_sweeps.md"),
}


@pytest.mark.parametrize("argv, path", _UNWRITABLE.values(), ids=_UNWRITABLE.keys())
def test_unwritable_output_is_io_error(ds2_csv, tmp_path, capsys, argv, path) -> None:
    """Every file or directory a command cannot write is exit 3, with a
    message that names its path and no traceback. No repro report is
    left behind: it is written after the .md."""
    (tmp_path / "truth.json").write_text(json.dumps(builtin_spec(2).structural_matrix().to_json()))
    for name in ("repro_estimates.md", "repro_sweeps.md"):
        (tmp_path / name).mkdir()
    fill = partial(str.format, dir=str(tmp_path), data=ds2_csv)
    assert run(*map(fill, argv)) == 3
    err = capsys.readouterr().err
    assert fill(path) in err and "Traceback" not in err
    assert not list(tmp_path.glob("repro_*.json"))


def _console(*argv: str, python_flags=()):
    """`python [python_flags] -m slcd.cli argv`, as a shell runs it."""
    import os
    import subprocess
    import sys

    src = str(Path(cli.__file__).resolve().parents[1])
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    return subprocess.run([sys.executable, *python_flags, "-m", "slcd.cli", *argv],
                          capture_output=True, text=True, env={**os.environ, "PYTHONPATH": path},
                          timeout=120)


def test_console_entry_point_exit_code(tmp_path) -> None:
    """Through `python -m slcd.cli`, an unreadable input gives process
    status 3, not the 1 of an uncaught exception."""
    done = _console("discover", "--data", str(tmp_path / "absent.csv"))
    assert done.returncode == 3
    assert "cannot read dataset" in done.stderr and "Traceback" not in done.stderr


def test_overflowing_solve_warns_nothing(ds2_csv, tmp_path) -> None:
    """A trace weight that overflows the solve's arithmetic takes the
    finiteness tests' path silently: with RuntimeWarnings as errors the
    run exits 0 and writes what it writes without them."""
    written = []
    for flags in ((), ("-W", "error::RuntimeWarning")):
        out = tmp_path / "result.json"
        done = _console("discover", "--data", ds2_csv, "--lambda", "1e300", "--restarts", "2",
                        "--iterations", "1", "--out", str(out), python_flags=flags)
        assert (done.returncode, done.stderr) == (0, "")
        written.append(strip_walls(json.loads(out.read_text())))
    assert written[0] == written[1]


# ------------------------------------------------------------ fuzzed settings

# Any JSON value, with integers small enough that a run whose settings
# all pass stays short.
_JSON_VALUE = st.recursive(
    st.one_of(st.none(), st.booleans(), st.integers(-3, 3), st.floats(), st.text(max_size=4)),
    lambda inner: st.lists(inner, max_size=2) | st.dictionaries(st.text(max_size=4), inner,
                                                                 max_size=2),
    max_leaves=4)
_FINITE = partial(st.floats, allow_nan=False, allow_infinity=False)
# A valid value for each config key, as JSON; the solve stays short.
_VALID = {
    "seed": st.integers(0, 2 ** 64), "sigma": _FINITE(1e-3, 10.0), "lambda": _FINITE(0.0, 100.0),
    "tau": st.integers(1, 5), "eps1": st.none() | _FINITE(0.0, 10.0),
    "eps2": st.none() | _FINITE(0.0, 10.0), "iterations": st.integers(1, 2),
    "restarts": st.integers(1, 8), "theta": _FINITE(1e-3, 1.0), "m": st.integers(2, 10 ** 6),
    "dataset": st.integers(1, 5),
    "sigma_grid": st.lists(_FINITE(1e-3, 10.0), min_size=1, max_size=2, unique=True),
    "lambda_grid": st.lists(_FINITE(0.0, 100.0), min_size=1, max_size=2, unique=True),
    "controls": st.fixed_dictionaries({}, optional={"max_inner_steps": st.integers(1, 20)}),
}
_CONFIG = st.lists(st.sampled_from(sorted(cli._CONFIG_KEYS) + ["unknown"]).flatmap(
    lambda key: st.tuples(st.just(key), st.one_of(_VALID.get(key, st.nothing()), _JSON_VALUE))),
    max_size=3).map(dict)
# Flag text: a valid value, or numbers in any spelling but those of large
# integers (no decimal digit outside the listed strings), so a run stays
# short too.
_FLAG_TEXT = st.one_of(
    st.sampled_from(["0", "1", "2", "3", "-1", "2.5", "1e-9", "1e-300", "1e300", "1e400", "nan",
                     "inf", "-inf", "x", "", " 1", "0x1", "1_0"]),
    st.text(st.characters(blacklist_categories=("Nd", "Cs")), max_size=4))
_FLAGS = st.lists(st.sampled_from(
    ["seed", "sigma", "lambda", "tau", "eps1", "eps2", "iterations", "restarts", "theta",
     "unknown"]).flatmap(lambda key: st.tuples(
        st.just(cli._flag(key)),
        st.one_of(_VALID.get(key, st.nothing()).filter(lambda v: v is not None).map(str),
                  _FLAG_TEXT))),
    max_size=3)


@settings(max_examples=60)
@given(config=st.one_of(_CONFIG, st.text(max_size=8)), flags=_FLAGS)
def test_fuzzed_discover_settings_exit_cleanly(ds2_csv, tmp_path_factory, config, flags) -> None:
    """discover with any config file and flags exits 0, 2, 3 or 4 and
    prints no traceback. The config starts from 2 restarts of 1 round of
    at most 20 SQP steps, which drawn keys replace.

    main() runs under Python's default action for RuntimeWarning, as the
    installed command does, not under this suite's "error": accepted but
    extreme settings, such as a lambda of 1e300, overflow in the solve,
    which then warns and goes on."""
    import contextlib
    import io

    work = tmp_path_factory.mktemp("fuzz")
    path = work / "config.json"
    if isinstance(config, dict):
        config = json.dumps({"restarts": 2, "iterations": 1,
                             "controls": {"max_inner_steps": 20}, **config})
    path.write_text(config, encoding="utf-8", errors="surrogatepass")
    argv = ["discover", "--data", ds2_csv, "--out", str(work / "out.json"), "--config", str(path)]
    argv += [part for flag, value in flags for part in (flag, value)]
    err = io.StringIO()
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err), \
            warnings.catch_warnings():
        warnings.simplefilter("default", RuntimeWarning)
        code = main(argv)
    assert code in (0, 2, 3, 4), (argv, config, err.getvalue())
    assert "Traceback" not in err.getvalue()
