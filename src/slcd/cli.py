"""Command-line front end.

Subcommands: generate (sample a benchmark dataset to CSV), discover
(estimate a structural matrix from a dataset), evaluate (score an
estimate against a known model), sweep (grid-run discovery over
hyperparameters), and repro (re-run the built-in benchmarks and
compare against the stored reference results).

main() resolves every setting once: a command-line flag wins, a key of
the --config JSON file fills a flag left off, and a setting given by
neither takes its default. Exit codes: 0 success, 1 tolerance failure,
2 usage error, 3 I/O error, 4 numeric abort.
"""
from __future__ import annotations

import argparse
import json
import math
import numbers
import sys
import time
from pathlib import Path

import numpy as np

from .datagen import BUILTIN_IDS, Dataset, builtin_spec, load_dataset, sample, save_dataset
from .evaluation import (
    DEFAULT_LAMBDA_GRID,
    DEFAULT_SIGMA_GRID,
    DEFAULT_THETA,
    extract_edges,
    metric_bundle,
    sweep,
)
from .objective import Hyperparams
from .reference import (
    COMPARISON_METHODS,
    EXPECTED_RECOVERED_IDS,
    REFERENCE_COMPARISON,
    REFERENCE_ESTIMATES,
)
from .scm_core import ScmSpec, StructuralMatrix, true_edges
from .solver import SolverAbort, SolverControls, slcd

__all__ = ["main"]

FORMAT_VERSION = 1

EXIT_OK = 0
EXIT_TOLERANCE = 1
EXIT_USAGE = 2
EXIT_IO = 3
EXIT_NUMERIC = 4

# Deviation gate for the repro command: the largest entrywise gap
# between a reference estimate and the true matrix is 0.168, so 0.2
# accepts every published recovery with headroom while still rejecting
# any misplaced coefficient (smallest true value 0.3).
REPRO_MAX_DEVIATION = 0.2

# The scalar settings: kind, lower bound and default (None: no default).
# An int must be at least its bound, a float finite and above it.
_SCALARS = {
    "m": (int, 2, 1000),
    "seed": (int, 0, 0),
    "theta": (float, 0, DEFAULT_THETA),
    "jobs": (int, 1, 1),
    "dataset": (int, 0, None),
}

_HYPER_KEYS = ("sigma", "lambda", "tau", "eps1", "eps2", "iterations", "restarts")

# Keys a --config JSON file may set: the settings above, the two sweep
# grids and "controls", an object with the SolverControls fields other
# than seed (max_inner_steps).
_CONFIG_KEYS = frozenset({*_SCALARS, *_HYPER_KEYS, "sigma_grid", "lambda_grid", "controls"})


class _CliError(Exception):
    """Carries an exit code and a message to the top-level handler."""

    def __init__(self, code: int, message: str):
        super().__init__(message)
        self.code = code


def _load_config(path: str | None) -> dict:
    if path is None:
        return {}
    try:
        with open(path, "r", encoding="utf-8") as fh:
            obj = json.load(fh)
    except OSError as exc:
        raise _CliError(EXIT_IO, f"cannot read config file: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise _CliError(EXIT_USAGE, f"config file is not valid JSON: {exc}") from exc
    if not isinstance(obj, dict):
        raise _CliError(EXIT_USAGE, "config file must hold a JSON object")
    unknown = sorted(set(obj) - _CONFIG_KEYS)
    if unknown:
        raise _CliError(EXIT_USAGE, f"unknown config keys: {', '.join(unknown)}")
    if "controls" in obj and not isinstance(obj["controls"], dict):
        raise _CliError(EXIT_USAGE, "config key 'controls' must be an object")
    # every value must be valid, also one the running command does not read
    given = argparse.Namespace(**obj)
    for key in _SCALARS.keys() & obj.keys():
        _setting(given, key)
    for key in {"sigma_grid", "lambda_grid"} & obj.keys():
        _grid(given, key, None)
    _build_hp(given)
    _build_controls(given)
    return obj


def _setting(args, key: str):
    """The scalar setting key from args, or its default if args lacks
    it. A value of the wrong kind or range, such as a string, a bool, a
    list or a config null, is a usage error."""
    kind, low, default = _SCALARS[key]
    if not hasattr(args, key):
        return default
    value = getattr(args, key)
    if kind is int:
        ok = isinstance(value, numbers.Integral) and value >= low
    else:
        ok = isinstance(value, numbers.Real) and math.isfinite(value) and value > low
    if isinstance(value, bool) or not ok:
        what = f"an integer of at least {low}" if kind is int else f"a finite number above {low}"
        raise _CliError(EXIT_USAGE, f"--{key} must be {what}, got {value!r}")
    return kind(value)


def _build_hp(args) -> Hyperparams:
    hp_json = Hyperparams().to_json()
    for key in _HYPER_KEYS:
        if hasattr(args, key):
            hp_json[key] = getattr(args, key)
    try:
        return Hyperparams.from_json(hp_json)
    except ValueError as exc:
        raise _CliError(EXIT_USAGE, f"invalid hyperparameters: {exc}") from exc


def _build_controls(args) -> SolverControls:
    """The solver controls: the seed setting and the config "controls"
    object, in which a seed key is a usage error."""
    try:
        return SolverControls(seed=_setting(args, "seed"), **getattr(args, "controls", {}))
    except (TypeError, ValueError) as exc:
        raise _CliError(EXIT_USAGE, f"invalid solver controls: {exc}") from exc


def _resolve_spec(args) -> ScmSpec:
    dataset = _setting(args, "dataset")
    spec_path = getattr(args, "spec", None)
    if dataset is not None and spec_path is not None:
        raise _CliError(EXIT_USAGE, "give either --dataset or --spec, not both")
    if dataset is not None:
        try:
            return builtin_spec(dataset)
        except ValueError as exc:
            raise _CliError(EXIT_USAGE, str(exc)) from exc
    if spec_path is not None:
        try:
            return ScmSpec.from_json_file(spec_path)
        except OSError as exc:
            raise _CliError(EXIT_IO, f"cannot read spec file: {exc}") from exc
        except (ValueError, KeyError, TypeError) as exc:
            raise _CliError(EXIT_USAGE, f"invalid spec file: {exc}") from exc
    raise _CliError(EXIT_USAGE, "a model is required: --dataset ID or --spec FILE")


def _write_json(path, obj) -> None:
    try:
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(obj, fh, indent=2, sort_keys=True)
            fh.write("\n")
    except OSError as exc:
        raise _CliError(EXIT_IO, f"cannot write {path}: {exc}") from exc


def _read_json(path) -> dict:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return json.load(fh)
    except OSError as exc:
        raise _CliError(EXIT_IO, f"cannot read {path}: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise _CliError(EXIT_USAGE, f"{path} is not valid JSON: {exc}") from exc


def _read_dataset(path) -> Dataset:
    """load_dataset(path), with a read or format error, or fewer than
    the 2 samples that centring needs, as exit 3."""
    try:
        ds = load_dataset(path)
    except OSError as exc:
        raise _CliError(EXIT_IO, f"cannot read dataset: {exc}") from exc
    except ValueError as exc:
        raise _CliError(EXIT_IO, f"malformed dataset: {exc}") from exc
    if ds.m < 2:
        raise _CliError(EXIT_IO, f"malformed dataset: {path} holds {ds.m} sample, "
                                 "at least 2 are needed")
    return ds


# ---------------------------------------------------------------- generate

def cmd_generate(args) -> int:
    spec = _resolve_spec(args)
    m, seed = _setting(args, "m"), _setting(args, "seed")
    ds = sample(spec, m, seed)
    out = getattr(args, "out", f"{spec.name}.csv")
    try:
        csv_path, sidecar_path = save_dataset(ds, out)
    except OSError as exc:
        raise _CliError(EXIT_IO, f"cannot write dataset: {exc}") from exc
    links = len(true_edges(spec.structural_matrix()))
    sidecar = _read_json(sidecar_path)
    sidecar["true_links"] = links
    sidecar["n"] = spec.n
    _write_json(sidecar_path, sidecar)
    print(f"wrote {csv_path} ({m} samples, {spec.n} variables) and {sidecar_path}")
    print(f"true links: {links}")
    return EXIT_OK


# ---------------------------------------------------------------- discover

def cmd_discover(args) -> int:
    hp, controls, theta = _build_hp(args), _build_controls(args), _setting(args, "theta")
    ds = _read_dataset(args.data)
    out = args.out if hasattr(args, "out") else str(Path(args.data).with_suffix(".result.json"))
    try:
        result = slcd(ds, hp, controls)
    except SolverAbort as exc:
        diag = {
            "format_version": FORMAT_VERSION,
            "error": str(exc),
            "restarts": [r.to_json() for r in exc.records],
        }
        _write_json(out, diag)
        print(f"solver aborted: {exc} (diagnostics in {out})", file=sys.stderr)
        return EXIT_NUMERIC
    _write_json(out, result.to_json())
    edges = sorted(extract_edges(result.D_opt, theta))
    print(f"wrote {out}")
    print(f"objective {result.J_min:.6g} in {result.wall_ms:.0f} ms; "
          f"{len(edges)} links at theta={theta:g}")
    for parent, child in edges:
        print(f"  x{parent + 1} -> x{child + 1}")
    return EXIT_OK


# ---------------------------------------------------------------- evaluate

def _load_estimate(path) -> np.ndarray:
    obj = _read_json(path)
    if isinstance(obj, dict):
        obj = obj.get("estimated_matrix", obj)
    try:
        return StructuralMatrix.from_json(obj).entries
    except (ValueError, KeyError, TypeError) as exc:
        raise _CliError(
            EXIT_USAGE, f"{path} does not hold an estimated matrix: {exc}") from exc


def cmd_evaluate(args) -> int:
    theta = _setting(args, "theta")
    spec = _resolve_spec(args)
    D_hat = _load_estimate(args.result)
    ds = _read_dataset(args.data)
    if not np.isfinite(ds.X).all():
        # the metrics would be NaN, which JSON cannot hold
        raise _CliError(EXIT_NUMERIC, f"{args.data} holds NaN or inf values")
    D_true = spec.structural_matrix()
    try:
        bundle = metric_bundle(D_hat, ds, D_true, theta)
    except ValueError as exc:
        raise _CliError(EXIT_USAGE, f"estimate does not match the model: {exc}") from exc
    rows = [
        ("reconstruction_error", f"{bundle.reconstruction_error:.6g}"),
        ("structure_error", f"{bundle.structure_error:.6g}"),
        ("covariance_error", f"{bundle.covariance_error:.6g}"),
        ("precision", f"{bundle.precision:.4g}"
                      + (" (no links estimated)" if bundle.precision_undefined else "")),
        ("recall", f"{bundle.recall:.4g}"),
        ("correct_links", str(bundle.correct_links)),
    ]
    width = max(len(name) for name, _ in rows)
    for name, value in rows:
        print(f"{name:<{width}}  {value}")
    if hasattr(args, "out"):
        _write_json(args.out, {"format_version": FORMAT_VERSION, **bundle.to_json()})
        print(f"wrote {args.out}")
    return EXIT_OK


# ---------------------------------------------------------------- sweep

def _grid(args, key: str, default) -> tuple[float, ...]:
    """The grid key from args: a comma-separated string (flag or config)
    or a config list of numbers, or default if args lacks it."""
    raw = getattr(args, key, default)
    if not isinstance(raw, str):
        try:
            values = tuple(float(v) for v in raw)
        except (TypeError, ValueError) as exc:
            raise _CliError(EXIT_USAGE, f"config key '{key}' must be a list of numbers") from exc
    else:
        try:
            values = tuple(float(part) for part in raw.split(",") if part.strip())
        except ValueError as exc:
            raise _CliError(EXIT_USAGE, f"bad grid '{raw}': {exc}") from exc
    if not values:
        raise _CliError(EXIT_USAGE, f"grid '{raw}' is empty")
    return values


def _sweep_settings(args) -> dict:
    """The keywords of sweep(), as sweep and repro figures share them."""
    hp, controls = _build_hp(args), _build_controls(args)
    return dict(
        hp=hp, controls=controls, data_seed=controls.seed, theta=_setting(args, "theta"),
        m=_setting(args, "m"), jobs=_setting(args, "jobs"),
        sigma_grid=_grid(args, "sigma_grid", DEFAULT_SIGMA_GRID),
        lambda_grid=_grid(args, "lambda_grid", DEFAULT_LAMBDA_GRID))


def _run_sweep(dataset: int, out, settings: dict) -> tuple[int, int, int]:
    """sweep(dataset, **settings) written to the CSV file out. Returns the
    counts of cells, of solved cells and of cells recovering every link.
    A grid that sweep() rejects is a usage error, an unwritable out an
    I/O error."""
    try:
        result = sweep(dataset, **settings)
    except ValueError as exc:
        raise _CliError(EXIT_USAGE, str(exc)) from exc
    try:
        result.to_csv(str(out))
    except OSError as exc:
        raise _CliError(EXIT_IO, f"cannot write {out}: {exc}") from exc
    ok = [c.metrics for c in result.cells if c.metrics is not None]
    return len(result.cells), len(ok), sum(b.precision == 1.0 and b.recall == 1.0 for b in ok)


def cmd_sweep(args) -> int:
    settings = _sweep_settings(args)
    dataset = _setting(args, "dataset")
    if dataset is None:
        raise _CliError(EXIT_USAGE, "sweep requires --dataset ID")
    out = getattr(args, "out", f"sweep_dataset{dataset}.csv")
    cells, solved, full = _run_sweep(dataset, out, settings)
    print(f"wrote {out}: {cells} cells, {solved} solved, "
          f"{full} with every link recovered")
    if not solved:
        print("every cell aborted", file=sys.stderr)
        return EXIT_NUMERIC
    return EXIT_OK


# ---------------------------------------------------------------- repro

def _matrix_markdown(a: np.ndarray) -> str:
    n = a.shape[1]
    head = "| " + " | ".join(f"x{j + 1}" for j in range(n)) + " |"
    sep = "|" + "---|" * n
    body = "\n".join(
        "| " + " | ".join(f"{v:.4g}" for v in row) + " |" for row in a)
    return f"{head}\n{sep}\n{body}"


def _dataset_ids(args) -> tuple[int, ...]:
    """The --datasets list, by default every built-in dataset."""
    if not hasattr(args, "datasets"):
        return BUILTIN_IDS
    text = args.datasets
    try:
        ids = tuple(int(part) for part in text.split(",") if part.strip())
    except ValueError as exc:
        raise _CliError(EXIT_USAGE, f"bad dataset list '{text}'") from exc
    if not ids or any(i not in BUILTIN_IDS for i in ids):
        raise _CliError(EXIT_USAGE, f"dataset ids must be in "
                                    f"{min(BUILTIN_IDS)}..{max(BUILTIN_IDS)}, got '{text}'")
    if len(set(ids)) != len(ids):
        raise _CliError(EXIT_USAGE, f"dataset ids must be unique, got '{text}'")
    return ids


def _repro_run_dataset(ds_id: int, m: int, seed: int, hp: Hyperparams,
                       controls: SolverControls, theta: float) -> dict:
    """One benchmark run; returns a JSON-ready record (error key set on
    abort). The run is recovered when precision = recall = 1 and no entry
    deviates from the true matrix by more than REPRO_MAX_DEVIATION."""
    spec = builtin_spec(ds_id)
    data = sample(spec, m, seed)
    D_true = spec.structural_matrix()
    rec = {"id": ds_id, "error": "", "recovered": False}
    t0 = time.perf_counter()
    try:
        result = slcd(data, hp, controls)
    except SolverAbort as exc:
        rec["error"] = str(exc)
    else:
        bundle = metric_bundle(result.D_opt, data, D_true, theta)
        deviation = float(np.max(np.abs(result.D_opt - D_true.entries)))
        rec.update(estimated_matrix=StructuralMatrix(result.D_opt).to_json(),
                   max_abs_deviation=deviation, metrics=bundle.to_json(), j_min=result.J_min,
                   recovered=(bundle.precision == 1.0 and bundle.recall == 1.0
                              and deviation <= REPRO_MAX_DEVIATION))
    rec["wall_ms"] = (time.perf_counter() - t0) * 1000.0
    return rec


def _estimates_section(ds_id: int, rec: dict) -> list[str]:
    """Markdown for one dataset of repro estimates: the true, the fresh
    and the reference matrix, and the gate's verdict."""
    truth = builtin_spec(ds_id).structural_matrix().entries
    lines = [f"## Dataset {ds_id}", "", "True matrix:", "", _matrix_markdown(truth), ""]
    if rec["error"]:
        lines.append(f"This run: solver aborted ({rec['error']}).")
    else:
        est = np.array(rec["estimated_matrix"]["rows"], dtype=float)
        lines += [f"This run (max deviation from truth {rec['max_abs_deviation']:.4g}):", "",
                  _matrix_markdown(est)]
    lines += ["", "Reference estimate:", "", _matrix_markdown(REFERENCE_ESTIMATES[ds_id]), ""]
    if not rec["gated"]:
        lines.append("Not gated: this model is not identifiable from "
                     "observational data, and the reference run did not "
                     "recover it either.")
    else:
        lines.append(f"Status: {'recovered' if rec['recovered'] else 'MISSED'} "
                     f"(gate: precision = recall = 1, deviation <= {REPRO_MAX_DEVIATION:g}).")
    return lines + [""]


def _comparison_section(ds_id: int, rec: dict) -> list[str]:
    """Markdown for one dataset of repro comparison: the stored
    precision/recall rows and this run's."""
    lines = [f"## Dataset {ds_id}", "", "| Method | Precision | Recall | Correct links |",
             "|---|---|---|---|"]
    for method in COMPARISON_METHODS:
        p, r, c = REFERENCE_COMPARISON[ds_id][method]
        suffix = " (reference)" if method == "SLCD" else ""
        lines.append(f"| {method}{suffix} | {p:g} | {r:g} | {c} |")
    if rec["error"]:
        lines.append("| SLCD (this run) | aborted | aborted | aborted |")
    else:
        b = rec["metrics"]
        lines.append(f"| SLCD (this run) | {b['precision']:g} | {b['recall']:g} | "
                     f"{b['correct_links']} |")
    lines.append("")
    if not rec["gated"]:
        lines += ["Not gated: recovery is expected to fail here, "
                  "matching the reference SLCD row.", ""]
    return lines


def _repro_gated(args, out_dir: Path, which: str, title: str, notes: list[str],
                 section, drop: tuple[str, ...] = ()) -> int:
    """Run the built-in benchmarks and gate datasets 2-5 on recovery.
    Writes repro_<which>.json, whose records leave out the fields in
    drop, and repro_<which>.md: the title, the settings, the notes, then
    section(id, record) for each dataset."""
    ids = _dataset_ids(args)
    m, seed, theta = _setting(args, "m"), _setting(args, "seed"), _setting(args, "theta")
    hp, controls = _build_hp(args), _build_controls(args)
    records = []
    lines = [title, "", f"sigma={hp.sigma:g}, lambda={hp.lam:g}, tau={hp.tau}, "
             f"m={m}, seed={seed}", "", *notes]
    for ds_id in ids:
        rec = _repro_run_dataset(ds_id, m, seed, hp, controls, theta)
        gated = ds_id in EXPECTED_RECOVERED_IDS
        rec.update(gated=gated, expected_unrecovered=not gated)
        lines += section(ds_id, rec)
        records.append({k: v for k, v in rec.items() if k not in drop})
        status = "recovered" if rec["recovered"] else ("aborted" if rec["error"] else "missed")
        status += "" if gated else " (not gated)"
        print(f"dataset {ds_id}: {status}" + ("" if rec["error"] else
                                              f", max deviation {rec['max_abs_deviation']:.4g}"))
    passed = all(rec["recovered"] or not rec["gated"] for rec in records)
    report = {
        "format_version": FORMAT_VERSION,
        "which": which,
        "sigma": hp.sigma,
        "lambda": hp.lam,
        "m": m,
        "seed": seed,
        "datasets": records,
        "passed": passed,
    }
    _write_json(out_dir / f"repro_{which}.json", report)
    (out_dir / f"repro_{which}.md").write_text("\n".join(lines), encoding="utf-8")
    print(f"wrote {out_dir / f'repro_{which}.md'} and .json; "
          f"{'all gates passed' if passed else 'TOLERANCE MISSED'}")
    return EXIT_OK if passed else EXIT_TOLERANCE


def _repro_sweeps(args, out_dir: Path) -> int:
    """One hyperparameter sweep CSV per dataset."""
    ids = _dataset_ids(args)
    settings = _sweep_settings(args)
    sigma_grid, lambda_grid, m = settings["sigma_grid"], settings["lambda_grid"], settings["m"]
    summaries = []
    lines = ["# Hyperparameter sweeps", "",
             f"sigma grid {list(sigma_grid)}, lambda grid {list(lambda_grid)}, "
             f"m={m}, restarts={settings['hp'].restarts}", ""]
    for ds_id in ids:
        csv_path = out_dir / f"sweep_dataset{ds_id}.csv"
        cells, solved, full = _run_sweep(ds_id, csv_path, settings)
        summaries.append({
            "id": ds_id,
            "cells": cells,
            "solved": solved,
            "full_recovery_cells": full,
            "csv": csv_path.name,
        })
        lines.append(f"- Dataset {ds_id}: {full} of {cells} "
                     f"cells recover every link ({csv_path.name})")
        print(f"dataset {ds_id}: {full}/{cells} cells "
              f"with every link recovered -> {csv_path}")
    report = {
        "format_version": FORMAT_VERSION,
        "which": "figures",
        "m": m,
        "sigma_grid": list(sigma_grid),
        "lambda_grid": list(lambda_grid),
        "datasets": summaries,
    }
    _write_json(out_dir / "repro_sweeps.json", report)
    (out_dir / "repro_sweeps.md").write_text("\n".join(lines), encoding="utf-8")
    print(f"wrote {out_dir / 'repro_sweeps.md'} and .json")
    return EXIT_OK


def cmd_repro(args) -> int:
    out_dir = Path(args.out_dir)
    try:
        out_dir.mkdir(parents=True, exist_ok=True)
    except OSError as exc:
        raise _CliError(EXIT_IO, f"cannot create {out_dir}: {exc}") from exc
    if args.which == "estimates":
        return _repro_gated(args, out_dir, "estimates", "# Estimated structural matrices", [],
                            _estimates_section)
    if args.which == "comparison":
        return _repro_gated(
            args, out_dir, "comparison", "# Link recovery comparison",
            ["Rows for the other methods are stored reference values, "
             "not computed by this package.", ""],
            _comparison_section, drop=("estimated_matrix",))
    return _repro_sweeps(args, out_dir)


# ---------------------------------------------------------------- parser

# Every flag, declared once: key -> add_argument keywords. The key names
# the flag (--key, with - for _; "which" is positional) and the attribute
# of args that holds its value, or a config file's value for the key.
_FLAGS = {
    "which": dict(choices=("estimates", "comparison", "figures"),
                  help="estimates: matrix-by-matrix report; comparison: "
                       "precision/recall table; figures: sweep CSVs"),
    "result": dict(required=True, metavar="FILE",
                   help="discovery result JSON (or bare matrix JSON)"),
    "data": dict(required=True, metavar="FILE", help="dataset CSV"),
    "dataset": dict(type=int, metavar="ID", help="built-in dataset id (1-5)"),
    "spec": dict(metavar="FILE", help="model spec JSON file"),
    "datasets": dict(metavar="LIST", help="comma-separated dataset ids (default 1,2,3,4,5)"),
    "sigma_grid": dict(metavar="LIST", help="comma-separated sigma values (repro: figures)"),
    "lambda_grid": dict(metavar="LIST", help="comma-separated lambda values (repro: figures)"),
    "m": dict(type=int, help="sample count (default 1000)"),
    "jobs": dict(type=int, help="worker processes for sweep cells (default 1)"),
    "out": dict(metavar="FILE", help="output file (discover: default <data>.result.json)"),
    "out_dir": dict(default="repro_out", metavar="DIR", help="directory for report files"),
    "config": dict(metavar="FILE", help="JSON config file; flags override its values"),
    "seed": dict(type=int, help="master seed (default 0)"),
    "sigma": dict(type=float, help="smoothing width (default 0.3)"),
    "lambda": dict(type=float, help="trace penalty weight (default 5)"),
    "tau": dict(type=int, help="row sparsity bound (default 2)"),
    "eps1": dict(type=float, help="reconstruction slack (default: scaled near-zero)"),
    "eps2": dict(type=float, help="covariance slack (default: scaled near-zero)"),
    "iterations": dict(type=int, help="solve/threshold rounds per restart (default 5)"),
    "restarts": dict(type=int, help="random restarts (default 20)"),
    "theta": dict(type=float, help="edge extraction threshold (default 0.15)"),
}

_SOLVE = ("seed", *_HYPER_KEYS, "theta")  # the flags of every command that solves
# name -> (function, help, the keys of the flags it takes)
_COMMANDS = {
    "generate": (cmd_generate, "sample a dataset to CSV",
                 ("dataset", "spec", "m", "out", "config", "seed")),
    "discover": (cmd_discover, "estimate a structural matrix", ("data", "out", "config", *_SOLVE)),
    "evaluate": (cmd_evaluate, "score an estimate against a known model",
                 ("result", "data", "dataset", "spec", "out", "theta", "config")),
    "sweep": (cmd_sweep, "grid-run discovery over hyperparameters",
              ("dataset", "sigma_grid", "lambda_grid", "m", "jobs", "out", "config", *_SOLVE)),
    "repro": (cmd_repro, "re-run the built-in benchmarks against the reference results",
              ("which", "out_dir", "datasets", "m", "jobs", "sigma_grid", "lambda_grid",
               "config", *_SOLVE)),
}


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="slcd",
        description="Sparse linear causal discovery: generate benchmark "
                    "data, estimate structural matrices, and evaluate them.")
    sub = parser.add_subparsers(dest="command", required=True)
    for name, (func, help_text, keys) in _COMMANDS.items():
        # SUPPRESS leaves a flag not given out of args, so that main() can
        # tell it apart from one given, and a config null from a missing key
        p = sub.add_parser(name, help=help_text, argument_default=argparse.SUPPRESS)
        for key in keys:
            p.add_argument(key if key == "which" else "--" + key.replace("_", "-"),
                           **_FLAGS[key])
        p.set_defaults(func=func)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        # argparse exits 0 for --help and 2 for usage errors; surface the
        # same code without killing the embedding process.
        return int(exc.code or 0)
    try:
        # flags > config file > defaults: a config key fills only what the
        # command line left unset, and a command reads only args
        for key, value in _load_config(getattr(args, "config", None)).items():
            if not hasattr(args, key):
                setattr(args, key, value)
        return args.func(args)
    except _CliError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return exc.code
    except (FloatingPointError, np.linalg.LinAlgError) as exc:
        print(f"numeric failure: {exc}", file=sys.stderr)
        return EXIT_NUMERIC


if __name__ == "__main__":
    sys.exit(main())
