"""Command-line front end.

Subcommands: generate (sample a benchmark dataset to CSV), discover
(estimate a structural matrix from a dataset), evaluate (score an
estimate against a known model), sweep (grid-run discovery over
hyperparameters), and repro (re-run the built-in benchmarks and
compare against the stored reference results).

Configuration precedence: command-line flags override values from a
--config JSON file, which override built-in defaults. Exit codes:
0 success, 1 tolerance failure, 2 usage error, 3 I/O error,
4 numeric abort.
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

from .datagen import Dataset, builtin_spec, load_dataset, sample, save_dataset
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
from .scm_core import ScmSpec, StructuralMatrix
from .solver import SolverAbort, SolverControls, slcd

__all__ = ["main"]

FORMAT_VERSION = 1

EXIT_OK = 0
EXIT_TOLERANCE = 1
EXIT_USAGE = 2
EXIT_IO = 3
EXIT_NUMERIC = 4

# Keys a --config JSON file may set. Flat keys mirror the common flags;
# "controls" may hold a nested object with any SolverControls field
# (max_inner_steps, seed).
_CONFIG_KEYS = frozenset({
    "sigma", "lambda", "tau", "eps1", "eps2", "iterations", "restarts",
    "seed", "theta", "m", "dataset", "sigma_grid", "lambda_grid",
    "jobs", "controls",
})

# Deviation gate for the repro command: the largest entrywise gap
# between a reference estimate and the true matrix is 0.168, so 0.2
# accepts every published recovery with headroom while still rejecting
# any misplaced coefficient (smallest true value 0.3).
REPRO_MAX_DEVIATION = 0.2


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
    return obj


def _resolve(flag_value, config: dict, key: str, default):
    """flags > config file > defaults."""
    if flag_value is not None:
        return flag_value
    if key in config:
        return config[key]
    return default


def _number(value, key: str, kind: type = int, low: float = 0):
    """A flag or config value as an int of at least low or, with
    kind=float, as a finite float above low; anything else, such as a
    string, a bool, a list or None, is a usage error."""
    if kind is int:
        ok = isinstance(value, numbers.Integral) and value >= low
    else:
        ok = isinstance(value, numbers.Real) and math.isfinite(value) and value > low
    if isinstance(value, bool) or not ok:
        what = f"an integer of at least {low}" if kind is int else f"a finite number above {low}"
        raise _CliError(EXIT_USAGE, f"--{key} must be {what}, got {value!r}")
    return kind(value)


def _build_hp(args, config: dict) -> Hyperparams:
    hp_json = Hyperparams().to_json()
    for key in ("sigma", "lambda", "tau", "eps1", "eps2", "iterations", "restarts"):
        if key in config:
            hp_json[key] = config[key]
    for attr, key in (("sigma", "sigma"), ("lam", "lambda"), ("tau", "tau"),
                      ("eps1", "eps1"), ("eps2", "eps2"),
                      ("iterations", "iterations"), ("restarts", "restarts")):
        value = getattr(args, attr, None)
        if value is not None:
            hp_json[key] = value
    try:
        return Hyperparams.from_json(hp_json)
    except ValueError as exc:
        raise _CliError(EXIT_USAGE, f"invalid hyperparameters: {exc}") from exc


def _build_controls(args, config: dict) -> SolverControls:
    ctl_json = SolverControls().to_json()
    ctl_json.update(config.get("controls", {}))
    if "seed" in config:
        ctl_json["seed"] = config["seed"]
    if getattr(args, "seed", None) is not None:
        ctl_json["seed"] = args.seed
    try:
        return SolverControls.from_json(ctl_json)
    except (TypeError, ValueError) as exc:
        raise _CliError(EXIT_USAGE, f"invalid solver controls: {exc}") from exc


def _resolve_spec(args, config: dict) -> ScmSpec:
    dataset = _resolve(getattr(args, "dataset", None), config, "dataset", None)
    spec_path = getattr(args, "spec", None)
    if dataset is not None and spec_path is not None:
        raise _CliError(EXIT_USAGE, "give either --dataset or --spec, not both")
    if dataset is not None:
        try:
            return builtin_spec(_number(dataset, "dataset"))
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
    config = _load_config(args.config)
    spec = _resolve_spec(args, config)
    m = _number(_resolve(args.m, config, "m", 1000), "m", low=2)
    seed = _number(_resolve(args.seed, config, "seed", 0), "seed")
    ds = sample(spec, m, seed)
    out = args.out if args.out is not None else f"{spec.name}.csv"
    try:
        csv_path, sidecar_path = save_dataset(ds, out)
    except OSError as exc:
        raise _CliError(EXIT_IO, f"cannot write dataset: {exc}") from exc
    links = len(spec.edge_pairs())
    sidecar = _read_json(sidecar_path)
    sidecar["true_links"] = links
    sidecar["n"] = spec.n
    _write_json(sidecar_path, sidecar)
    print(f"wrote {csv_path} ({m} samples, {spec.n} variables) and {sidecar_path}")
    print(f"true links: {links}")
    return EXIT_OK


# ---------------------------------------------------------------- discover

def cmd_discover(args) -> int:
    config = _load_config(args.config)
    hp = _build_hp(args, config)
    controls = _build_controls(args, config)
    theta = _number(_resolve(args.theta, config, "theta", DEFAULT_THETA), "theta", float)
    ds = _read_dataset(args.data)
    out = args.out if args.out is not None else str(
        Path(args.data).with_suffix(".result.json"))
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
    config = _load_config(args.config)
    theta = _number(_resolve(args.theta, config, "theta", DEFAULT_THETA), "theta", float)
    spec = _resolve_spec(args, config)
    D_hat = _load_estimate(args.result)
    ds = _read_dataset(args.data)
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
    if args.out is not None:
        _write_json(args.out, {"format_version": FORMAT_VERSION, **bundle.to_json()})
        print(f"wrote {args.out}")
    return EXIT_OK


# ---------------------------------------------------------------- sweep

def _parse_grid(text: str | None, config: dict, key: str, default) -> tuple[float, ...]:
    if text is None:
        raw = config.get(key, default)
        if isinstance(raw, str):
            text = raw
        else:
            try:
                return tuple(float(v) for v in raw)
            except (TypeError, ValueError) as exc:
                raise _CliError(
                    EXIT_USAGE, f"config key '{key}' must be a list of numbers") from exc
    try:
        values = tuple(float(part) for part in text.split(",") if part.strip())
    except ValueError as exc:
        raise _CliError(EXIT_USAGE, f"bad grid '{text}': {exc}") from exc
    if not values:
        raise _CliError(EXIT_USAGE, f"grid '{text}' is empty")
    return values


def _sweep_settings(args, config: dict) -> dict:
    """The keywords of sweep() from flags and config, as sweep and repro
    figures share them."""
    hp, controls = _build_hp(args, config), _build_controls(args, config)
    return dict(
        hp=hp, controls=controls, data_seed=controls.seed,
        theta=_number(_resolve(args.theta, config, "theta", DEFAULT_THETA), "theta", float),
        m=_number(_resolve(args.m, config, "m", 1000), "m", low=2),
        jobs=_number(_resolve(args.jobs, config, "jobs", 1), "jobs", low=1),
        sigma_grid=_parse_grid(args.sigma_grid, config, "sigma_grid", DEFAULT_SIGMA_GRID),
        lambda_grid=_parse_grid(args.lambda_grid, config, "lambda_grid", DEFAULT_LAMBDA_GRID))


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
    config = _load_config(args.config)
    settings = _sweep_settings(args, config)
    dataset = _resolve(args.dataset, config, "dataset", None)
    if dataset is None:
        raise _CliError(EXIT_USAGE, "sweep requires --dataset ID")
    dataset = _number(dataset, "dataset")
    out = args.out if args.out is not None else f"sweep_dataset{dataset}.csv"
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


def _parse_dataset_list(text: str | None) -> tuple[int, ...]:
    if text is None:
        return (1, 2, 3, 4, 5)
    try:
        ids = tuple(int(part) for part in text.split(",") if part.strip())
    except ValueError as exc:
        raise _CliError(EXIT_USAGE, f"bad dataset list '{text}'") from exc
    if not ids or any(i not in (1, 2, 3, 4, 5) for i in ids):
        raise _CliError(EXIT_USAGE, f"dataset ids must be in 1..5, got '{text}'")
    return ids


def _repro_run_dataset(ds_id: int, m: int, seed: int, hp: Hyperparams,
                       controls: SolverControls, theta: float) -> dict:
    """One benchmark run; returns a JSON-ready record (error key set on
    abort)."""
    spec = builtin_spec(ds_id)
    data = sample(spec, m, seed)
    D_true = spec.structural_matrix()
    t0 = time.perf_counter()
    try:
        result = slcd(data, hp, controls)
    except SolverAbort as exc:
        return {
            "id": ds_id,
            "error": str(exc),
            "wall_ms": (time.perf_counter() - t0) * 1000.0,
        }
    bundle = metric_bundle(result.D_opt, data, D_true, theta)
    deviation = float(np.max(np.abs(result.D_opt - D_true.entries)))
    return {
        "id": ds_id,
        "error": "",
        "estimated_matrix": StructuralMatrix(result.D_opt).to_json(),
        "max_abs_deviation": deviation,
        "metrics": bundle.to_json(),
        "j_min": result.J_min,
        "wall_ms": (time.perf_counter() - t0) * 1000.0,
    }


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
                     f"(gate: deviation <= {REPRO_MAX_DEVIATION:g}).")
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


def _repro_gated(args, config: dict, out_dir: Path, which: str, title: str, notes: list[str],
                 recovered, section, drop: tuple[str, ...] = ()) -> int:
    """Run the built-in benchmarks and gate datasets 2-5 on
    recovered(record). Writes repro_<which>.json, whose records leave out
    the fields in drop, and repro_<which>.md: the title, the settings,
    the notes, then section(id, record) for each dataset."""
    ids = _parse_dataset_list(args.datasets)
    m = _number(_resolve(args.m, config, "m", 1000), "m", low=2)
    seed = _number(_resolve(args.seed, config, "seed", 0), "seed")
    theta = _number(_resolve(args.theta, config, "theta", DEFAULT_THETA), "theta", float)
    hp = _build_hp(args, config)
    controls = _build_controls(args, config)
    records = []
    lines = [title, "", f"sigma={hp.sigma:g}, lambda={hp.lam:g}, tau={hp.tau}, "
             f"m={m}, seed={seed}", "", *notes]
    passed = True
    for ds_id in ids:
        rec = _repro_run_dataset(ds_id, m, seed, hp, controls, theta)
        gated = ds_id in EXPECTED_RECOVERED_IDS
        rec.update(gated=gated, expected_unrecovered=not gated,
                   recovered=not rec["error"] and recovered(rec))
        passed = passed and (rec["recovered"] or not gated)
        lines += section(ds_id, rec)
        records.append({k: v for k, v in rec.items() if k not in drop})
        status = "recovered" if rec["recovered"] else ("aborted" if rec["error"] else "missed")
        print(f"dataset {ds_id}: {status}" + ("" if rec["error"] else
                                              f", max deviation {rec['max_abs_deviation']:.4g}"))
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


def _repro_sweeps(args, config: dict, out_dir: Path) -> int:
    """One hyperparameter sweep CSV per dataset."""
    ids = _parse_dataset_list(args.datasets)
    settings = _sweep_settings(args, config)
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
    config = _load_config(args.config)
    out_dir = Path(args.out_dir)
    try:
        out_dir.mkdir(parents=True, exist_ok=True)
    except OSError as exc:
        raise _CliError(EXIT_IO, f"cannot create {out_dir}: {exc}") from exc
    if args.which == "estimates":
        return _repro_gated(
            args, config, out_dir, "estimates", "# Estimated structural matrices", [],
            lambda rec: rec["max_abs_deviation"] <= REPRO_MAX_DEVIATION, _estimates_section)
    if args.which == "comparison":
        return _repro_gated(
            args, config, out_dir, "comparison", "# Link recovery comparison",
            ["Rows for the other methods are stored reference values, "
             "not computed by this package.", ""],
            lambda rec: rec["metrics"]["precision"] == 1.0 and rec["metrics"]["recall"] == 1.0,
            _comparison_section, drop=("estimated_matrix",))
    return _repro_sweeps(args, config, out_dir)


# ---------------------------------------------------------------- parser

def _add_common(p: argparse.ArgumentParser, hyper: bool = True) -> None:
    p.add_argument("--config", default=None, metavar="FILE",
                   help="JSON config file; flags override its values")
    p.add_argument("--seed", type=int, default=None,
                   help="master seed (default 0)")
    if hyper:
        p.add_argument("--sigma", type=float, default=None,
                       help="smoothing width (default 0.3)")
        p.add_argument("--lambda", dest="lam", type=float, default=None,
                       help="trace penalty weight (default 5)")
        p.add_argument("--tau", type=int, default=None,
                       help="row sparsity bound (default 2)")
        p.add_argument("--eps1", type=float, default=None,
                       help="reconstruction slack (default: scaled near-zero)")
        p.add_argument("--eps2", type=float, default=None,
                       help="covariance slack (default: scaled near-zero)")
        p.add_argument("--iterations", type=int, default=None,
                       help="solve/threshold rounds per restart (default 5)")
        p.add_argument("--restarts", type=int, default=None,
                       help="random restarts (default 20)")
        p.add_argument("--theta", type=float, default=None,
                       help="edge extraction threshold (default 0.15)")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="slcd",
        description="Sparse linear causal discovery: generate benchmark "
                    "data, estimate structural matrices, and evaluate them.")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("generate", help="sample a dataset to CSV")
    p.add_argument("--dataset", type=int, default=None, metavar="ID",
                   help="built-in dataset id (1-5)")
    p.add_argument("--spec", default=None, metavar="FILE",
                   help="model spec JSON file")
    p.add_argument("--m", type=int, default=None, help="sample count (default 1000)")
    p.add_argument("--out", default=None, metavar="FILE", help="output CSV path")
    _add_common(p, hyper=False)
    p.set_defaults(func=cmd_generate)

    p = sub.add_parser("discover", help="estimate a structural matrix")
    p.add_argument("--data", required=True, metavar="FILE", help="dataset CSV")
    p.add_argument("--out", default=None, metavar="FILE",
                   help="result JSON path (default: <data>.result.json)")
    _add_common(p)
    p.set_defaults(func=cmd_discover)

    p = sub.add_parser("evaluate", help="score an estimate against a known model")
    p.add_argument("--result", required=True, metavar="FILE",
                   help="discovery result JSON (or bare matrix JSON)")
    p.add_argument("--data", required=True, metavar="FILE", help="dataset CSV")
    p.add_argument("--dataset", type=int, default=None, metavar="ID",
                   help="built-in dataset id for the true model")
    p.add_argument("--spec", default=None, metavar="FILE",
                   help="model spec JSON file for the true model")
    p.add_argument("--out", default=None, metavar="FILE", help="metrics JSON path")
    p.add_argument("--theta", type=float, default=None,
                   help="edge extraction threshold (default 0.15)")
    p.add_argument("--config", default=None, metavar="FILE")
    p.set_defaults(func=cmd_evaluate)

    p = sub.add_parser("sweep", help="grid-run discovery over hyperparameters")
    p.add_argument("--dataset", type=int, default=None, metavar="ID",
                   help="built-in dataset id (1-5)")
    p.add_argument("--sigma-grid", default=None, metavar="LIST",
                   help="comma-separated sigma values")
    p.add_argument("--lambda-grid", default=None, metavar="LIST",
                   help="comma-separated lambda values")
    p.add_argument("--m", type=int, default=None, help="sample count (default 1000)")
    p.add_argument("--jobs", type=int, default=None,
                   help="worker processes for grid cells (default 1)")
    p.add_argument("--out", default=None, metavar="FILE", help="output CSV path")
    _add_common(p)
    p.set_defaults(func=cmd_sweep)

    p = sub.add_parser(
        "repro",
        help="re-run the built-in benchmarks against the reference results")
    p.add_argument("which", choices=("estimates", "comparison", "figures"),
                   help="estimates: matrix-by-matrix report; comparison: "
                        "precision/recall table; figures: sweep CSVs")
    p.add_argument("--out-dir", default="repro_out", metavar="DIR",
                   help="directory for report files")
    p.add_argument("--datasets", default=None, metavar="LIST",
                   help="comma-separated dataset ids (default 1,2,3,4,5)")
    p.add_argument("--m", type=int, default=None, help="sample count (default 1000)")
    p.add_argument("--jobs", type=int, default=None,
                   help="worker processes for sweep cells (default 1)")
    p.add_argument("--sigma-grid", default=None, metavar="LIST",
                   help="sweep sigma values (figures only)")
    p.add_argument("--lambda-grid", default=None, metavar="LIST",
                   help="sweep lambda values (figures only)")
    _add_common(p)
    p.set_defaults(func=cmd_repro)
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
        return args.func(args)
    except _CliError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return exc.code
    except (FloatingPointError, np.linalg.LinAlgError) as exc:
        print(f"numeric failure: {exc}", file=sys.stderr)
        return EXIT_NUMERIC


if __name__ == "__main__":
    sys.exit(main())
