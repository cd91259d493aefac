"""Command-line front end.

Subcommands: generate (sample a benchmark dataset to CSV), discover
(estimate a structural matrix from a dataset), evaluate (score an
estimate against a known model), sweep (grid-run discovery over
hyperparameters), and repro (re-run the built-in benchmarks and
compare against the stored reference results).

main() resolves every setting once, before the command runs: a
command-line flag wins, a key of the --config JSON file fills a flag
left off, and a setting given by neither takes its default. Every value
given is checked, also one the command does not read, and a message
that rejects one names its flag or config key. Exit codes: 0 success,
1 tolerance failure, 2 usage error, 3 I/O error, 4 numeric abort.
"""
from __future__ import annotations

import argparse
import json
import os
import sys
import time
from functools import partial
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
from .scm_core import ScmSpec, StructuralMatrix, _require_finite, _require_integer, true_edges
from .solver import FORMAT_VERSION as RESULT_FORMAT_VERSION, SolverAbort, SolverControls, slcd

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


class _CliError(Exception):
    """Carries an exit code and a message to the top-level handler."""

    def __init__(self, code: int, message: str):
        super().__init__(message)
        self.code = code


def _load_config(path: str | None) -> dict:
    """The --config file's object, checked for its shape only: known keys
    and a "controls" object. _resolve() checks the values."""
    if path is None:
        return {}
    obj = _read_json(path)
    if not isinstance(obj, dict):
        raise _CliError(EXIT_USAGE, "config file must hold a JSON object")
    unknown = sorted(set(obj) - _CONFIG_KEYS)
    if unknown:
        raise _CliError(EXIT_USAGE, f"unknown config keys: {', '.join(unknown)}")
    if "controls" in obj and not isinstance(obj["controls"], dict):
        raise _CliError(EXIT_USAGE, "config key 'controls' must be an object")
    return obj


# Each parser below takes one raw value, from a flag or a config key, and
# the name of its source for the message that rejects it.

def _scalar(kind: type, low: int, value, where: str):
    """value as a scalar setting: an int of at least low, or a finite
    float above it. A value of the wrong kind or range, such as a string,
    a bool, a list or a config null, is a usage error."""
    try:
        (_require_integer if kind is int else _require_finite)(value=value)
        ok = value >= low if kind is int else value > low
    except ValueError:
        ok = False
    if not ok:
        what = f"an integer of at least {low}" if kind is int else f"a finite number above {low}"
        raise _CliError(EXIT_USAGE, f"{where} must be {what}, got {value!r}")
    return kind(value)


def _hyper(key: str, value, where: str):
    """value, once Hyperparams accepts it as the hyperparameter key."""
    try:
        Hyperparams.from_json({key: value})
    except ValueError as exc:
        raise _CliError(EXIT_USAGE, f"{where}: invalid hyperparameters: {exc}") from exc
    return value


def _grid(raw, where: str) -> tuple[float, ...]:
    """A sweep grid: a comma-separated string (flag or config) or a
    config list of finite numbers. Any other config value, or a list that
    holds a bool, a string or an object, is a usage error."""
    values = ()
    try:
        if isinstance(raw, str):
            values = tuple(float(part) for part in raw.split(",") if part.strip())
        elif isinstance(raw, list):
            _require_finite(**{str(i): v for i, v in enumerate(raw)})
            values = tuple(float(v) for v in raw)
    except ValueError:
        pass
    if not values:
        raise _CliError(EXIT_USAGE, f"{where} must be a non-empty list of numbers, got {raw!r}")
    return values


def _dataset_ids(text: str, where: str) -> tuple[int, ...]:
    """A comma-separated list of unique built-in dataset ids."""
    try:
        ids = tuple(int(part) for part in text.split(",") if part.strip())
    except ValueError:
        ids = ()
    if not ids or any(i not in BUILTIN_IDS for i in ids):
        raise _CliError(EXIT_USAGE, f"{where}: dataset ids must be in "
                                    f"{min(BUILTIN_IDS)}..{max(BUILTIN_IDS)}, got '{text}'")
    if len(set(ids)) != len(ids):
        raise _CliError(EXIT_USAGE, f"{where}: dataset ids must be unique, got '{text}'")
    return ids


# Every setting: key -> (parser, default; None: no default). The key
# names the flag (--key, with - for _), the config key (all but datasets)
# and the attribute of args that _resolve() sets.
_SETTINGS = {
    "m": (partial(_scalar, int, 2), 1000),
    "seed": (partial(_scalar, int, 0), 0),
    "theta": (partial(_scalar, float, 0), DEFAULT_THETA),
    "dataset": (partial(_scalar, int, 0), None),
    "sigma_grid": (_grid, DEFAULT_SIGMA_GRID),
    "lambda_grid": (_grid, DEFAULT_LAMBDA_GRID),
    "datasets": (_dataset_ids, BUILTIN_IDS),
    **{key: (partial(_hyper, key), default) for key, default in Hyperparams().to_json().items()},
}
_HYPER_KEYS = tuple(Hyperparams().to_json())

# Keys a --config JSON file may set: the settings but datasets, and
# "controls", an object with the SolverControls fields other than seed
# (max_inner_steps).
_CONFIG_KEYS = _SETTINGS.keys() - {"datasets"} | {"controls"}


def _flag(key: str) -> str:
    return "--" + key.replace("_", "-")


def _resolve(args, config: dict) -> None:
    """Check every config value under its key and every flag given under
    its flag name, also those the command does not read, then set on args
    one typed value per setting: the flag, else the config value, else
    the default. The hyperparameters become args.hp, the seed and the
    config "controls" object args.controls."""
    values = {key: default for key, (_, default) in _SETTINGS.items()}
    for source, name in ((config, lambda key: f"config key '{key}'"), (vars(args), _flag)):
        values.update({key: parse(source[key], name(key))
                       for key, (parse, _) in _SETTINGS.items() if key in source})
        try:  # the config's controls with its seed, then with the flag's
            controls = SolverControls(seed=values["seed"], **config.get("controls", {}))
        except (TypeError, ValueError) as exc:
            raise _CliError(EXIT_USAGE,
                            f"config key 'controls': invalid solver controls: {exc}") from exc
    vars(args).update(values)
    args.hp = Hyperparams.from_json({key: values[key] for key in _HYPER_KEYS})
    args.controls = controls


def _resolve_spec(args) -> ScmSpec:
    dataset, spec_path = args.dataset, getattr(args, "spec", None)
    if dataset is not None and spec_path is not None:
        raise _CliError(EXIT_USAGE, "give either --dataset or --spec, not both")
    if dataset is not None:
        try:
            return builtin_spec(dataset)
        except ValueError as exc:
            raise _CliError(EXIT_USAGE, str(exc)) from exc
    if spec_path is not None:
        try:
            return ScmSpec.from_json(_read_json(spec_path))
        except (ValueError, KeyError, TypeError) as exc:
            raise _CliError(EXIT_USAGE, f"invalid spec file: {exc}") from exc
    raise _CliError(EXIT_USAGE, "a model is required: --dataset ID or --spec FILE")


def _write_json(path, obj) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(obj, fh, indent=2, sort_keys=True)
        fh.write("\n")


def _read_json(path):
    """The JSON value in path. A file that is not UTF-8 JSON is a usage
    error; main() maps an OSError to exit 3."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return json.load(fh)
    except ValueError as exc:  # JSONDecodeError or UnicodeDecodeError
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
    ds = sample(spec, args.m, args.seed)
    out = getattr(args, "out", f"{spec.name}.csv")
    save_dataset(ds, out)
    links = len(true_edges(spec.structural_matrix()))
    sidecar = os.path.splitext(out)[0] + ".json"   # for people: no command reads it
    _write_json(sidecar, {"format_version": FORMAT_VERSION, "spec_name": spec.name,
                          "seed": args.seed, "m": args.m, "n": spec.n, "true_links": links})
    print(f"wrote {out} ({args.m} samples, {spec.n} variables) and {sidecar}")
    print(f"true links: {links}")
    return EXIT_OK


# ---------------------------------------------------------------- discover

def cmd_discover(args) -> int:
    ds = _read_dataset(args.data)
    out = args.out if hasattr(args, "out") else str(Path(args.data).with_suffix(".result.json"))
    try:
        result = slcd(ds, args.hp, args.controls)
    except SolverAbort as exc:
        diag = {
            "format_version": RESULT_FORMAT_VERSION,  # as the result written on success
            "error": str(exc),
            "restarts": [r.to_json() for r in exc.records],
        }
        _write_json(out, diag)
        print(f"solver aborted: {exc} (diagnostics in {out})", file=sys.stderr)
        return EXIT_NUMERIC
    _write_json(out, result.to_json())
    edges = sorted(extract_edges(result.D_opt, args.theta))
    print(f"wrote {out}")
    print(f"objective {result.J_min:.6g} in {result.wall_ms:.0f} ms; "
          f"{len(edges)} links at theta={args.theta:g}")
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
    spec = _resolve_spec(args)
    D_hat = _load_estimate(args.result)
    ds = _read_dataset(args.data)
    D_true = spec.structural_matrix()
    try:
        with np.errstate(over="ignore", invalid="ignore"):  # checked on the bundle below
            bundle = metric_bundle(D_hat, ds, D_true, args.theta)
    except ValueError as exc:
        raise _CliError(EXIT_USAGE, f"estimate does not match the model: {exc}") from exc
    errors = (bundle.reconstruction_error, bundle.structure_error, bundle.covariance_error)
    if not np.isfinite(errors).all():
        # JSON cannot hold a NaN or inf metric
        raise _CliError(EXIT_NUMERIC, f"a metric is not finite: {args.data} holds NaN or inf "
                                      "values, or an error term overflows")
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

def _run_sweep(dataset: int, out, args) -> tuple[int, int, int]:
    """sweep() of dataset at the settings of args, written to the CSV
    file out. Returns the counts of cells, of solved cells and of cells
    recovering every link. A grid that sweep() rejects is a usage error."""
    try:
        result = sweep(dataset, hp=args.hp, controls=args.controls, data_seed=args.seed,
                       theta=args.theta, m=args.m, sigma_grid=args.sigma_grid,
                       lambda_grid=args.lambda_grid)
    except ValueError as exc:
        raise _CliError(EXIT_USAGE, str(exc)) from exc
    result.to_csv(str(out))
    ok = [c.metrics for c in result.cells if c.metrics is not None]
    return len(result.cells), len(ok), sum(b.precision == 1.0 and b.recall == 1.0 for b in ok)


def cmd_sweep(args) -> int:
    dataset = args.dataset
    if dataset is None:
        raise _CliError(EXIT_USAGE, "sweep requires --dataset ID")
    out = getattr(args, "out", f"sweep_dataset{dataset}.csv")
    cells, solved, full = _run_sweep(dataset, out, args)
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


def _repro_run_dataset(ds_id: int, args) -> dict:
    """One benchmark run at the settings of args; returns a JSON-ready
    record (error key set on abort). The run is recovered when precision
    = recall = 1 and no entry deviates from the true matrix by more than
    REPRO_MAX_DEVIATION."""
    spec = builtin_spec(ds_id)
    data = sample(spec, args.m, args.seed)
    D_true = spec.structural_matrix()
    rec = {"id": ds_id, "error": "", "recovered": False}
    t0 = time.perf_counter()
    try:
        result = slcd(data, args.hp, args.controls)
    except SolverAbort as exc:
        rec["error"] = str(exc)
    else:
        bundle = metric_bundle(result.D_opt, data, D_true, args.theta)
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
    Writes repro_<which>.md: the title, the settings, the notes, then
    section(id, record) for each dataset; then repro_<which>.json, whose
    records leave out the fields in drop. The report comes last, so that
    a run that cannot write the .md leaves none."""
    hp, m, seed = args.hp, args.m, args.seed
    records = []
    lines = [title, "", f"sigma={hp.sigma:g}, lambda={hp.lam:g}, tau={hp.tau}, "
             f"m={m}, seed={seed}", "", *notes]
    for ds_id in args.datasets:
        rec = _repro_run_dataset(ds_id, args)
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
    (out_dir / f"repro_{which}.md").write_text("\n".join(lines), encoding="utf-8")
    _write_json(out_dir / f"repro_{which}.json", report)
    print(f"wrote {out_dir / f'repro_{which}.md'} and .json; "
          f"{'all gates passed' if passed else 'TOLERANCE MISSED'}")
    return EXIT_OK if passed else EXIT_TOLERANCE


def _repro_sweeps(args, out_dir: Path) -> int:
    """One hyperparameter sweep CSV per dataset, then repro_sweeps.md
    and, last, as in _repro_gated, repro_sweeps.json."""
    sigma_grid, lambda_grid, m = args.sigma_grid, args.lambda_grid, args.m
    summaries = []
    lines = ["# Hyperparameter sweeps", "",
             f"sigma grid {list(sigma_grid)}, lambda grid {list(lambda_grid)}, "
             f"m={m}, restarts={args.hp.restarts}", ""]
    for ds_id in args.datasets:
        csv_path = out_dir / f"sweep_dataset{ds_id}.csv"
        cells, solved, full = _run_sweep(ds_id, csv_path, args)
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
    (out_dir / "repro_sweeps.md").write_text("\n".join(lines), encoding="utf-8")
    _write_json(out_dir / "repro_sweeps.json", report)
    print(f"wrote {out_dir / 'repro_sweeps.md'} and .json")
    return EXIT_OK


def cmd_repro(args) -> int:
    out_dir = Path(args.out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
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
    # each cell's grid values replace sigma and lambda
    "sweep": (cmd_sweep, "grid-run discovery over hyperparameters",
              ("dataset", "sigma_grid", "lambda_grid", "m", "out", "config",
               *(key for key in _SOLVE if key not in ("sigma", "lambda")))),
    "repro": (cmd_repro, "re-run the built-in benchmarks against the reference results",
              ("which", "out_dir", "datasets", "m", "sigma_grid", "lambda_grid",
               "config", *_SOLVE)),
}


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="slcd",
        description="Sparse linear causal discovery: generate benchmark "
                    "data, estimate structural matrices, and evaluate them.")
    sub = parser.add_subparsers(dest="command", required=True)
    for name, (func, help_text, keys) in _COMMANDS.items():
        # SUPPRESS leaves a flag not given out of args, so that _resolve()
        # can tell it apart from one given, and a config null from a missing
        # key; without abbreviations, sweep's --sigma is not its --sigma-grid
        p = sub.add_parser(name, help=help_text, argument_default=argparse.SUPPRESS,
                           allow_abbrev=False)
        for key in keys:
            p.add_argument(key if key == "which" else _flag(key), **_FLAGS[key])
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
        _resolve(args, _load_config(getattr(args, "config", None)))
        return args.func(args)
    except _CliError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return exc.code
    except OSError as exc:  # its text names the path
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_IO
    except (FloatingPointError, np.linalg.LinAlgError) as exc:
        print(f"numeric failure: {exc}", file=sys.stderr)
        return EXIT_NUMERIC


if __name__ == "__main__":
    sys.exit(main())
