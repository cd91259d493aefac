"""The three benchmark workloads. Each one is set up in its constructor
(the set-up the benchmark times), runs one pass of program work on the
inputs of a pass seed in ``run_pass``, timing each operation through the
clock it is given, and checks that pass's outputs in ``finish`` (not
timed). README.md in this directory gives the reason for each workload."""
from __future__ import annotations

import contextlib
import io
import json
import math
import os
import shutil
import tempfile
import traceback
from dataclasses import dataclass, field

from slcd import cli, evaluation, solver
from slcd.datagen import builtin_spec, load_dataset, sample
from slcd.objective import Hyperparams
from slcd.scm_core import StructuralMatrix

from speed import CsvKernel, NumpyKernel
from tracing import rebound
from checks import (
    Discovery,
    bundle_failures,
    exit_failures,
    gate_failures,
    objective_failures,
    recovered,
)

# Public functions the solver calls, rebound to span wrappers in traced
# passes: (module, attribute, span name).
SOLVER_CALLS = (
    (solver, "objective", "objective.objective"),
    (solver, "row_threshold", "solver.row_threshold"),
    (solver, "center", "datagen.center"),
)
CLI_CALLS = SOLVER_CALLS + (
    (cli, "load_dataset", "datagen.load_dataset"),
    (cli, "save_dataset", "datagen.save_dataset"),
    (cli, "sample", "datagen.sample"),
    (cli, "slcd", "solver.slcd"),
    (cli, "metric_bundle", "evaluation.metric_bundle"),
)
SWEEP_CALLS = SOLVER_CALLS + (
    (evaluation, "slcd", "solver.slcd"),
    (evaluation, "metric_bundle", "evaluation.metric_bundle"),
    (evaluation, "sample", "datagen.sample"),
)


@dataclass
class Pass:
    """One timed pass: its raw and host-speed-corrected wall time, its
    operations (each with the failures found in it), its discoveries,
    and workload-specific numbers."""

    seed: int = 0
    outputs: object = None
    wall_s: float = 0.0
    corrected_s: float = 0.0
    speeds: list[float] = field(default_factory=list)
    op_raw: list[float] = field(default_factory=list)
    op_scale: list[float] = field(default_factory=list)
    traced: bool = False
    ops: dict[str, list[str]] = field(default_factory=dict)
    discoveries: list[Discovery] = field(default_factory=list)
    extra: dict[str, float] = field(default_factory=dict)


class PaperGates:
    """slcd() at the paper's default hyperparameters, m = 1000, through
    the Python API: on dataset 2, or with ``full`` on each of datasets
    2-5. At seed 0 every dataset must pass the repro gate, as the paper
    claims; at other seeds recovery is reported without a gate."""

    name = "paper-gates"
    CHECKPOINTS = ((solver, "row_threshold"),)
    DATASETS = (2,)
    FULL_DATASETS = (2, 3, 4, 5)
    M = 1000

    def __init__(self, workdir: str, full: bool = False):
        self.hp = Hyperparams()
        self.kernel = NumpyKernel()
        self.specs = [(d, builtin_spec(d)) for d in (self.FULL_DATASETS if full else self.DATASETS)]

    def run_pass(self, tracer, clock, seed: int) -> Pass:
        slcd = tracer.wrap("solver.slcd", solver.slcd)
        metric_bundle = tracer.wrap("evaluation.metric_bundle", evaluation.metric_bundle)
        controls = solver.SolverControls(seed=seed)

        def discover(data, D_true):
            result = slcd(data, self.hp, controls)
            return result, metric_bundle(result.D_opt, data, D_true)

        out = []
        with tracer.rebound(SOLVER_CALLS):
            for d, spec in self.specs:
                data, D_true = sample(spec, self.M, seed), spec.structural_matrix().entries
                try:
                    out.append((d, data, D_true, *clock.time(discover, data, D_true), "",
                                clock.scale[-1]))
                except Exception:
                    out.append((d, data, D_true, None, None, traceback.format_exc(), 1.0))
        return Pass(seed=seed, outputs=out)

    def finish(self, p: Pass) -> None:
        hits = 0
        for d, data, D_true, result, bundle, error, scale in p.outputs:
            label = f"dataset {d}"
            if result is None:
                p.ops[label] = [f"{label}: raised\n{error}"]
                continue
            disc = Discovery.from_result(label, result, bundle, scale)
            p.discoveries.append(disc)
            failures = objective_failures(disc, data)
            hits += recovered(disc, D_true)
            # The paper's claim is made at seed 0.
            if p.seed == 0:
                failures += gate_failures(disc, D_true)
            p.ops[label] = failures
        p.extra["recovered"] = hits
        p.outputs = None


def run_cli(argv) -> tuple[int, str]:
    """slcd.cli.main in this process, its output captured. Returns the
    exit code and the captured standard error."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = cli.main([str(a) for a in argv])
        except Exception:
            traceback.print_exc()
            code = -1
    return code, err.getvalue()


class CsvLargeM:
    """The CLI's generate, discover and evaluate on one large CSV file:
    dataset 5 at m = 500 000, two restarts."""

    name = "csv-large-m"
    CHECKPOINTS = ((solver, "row_threshold"), (cli, "sample"), (cli, "save_dataset"),
                   (cli, "load_dataset"), (cli, "slcd"), (cli, "metric_bundle"))
    DATASET = 5
    M = 500_000
    RESTARTS = 2

    def __init__(self, workdir: str):
        self.workdir = workdir
        self.kernel = CsvKernel(workdir)
        self.D_true = builtin_spec(self.DATASET).structural_matrix().entries

    def run_pass(self, tracer, clock, seed: int) -> Pass:
        tmp = tempfile.mkdtemp(dir=self.workdir)
        csv = os.path.join(tmp, "data.csv")
        result = os.path.join(tmp, "result.json")
        metrics = os.path.join(tmp, "metrics.json")
        steps = (
            ("generate", ["generate", "--dataset", self.DATASET, "--m", self.M,
                          "--seed", seed, "--out", csv]),
            ("discover", ["discover", "--data", csv, "--restarts", self.RESTARTS,
                          "--seed", seed, "--out", result]),
            ("evaluate", ["evaluate", "--result", result, "--data", csv,
                          "--dataset", self.DATASET, "--out", metrics]),
        )
        codes = []
        with tracer.rebound(CLI_CALLS):
            for step, argv in steps:
                step_fn = tracer.wrap(f"cli.{step}", run_cli)
                codes.append((step, *clock.time(step_fn, argv), clock.scale[-1]))
        return Pass(seed=seed, outputs=(tmp, csv, result, metrics, codes))

    def finish(self, p: Pass) -> None:
        tmp, csv, result, metrics, codes = p.outputs
        p.outputs = None
        try:
            for step, code, err, _ in codes:
                p.ops[step] = exit_failures(step, code, err)
            if p.ops["generate"] or p.ops["discover"]:
                return
            p.extra["csv_bytes"] = os.path.getsize(csv)
            try:
                with open(result, encoding="utf-8") as fh:
                    res = json.load(fh)
                restarts = res["restarts"]
                disc = Discovery(
                    label="discover",
                    D=StructuralMatrix.from_json(res["estimated_matrix"]).entries,
                    J_min=math.inf if res["j_min"] is None else float(res["j_min"]),
                    hp=Hyperparams.from_json(res["hyperparams"]),
                    wall_ms=float(res["wall_ms"]),
                    scale=codes[1][3],
                    restart_ms=[float(r["wall_ms"]) for r in restarts],
                    iterations=sum(int(r["iterations"]) for r in restarts),
                    aborted=sum(1 for r in restarts if r["aborted"]),
                )
                data = load_dataset(csv)
            except (OSError, ValueError, KeyError, TypeError) as exc:
                p.ops["discover"].append(f"discover: unreadable output: {exc!r}")
                return
            p.ops["discover"] += objective_failures(disc, data)
            bundle = evaluation.metric_bundle(disc.D, data, self.D_true)
            disc.precision, disc.recall = bundle.precision, bundle.recall
            p.discoveries.append(disc)
            if p.ops["evaluate"]:
                return
            try:
                with open(metrics, encoding="utf-8") as fh:
                    reported = json.load(fh)
            except (OSError, ValueError) as exc:
                p.ops["evaluate"].append(f"evaluate: unreadable output: {exc!r}")
                return
            p.ops["evaluate"] += bundle_failures("evaluate", reported, bundle)
        finally:
            shutil.rmtree(tmp, ignore_errors=True)


def captured_results(module, attr: str, into: list):
    """Keep every value module.attr returns while the block runs."""
    def keeping(original):
        def keep(*args, **kwargs):
            value = original(*args, **kwargs)
            into.append(value)
            return value
        return keep
    return rebound([(module, attr)], keeping)


class SweepThreads:
    """evaluation.sweep on dataset 2 over two grid cells with jobs = 2,
    the only caller of the sweep's jobs > 1 path."""

    name = "sweep-threads"
    CHECKPOINTS = ((solver, "row_threshold"),)
    DATASET = 2
    M = 1000
    SIGMA_GRID = (0.3,)
    LAMBDA_GRID = (2.0, 5.0)
    JOBS = 2

    def __init__(self, workdir: str):
        self.kernel = NumpyKernel()

    def run_pass(self, tracer, clock, seed: int) -> Pass:
        results: list = []
        sweep = tracer.wrap("evaluation.sweep", evaluation.sweep)
        error = ""
        res = None
        # The sweep keeps only J_min per cell; the estimates themselves
        # are taken from slcd() so that they can be checked.
        with captured_results(evaluation, "slcd", results), tracer.rebound(SWEEP_CALLS):
            try:
                res = clock.time(sweep, self.DATASET, sigma_grid=self.SIGMA_GRID,
                                 lambda_grid=self.LAMBDA_GRID,
                                 controls=solver.SolverControls(seed=seed),
                                 m=self.M, data_seed=seed, jobs=self.JOBS)
            except Exception:
                error = traceback.format_exc()
        p = Pass(seed=seed, outputs=(res, results, error, clock.scale[-1]))
        if res is not None:
            cell_ms = sum(c.wall_ms for c in res.cells)
            p.extra["cell_ms_sum"] = cell_ms
            p.extra["concurrency"] = cell_ms / (clock.raw[-1] * 1000.0)
        return p

    def finish(self, p: Pass) -> None:
        res, results, error, scale = p.outputs
        p.outputs = None
        data = sample(builtin_spec(self.DATASET), self.M, p.seed)
        cells = res.cells if res is not None else []
        expected = [(s, l) for s in self.SIGMA_GRID for l in self.LAMBDA_GRID]
        for extra in sorted({(c.sigma, c.lam) for c in cells} - set(expected)):
            p.ops[f"cell {extra}"] = [f"cell {extra}: not in the grid"]
        for sg, lg in expected:
            label = f"cell sigma={sg:g} lambda={lg:g}"
            if res is None:
                p.ops[label] = [f"{label}: sweep raised\n{error}"]
                continue
            cell = [c for c in cells if (c.sigma, c.lam) == (sg, lg)]
            found = [r for r in results if (r.hp.sigma, r.hp.lam) == (sg, lg)]
            if len(cell) != 1 or len(found) != 1:
                p.ops[label] = [f"{label}: {len(cell)} cells and {len(found)} estimates, "
                                "expected one of each"]
                continue
            cell, result = cell[0], found[0]
            if cell.error or cell.metrics is None:
                p.ops[label] = [f"{label}: aborted: {cell.error}"]
                continue
            disc = Discovery.from_result(label, result, cell.metrics, scale)
            p.discoveries.append(disc)
            failures = objective_failures(disc, data)
            if cell.j_min != result.J_min:
                failures.append(f"{label}: cell J_min {cell.j_min!r} but slcd() "
                                f"returned {result.J_min!r}")
            p.ops[label] = failures


WORKLOADS = {w.name: w for w in (PaperGates, CsvLargeM, SweepThreads)}
