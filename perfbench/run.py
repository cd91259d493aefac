#!/usr/bin/env python3
"""slcd benchmark: runs one workload for a fixed time, checks every
output, and prints every metric by name with its unit.

    python3 perfbench/run.py --workload paper-gates --seed 0 --seconds 30 --trace 0

It benchmarks the package under ``src/`` of the checkout it sits in and
writes only under ``perfbench_out/`` there. Workloads: paper-gates,
csv-large-m, sweep-threads (README.md in this directory says why).

Times are corrected for the host's speed (see speed.py); raw times are
reported beside them. With ``--trace 0`` the last line of standard
output is a JSON object with the end-to-end metrics. With ``--trace 1``
passes alternate between untraced and traced, the JSON holds the
per-layer metrics, and the spans are written to ``perfbench_out/``. The
lines before the JSON are a readable report of every metric, the
environment, and any failed check.
"""
from __future__ import annotations

import argparse
import json
import math
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = ROOT / "perfbench_out"

SETUP_PROBES = 6

# Every metric the benchmark reports: name -> (unit, meaning). Times are
# corrected for the host's speed (see speed.py) unless named raw.*.
METRICS = {
    "setup_s": ("s", "import plus building the workload, beyond numpy's import; median"),
    "wall_s": ("s", "one pass, from end of set-up to last result, mean over passes"),
    "restarts_per_s": ("1/s", "restarts completed per second of slcd() time"),
    "restart_ms.p50": ("ms", "RestartRecord.wall_ms, median"),
    "restart_ms.p75": ("ms", "RestartRecord.wall_ms, 75th percentile"),
    "peak_rss_mb": ("MB", "peak resident set of this process"),
    "error_rate": ("ratio", "failed operations / attempted operations"),
    "recovered": ("count", "datasets that pass the repro gate, last pass"),
    "precision": ("ratio", "mean over the discoveries"),
    "recall": ("ratio", "mean over the discoveries"),
    "raw.setup_s": ("s", "set-up as measured, numpy's import included"),
    "raw.wall_s": ("s", "wall_s as measured"),
    "host.speed": ("ratio", "reference kernel speed over its reference, median of readings"),
    "solver.slcd.calls": ("count", "slcd() calls per pass"),
    "solver.slcd.s": ("s", "time in slcd() per pass"),
    "solver.sqp_iters": ("count", "SQP iterations per pass, from RestartRecord"),
    "solver.self_s": ("s", "slcd() time minus its child spans, per pass"),
    "solver.self_share": ("ratio", "solver.self_s / solver.slcd.s"),
    "solver.us_per_sqp_iter": ("us", "solver.self_s / solver.sqp_iters"),
    "solver.row_threshold.calls": ("count", "per pass"),
    "solver.row_threshold.s": ("s", "per pass"),
    "solver.restarts_aborted": ("count", "per pass"),
    "objective.objective.calls": ("count", "per pass"),
    "objective.objective.s": ("s", "per pass"),
    "objective.objective.us_per_call": ("us", "mean time per objective() call"),
    "datagen.sample.s": ("s", "per pass"),
    "datagen.center.s": ("s", "per pass"),
    "datagen.save_dataset.s": ("s", "per pass"),
    "datagen.load_dataset.s": ("s", "per pass"),
    "datagen.csv_bytes": ("bytes", "size of the CSV written"),
    "datagen.load_dataset.mb_per_s": ("MB/s", "CSV bytes read per second of load_dataset()"),
    "evaluation.metric_bundle.s": ("s", "per pass"),
    "evaluation.sweep.cell_ms_sum": ("ms", "sum of SweepCell.wall_ms per sweep, raw"),
    "evaluation.sweep.concurrency": ("ratio", "cell_ms_sum / sweep wall time"),
    "cli.generate.s": ("s", "per pass"),
    "cli.discover.s": ("s", "per pass"),
    "cli.evaluate.s": ("s", "per pass"),
    "cli.self_s": ("s", "CLI steps minus their child spans, per pass"),
    "trace.wall_s": ("s", "traced pass, mean"),
    "trace.overhead_s": ("s", "traced minus untraced raw wall_s, same inputs"),
    "trace.coverage": ("ratio", "share of the traced main-thread passes inside module spans"),
}

# The metrics of the result line, as declared in BENCHMARK.json. Each
# applies to every workload; the end-to-end ones are never zero and vary
# little with the seed. The restart metrics are per-layer because
# csv-large-m has two restarts a pass and paper-gates' twenty fall in
# four clusters, so from seed to seed they move more than any bound.
END_TO_END = ("setup_s", "wall_s", "peak_rss_mb")
PER_LAYER = ("restarts_per_s", "restart_ms.p50", "restart_ms.p75",
             "solver.slcd.calls", "solver.slcd.s", "solver.sqp_iters",
             "solver.self_s", "solver.self_share", "solver.us_per_sqp_iter",
             "solver.row_threshold.calls", "solver.row_threshold.s",
             "solver.restarts_aborted", "objective.objective.calls",
             "objective.objective.s", "objective.objective.us_per_call",
             "datagen.center.s", "evaluation.metric_bundle.s", "trace.wall_s",
             "trace.overhead_s", "trace.coverage")


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True,
                   choices=("paper-gates", "csv-large-m", "sweep-threads"))
    p.add_argument("--seed", type=int, default=0,
                   help="data seed and SolverControls.seed of the first pass (default 0)")
    p.add_argument("--seconds", type=float, default=30.0,
                   help="measuring time; passes start while they are expected to fit")
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--full", action="store_true",
                   help="paper-gates on datasets 2-5 instead of 2 alone (about 100 s a pass)")
    p.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    args = p.parse_args(argv)
    if args.seed < 0 or args.seconds <= 0:
        p.error("--seed must be >= 0 and --seconds > 0")
    return args


def use_checkout_sources() -> None:
    """Import slcd from this checkout's src/ and nowhere else."""
    sys.path.insert(0, str(SRC))
    import slcd

    if SRC.resolve() not in Path(slcd.__file__).resolve().parents:
        raise SystemExit(f"error: slcd was imported from {slcd.__file__}, not {SRC}")


def set_up(args, workdir):
    """Import the package and build the workload. Returns the workload
    and the seconds that took."""
    t0 = time.perf_counter()
    use_checkout_sources()
    import workloads

    cls = workloads.WORKLOADS[args.workload]
    wl = cls(workdir, full=args.full) if cls is workloads.PaperGates else cls(workdir)
    return wl, time.perf_counter() - t0


def setup_probe(args) -> float:
    """Set-up seconds of a fresh interpreter."""
    cmd = [sys.executable, str(HERE / "run.py"), "--setup-probe",
           "--workload", args.workload, "--seed", str(args.seed)]
    if args.full:
        cmd.append("--full")
    done = subprocess.run(cmd, capture_output=True, text=True, timeout=120, check=True)
    return float(done.stdout.split()[-1])


def environment(seed: int) -> dict:
    import numpy

    try:
        blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{blas.get('name')} {blas.get('version')}"
    except (TypeError, KeyError):
        blas = "unknown"
    cpu = platform.processor() or "unknown"
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            cpu = next((ln.split(":", 1)[1].strip() for ln in fh
                        if ln.startswith("model name")), cpu)
    except OSError:
        pass
    commit = "none (not a git checkout)"
    if (ROOT / ".git").exists():
        try:
            commit = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                                    capture_output=True, text=True, timeout=30,
                                    check=True).stdout.strip()
        except (OSError, subprocess.SubprocessError):
            commit = "unknown"
    nproc = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count()
    return {
        "nproc": nproc,
        "cpu": cpu,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "blas": blas,
        "OPENBLAS_NUM_THREADS": os.environ.get("OPENBLAS_NUM_THREADS"),
        "OMP_NUM_THREADS": os.environ.get("OMP_NUM_THREADS"),
        "commit": commit,
        "seed": seed,
    }


def pass_seed(seed: int, k: int) -> int:
    """Seed of the k-th input set of a run: the run's seed, then fresh
    inputs for each further pass, so that a run's median is taken over
    several inputs and not one input's luck."""
    return seed + 100_003 * k


def run_passes(wl, tracer, off, seconds: float, trace: bool, seed: int = 0):
    """Run passes while the next one, with its checks, is expected to end
    within `seconds` of the first one's start; at least one, and with
    tracing at least two, the odd ones traced. With tracing, each traced
    pass has the inputs of the untraced pass before it."""
    from speed import Clock

    passes = []
    start = time.perf_counter()
    while True:
        traced = trace and len(passes) % 2 == 1
        k = len(passes) // 2 if trace else len(passes)
        tr = tracer if traced else off
        clock = Clock(tr, wl.kernel)
        t0 = time.perf_counter()
        # Checkpoint readings inside operations would land inside spans and
        # RestartRecord times, so traced passes read only between them.
        hooks = () if traced else wl.CHECKPOINTS
        with tr.span("bench.pass"), clock.checkpoints_at(hooks):
            p = wl.run_pass(tr, clock, pass_seed(seed, k))
        p.wall_s, p.corrected_s, p.traced = clock.raw_s, clock.corrected_s, traced
        p.speeds, p.op_raw, p.op_scale = clock.speeds(), clock.raw, clock.scale
        wl.finish(p)
        passes.append(p)
        now = time.perf_counter()
        if (not trace or len(passes) >= 2) and now - start + (now - t0) > seconds:
            return passes


def restart_metrics(passes) -> dict:
    from tracing import percentile

    discs = [d for p in passes for d in p.discoveries]
    restart_ms = [ms * d.scale for d in discs for ms in d.restart_ms]
    slcd_s = sum(d.wall_ms * d.scale for d in discs) / 1000.0
    if not restart_ms or not slcd_s:
        return dict.fromkeys(("restarts_per_s", "restart_ms.p50", "restart_ms.p75"), math.nan)
    return {
        "restarts_per_s": sum(d.restarts_done for d in discs) / slcd_s,
        "restart_ms.p50": percentile(restart_ms, 50),
        "restart_ms.p75": percentile(restart_ms, 75),
    }


def end_to_end(passes, setups) -> dict:
    discs = [d for p in passes for d in p.discoveries]
    speeds = [s for p in passes for s in p.speeds]
    out = {
        "setup_s": statistics.median(t - r for t, r in setups),
        "raw.setup_s": statistics.median(t for t, _ in setups),
        # Passes have different inputs, so the mean is the time per input
        # averaged over all the work the run measured.
        "wall_s": statistics.fmean(p.corrected_s for p in passes),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "precision": statistics.fmean(d.precision for d in discs) if discs else math.nan,
        "recall": statistics.fmean(d.recall for d in discs) if discs else math.nan,
        "raw.wall_s": statistics.fmean(p.wall_s for p in passes),
        "host.speed": statistics.median(speeds) if speeds else math.nan,
    }
    if "recovered" in passes[-1].extra:
        out["recovered"] = passes[-1].extra["recovered"]
    return out


def per_layer(traced, untraced, spans) -> dict:
    """Per-layer numbers per traced pass. Span times are scaled by the
    traced passes' host-speed correction."""
    from tracing import by_name

    n = len(traced)
    stats = by_name(spans)
    scale = sum(p.corrected_s for p in traced) / sum(p.wall_s for p in traced)

    def calls(name):
        return stats[name].calls / n if name in stats else 0

    def total(name):
        return stats[name].total_s * scale / n if name in stats else 0.0

    def own(name):
        return stats[name].self_s * scale / n if name in stats else 0.0

    def ratio(a, b):
        return a / b if b else 0.0

    def mean_extra(key):
        return statistics.fmean(p.extra.get(key, 0.0) for p in traced)

    discs = [d for p in traced for d in p.discoveries]
    iters = sum(d.iterations for d in discs) / n
    # Time inside the passes that is neither a module's nor the reference
    # kernel's: the benchmark's own bookkeeping between calls.
    timed = total("bench.pass") - total("bench.calibrate")
    cli_self = sum(st.self_s for name, st in stats.items() if name.startswith("cli.")) * scale / n
    trace_wall = statistics.fmean(p.corrected_s for p in traced)
    return {
        **restart_metrics(traced),
        "solver.slcd.calls": calls("solver.slcd"),
        "solver.slcd.s": total("solver.slcd"),
        "solver.sqp_iters": iters,
        "solver.self_s": own("solver.slcd"),
        "solver.self_share": ratio(own("solver.slcd"), total("solver.slcd")),
        "solver.us_per_sqp_iter": ratio(own("solver.slcd"), iters) * 1e6,
        "solver.row_threshold.calls": calls("solver.row_threshold"),
        "solver.row_threshold.s": total("solver.row_threshold"),
        "solver.restarts_aborted": sum(d.aborted for d in discs) / n,
        "objective.objective.calls": calls("objective.objective"),
        "objective.objective.s": total("objective.objective"),
        "objective.objective.us_per_call": ratio(total("objective.objective"),
                                                 calls("objective.objective")) * 1e6,
        "datagen.sample.s": total("datagen.sample"),
        "datagen.center.s": total("datagen.center"),
        "datagen.save_dataset.s": total("datagen.save_dataset"),
        "datagen.load_dataset.s": total("datagen.load_dataset"),
        "datagen.csv_bytes": mean_extra("csv_bytes"),
        "datagen.load_dataset.mb_per_s": ratio(
            mean_extra("csv_bytes") * calls("datagen.load_dataset") / 1e6,
            total("datagen.load_dataset")),
        "evaluation.metric_bundle.s": total("evaluation.metric_bundle"),
        "evaluation.sweep.cell_ms_sum": mean_extra("cell_ms_sum"),
        "evaluation.sweep.concurrency": mean_extra("concurrency"),
        "cli.generate.s": total("cli.generate"),
        "cli.discover.s": total("cli.discover"),
        "cli.evaluate.s": total("cli.evaluate"),
        "cli.self_s": cli_self,
        "trace.wall_s": trace_wall,
        # Raw times: the traced and untraced passes of a pair have the same
        # inputs and run back to back, but are corrected differently.
        "trace.overhead_s": (statistics.fmean(p.wall_s for p in traced)
                             - statistics.fmean(p.wall_s for p in untraced)),
        "trace.coverage": ratio(timed - own("bench.pass"), timed),
    }


def report_metrics(title: str, values: dict, declared) -> None:
    print(f"{title}  (* = in the result line)")
    for name, value in values.items():
        unit, meaning = METRICS[name]
        mark = "*" if name in declared else " "
        text = f"{value:.6g}" if isinstance(value, float) else str(value)
        print(f"  {mark} {name:<32} {text:>14} {unit:<6} {meaning}")


def report_self_times(spans, n: int) -> None:
    from tracing import module_self_by_thread

    main = next(s.thread for s in spans if s.name == "bench.pass")
    per_thread = sorted(module_self_by_thread(spans).items(), key=lambda kv: kv[0] != main)
    print(f"self time per module and thread, raw seconds per traced pass ({n} traced; "
          "bench = the benchmark's own time, mostly speed readings):")
    for i, (thread, per) in enumerate(per_thread):
        who = "main thread" if thread == main else f"worker thread {i}"
        cells = "  ".join(f"{mod} {secs / n:.4f}" for mod, secs in sorted(per.items()))
        print(f"  {who:<16} total {sum(per.values()) / n:.4f}  |  {cells}")


def result_line(correct: bool, attempted: int, failed: int, values: dict, names) -> str:
    metrics = {}
    for name in names:
        v = values[name]
        metrics[name] = {"value": v if math.isfinite(v) else None, "unit": METRICS[name][0]}
    return json.dumps({"correct": correct, "attempted": attempted, "failed": failed,
                       "metrics": metrics})


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "slcd" / "__init__.py").is_file():
        raise SystemExit(f"error: no package at {SRC / 'slcd'}; "
                         "run the benchmark from a checkout of the repository")
    workdir = OUT / f"run-{os.getpid()}"
    try:
        workdir.mkdir(parents=True, exist_ok=True)
        wl, took = set_up(args, str(workdir))
        if args.setup_probe:
            print(repr(took))
            return 0
        from speed import numpy_import_seconds
        from tracing import Tracer

        # Each set-up is paired with the time a fresh interpreter takes to
        # import numpy, measured right after it (see speed.py).
        setups = [(took, numpy_import_seconds())]
        for _ in range(SETUP_PROBES):
            probe = setup_probe(args)
            setups.append((probe, numpy_import_seconds()))
        env = environment(args.seed)
        tracer, off = Tracer(True), Tracer(False)
        passes = run_passes(wl, tracer, off, args.seconds, bool(args.trace), args.seed)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    failures = [f for p in passes for fs in p.ops.values() for f in fs]
    attempted = sum(len(p.ops) for p in passes)
    failed = sum(1 for p in passes for fs in p.ops.values() if fs)
    untraced = [p for p in passes if not p.traced]
    traced = [p for p in passes if p.traced]
    values = end_to_end(untraced, setups)
    values["error_rate"] = failed / attempted if attempted else math.nan

    print(f"slcd benchmark: workload {args.workload}, seed {args.seed}, "
          f"trace {args.trace}, {args.seconds:g} s")
    print("environment: " + json.dumps(env))
    walls = ", ".join(f"{p.wall_s:.3f} s raw / {p.corrected_s:.3f} s"
                      + (" traced" if p.traced else "") for p in passes)
    print(f"passes: {len(passes)} ({walls}); operations attempted {attempted}, failed {failed}")
    for i, p in enumerate(passes):
        ops = ", ".join(f"{r:.3f} s x {s:.3f}" for r, s in zip(p.op_raw, p.op_scale))
        iters = sum(d.iterations for d in p.discoveries)
        print(f"  pass {i}, seed {p.seed}: operations {ops}; SQP iterations {iters}")
    print("set-ups: " + ", ".join(f"{t:.4f} s (numpy import {r:.4f} s)" for t, r in setups))
    report_metrics("end-to-end metrics over untraced passes", values, END_TO_END)
    if args.trace:
        spans = tracer.finished()
        layers = per_layer(traced, untraced, spans)
        report_metrics("per-layer metrics over traced passes", layers, PER_LAYER)
        report_self_times(spans, len(traced))
        spans_path = OUT / f"spans-{args.workload}-seed{args.seed}.json"
        tracer.dump(spans_path, {"workload": args.workload, "environment": env,
                                 "passes": [[p.wall_s, p.corrected_s, p.traced]
                                            for p in passes]})
        print(f"spans written to {spans_path}")
    for f in failures:
        print("CHECK FAILED: " + f)
    if args.trace:
        print(result_line(not failures, attempted, failed, layers, PER_LAYER))
    else:
        print(result_line(not failures, attempted, failed, values, END_TO_END))
    return 0


if __name__ == "__main__":
    sys.exit(main())
