"""Fast tests of the benchmark's own logic; none runs a full workload.

    python3 -m pytest -q perfbench
"""
from __future__ import annotations

import json
import re
import sys
import threading
import types
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))
sys.path.insert(0, str(HERE))

import pytest  # noqa: E402

import run  # noqa: E402
from checks import Discovery, gate_failures, objective_failures  # noqa: E402
from tracing import Span, Tracer, module_self_by_thread, percentile, self_times  # noqa: E402
from speed import NumpyKernel  # noqa: E402
from workloads import CsvLargeM, Pass, run_cli  # noqa: E402

NAME = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}")
UNIT = re.compile(r"[A-Za-z0-9_/%.-]{1,16}")


def test_percentile_is_nearest_rank():
    assert percentile([7.0], 50) == 7.0
    assert percentile([4, 1, 3, 2], 50) == 2
    assert percentile([4, 1, 3, 2], 75) == 3
    assert percentile([4, 1, 3, 2], 76) == 4
    assert percentile(list(range(1, 101)), 75) == 75
    assert percentile([3, 1, 2], 100) == 3
    with pytest.raises(ValueError):
        percentile([], 50)
    with pytest.raises(ValueError):
        percentile([1.0], 0)


def test_self_time_over_nested_spans_on_two_threads():
    spans = [
        Span("bench.pass", 0.0, 10.0, None, 1),
        Span("solver.slcd", 1.0, 9.0, 0, 1),
        Span("objective.objective", 2.0, 3.0, 1, 1),
        Span("objective.objective", 4.0, 4.5, 1, 1),
        Span("solver.slcd", 0.5, 6.0, None, 2),
        Span("datagen.center", 1.0, 2.0, 4, 2),
    ]
    assert self_times(spans) == pytest.approx([2.0, 6.5, 1.0, 0.5, 4.5, 1.0])
    per = module_self_by_thread(spans)
    assert per[1] == pytest.approx({"bench": 2.0, "solver": 6.5, "objective": 1.5})
    assert per[2] == pytest.approx({"solver": 4.5, "datagen": 1.0})
    # On each thread the self times add up to the root spans' durations.
    assert sum(per[1].values()) == pytest.approx(10.0)
    assert sum(per[2].values()) == pytest.approx(5.5)


def test_tracer_links_parents_within_each_thread():
    tr = Tracer(True)

    def work():
        with tr.span("solver.slcd"):
            with tr.span("objective.objective"):
                pass

    with tr.span("bench.pass"):
        worker = threading.Thread(target=work)
        worker.start()
        worker.join(timeout=10)
        assert not worker.is_alive()
        work()
    spans = tr.finished()
    main = threading.get_ident()
    roots = [s for s in spans if s.parent is None]
    assert sorted(s.name for s in roots) == ["bench.pass", "solver.slcd"]
    for s in spans:
        if s.parent is not None:
            assert spans[s.parent].thread == s.thread
            assert spans[s.parent].start <= s.start <= s.end <= spans[s.parent].end
    assert {s.thread for s in spans if s.name == "solver.slcd"} - {main}


def test_rebound_wraps_and_restores():
    f = lambda x: x + 1  # noqa: E731
    mod = types.SimpleNamespace(f=f)
    off = Tracer(False)
    assert off.wrap("m.f", f) is f
    tr = Tracer(True)
    with tr.rebound([(mod, "f", "m.f"), (mod, "absent", "m.absent")]):
        assert mod.f is not f and mod.f(1) == 2
    assert mod.f is f and not hasattr(mod, "absent")
    assert [s.name for s in tr.finished()] == ["m.f"]


def test_metric_names_units_and_benchmark_json_agree():
    for name, (unit, _) in run.METRICS.items():
        assert NAME.fullmatch(name), name
        assert UNIT.fullmatch(unit), unit
    spec = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    for key, names in (("end_to_end", run.END_TO_END), ("per_layer", run.PER_LAYER)):
        assert [m["name"] for m in spec[key]] == list(names)
        for m in spec[key]:
            assert m["unit"] == run.METRICS[m["name"]][0]
    for w in spec["workloads"]:
        assert run.parse_args(["--workload", w["name"]]).workload == w["name"]


def test_run_loop_alternates_traced_passes():
    class Sleepy:
        kernel = NumpyKernel()
        CHECKPOINTS = ()

        def run_pass(self, tracer, clock, seed):
            clock.time(tracer.wrap("solver.slcd", threading.Event().wait), 0.01)
            return Pass(seed=seed)

        def finish(self, p):
            p.ops["op"] = []

    tracer, off = Tracer(True), Tracer(False)
    passes = run.run_passes(Sleepy(), tracer, off, seconds=0.001, trace=True, seed=5)
    assert [p.traced for p in passes] == [False, True]
    assert [p.seed for p in passes] == [5, 5]
    names = [s.name for s in tracer.finished()]
    assert names == ["bench.pass", "bench.calibrate", "solver.slcd", "bench.calibrate"]
    assert all(p.corrected_s > 0 and len(p.speeds) == 2 for p in passes)
    assert len(run.run_passes(Sleepy(), tracer, off, seconds=0.001, trace=False)) == 1


@pytest.fixture(scope="module")
def small_discovery():
    from slcd.datagen import builtin_spec, sample
    from slcd.evaluation import metric_bundle
    from slcd.objective import Hyperparams
    from slcd.solver import SolverControls, slcd

    spec = builtin_spec(1)
    data = sample(spec, 200, 0)
    result = slcd(data, Hyperparams(restarts=1, iterations=1), SolverControls(seed=0))
    bundle = metric_bundle(result.D_opt, data, spec.structural_matrix())
    return data, result, bundle, spec.structural_matrix().entries


def test_objective_check_catches_a_corrupted_estimate(small_discovery):
    data, result, bundle, _ = small_discovery
    assert objective_failures(Discovery.from_result("ok", result, bundle), data) == []
    corrupted = Discovery.from_result("corrupted", result, bundle)
    corrupted.D = corrupted.D.copy()
    corrupted.D[1, 0] += 0.25
    assert objective_failures(corrupted, data)
    infinite = Discovery.from_result("infinite", result, bundle)
    infinite.J_min = float("inf")
    assert objective_failures(infinite, data)


def test_gate_catches_a_corrupted_estimate(small_discovery):
    _, result, bundle, D_true = small_discovery
    exact = Discovery.from_result("exact", result, bundle)
    exact.D, exact.precision, exact.recall = D_true.copy(), 1.0, 1.0
    assert gate_failures(exact, D_true) == []
    exact.D[1, 0] += 0.5
    assert gate_failures(exact, D_true)


def test_nonzero_cli_exit_counts_as_a_failed_operation(tmp_path):
    code, err = run_cli(["discover", "--data", tmp_path / "missing.csv"])
    assert code != 0 and "cannot read" in err
    wl = CsvLargeM(workdir=str(tmp_path))
    step_dir = tmp_path / "pass"
    step_dir.mkdir()
    p = Pass(outputs=(str(step_dir), str(step_dir / "data.csv"), str(step_dir / "r.json"),
                  str(step_dir / "m.json"),
                  [("generate", 0, "", 1.0), ("discover", code, err, 1.0),
                   ("evaluate", 3, "x", 1.0)]))
    wl.finish(p)
    assert p.ops["generate"] == []
    assert p.ops["discover"] and p.ops["evaluate"]
    assert not step_dir.exists()
