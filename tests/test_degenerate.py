"""Degenerate data: the estimator returns a result or raises SolverAbort,
and `slcd discover` exits 0, 3 or 4, on data with a constant row, a
duplicated variable, fewer samples than variables, two samples, values
scaled by 1e6, 1e-6 or 1e160, and all zeros. Each case is run with one
usable CPU, where slcd() solves in the calling process, and with two,
where it solves its 3 restarts on a pool of two (blocks of 2 and 1):
both end the same way."""
from __future__ import annotations

import json
import warnings
from unittest import mock

import numpy as np
import pytest

from slcd import Hyperparams, SolverAbort, _fork, builtin_spec, sample, slcd
from slcd.cli import main
from conftest import without_wall

_BASE = sample(builtin_spec(2), 200, 0).X

DEGENERATE = {
    "constant-row": np.vstack([_BASE[:3], np.full((1, 200), 2.5)]),
    "duplicated-variable": np.vstack([_BASE[:3], _BASE[:1]]),
    "m-less-than-n": _BASE[:, :3],
    "m-two": _BASE[:, :2],
    "times-1e6": _BASE * 1e6,
    "times-1e-6": _BASE * 1e-6,
    # the second moments overflow: slcd() aborts before any solve
    "times-1e160": _BASE * 1e160,
    "all-zero": np.zeros((4, 200)),
}

# Finite data whose second moments overflow inside the solve: every
# restart aborts, with no RuntimeWarning whether warnings are errors, as
# in this suite, or not. Nothing rescales the data (ROADMAP item 8).
OVERFLOWING = _BASE * 1e60

_CPUS = (1, 2)


def _cpus(cpus: int):
    """cpus usable CPUs, while the context lasts."""
    return mock.patch.object(_fork, "_usable_cpus", return_value=cpus)


def _slcd_end(X, cpus: int):
    """What slcd(X) at 3 restarts and 2 rounds gives its caller with cpus
    usable CPUs: (result, None) or (None, the exception)."""
    with _cpus(cpus):
        try:
            return slcd(X, Hyperparams(restarts=3, iterations=2)), None
        except Exception as exc:    # compared below, whatever its type
            return None, exc


def _assert_same_end(ends) -> None:
    (a, a_exc), (b, b_exc) = ends
    assert type(a_exc) is type(b_exc) and str(a_exc) == str(b_exc)
    if isinstance(a_exc, SolverAbort):
        assert without_wall(a_exc.records) == without_wall(b_exc.records)
    if a is not None:
        assert a.D_opt.tobytes() == b.D_opt.tobytes() and a.J_min == b.J_min
        assert without_wall(a.restarts) == without_wall(b.restarts)


@pytest.mark.parametrize("X", DEGENERATE.values(), ids=DEGENERATE.keys())
def test_slcd_returns_or_aborts_on_degenerate_data(X) -> None:
    ends = [_slcd_end(X, cpus) for cpus in _CPUS]
    _assert_same_end(ends)
    result, exc = ends[0]
    if exc is not None:
        assert isinstance(exc, SolverAbort), repr(exc)
        assert len(exc.records) == 3
        return
    assert result.D_opt.shape == (X.shape[0],) * 2
    assert np.isfinite(result.D_opt).all() and result.J_min < np.inf


def test_overflowing_second_moments_abort_before_the_solve() -> None:
    """Data whose Gram matrix overflows abort under their own message,
    with no RuntimeWarning (which this suite raises) and no SQP
    iteration."""
    with pytest.raises(SolverAbort, match="the data's second moments overflow") as info:
        slcd(DEGENERATE["times-1e160"], Hyperparams(restarts=3))
    assert [r.iterations for r in info.value.records] == [0, 0, 0]


def test_overflowing_second_moments_abort_with_explicit_slacks() -> None:
    """Explicit slacks stay finite whatever the data hold; the overflowing
    Gram matrix still aborts before the solve, with no RuntimeWarning."""
    X = sample(builtin_spec(2), 100, 0).X * 1e160
    with pytest.raises(SolverAbort, match="the data's second moments overflow") as info:
        slcd(X, Hyperparams(restarts=3, iterations=1, eps1=1.0, eps2=1.0))
    assert [r.iterations for r in info.value.records] == [0, 0, 0]


@pytest.mark.parametrize("action, raised", [("error", SolverAbort), ("ignore", SolverAbort)])
def test_overflowing_data_end_the_same_way_on_both_paths(action, raised) -> None:
    with warnings.catch_warnings():
        warnings.simplefilter(action, RuntimeWarning)
        ends = [_slcd_end(OVERFLOWING, cpus) for cpus in _CPUS]
    _assert_same_end(ends)
    assert type(ends[0][1]) is raised
    assert str(ends[0][1]) == "every restart aborted without a finite candidate"


def _discover_end(X, cpus: int, tmp_path, capsys) -> tuple:
    """discover on X with cpus usable CPUs: its exit code, or the type of
    the exception that left main(); its standard error; and its output
    file without the wall times."""
    data, out = tmp_path / "data.csv", tmp_path / "result.json"
    np.savetxt(data, X.T, fmt="%.17g", delimiter=",")
    out.unlink(missing_ok=True)
    with _cpus(cpus):
        try:
            code = main(["discover", "--data", str(data), "--restarts", "3",
                         "--iterations", "2", "--out", str(out)])
        except Exception as exc:    # compared below, whatever its type
            code = type(exc)
    written = json.loads(out.read_text()) if out.exists() else None
    if written is not None:
        written.pop("wall_ms", None)
        for record in written["restarts"]:
            del record["wall_ms"]
    return code, capsys.readouterr().err, written


@pytest.mark.parametrize("X", DEGENERATE.values(), ids=DEGENERATE.keys())
def test_discover_exits_cleanly_on_degenerate_data(X, tmp_path, capsys) -> None:
    ends = [_discover_end(X, cpus, tmp_path, capsys) for cpus in _CPUS]
    assert ends[0] == ends[1]
    code, err, _ = ends[0]
    assert code in (0, 3, 4)
    assert "Traceback" not in err


@pytest.mark.parametrize("action, end", [("error", 4), ("ignore", 4)])
def test_discover_on_overflowing_data_ends_the_same_way(action, end, tmp_path, capsys) -> None:
    with warnings.catch_warnings():
        warnings.simplefilter(action, RuntimeWarning)
        ends = [_discover_end(OVERFLOWING, cpus, tmp_path, capsys) for cpus in _CPUS]
    assert ends[0] == ends[1]
    assert ends[0][0] == end
