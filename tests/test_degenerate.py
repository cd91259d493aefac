"""Degenerate data: the estimator returns a result or raises SolverAbort,
and `slcd discover` exits 0, 3 or 4, on data with a constant row, a
duplicated variable, fewer samples than variables, two samples, values
scaled by 1e6 or 1e-6, and all zeros."""
from __future__ import annotations

import numpy as np
import pytest

from slcd import Hyperparams, SolverAbort, builtin_spec, sample, slcd
from slcd.cli import main

_BASE = sample(builtin_spec(2), 200, 0).X

DEGENERATE = {
    "constant-row": np.vstack([_BASE[:3], np.full((1, 200), 2.5)]),
    "duplicated-variable": np.vstack([_BASE[:3], _BASE[:1]]),
    "m-less-than-n": _BASE[:, :3],
    "m-two": _BASE[:, :2],
    "times-1e6": _BASE * 1e6,
    "times-1e-6": _BASE * 1e-6,
    "all-zero": np.zeros((4, 200)),
}


@pytest.mark.parametrize("X", DEGENERATE.values(), ids=DEGENERATE.keys())
def test_slcd_returns_or_aborts_on_degenerate_data(X) -> None:
    try:
        result = slcd(X, Hyperparams(restarts=3, iterations=2))
    except SolverAbort as exc:
        assert len(exc.records) == 3
        return
    assert result.D_opt.shape == (X.shape[0],) * 2
    assert np.isfinite(result.D_opt).all() and result.J_min < np.inf


@pytest.mark.parametrize("X", DEGENERATE.values(), ids=DEGENERATE.keys())
def test_discover_exits_cleanly_on_degenerate_data(X, tmp_path, capsys) -> None:
    data = tmp_path / "data.csv"
    np.savetxt(data, X.T, fmt="%.17g", delimiter=",")
    code = main(["discover", "--data", str(data), "--restarts", "3", "--iterations", "2",
                 "--out", str(tmp_path / "result.json")])
    assert code in (0, 3, 4)
    assert "Traceback" not in capsys.readouterr().err
