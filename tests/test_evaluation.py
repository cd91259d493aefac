"""Metrics, edge extraction, and grid sweeps."""
from __future__ import annotations

import csv
import math
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, strategies as st

from slcd import (
    EdgeSet,
    Hyperparams,
    SolverAbort,
    SolverControls,
    builtin_spec,
    covariance_error,
    extract_edges,
    metric_bundle,
    precision_recall,
    reconstruction_error,
    sample,
    sample_covariance,
    structure_error,
    sweep,
    true_edges,
)
from slcd import _fork
from slcd.evaluation import DEFAULT_LAMBDA_GRID, DEFAULT_SIGMA_GRID, DEFAULT_THETA
from slcd.reference import REFERENCE_ESTIMATES

square = st.integers(min_value=2, max_value=5).flatmap(
    lambda n: st.lists(
        st.lists(st.floats(-10, 10, allow_nan=False), min_size=n, max_size=n),
        min_size=n, max_size=n,
    ).map(np.array)
)


# ----------------------------------------------------------------- formulas

def test_reconstruction_error_zero_matrix_closed_form() -> None:
    X = np.array([[1.0, -1.0], [2.0, -2.0]])
    # ||X||_F^2 / (n m) = 10 / 4
    assert reconstruction_error(np.zeros((2, 2)), X) == pytest.approx(2.5)


def test_reconstruction_error_is_squared() -> None:
    X = np.array([[2.0, 0.0, -2.0]])
    # residual doubles when D moves twice as far, error quadruples
    e1 = reconstruction_error(np.array([[0.5]]), X)
    e2 = reconstruction_error(np.array([[0.0]]), X)
    assert e2 == pytest.approx(4.0 * e1)


def test_structure_error_reference_ds2() -> None:
    got = structure_error(REFERENCE_ESTIMATES[2], builtin_spec(2).structural_matrix())
    diffs = [2e-3, 1e-3, 8.8e-4, 3.3e-4, 2.7e-4]
    expected = math.sqrt(sum(d * d for d in diffs)) / 16.0
    assert got == pytest.approx(expected, rel=1e-9)
    assert got == pytest.approx(1.5253e-4, rel=1e-3)


def test_reconstruction_error_reference_ds2_small() -> None:
    data = sample(builtin_spec(2), 1000, 0)
    assert reconstruction_error(REFERENCE_ESTIMATES[2], data.X) < 1e-2


def test_structure_error_dimension_mismatch() -> None:
    with pytest.raises(ValueError):
        structure_error(np.eye(3), np.eye(4))


def test_covariance_error_identity_closed_form() -> None:
    Sigma = np.array([[2.0, 0.7, 0.0], [0.7, 1.0, 0.3], [0.0, 0.3, 4.0]])
    sd = np.diag(Sigma).copy()
    # I diag(sd) I^T == diag(Sigma), so only off-diagonals remain
    expected = math.sqrt(2 * (0.7 ** 2) + 2 * (0.3 ** 2)) / 9.0
    assert covariance_error(np.eye(3), Sigma, sd) == pytest.approx(expected)


def test_covariance_error_dimension_check() -> None:
    with pytest.raises(ValueError):
        covariance_error(np.eye(3), np.eye(2), np.ones(2))


@given(square, square, st.floats(-3, 3, allow_nan=False))
def test_structure_error_homogeneous(A: np.ndarray, B: np.ndarray, c: float) -> None:
    if A.shape != B.shape:
        return
    assert structure_error(c * A, c * B) == pytest.approx(
        abs(c) * structure_error(A, B), abs=1e-12)


@given(square)
def test_structure_error_triangle_inequality(A: np.ndarray) -> None:
    n = A.shape[0]
    B = np.eye(n)
    C = np.zeros((n, n))
    assert structure_error(A, C) <= (
        structure_error(A, B) + structure_error(B, C) + 1e-12)


# ------------------------------------------------------------ edge extraction

def test_extract_edges_reference_ds2() -> None:
    got = extract_edges(REFERENCE_ESTIMATES[2], DEFAULT_THETA)
    assert got.pairs == {(0, 2), (0, 3), (1, 3)}


def test_extract_edges_reference_ds5_drops_spurious() -> None:
    # entries like 0.0525 and -0.082 sit below the threshold
    got = extract_edges(REFERENCE_ESTIMATES[5], DEFAULT_THETA)
    truth = true_edges(builtin_spec(5).structural_matrix())
    assert got.pairs == truth.pairs
    assert len(got) == 8


def test_extract_edges_ignores_diagonal() -> None:
    assert len(extract_edges(5.0 * np.eye(4))) == 0


def test_extract_edges_zero_matrix_empty() -> None:
    assert len(extract_edges(np.zeros((3, 3)))) == 0


def test_extract_edges_rejects_nonpositive_theta(monkeypatch) -> None:
    """extract_edges rejects a theta of 0, and so does sweep(), before it
    samples its data or solves a cell."""
    with pytest.raises(ValueError):
        extract_edges(np.eye(2), 0.0)

    def unreachable(*args):
        raise AssertionError("sweep() sampled data for an invalid theta")

    monkeypatch.setattr("slcd.evaluation.sample", unreachable)
    with pytest.raises(ValueError, match="theta must be positive"):
        sweep(2, theta=0)


def test_extract_edges_orientation() -> None:
    D = np.zeros((3, 3))
    D[2, 0] = 0.9  # row 2 reads from column 0: link x1 -> x3
    D[0, 1] = DEFAULT_THETA  # the rule is strictly above theta
    D[1, 2] = np.nan  # a NaN magnitude is above no theta
    assert extract_edges(D, DEFAULT_THETA).pairs == {(0, 2)}


@given(square, st.floats(0.01, 2.0), st.floats(0.01, 2.0))
def test_extract_edges_monotone_in_theta(D: np.ndarray, t1: float, t2: float) -> None:
    lo, hi = sorted((t1, t2))
    assert extract_edges(D, hi).pairs <= extract_edges(D, lo).pairs


# ---------------------------------------------------------- precision/recall

def test_precision_recall_perfect_ds4() -> None:
    truth = true_edges(builtin_spec(4).structural_matrix())
    assert precision_recall(truth, truth) == (1.0, 1.0, 6)


def test_precision_recall_empty_estimate() -> None:
    truth = true_edges(builtin_spec(2).structural_matrix())
    assert precision_recall(EdgeSet(()), truth) == (0.0, 0.0, 0)


def test_precision_recall_one_extra_edge() -> None:
    truth = true_edges(builtin_spec(2).structural_matrix())
    est = EdgeSet(truth.pairs | {(3, 0)})
    p, r, c = precision_recall(est, truth)
    assert (p, r, c) == (0.75, 1.0, 3)


def test_precision_recall_rejects_empty_truth() -> None:
    with pytest.raises(ValueError):
        precision_recall(EdgeSet(()), EdgeSet(()))


@given(st.sets(st.tuples(st.integers(0, 4), st.integers(0, 4)).filter(
    lambda p: p[0] != p[1]), min_size=1, max_size=10),
    st.sets(st.tuples(st.integers(0, 4), st.integers(0, 4)).filter(
        lambda p: p[0] != p[1]), min_size=1, max_size=10))
def test_precision_recall_bounds(est_pairs: set, truth_pairs: set) -> None:
    est, truth = EdgeSet(est_pairs), EdgeSet(truth_pairs)
    p, r, c = precision_recall(est, truth)
    assert 0.0 <= p <= 1.0 and 0.0 <= r <= 1.0
    assert c == len(est.pairs & truth.pairs)
    assert c <= min(len(est), len(truth))


# --------------------------------------------------------------- full bundle

def test_metric_bundle_on_truth_ds3(ds3_data, truth_matrices) -> None:
    D_true = truth_matrices[3]
    b = metric_bundle(D_true, ds3_data, D_true)
    assert b.reconstruction_error < 1e-30
    assert b.structure_error == 0.0
    assert b.covariance_error < 0.05
    assert (b.precision, b.recall, b.correct_links) == (1.0, 1.0, 5)
    assert not b.precision_undefined


def test_metric_bundle_flags_empty_estimate(ds2_data, truth_matrices) -> None:
    b = metric_bundle(np.zeros((4, 4)), ds2_data, truth_matrices[2])
    assert b.precision == 0.0 and b.recall == 0.0
    assert b.precision_undefined


def test_metric_bundle_json_keys(ds2_data, truth_matrices) -> None:
    b = metric_bundle(truth_matrices[2], ds2_data, truth_matrices[2])
    assert list(b.to_json()) == [
        "reconstruction_error", "structure_error", "covariance_error",
        "precision", "recall", "correct_links", "precision_undefined",
    ]


def test_metric_bundle_accepts_raw_array(ds2_data, truth_matrices) -> None:
    a = metric_bundle(truth_matrices[2], ds2_data, truth_matrices[2])
    b = metric_bundle(truth_matrices[2], ds2_data.X, truth_matrices[2])
    assert a == b


# -------------------------------------------------------------------- sweeps

def test_default_grids() -> None:
    assert DEFAULT_SIGMA_GRID == (0.1, 0.2, 0.3, 0.5, 1.0)
    assert DEFAULT_LAMBDA_GRID == (0.5, 1.0, 2.0, 5.0, 10.0)


def test_sweep_single_cell_recovers_ds3() -> None:
    result = sweep(3, sigma_grid=(0.3,), lambda_grid=(5.0,),
                   hp=Hyperparams(restarts=8), m=1000)
    assert len(result.cells) == 1
    cell = result.cells[0]
    assert cell.error == ""
    assert cell.metrics is not None
    assert (cell.metrics.precision, cell.metrics.recall) == (1.0, 1.0)
    assert cell.metrics.structure_error < 0.01


def test_sweep_rejects_empty_grid() -> None:
    with pytest.raises(ValueError):
        sweep(2, sigma_grid=(), lambda_grid=(5.0,))


def test_sweep_rejects_duplicate_grid_values() -> None:
    with pytest.raises(ValueError):
        sweep(2, sigma_grid=(0.3, 0.3), lambda_grid=(5.0,))


def test_sweep_cell_order_row_major(monkeypatch, usable_cpus) -> None:
    calls: list[tuple[float, float]] = []

    def fake(data, hp, controls):
        calls.append((hp.sigma, hp.lam))
        raise SolverAbort("stub", [])

    monkeypatch.setattr("slcd.evaluation.slcd", fake)
    # calls is recorded in this process, so the cells must run here
    usable_cpus(1)
    result = sweep(2, sigma_grid=(0.1, 0.3), lambda_grid=(1.0, 5.0))
    assert calls == [(0.1, 1.0), (0.1, 5.0), (0.3, 1.0), (0.3, 5.0)]
    assert [(c.sigma, c.lam) for c in result.cells] == calls


def test_sweep_continues_past_aborted_cell(monkeypatch) -> None:
    from slcd.solver import slcd as real_slcd

    def flaky(data, hp, controls):
        if hp.sigma == 0.1:
            raise SolverAbort("induced failure", [])
        return real_slcd(data, hp, controls)

    monkeypatch.setattr("slcd.evaluation.slcd", flaky)
    result = sweep(2, sigma_grid=(0.1, 0.3), lambda_grid=(5.0,),
                   hp=Hyperparams(restarts=2, iterations=1), m=200,
                   controls=SolverControls(max_inner_steps=20))
    bad, good = result.cells
    assert bad.error == "induced failure"
    assert bad.metrics is None and math.isinf(bad.j_min)
    assert good.error == "" and good.metrics is not None


def _sweep_cells() -> list:
    """Each cell's j_min, metrics and error in a 4-cell dataset 2 sweep,
    one cell of which aborts. The patched solver is seen by forked
    workers too."""
    from slcd.solver import slcd as real_slcd

    def flaky(data, hp, controls):
        if (hp.sigma, hp.lam) == (0.2, 5.0):
            raise SolverAbort("induced failure", [])
        return real_slcd(data, hp, controls)

    with mock.patch("slcd.evaluation.slcd", flaky):
        result = sweep(2, sigma_grid=(0.2, 0.3), lambda_grid=(1.0, 5.0),
                       hp=Hyperparams(restarts=2, iterations=1), m=200,
                       controls=SolverControls(max_inner_steps=20))
    return [(c.j_min, c.metrics, c.error) for c in result.cells]


@pytest.mark.parametrize("cpus", [1, 2])
def test_sweep_cells_match_across_cpus(usable_cpus, cpus) -> None:
    """The cells are the bits of a one-CPU run whether they run here or
    on forked workers, which start only with two CPUs and a BLAS that
    survives a fork; the aborted cell is recorded and the sweep goes on."""
    usable_cpus(1)
    one_cpu_cells = _sweep_cells()
    pool = usable_cpus(cpus)
    cells = _sweep_cells()
    assert pool.call_count == (cpus == 2 and _fork._blas_forks_safely())
    assert cells == one_cpu_cells
    assert [error for _, _, error in cells] == ["", "induced failure", "", ""]
    assert all(metrics is not None for _, metrics, error in cells if not error)


def test_sweep_cell_worker_starts_no_pool(monkeypatch, usable_cpus) -> None:
    """A forked cell worker solves its cells itself: there, slcd() would
    start no solver pool of its own."""
    def report_workers(data, hp, controls):
        raise SolverAbort(str(_fork._workers(4, blas=True)), [])

    monkeypatch.setattr("slcd.evaluation.slcd", report_workers)
    pool = usable_cpus(2)
    result = sweep(2, sigma_grid=(0.2, 0.3), lambda_grid=(1.0, 5.0))
    assert pool.call_count == _fork._blas_forks_safely()
    assert [c.error for c in result.cells] == ["1"] * 4


def test_sweep_csv_layout(tmp_path, monkeypatch) -> None:
    def fake(data, hp, controls):
        raise SolverAbort("stub", [])

    monkeypatch.setattr("slcd.evaluation.slcd", fake)
    result = sweep(4, sigma_grid=(0.3,), lambda_grid=(1.0, 5.0))
    path = result.to_csv(str(tmp_path / "grid.csv"))
    with open(path, encoding="utf-8") as fh:
        rows = list(csv.reader(fh))
    assert rows[0] == [
        "dataset", "sigma", "lambda", "recon_err", "struct_err", "cov_err",
        "precision", "recall", "correct_links", "wall_ms",
    ]
    assert len(rows) == 3
    assert rows[1][:3] == ["4", "0.3", "1"]
    assert rows[1][3] == "nan"  # aborted cells carry nan metrics


def test_sweep_csv_metric_values(tmp_path, ds2_data, truth_matrices) -> None:
    result = sweep(2, sigma_grid=(0.3,), lambda_grid=(5.0,),
                   hp=Hyperparams(restarts=4), m=1000)
    path = result.to_csv(str(tmp_path / "grid.csv"))
    with open(path, encoding="utf-8") as fh:
        rows = list(csv.DictReader(fh))
    [row] = rows
    m = result.cells[0].metrics
    assert m is not None
    assert float(row["struct_err"]) == pytest.approx(m.structure_error)
    assert int(row["correct_links"]) == m.correct_links
