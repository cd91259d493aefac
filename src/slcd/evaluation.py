"""Recovery metrics, edge extraction, and hyperparameter sweeps.

Five quantities summarize an estimate: the reconstruction error
(mean squared residual per matrix entry of X - D X), the structure and
covariance errors (Frobenius norms scaled by 1/n^2, unsquared), and
precision/recall of the extracted edge set against the true links.
"""
from __future__ import annotations

import math
import os
import time
from dataclasses import dataclass, field, replace
from functools import partial

import numpy as np

from .datagen import Dataset, builtin_spec, sample, sample_covariance
from .objective import Hyperparams
from .scm_core import EdgeSet, StructuralMatrix, _matrix_entries
from .solver import DiscoveryResult, SolverAbort, SolverControls, slcd

__all__ = [
    "MetricBundle",
    "SweepCell",
    "SweepResult",
    "DEFAULT_THETA",
    "DEFAULT_SIGMA_GRID",
    "DEFAULT_LAMBDA_GRID",
    "reconstruction_error",
    "structure_error",
    "covariance_error",
    "extract_edges",
    "precision_recall",
    "metric_bundle",
    "sweep",
]

# Edge-extraction threshold: comfortably above the spurious magnitudes a
# successful run leaves behind (at most roughly 0.08) and comfortably
# below the smallest true coefficient of the built-in models (0.3).
DEFAULT_THETA = 0.15

DEFAULT_SIGMA_GRID = (0.1, 0.2, 0.3, 0.5, 1.0)
DEFAULT_LAMBDA_GRID = (0.5, 1.0, 2.0, 5.0, 10.0)


@dataclass(frozen=True)
class MetricBundle:
    """The five evaluation metrics for one estimate."""

    reconstruction_error: float
    structure_error: float
    covariance_error: float
    precision: float
    recall: float
    correct_links: int
    precision_undefined: bool = False

    def to_json(self) -> dict:
        return {
            "reconstruction_error": self.reconstruction_error,
            "structure_error": self.structure_error,
            "covariance_error": self.covariance_error,
            "precision": self.precision,
            "recall": self.recall,
            "correct_links": self.correct_links,
            "precision_undefined": self.precision_undefined,
        }


def reconstruction_error(D_hat, X) -> float:
    """(1 / (n m)) ||X - D_hat X||_F^2."""
    D = _matrix_entries(D_hat)
    X = np.asarray(X, dtype=float)
    if X.shape[0] != D.shape[0]:
        raise ValueError(f"X has {X.shape[0]} rows, D is {D.shape[0]}x{D.shape[0]}")
    E = X - D @ X
    n, m = X.shape
    return float(np.sum(E * E)) / (n * m)


def structure_error(D_hat, D_true) -> float:
    """(1 / n^2) ||D_true - D_hat||_F, unsquared."""
    A = _matrix_entries(D_hat)
    B = _matrix_entries(D_true)
    if A.shape != B.shape:
        raise ValueError(f"shape mismatch: {A.shape} vs {B.shape}")
    n = A.shape[0]
    return float(np.linalg.norm(B - A)) / (n * n)


def covariance_error(D_hat, Sigma, sigma_diag) -> float:
    """(1 / n^2) ||Sigma - D_hat diag(sigma_diag) D_hat^T||_F, unsquared."""
    D = _matrix_entries(D_hat)
    Sigma = np.asarray(Sigma, dtype=float)
    sd = np.asarray(sigma_diag, dtype=float)
    n = D.shape[0]
    if Sigma.shape != (n, n) or sd.shape != (n,):
        raise ValueError("covariance dimensions do not match the matrix")
    R = Sigma - (D * sd) @ D.T
    return float(np.linalg.norm(R)) / (n * n)


def extract_edges(D_hat, theta: float = DEFAULT_THETA) -> EdgeSet:
    """Links (parent, child) for every off-diagonal entry with
    magnitude above theta."""
    if not theta > 0:
        raise ValueError(f"theta must be positive, got {theta}")
    D = _matrix_entries(D_hat)
    n = D.shape[0]
    return EdgeSet(
        (j, i)
        for i in range(n)
        for j in range(n)
        if i != j and abs(D[i, j]) > theta
    )


def precision_recall(est: EdgeSet, truth: EdgeSet) -> tuple[float, float, int]:
    """Precision, recall, and the correct-link count of an estimated
    edge set. Precision is reported as 0.0 when no edges were estimated
    (callers can flag that case); an empty truth set is an error."""
    if len(truth) == 0:
        raise ValueError("truth edge set is empty; no benchmark model has zero links")
    correct = len(est.pairs & truth.pairs)
    precision = correct / len(est) if len(est) > 0 else 0.0
    recall = correct / len(truth)
    return precision, recall, correct


def metric_bundle(D_hat, data, D_true, theta: float = DEFAULT_THETA) -> MetricBundle:
    """All five metrics of an estimate against the true matrix.

    data may be a Dataset or a raw n-by-m array; the covariance is the
    1/m sample covariance of the centered data.
    """
    ds = data if isinstance(data, Dataset) else Dataset(
        X=np.asarray(data, dtype=float), spec_name="", seed=0)
    Sigma, sd = sample_covariance(ds)
    D_true_a = _matrix_entries(D_true)
    from .scm_core import true_edges

    est = extract_edges(D_hat, theta)
    truth = true_edges(D_true_a)
    precision, recall, correct = precision_recall(est, truth)
    return MetricBundle(
        reconstruction_error=reconstruction_error(D_hat, ds.X),
        structure_error=structure_error(D_hat, D_true_a),
        covariance_error=covariance_error(D_hat, Sigma, sd),
        precision=precision,
        recall=recall,
        correct_links=correct,
        precision_undefined=(len(est) == 0),
    )


@dataclass(frozen=True)
class SweepCell:
    """One grid cell of a sweep: its coordinates, metrics, the winning
    score, and the wall time spent (or an error message on abort)."""

    sigma: float
    lam: float
    metrics: MetricBundle | None
    j_min: float
    wall_ms: float
    error: str = ""


@dataclass(frozen=True)
class SweepResult:
    """Metrics over a (sigma, lambda) grid on one built-in dataset."""

    dataset_id: int
    sigma_grid: tuple[float, ...]
    lambda_grid: tuple[float, ...]
    cells: list[SweepCell] = field(default_factory=list)
    hp: Hyperparams = Hyperparams()
    controls: SolverControls = SolverControls()

    def grid(self) -> list[tuple[float, float]]:
        return [(c.sigma, c.lam) for c in self.cells]

    def to_csv(self, path: str) -> str:
        """Tidy CSV, one row per cell."""
        header = ("dataset,sigma,lambda,recon_err,struct_err,cov_err,"
                  "precision,recall,correct_links,wall_ms")
        lines = [header]
        for c in self.cells:
            if c.metrics is None:
                mvals = ["nan"] * 6
            else:
                b = c.metrics
                mvals = [
                    f"{b.reconstruction_error:.10g}",
                    f"{b.structure_error:.10g}",
                    f"{b.covariance_error:.10g}",
                    f"{b.precision:.10g}",
                    f"{b.recall:.10g}",
                    str(b.correct_links),
                ]
            lines.append(",".join([
                str(self.dataset_id), f"{c.sigma:.10g}", f"{c.lam:.10g}",
                *mvals, f"{c.wall_ms:.3f}",
            ]))
        with open(path, "w", encoding="utf-8") as fh:
            fh.write("\n".join(lines) + "\n")
        return path


def _cell_seed(master_seed: int, cell_index: int) -> int:
    """Deterministic per-cell solver seed derived from the master seed."""
    ss = np.random.SeedSequence(entropy=int(master_seed), spawn_key=(int(cell_index),))
    return int(ss.generate_state(1, np.uint64)[0])


def _run_cell(X_data, D_true, hp_cell, controls_cell, theta):
    t0 = time.perf_counter()
    try:
        result: DiscoveryResult = slcd(X_data, hp_cell, controls_cell)
        bundle = metric_bundle(result.D_opt, X_data, D_true, theta)
        wall = (time.perf_counter() - t0) * 1000.0
        return SweepCell(
            sigma=hp_cell.sigma, lam=hp_cell.lam, metrics=bundle,
            j_min=result.J_min, wall_ms=wall,
        )
    except SolverAbort as exc:
        wall = (time.perf_counter() - t0) * 1000.0
        return SweepCell(
            sigma=hp_cell.sigma, lam=hp_cell.lam, metrics=None,
            j_min=math.inf, wall_ms=wall, error=str(exc),
        )


def sweep(dataset_id: int,
          sigma_grid=DEFAULT_SIGMA_GRID,
          lambda_grid=DEFAULT_LAMBDA_GRID,
          hp: Hyperparams = Hyperparams(),
          controls: SolverControls = SolverControls(),
          m: int = 1000,
          data_seed: int = 0,
          theta: float = DEFAULT_THETA,
          jobs: int = 1) -> SweepResult:
    """Run discovery on every (sigma, lambda) grid cell of one built-in
    dataset and collect the metrics.

    The data is generated once; each cell runs fresh restarts with a
    solver seed derived deterministically from controls.seed and the
    cell index, so results do not depend on execution order or on jobs.
    With jobs > 1 the cells run in min(jobs, cells, CPU count) spawned
    worker processes, so a script that calls this at its top level needs
    the usual ``if __name__ == "__main__":`` guard.
    A cell whose solve aborts is recorded with its error and the sweep
    continues.
    """
    sigma_grid = tuple(float(s) for s in sigma_grid)
    lambda_grid = tuple(float(l) for l in lambda_grid)
    if not sigma_grid or not lambda_grid:
        raise ValueError("sweep grids must be nonempty")
    if len(set(sigma_grid)) != len(sigma_grid) or len(set(lambda_grid)) != len(lambda_grid):
        raise ValueError("sweep grid values must be unique")
    spec = builtin_spec(dataset_id)
    data = sample(spec, m, data_seed)
    D_true = spec.structural_matrix()

    tasks = []
    for idx, (sg, lg) in enumerate(
            (sg, lg) for sg in sigma_grid for lg in lambda_grid):
        hp_cell = replace(hp, sigma=sg, lam=lg)
        controls_cell = replace(controls, seed=_cell_seed(controls.seed, idx))
        tasks.append((hp_cell, controls_cell))

    run = partial(_run_cell, data, D_true, theta=theta)
    workers = min(jobs, len(tasks), os.cpu_count() or 1)
    if workers > 1:
        # Processes, not threads: the solver is Python-bound and holds
        # the interpreter lock. Spawned workers import slcd afresh, so a
        # module attribute rebound in this process does not reach them.
        import multiprocessing
        from concurrent.futures import ProcessPoolExecutor

        with ProcessPoolExecutor(max_workers=workers,
                                 mp_context=multiprocessing.get_context("spawn")) as pool:
            cells = list(pool.map(run, *zip(*tasks)))
    else:
        cells = [run(hp_cell, cc) for hp_cell, cc in tasks]
    return SweepResult(
        dataset_id=int(dataset_id),
        sigma_grid=sigma_grid,
        lambda_grid=lambda_grid,
        cells=cells,
        hp=hp,
        controls=controls,
    )
