"""Acceptance gates: one test per criterion, run at the package's
published defaults.

The first two fixtures each execute a full benchmark reproduction
(all five datasets, m = 1000, 20 restarts), so this module dominates
the suite's runtime. Criteria 1-3 read the first run's report,
criterion 8 compares the two runs byte for byte.
"""
from __future__ import annotations

import json
import math
import time
from pathlib import Path

import numpy as np
import pytest

from slcd import (
    DEFAULT_LAMBDA_GRID,
    DEFAULT_SIGMA_GRID,
    Hyperparams,
    SolverControls,
    builtin_spec,
    center,
    extract_edges,
    resolve_epsilons,
    sample,
    sample_covariance,
    slcd,
    sweep,
    true_edges,
)
from slcd.cli import main
from slcd.evaluation import DEFAULT_THETA
from slcd.objective import _residuals, _smoothed_rank, objective
from slcd.solver import _score
from oracle_utils import (
    analytic_variances,
    brute_force_best,
    gradient,
    induced_covariance,
    objective_of,
    refit,
    refit_optimum,
    workspace,
)

GATED_IDS = (2, 3, 4, 5)
EXPECTED_CORRECT_LINKS = {2: 3, 3: 5, 4: 6, 5: 8}


def _strip_walls(obj):
    if isinstance(obj, dict):
        return {k: _strip_walls(v) for k, v in obj.items()
                if not k.startswith("wall")}
    if isinstance(obj, list):
        return [_strip_walls(v) for v in obj]
    return obj


def _run_repro_estimates(out_dir: Path) -> dict:
    code = main(["repro", "estimates", "--out-dir", str(out_dir)])
    report = json.loads((out_dir / "repro_estimates.json").read_text())
    report["_exit_code"] = code
    return report


@pytest.fixture(scope="session")
def repro_first(tmp_path_factory) -> dict:
    return _run_repro_estimates(tmp_path_factory.mktemp("repro_a"))


@pytest.fixture(scope="session")
def repro_second(tmp_path_factory) -> dict:
    return _run_repro_estimates(tmp_path_factory.mktemp("repro_b"))


def _records_by_id(report: dict) -> dict[int, dict]:
    return {rec["id"]: rec for rec in report["datasets"]}


def test_criterion_01_edge_recovery(repro_first) -> None:
    """Datasets 2-5 at (sigma, lambda) = (0.3, 5): every link found,
    none invented, within the runtime budget."""
    assert repro_first["_exit_code"] == 0
    recs = _records_by_id(repro_first)
    total_wall = 0.0
    for ds_id in GATED_IDS:
        rec = recs[ds_id]
        assert rec["error"] == "", f"dataset {ds_id} aborted: {rec['error']}"
        est = np.array(rec["estimated_matrix"]["rows"], dtype=float)
        got = extract_edges(est, DEFAULT_THETA)
        want = true_edges(builtin_spec(ds_id).structural_matrix())
        assert got.pairs == want.pairs, f"dataset {ds_id} edge set differs"
        assert rec["metrics"]["precision"] == 1.0
        assert rec["metrics"]["recall"] == 1.0
        assert rec["metrics"]["correct_links"] == EXPECTED_CORRECT_LINKS[ds_id]
        total_wall += rec["wall_ms"]
    assert total_wall < 300_000, f"ran {total_wall / 1000:.0f} s, budget 300 s"


def test_criterion_02_coefficient_recovery(repro_first) -> None:
    """Datasets 2-5: nonzero coefficients within 0.2 of truth, zeroed
    positions below 0.15 in magnitude."""
    recs = _records_by_id(repro_first)
    for ds_id in GATED_IDS:
        rec = recs[ds_id]
        assert rec["error"] == ""
        est = np.array(rec["estimated_matrix"]["rows"], dtype=float)
        truth = builtin_spec(ds_id).structural_matrix().entries
        nonzero = truth != 0.0
        worst_nz = float(np.max(np.abs(est[nonzero] - truth[nonzero])))
        worst_z = float(np.max(np.abs(est[~nonzero]))) if (~nonzero).any() else 0.0
        assert worst_nz <= 0.2, f"dataset {ds_id}: coefficient off by {worst_nz:.3g}"
        assert worst_z < 0.15, f"dataset {ds_id}: spurious entry {worst_z:.3g}"


def test_criterion_03_unidentifiable_dataset_reported(repro_first) -> None:
    """Dataset 1 completes, reports metrics, and is flagged as expected
    not to be recovered; it is not a pass/fail gate."""
    rec = _records_by_id(repro_first)[1]
    assert rec["error"] == ""
    assert rec["expected_unrecovered"] is True
    assert rec["gated"] is False
    for key in ("reconstruction_error", "structure_error", "covariance_error",
                "precision", "recall", "correct_links"):
        assert key in rec["metrics"]
    assert repro_first["passed"] is True


def test_criterion_04_induced_covariance_matches_samples() -> None:
    """At m = 100000 the sample covariance of every built-in model sits
    entrywise within 0.1 of the covariance its matrix induces."""
    t0 = time.perf_counter()
    for ds_id in range(1, 6):
        spec = builtin_spec(ds_id)
        data = sample(spec, 100_000, seed=4)
        Sigma_s, _ = sample_covariance(data)
        Sigma_i = induced_covariance(
            spec.structural_matrix(), analytic_variances(spec))
        gap = float(np.max(np.abs(Sigma_s - Sigma_i)))
        assert gap < 0.1, f"dataset {ds_id}: max entrywise gap {gap:.4g}"
    assert time.perf_counter() - t0 < 10.0


def test_criterion_05_gradient_matches_finite_differences() -> None:
    """Analytic gradient vs central differences (h = 1e-5) on 50 random
    instances, n in 3..7: max relative error below 1e-5."""
    t0 = time.perf_counter()
    rng = np.random.default_rng(12345)
    h = 1e-5
    worst = 0.0
    for trial in range(50):
        n = int(rng.integers(3, 8))
        m = 40
        X = rng.normal(size=(n, m))
        X -= X.mean(axis=1, keepdims=True)
        Sigma = (X @ X.T) / m
        sd = np.diag(Sigma).copy()
        hp = Hyperparams(
            sigma=float(rng.uniform(0.2, 1.0)),
            lam=float(rng.uniform(0.5, 8.0)),
            eps1=float(rng.uniform(0.01, 1.0)),
            eps2=float(rng.uniform(0.01, 1.0)),
        )
        mu1 = float(rng.uniform(0.5, 50.0))
        mu2 = float(rng.uniform(0.5, 50.0))
        D = rng.uniform(-1.5, 1.5, size=(n, n))
        g = gradient(D, X, Sigma, sd, hp, mu1, mu2)
        fd = np.zeros_like(D)
        for i in range(n):
            for j in range(n):
                Dp, Dm = D.copy(), D.copy()
                Dp[i, j] += h
                Dm[i, j] -= h
                fp = objective(Dp, X, Sigma, sd, hp, mu1, mu2).total
                fm = objective(Dm, X, Sigma, sd, hp, mu1, mu2).total
                fd[i, j] = (fp - fm) / (2.0 * h)
        rel = np.linalg.norm(g - fd) / max(np.linalg.norm(fd), 1e-12)
        worst = max(worst, float(rel))
    assert worst < 1e-5, f"worst relative gradient error {worst:.3g}"
    assert time.perf_counter() - t0 < 30.0


def test_criterion_06_smoothed_rank_limit() -> None:
    """With width 1e-3 the smoothed rank of each ground-truth matrix is
    its integer rank to within 1e-3."""
    for ds_id in range(1, 6):
        D = builtin_spec(ds_id).structural_matrix()
        exact = np.linalg.matrix_rank(D.entries)
        smooth = _smoothed_rank(D, 1e-3)
        assert abs(smooth - exact) < 1e-3, f"dataset {ds_id}: {smooth} vs {exact}"


def test_criterion_07_covariance_constraint_breaks_tie(pair_sum_data) -> None:
    """On sum-model data (x3 = x1 + x2) the identity matrix and an alias
    matrix both reconstruct the data exactly, but the identity violates
    the covariance constraint; discovery must not return it."""
    alias = np.array([[0.0, -1.0, 1.0], [0.0, 1.0, 0.0], [0.0, 0.0, 1.0]])
    ds = center(pair_sum_data)
    Sigma, sd = sample_covariance(ds)
    eps1, eps2 = resolve_epsilons(Hyperparams(), ds.X, Sigma)

    t0 = time.perf_counter()
    recon_id, cov_id = _residuals(np.eye(3), ds.X, Sigma, sd)
    recon_alias, _ = _residuals(alias, ds.X, Sigma, sd)
    assert recon_id == 0.0
    assert recon_alias <= eps1
    assert cov_id > eps2
    assert time.perf_counter() - t0 < 1.0

    result = slcd(pair_sum_data, Hyperparams())
    assert not np.allclose(result.D_opt, np.eye(3), atol=0.2)


def test_criterion_08_determinism(repro_first, repro_second) -> None:
    """Two full reproduction runs with the same master seed emit
    identical reports once wall-clock fields are removed."""
    a = json.dumps(_strip_walls(repro_first), sort_keys=True)
    b = json.dumps(_strip_walls(repro_second), sort_keys=True)
    assert a == b


@pytest.mark.parametrize("ds_id", [2, 3, 4])
def test_winning_support_refits_to_the_exact_optimum(repro_first, ds_id) -> None:
    """The least-squares refit of each row of the winner's theta-support
    scores J*, the exact optimum over refitted supports of at most tau
    columns (oracle_utils.refit_optimum), to 1e-6 relative at seed 0.
    Dataset 5's 13 million products take over a minute to score; it
    waits for a bound that prunes the search."""
    rec = _records_by_id(repro_first)[ds_id]
    assert rec["error"] == ""
    est = np.array(rec["estimated_matrix"]["rows"], dtype=float)
    hp = Hyperparams()
    ws = workspace(sample(builtin_spec(ds_id), repro_first["m"], repro_first["seed"]).X, hp)
    D = np.array([refit(ws.G, i, np.flatnonzero(np.abs(row) > DEFAULT_THETA))
                  for i, row in enumerate(est)])
    j_refit = float(_score(ws, D[None])[0][0])
    j_star, _ = refit_optimum(ws, hp.tau)
    assert j_refit == pytest.approx(j_star, rel=1e-6), (
        f"dataset {ds_id}: refit scores {j_refit}, J* is {j_star}")


def test_criterion_09_small_instance_oracle() -> None:
    """On every 2-variable model with a single link (coefficient 0.5, 1,
    or 2) the solver matches brute-force enumeration over all tau-sparse
    support patterns: same best objective, same extracted links, and the
    two variables end up linked. At coefficient 2 the exact objective
    prefers the reversed orientation, so orientation is pinned only
    where the objective pins it (coefficient 0.5)."""
    hp = Hyperparams()
    rng = np.random.default_rng(0)
    for c in (0.5, 1.0, 2.0):
        x1 = rng.uniform(-2.5, 2.5, size=1000)
        X = np.vstack([x1, c * x1])
        Xc = X - X.mean(axis=1, keepdims=True)
        j_oracle, D_oracle = brute_force_best(X, hp)
        result = slcd(X, hp)
        j_solver = objective_of(result.D_opt, Xc, hp)
        assert j_solver == pytest.approx(j_oracle, rel=1e-3, abs=1e-6), (
            f"c={c}: solver objective {j_solver} vs enumeration {j_oracle}")
        edges_solver = extract_edges(result.D_opt, DEFAULT_THETA)
        edges_oracle = extract_edges(D_oracle, DEFAULT_THETA)
        if c != 1.0:
            assert edges_solver.pairs == edges_oracle.pairs, (
                f"c={c}: links differ from enumeration")
        else:
            # x2 = x1 makes the orientations exactly symmetric; the
            # objectives tie and each search may break the tie either way
            assert len(edges_oracle) == 1
        assert edges_solver.pairs <= {(0, 1), (1, 0)}
        assert len(edges_solver) == 1, f"c={c}: expected exactly one link"
        if c == 0.5:
            assert edges_solver.pairs == {(0, 1)}
            assert result.D_opt[1, 0] == pytest.approx(0.5, abs=0.05)


def test_criterion_10_broad_parameter_region() -> None:
    """The default 5x5 grid on dataset 2 contains a 4-connected region
    of at least 4 cells with precision = recall = 1."""
    sigmas, lams = DEFAULT_SIGMA_GRID, DEFAULT_LAMBDA_GRID
    result = sweep(2, sigmas, lams, hp=Hyperparams(restarts=8), m=1000)
    ok = {
        (c.sigma, c.lam)
        for c in result.cells
        if c.metrics is not None
        and c.metrics.precision == 1.0 and c.metrics.recall == 1.0
    }
    cells = {(i, j) for i, s in enumerate(sigmas)
             for j, l in enumerate(lams) if (s, l) in ok}
    best = 0
    seen: set[tuple[int, int]] = set()
    for start in cells:
        if start in seen:
            continue
        stack, region = [start], set()
        while stack:
            cell = stack.pop()
            if cell in region:
                continue
            region.add(cell)
            i, j = cell
            for ni, nj in ((i + 1, j), (i - 1, j), (i, j + 1), (i, j - 1)):
                if (ni, nj) in cells and (ni, nj) not in region:
                    stack.append((ni, nj))
        seen |= region
        best = max(best, len(region))
    assert best >= 4, f"largest fully-recovering region has {best} cells"
