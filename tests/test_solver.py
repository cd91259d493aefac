"""Multi-restart solve plus row thresholding."""
from __future__ import annotations

import math

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from slcd import (
    Dataset,
    Hyperparams,
    ScmSpec,
    SolverControls,
    SolverAbort,
    Uniform,
    VariableDef,
    builtin_spec,
    center,
    residuals,
    row_threshold,
    sample,
    sample_covariance,
    slcd,
    smoothed_rank,
    smoothed_trace,
    solve_relaxed,
)
from slcd.solver import _qp_solve, _Workspace, objective_of
from conftest import PAIR_SUM_ALIAS


# ---------------------------------------------------------------- controls

def test_controls_defaults_and_final_weight() -> None:
    c = SolverControls()
    assert c.max_inner_steps == 500
    assert c.step_init == 1e-2
    assert c.backtrack_factor == 0.5
    assert c.armijo_c == 1e-4
    assert c.grad_tol == 1e-6
    assert c.penalty_mu_init == 1.0
    assert c.penalty_growth == 10.0
    assert c.penalty_outer_rounds == 4
    assert c.seed == 0
    # final weight after all growth rounds: 1 * 10^(4-1)
    assert c.final_penalty_weight == pytest.approx(1000.0)


def test_controls_validation() -> None:
    with pytest.raises(ValueError):
        SolverControls(backtrack_factor=1.0)
    with pytest.raises(ValueError):
        SolverControls(penalty_growth=1.0)
    with pytest.raises(ValueError):
        SolverControls(max_inner_steps=0)
    with pytest.raises(ValueError):
        SolverControls(seed=-1)
    for bad in (dict(grad_tol=float("nan")), dict(step_init=float("inf")),
                dict(penalty_mu_init=float("nan")), dict(penalty_mu_init=-1.0), dict(seed=1.5),
                dict(max_inner_steps=10.0), dict(penalty_outer_rounds=2.5)):
        with pytest.raises(ValueError):
            SolverControls(**bad)


def test_controls_json_round_trip() -> None:
    c = SolverControls(seed=9, max_inner_steps=50, penalty_outer_rounds=2)
    assert SolverControls.from_json(c.to_json()) == c


# ----------------------------------------------------------- row_threshold

def test_row_threshold_already_sparse() -> None:
    D = np.array([[1.0, 2.0, 0.0, 0.0]])
    np.testing.assert_array_equal(row_threshold(D, 2), D)


def test_row_threshold_keeps_two_largest() -> None:
    D = np.array([[0.3, 0.05, -0.4, 0.01]])
    np.testing.assert_array_equal(
        row_threshold(D, 2), np.array([[0.3, 0.0, -0.4, 0.0]]))


def test_row_threshold_tie_keeps_lowest_columns() -> None:
    D = np.array([[1.0, -1.0, 1.0]])
    np.testing.assert_array_equal(
        row_threshold(D, 2), np.array([[1.0, -1.0, 0.0]]))


def test_row_threshold_validates_tau() -> None:
    with pytest.raises(ValueError):
        row_threshold(np.eye(3), 0)


def test_row_threshold_rowwise_independent() -> None:
    D = np.array([[5.0, 1.0, 2.0], [0.1, 0.2, 0.3], [7.0, 0.0, 0.0]])
    out = row_threshold(D, 1)
    np.testing.assert_array_equal(
        out, np.array([[5.0, 0.0, 0.0], [0.0, 0.0, 0.3], [7.0, 0.0, 0.0]]))


# ----------------------------------------------------------- solve_relaxed

def _problem(ds_id: int, m: int = 400, seed: int = 0):
    spec = builtin_spec(ds_id)
    ds = center(sample(spec, m, seed))
    Sigma, sd = sample_covariance(ds)
    hp = Hyperparams().with_resolved_epsilons(ds.X, Sigma)
    return spec, ds, Sigma, sd, hp


def test_solve_relaxed_from_truth_descends() -> None:
    spec, ds, Sigma, sd, hp = _problem(2)
    D_true = spec.structural_matrix().entries
    out = solve_relaxed(D_true, ds.X, Sigma, sd, hp)
    j_in = objective_of(D_true, ds.X, hp)
    j_out = objective_of(out, ds.X, hp)
    assert j_out <= j_in


def test_solve_relaxed_from_identity_reduces_cov_residual() -> None:
    spec, ds, Sigma, sd, hp = _problem(2)
    out = solve_relaxed(np.eye(4), ds.X, Sigma, sd, hp)
    _, cov_identity = residuals(np.eye(4), ds.X, Sigma, sd)
    _, cov_out = residuals(out, ds.X, Sigma, sd)
    assert cov_out < cov_identity


def test_solve_relaxed_never_worsens_random_starts() -> None:
    spec, ds, Sigma, sd, hp = _problem(3, m=200)
    rng = np.random.default_rng(8)
    for _ in range(5):
        D0 = rng.uniform(-1, 1, size=(5, 5))
        out = solve_relaxed(D0, ds.X, Sigma, sd, hp)
        assert objective_of(out, ds.X, hp) <= objective_of(D0, ds.X, hp) + 1e-9


def test_single_variable_recovers_self_loop() -> None:
    rng = np.random.default_rng(0)
    X = rng.uniform(-2.5, 2.5, size=(1, 200))
    result = slcd(X, Hyperparams(tau=1, restarts=3))
    assert result.D_opt.shape == (1, 1)
    assert result.D_opt[0, 0] == pytest.approx(1.0, abs=0.05)


# -------------------------------------------------------------------- slcd

def test_slcd_two_variable_chain() -> None:
    # x2 = 0.5 x1: the exact objective prefers the true orientation here
    spec = ScmSpec(name="chain", variables=(
        VariableDef.independent(Uniform(-2.5, 2.5)),
        VariableDef.dependent([(0, 0.5)]),
    ))
    data = sample(spec, 1000, 0)
    result = slcd(data, Hyperparams(restarts=8))
    assert result.D_opt[1, 0] == pytest.approx(0.5, abs=0.05)
    assert result.D_opt[0, 0] == pytest.approx(1.0, abs=0.05)
    assert abs(result.D_opt[0, 1]) < 0.15
    assert abs(result.D_opt[1, 1]) < 0.15


def test_slcd_deterministic_bit_identical(ds2_data) -> None:
    hp = Hyperparams(restarts=3)
    a = slcd(ds2_data, hp, SolverControls(seed=5))
    b = slcd(ds2_data, hp, SolverControls(seed=5))
    assert a.D_opt.tobytes() == b.D_opt.tobytes()
    assert a.J_min == b.J_min


def test_slcd_seed_changes_restart_draws(ds2_data) -> None:
    hp = Hyperparams(restarts=2, iterations=1)
    a = slcd(ds2_data, hp, SolverControls(seed=0, max_inner_steps=5))
    b = slcd(ds2_data, hp, SolverControls(seed=1, max_inner_steps=5))
    # different draws explore different basins; records must differ
    ja = [r.objective for r in a.restarts]
    jb = [r.objective for r in b.restarts]
    assert ja != jb


def test_slcd_row_sparsity_enforced(ds3_data, fast_hp) -> None:
    result = slcd(ds3_data, fast_hp)
    for i, row in enumerate(result.D_opt):
        assert int(np.sum(row != 0.0)) <= fast_hp.tau, f"row {i}"


def test_slcd_records_consistent(ds2_data, fast_hp) -> None:
    result = slcd(ds2_data, fast_hp)
    finite = [r.objective for r in result.restarts if not r.aborted]
    assert result.J_min == min(finite)
    assert len(result.restarts) == fast_hp.restarts
    mins = [r.running_min for r in result.restarts]
    assert all(a >= b for a, b in zip(mins, mins[1:]))
    assert all(r.index == i for i, r in enumerate(result.restarts))


def test_slcd_avoids_identity_on_sum_model(pair_sum_data) -> None:
    ds = center(pair_sum_data)
    Sigma, sd = sample_covariance(ds)
    result = slcd(pair_sum_data, Hyperparams(restarts=8))
    assert not np.allclose(result.D_opt, np.eye(3), atol=0.2)
    # the winner respects the covariance constraint far better than I
    _, cov_winner = residuals(result.D_opt, ds.X, Sigma, sd)
    _, cov_identity = residuals(np.eye(3), ds.X, Sigma, sd)
    assert cov_winner < 1e-2 * cov_identity


def test_slcd_beats_alias_on_sum_model(pair_sum_data) -> None:
    hp = Hyperparams(restarts=8)
    ds = center(pair_sum_data)
    result = slcd(pair_sum_data, hp)
    assert result.J_min < objective_of(PAIR_SUM_ALIAS, ds.X, hp)


def test_slcd_aborts_on_nan_data() -> None:
    X = np.full((3, 50), np.nan)
    with pytest.raises(SolverAbort) as exc_info:
        slcd(X, Hyperparams(restarts=2, iterations=1))
    assert len(exc_info.value.records) == 2
    assert all(r.aborted for r in exc_info.value.records)


def test_slcd_rejects_single_sample() -> None:
    with pytest.raises(ValueError):
        slcd(np.ones((2, 1)))


def test_slcd_accepts_raw_arrays(ds2_data, fast_hp) -> None:
    from_dataset = slcd(ds2_data, fast_hp)
    from_array = slcd(ds2_data.X, fast_hp)
    np.testing.assert_array_equal(from_dataset.D_opt, from_array.D_opt)


# ------------------------------------------------------------- objective_of

def test_objective_of_pure(ds2_data) -> None:
    ds = center(ds2_data)
    D = np.eye(4)
    hp = Hyperparams()
    assert objective_of(D, ds.X, hp) == objective_of(D, ds.X, hp)


def test_objective_of_truth_beats_identity_and_zero(ds3_data) -> None:
    spec = builtin_spec(3)
    ds = center(ds3_data)
    hp = Hyperparams()
    D_true = spec.structural_matrix().entries
    j_true = objective_of(D_true, ds.X, hp)
    assert j_true < objective_of(np.eye(5), ds.X, hp)
    assert j_true < objective_of(np.zeros((5, 5)), ds.X, hp)


# ------------------------------------------------- restart-order invariance

def test_restart_reduction_order_independent(ds2_data) -> None:
    """Each start is solved independently, so the winning objective is
    the min of the per-start results no matter the visit order."""
    spec, ds = builtin_spec(2), center(ds2_data)
    Sigma, sd = sample_covariance(ds)
    hp = Hyperparams().with_resolved_epsilons(ds.X, Sigma)
    rng = np.random.default_rng(17)
    starts = [rng.uniform(-1, 1, size=(4, 4)) for _ in range(3)]

    def run(D0: np.ndarray) -> float:
        D = D0
        best = math.inf
        for _ in range(2):
            D = solve_relaxed(D, ds.X, Sigma, sd, hp)
            D = row_threshold(D, hp.tau)
            best = min(best, objective_of(D, ds.X, hp))
        return best

    first = [run(D0) for D0 in starts]
    second = [run(D0) for D0 in reversed(starts)]
    assert first == second[::-1]
    assert min(first) == min(second)


# ------------------------------------------------------------ serialization

def test_discovery_result_json_shape(ds2_data, fast_hp) -> None:
    result = slcd(ds2_data, fast_hp)
    obj = result.to_json()
    assert obj["format_version"] == 1
    assert obj["estimated_matrix"]["n"] == 4
    assert len(obj["estimated_matrix"]["rows"]) == 4
    assert obj["j_min"] == result.J_min
    assert obj["hyperparams"]["lambda"] == 5.0
    assert len(obj["restarts"]) == fast_hp.restarts
    assert {"index", "objective", "running_min", "aborted"} <= set(obj["restarts"][0])


def test_slcd_identical_on_saved_and_loaded_data(tmp_path) -> None:
    from slcd import load_dataset, save_dataset

    # The CSV round trip is value-exact, so a solve on reloaded data
    # must reproduce the in-memory solve bit for bit.
    ds = sample(builtin_spec(2), 200, 5)
    csv_path, _ = save_dataset(ds, str(tmp_path / "d.csv"))
    back = load_dataset(csv_path)
    hp = Hyperparams(restarts=3)
    ctl = SolverControls(seed=2, max_inner_steps=80)
    a = slcd(ds, hp, ctl)
    b = slcd(back, hp, ctl)
    assert a.J_min == b.J_min
    assert a.D_opt.tobytes() == b.D_opt.tobytes()


# ---------------------------------------------------------------- kernels


@given(seed=st.integers(0, 2**32 - 1), nv=st.integers(2, 12),
       c_scale=st.sampled_from([1e-3, 1.0, 1e3]))
def test_qp_solve_step_satisfies_kkt(seed: int, nv: int, c_scale: float) -> None:
    rng = np.random.default_rng(seed)
    M = rng.standard_normal((nv, nv))
    H = M @ M.T + 0.5 * np.eye(nv)
    g = rng.standard_normal(nv)
    A = rng.standard_normal((2, nv))
    c = c_scale * rng.standard_normal(2)
    p, lams = _qp_solve(H, np.vstack((g, A)), c)
    assert p is not None
    lams = np.asarray(lams)
    B = np.linalg.inv(H)
    slack = A @ p + c
    scale = 1.0 + np.abs(c) + np.linalg.norm(A, axis=1) * np.linalg.norm(p)
    assert np.all(slack <= 1e-8 * scale)
    assert np.all(lams >= -1e-12)
    assert np.all(np.abs(lams * slack) <= 1e-8 * scale * (1.0 + lams))
    stationarity = B @ p + g + A.T @ lams
    assert np.linalg.norm(stationarity) <= 1e-8 * (
        1.0 + np.linalg.norm(B @ p) + np.linalg.norm(g) + np.linalg.norm(A.T @ lams))


def _workspace(ds_id: int = 3, m: int = 200):
    spec, ds, Sigma, sd, hp = _problem(ds_id, m=m)
    return _Workspace(ds.X, Sigma, sd, hp), ds, Sigma, sd, hp


@pytest.mark.parametrize("seed", [0, 1, 2])
def test_workspace_evaluate_matches_objective(seed: int) -> None:
    ws, ds, Sigma, sd, hp = _workspace()
    D = np.random.default_rng(seed).uniform(-1, 1, (ws.n, ws.n))
    f, c, J = ws.evaluate(D.ravel())
    recon, cov = residuals(D, ds.X, Sigma, sd)
    assert f == pytest.approx(
        smoothed_rank(D, hp.sigma) + hp.lam * smoothed_trace(D, hp.sigma), rel=1e-12)
    assert c[0] + hp.eps1 == pytest.approx(recon, rel=1e-10)
    assert c[1] + hp.eps2 == pytest.approx(cov, rel=1e-10)
    assert J.shape == (3, ws.n * ws.n)
    f_only, c_only, none = ws.evaluate(D.ravel(), jac=False)
    assert none is None
    assert f_only == pytest.approx(f, rel=1e-12)
    assert c_only == pytest.approx(c, rel=1e-12)


@pytest.mark.parametrize("seed", [0, 1, 2])
def test_workspace_jacobian_matches_finite_differences(seed: int) -> None:
    ws, *_ = _workspace()
    z = np.random.default_rng(seed).uniform(-1, 1, ws.n * ws.n)
    _, _, J = ws.evaluate(z)
    h = 1e-6
    fd = np.empty_like(J)
    for i in range(z.size):
        e = np.zeros_like(z)
        e[i] = h
        fp, cp, _ = ws.evaluate(z + e, jac=False)
        fm, cm, _ = ws.evaluate(z - e, jac=False)
        fd[:, i] = (np.array([fp, *cp]) - np.array([fm, *cm])) / (2 * h)
    for row in range(3):
        denom = max(1.0, float(np.max(np.abs(fd[row]))))
        assert float(np.max(np.abs(J[row] - fd[row]))) / denom < 1e-5
