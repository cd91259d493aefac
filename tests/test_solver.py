"""Multi-restart solve plus row thresholding."""
from __future__ import annotations

import contextlib
import math
import os
import signal
from concurrent.futures.process import BrokenProcessPool
from dataclasses import replace
from unittest import mock

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
    load_dataset,
    resolve_epsilons,
    row_threshold,
    sample,
    sample_covariance,
    save_dataset,
    slcd,
)
from slcd import _csvio, _fork, solver
from slcd.objective import _residuals, _smoothed_rank, _smoothed_trace, _Workspace, objective
from slcd.solver import REFERENCE_WEIGHT, _STEPS, _line_search, _qp_solve
from conftest import PAIR_SUM_ALIAS, without_wall
from oracle_utils import (line_search_doubling, objective_of, row_threshold_loop, slcd_by_rounds,
                          solve_relaxed, sqp_once)


# ---------------------------------------------------------------- controls

def test_controls_defaults_and_final_weight() -> None:
    c = SolverControls()
    assert c.max_inner_steps == 500
    assert c.seed == 0
    assert REFERENCE_WEIGHT == 1000.0


def test_controls_validation() -> None:
    with pytest.raises(ValueError):
        SolverControls(max_inner_steps=0)
    with pytest.raises(ValueError):
        SolverControls(seed=-1)
    for bad in (dict(seed=1.5), dict(max_inner_steps=10.0)):
        with pytest.raises(ValueError):
            SolverControls(**bad)


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


@given(st.data())
def test_row_threshold_stack_matches_row_loop(data) -> None:
    """A (k, n, n) stack is thresholded as each matrix alone by the
    per-row reference loop, bit for bit, on rows full of equal
    magnitudes, signed zeros and sign flips."""
    k, n = data.draw(st.integers(1, 6)), data.draw(st.integers(1, 7))
    tau = data.draw(st.integers(1, n + 1))
    mags = data.draw(st.lists(st.floats(0.0, 10.0), min_size=1, max_size=3))
    cells = data.draw(st.lists(st.tuples(st.sampled_from([0.0, *mags]), st.booleans()),
                               min_size=k * n * n, max_size=k * n * n))
    D = np.array([-v if flip else v for v, flip in cells]).reshape(k, n, n)
    want = np.array([row_threshold_loop(M, tau) for M in D])
    assert row_threshold(D, tau).tobytes() == want.tobytes()
    assert row_threshold(D[0], tau).tobytes() == want[0].tobytes()


def test_row_threshold_rowwise_independent() -> None:
    D = np.array([[5.0, 1.0, 2.0], [0.1, 0.2, 0.3], [7.0, 0.0, 0.0]])
    out = row_threshold(D, 1)
    np.testing.assert_array_equal(
        out, np.array([[5.0, 0.0, 0.0], [0.0, 0.0, 0.3], [7.0, 0.0, 0.0]]))


# ----------------------------------------------------------- solve_relaxed

def _resolved(hp: Hyperparams, X, Sigma) -> Hyperparams:
    eps1, eps2 = resolve_epsilons(hp, X, Sigma)
    return replace(hp, eps1=eps1, eps2=eps2)


def _problem(ds_id: int, m: int = 400, seed: int = 0):
    spec = builtin_spec(ds_id)
    ds = center(sample(spec, m, seed))
    Sigma, sd = sample_covariance(ds)
    hp = _resolved(Hyperparams(), ds.X, Sigma)
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
    _, cov_identity = _residuals(np.eye(4), ds.X, Sigma, sd)
    _, cov_out = _residuals(out, ds.X, Sigma, sd)
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
    _, cov_winner = _residuals(result.D_opt, ds.X, Sigma, sd)
    _, cov_identity = _residuals(np.eye(3), ds.X, Sigma, sd)
    assert cov_winner < 1e-2 * cov_identity


def test_slcd_beats_alias_on_sum_model(pair_sum_data) -> None:
    hp = Hyperparams(restarts=8)
    ds = center(pair_sum_data)
    result = slcd(pair_sum_data, hp)
    assert result.J_min < objective_of(PAIR_SUM_ALIAS, ds.X, hp)


def test_slcd_aborts_on_nan_data() -> None:
    one_cell = np.random.default_rng(0).standard_normal((3, 50))
    for X, cell in ((np.full((3, 50), np.nan), None), (one_cell, np.nan), (one_cell, np.inf)):
        X = X.copy()
        if cell is not None:
            X[1, 7] = cell
        with pytest.raises(SolverAbort) as exc_info:
            slcd(X, Hyperparams(restarts=2, iterations=1))
        assert len(exc_info.value.records) == 2
        assert all(r.aborted for r in exc_info.value.records)
    # NaN and inf scores and residuals are JSON nulls
    assert [{k: v for k, v in r.to_json().items() if v is None}
            for r in exc_info.value.records] == [
        dict.fromkeys(("objective", "running_min", "recon_residual", "cov_residual"))] * 2


def test_slcd_rejects_single_sample() -> None:
    with pytest.raises(ValueError):
        slcd(np.ones((2, 1)))


def test_slcd_accepts_raw_arrays(ds2_data, fast_hp) -> None:
    from_dataset = slcd(ds2_data, fast_hp)
    from_array = slcd(ds2_data.X, fast_hp)
    np.testing.assert_array_equal(from_dataset.D_opt, from_array.D_opt)


def test_slcd_reports_reference_objective(ds2_data, fast_hp, usable_cpus, monkeypatch) -> None:
    """Every candidate that slcd() scores on the Gram-matrix core scores
    as the X-form objective() at REFERENCE_WEIGHT, with the residuals of
    _residuals(); each record holds one of them, and J_min is the least."""
    scored = []
    score = solver._score

    def recording_score(ws, D):
        j, res = score(ws, D)
        scored.extend(zip(D, j.tolist(), res.tolist()))
        return j, res

    usable_cpus(1)  # scored in this process
    monkeypatch.setattr(solver, "_score", recording_score)
    result = slcd(ds2_data, fast_hp)
    assert len(scored) == fast_hp.restarts * fast_hp.iterations
    ds = center(ds2_data)
    Sigma, sd = sample_covariance(ds)
    for D, j, res in scored:
        assert j == pytest.approx(
            objective(D, ds.X, Sigma, sd, result.hp, REFERENCE_WEIGHT, REFERENCE_WEIGHT).total,
            rel=1e-9)
        assert res == pytest.approx(_residuals(D, ds.X, Sigma, sd), rel=1e-9)
    residuals = {j: tuple(res) for _, j, res in scored}
    for rec in result.restarts:
        assert (rec.recon_residual, rec.cov_residual) == residuals[rec.objective]
    assert result.J_min == min(residuals)


@pytest.mark.parametrize("dataset", [1, 2, 3, 4, 5])
def test_slcd_matches_round_by_round_reference(dataset, usable_cpus) -> None:
    """slcd() starts a restart's next round as soon as its own solve
    stops; the reference waits for every restart's solve after each
    round. On one process and on two, they give the same bits. In a
    round before the last, the restarts' solves stop after different
    numbers of iterations (on most datasets some at the cap of 300), so
    a restart rejoins the stack while others run on."""
    data = sample(builtin_spec(dataset), 300, 0)
    hp, ctl = Hyperparams(restarts=3, iterations=3), SolverControls(max_inner_steps=300)
    D_opt, J_min, best_j, best_res, per_round = slcd_by_rounds(data.X, hp, ctl)
    assert any(min(its) < max(its) for its in per_round[:-1].tolist())
    for cpus in (1, 2):
        usable_cpus(cpus)
        result = slcd(data, hp, ctl)
        assert result.D_opt.tobytes() == D_opt.tobytes() and result.J_min == J_min
        assert [r.iterations for r in result.restarts] == per_round.sum(axis=0).tolist()
        np.testing.assert_array_equal([r.objective for r in result.restarts],
                                      np.where(best_j < math.inf, best_j, math.nan))
        np.testing.assert_array_equal(
            [(r.recon_residual, r.cov_residual) for r in result.restarts], best_res)


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
    hp = _resolved(Hyperparams(), ds.X, Sigma)
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
    assert list(obj["restarts"][0]) == [
        "index", "seed", "objective", "running_min", "recon_residual", "cov_residual",
        "iterations", "wall_ms", "aborted", "message"]


def test_slcd_identical_on_saved_and_loaded_data(tmp_path) -> None:
    from slcd import load_dataset, save_dataset

    # The CSV round trip is value-exact, so a solve on reloaded data
    # must reproduce the in-memory solve bit for bit.
    ds = sample(builtin_spec(2), 200, 5)
    csv_path = str(tmp_path / "d.csv")
    save_dataset(ds, csv_path)
    back = load_dataset(csv_path)
    hp = Hyperparams(restarts=3)
    ctl = SolverControls(seed=2, max_inner_steps=80)
    a = slcd(ds, hp, ctl)
    b = slcd(back, hp, ctl)
    assert a.J_min == b.J_min
    assert a.D_opt.tobytes() == b.D_opt.tobytes()


# ---------------------------------------------------------------- kernels


@given(seed=st.integers(0, 2**32 - 1), nv=st.integers(2, 12), k=st.integers(1, 6),
       c_scale=st.sampled_from([1e-3, 1.0, 1e3]))
def test_qp_solve_step_satisfies_kkt(seed: int, nv: int, k: int, c_scale: float) -> None:
    rng = np.random.default_rng(seed)
    M = rng.standard_normal((k, nv, nv))
    H = M @ M.transpose(0, 2, 1) + 0.5 * np.eye(nv)
    J = rng.standard_normal((k, 3, nv))
    c = c_scale * rng.standard_normal((k, 2))
    P, lams = _qp_solve(H, J, c.tolist())
    assert P.shape == (k, nv) and len(lams) == k
    for i in range(k):
        assert lams[i] is not None
        p, lam, g, A = P[i], np.asarray(lams[i]), J[i, 0], J[i, 1:]
        B = np.linalg.inv(H[i])
        slack = A @ p + c[i]
        scale = 1.0 + np.abs(c[i]) + np.linalg.norm(A, axis=1) * np.linalg.norm(p)
        assert np.all(slack <= 1e-8 * scale)
        assert np.all(lam >= -1e-12)
        assert np.all(np.abs(lam * slack) <= 1e-8 * scale * (1.0 + lam))
        stationarity = B @ p + g + A.T @ lam
        assert np.linalg.norm(stationarity) <= 1e-8 * (
            1.0 + np.linalg.norm(B @ p) + np.linalg.norm(g) + np.linalg.norm(A.T @ lam))


def _workspace(ds_id: int = 3, m: int = 200):
    spec, ds, Sigma, sd, hp = _problem(ds_id, m=m)
    return _Workspace(ds.X @ ds.X.T, Sigma, sd, hp), ds, Sigma, sd, hp


def _assert_rows_standalone(ws, Z, jac: bool) -> None:
    """Each row of a stacked evaluation equals the evaluation of that row alone."""
    f, c, J = ws.evaluate(Z, jac=jac)
    for i in range(len(Z)):
        fi, ci, Ji = ws.evaluate(Z[i:i + 1], jac=jac)
        assert fi[0] == f[i] and np.array_equal(ci[0], c[i])
        if jac:
            assert np.array_equal(Ji[0], J[i])


@pytest.mark.parametrize("seed", [0, 1, 2])
def test_workspace_evaluate_matches_objective(seed: int) -> None:
    ws, ds, Sigma, sd, hp = _workspace()
    Ds = np.random.default_rng(seed).uniform(-1, 1, (4, ws.n, ws.n))
    Z = Ds.reshape(4, -1)
    f, c, J = ws.evaluate(Z)
    assert f.shape == (4,) and c.shape == (4, 2) and J.shape == (4, 3, ws.n * ws.n)
    f_only, c_only, none = ws.evaluate(Z, jac=False)
    assert none is None
    for i, D in enumerate(Ds):
        recon, cov = _residuals(D, ds.X, Sigma, sd)
        assert f[i] == pytest.approx(
            _smoothed_rank(D, hp.sigma) + hp.lam * _smoothed_trace(D, hp.sigma), rel=1e-12)
        assert c[i, 0] + hp.eps1 == pytest.approx(recon, rel=1e-10)
        assert c[i, 1] + hp.eps2 == pytest.approx(cov, rel=1e-10)
        assert f_only[i] == pytest.approx(f[i], rel=1e-12)
        np.testing.assert_allclose(c_only[i], c[i], rtol=1e-12)
    _assert_rows_standalone(ws, Z, jac=True)
    _assert_rows_standalone(ws, Z, jac=False)


@pytest.mark.parametrize("seed", [0, 1, 2])
def test_workspace_jacobian_matches_finite_differences(seed: int) -> None:
    ws, *_ = _workspace()
    Z = np.random.default_rng(seed).uniform(-1, 1, (3, ws.n * ws.n))
    _, _, J = ws.evaluate(Z)
    h = 1e-6
    nv = Z.shape[1]
    # row i * nv + j of the probes perturbs coordinate j of member i
    E = np.repeat(Z, nv, axis=0).reshape(3, nv, nv)
    fp, cp, _ = ws.evaluate((E + h * np.eye(nv)).reshape(-1, nv), jac=False)
    fm, cm, _ = ws.evaluate((E - h * np.eye(nv)).reshape(-1, nv), jac=False)
    fd = ((np.column_stack((fp, cp)) - np.column_stack((fm, cm))) / (2 * h)).reshape(3, nv, 3)
    for i in range(3):
        for row in range(3):
            denom = max(1.0, float(np.max(np.abs(fd[i, :, row]))))
            assert float(np.max(np.abs(J[i, row] - fd[i, :, row]))) / denom < 1e-5
    _assert_rows_standalone(ws, Z, jac=True)


class _ThresholdWorkspace:
    """A stand-in for _Workspace: the trial point (alpha, threshold) has
    f = 0 when alpha <= threshold, else 1, and never violates a
    constraint. Counts its evaluation calls."""

    def __init__(self):
        self.calls = 0

    def evaluate(self, Z, jac=True):
        self.calls += 1
        return np.where(Z[:, 0] <= Z[:, 1], 0.0, 1.0), np.full((len(Z), 2), -1.0), None


def _sequential_halving(thr: float, phi0: float, dphi: float):
    """Plain Armijo backtracking from alpha = 1 on _ThresholdWorkspace's
    merit: the first alpha that passes, or None."""
    alpha = 1.0
    while alpha > 1e-16:
        if (0.0 if alpha <= thr else 1.0) <= phi0 + 1e-4 * alpha * dphi:
            return alpha
        alpha *= 0.5
    return None


def _rounds(width: int, last: int) -> int:
    """Rounds a member of first width `width` needs to reach ladder index
    `last` when each round doubles its width."""
    rounds, covered = 1, width
    while covered <= last:
        width *= 2
        covered += width
        rounds += 1
    return rounds


# a threshold that first passes at ladder index j is 2^-j; -1 never passes
_thresholds = st.one_of(st.just(-1.0), st.integers(0, 53).map(lambda j: 2.0**-j),
                        st.floats(2.0**-60, 1.0))


@given(st.lists(st.tuples(_thresholds, st.integers(1, 60)), min_size=1, max_size=6))
def test_line_search_windows_match_sequential_halving(members) -> None:
    thresholds = [t for t, _ in members]
    widths = [w for _, w in members]
    k = len(members)
    # member i reads row rows[i] of z and P
    rows = list(range(k))[::-1]
    z = np.column_stack((np.zeros(k), thresholds[::-1]))
    P = np.tile([1.0, 0.0], (k, 1))
    steps = _STEPS
    phi0, dphi = 1e-3, -1.0
    ws = _ThresholdWorkspace()
    found = _line_search(ws, z, P, rows, widths, [1.0] * k, [phi0] * k, [dphi] * k)
    lasts = []
    for thr, hit in zip(thresholds, found):
        alpha = _sequential_halving(thr, phi0, dphi)
        if alpha is None:
            assert hit is None
            lasts.append(len(steps) - 1)
            continue
        assert hit[0] == alpha and steps[hit[2]] == alpha
        np.testing.assert_array_equal(hit[1], [alpha, thr])
        lasts.append(hit[2])
    # every member searches until its own window covers its step
    assert ws.calls == max(_rounds(w, j) for w, j in zip(widths, lasts))
    if all(j < w for w, j in zip(widths, lasts)):
        assert ws.calls == 1


def test_line_search_full_ladder_at_width_one_takes_six_calls() -> None:
    steps = _STEPS
    ws = _ThresholdWorkspace()
    found = _line_search(ws, np.array([[0.0, -1.0]]), np.array([[1.0, 0.0]]), [0], [1], [1.0],
                         [1e-3], [-1.0])
    # 54 trial steps in rounds of 1, 2, 4, ..., 32 instead of 54 calls
    assert found == [None] and len(steps) == 54 and ws.calls == 6


def test_sqp_stack_members_independent() -> None:
    _, ds, Sigma, sd, hp = _problem(2)
    ws = _Workspace(ds.X @ ds.X.T, Sigma, sd, hp)
    starts = np.random.default_rng(3).uniform(-1, 1, (6, 4, 4))
    ctl = SolverControls(max_inner_steps=150)
    D, its = sqp_once(ws, starts, ctl)
    assert D.shape == starts.shape and len(its) == 6 and min(its) > 0
    for i in range(6):
        Di, iti = sqp_once(ws, starts[i:i + 1], ctl)
        assert iti == [its[i]]
        assert Di[0].tobytes() == D[i].tobytes()
    perm = [4, 1, 5, 0, 3, 2]
    Dp, itp = sqp_once(ws, starts[perm], ctl)
    assert itp == [its[i] for i in perm]
    assert Dp.tobytes() == D[perm].tobytes()


def test_sqp_stops_where_no_qp_step_exists_at_identity() -> None:
    """At lam = 1e300 the trace term's gradient overflows g.H.g even at
    H = I, so no QP step exists: every member stops after one iteration
    and returns its start bit for bit."""
    _, ds, Sigma, sd, hp = _problem(2)
    ws = _Workspace(ds.X @ ds.X.T, Sigma, sd, replace(hp, lam=1e300))
    starts = np.random.default_rng(7).uniform(-1, 1, (4, 4, 4))
    with np.errstate(all="ignore"):
        _, c, J = ws.evaluate(starts.reshape(4, -1))
        assert _qp_solve(np.tile(np.eye(16), (4, 1, 1)), J, c.tolist())[1] == [None] * 4
        D, its = sqp_once(ws, starts, SolverControls())
    assert its == [1] * 4
    assert D.tobytes() == starts.tobytes()


def test_sqp_matches_doubling_search_from_width_one(monkeypatch) -> None:
    _, ds, Sigma, sd, hp = _problem(2)
    ws = _Workspace(ds.X @ ds.X.T, Sigma, sd, hp)
    starts = np.random.default_rng(5).uniform(-1, 1, (6, 4, 4))
    ctl = SolverControls(max_inner_steps=150)
    D, its = sqp_once(ws, starts, ctl)
    monkeypatch.setattr(solver, "_line_search", line_search_doubling)
    D_ref, its_ref = sqp_once(ws, starts, ctl)
    assert its == its_ref and min(its) > 0
    assert D.tobytes() == D_ref.tobytes()


def test_slcd_restart_records_independent_of_stack_size(ds2_data, usable_cpus) -> None:
    """On one process, a restart's record is the same in a stack of 3
    restarts as in one of 6, where others stop and rejoin at other
    times."""
    usable_cpus(1)
    small = slcd(ds2_data, Hyperparams(restarts=3))
    large = slcd(ds2_data, Hyperparams(restarts=6))
    assert without_wall(small.restarts) == without_wall(large.restarts[:3])


@pytest.mark.parametrize("restarts", [20, 11, 3, 1])
def test_slcd_on_two_processes_matches_one(ds2_data, usable_cpus, monkeypatch, restarts) -> None:
    """With two usable CPUs the restarts are solved on a pool of two, in
    blocks that are uneven at 11 and 3, and in this process at 1: D_opt,
    J_min and every record but wall_ms are the bits of a one-CPU run.
    Either way, one map of _restarts carries every restart through every
    round."""
    runner, maps = _fork._runner, []

    @contextlib.contextmanager
    def counting_runner(*args, **kwargs):
        with runner(*args, **kwargs) as (workers, run):
            def counted(fn, tasks):
                maps.append(fn)
                return run(fn, tasks)
            yield workers, counted

    monkeypatch.setattr(_fork, "_runner", counting_runner)
    hp = Hyperparams(restarts=restarts)
    runs = {}
    for cpus in (1, 2):
        pool = usable_cpus(cpus)
        maps.clear()
        runs[cpus] = slcd(ds2_data, hp)
        assert pool.call_count == (cpus == 2 and restarts >= 2 and _fork._blas_forks_safely())
        assert maps == [solver._restarts]
    one, two = runs[1], runs[2]
    assert two.D_opt.tobytes() == one.D_opt.tobytes()
    assert two.J_min == one.J_min
    assert without_wall(two.restarts) == without_wall(one.restarts)


def test_slcd_runs_no_hook_on_row_threshold(ds2_data, usable_cpus, monkeypatch) -> None:
    """A wrapper bound to solver.row_threshold in the calling process, as
    a tracer binds one, runs neither there nor in the forked workers,
    which inherit the binding: slcd() thresholds through its own helper."""
    def hook(D, tau):
        raise AssertionError("slcd() ran the rebound row_threshold")

    monkeypatch.setattr(solver, "row_threshold", hook)
    for cpus in (1, 2):
        usable_cpus(cpus)
        slcd(ds2_data, Hyperparams(restarts=2, iterations=2))


def _killed_restarts(ws, D0, tau, rounds, controls):
    """A _restarts whose process is killed, as the kernel's OOM killer would."""
    os.kill(os.getpid(), signal.SIGKILL)


def test_dead_worker_fails_the_call(ds2_data, usable_cpus, monkeypatch) -> None:
    """A solver worker that dies fails slcd() with BrokenProcessPool
    instead of leaving it waiting for ever; an alarm fails the test if
    the call hangs. The killed worker calls no BLAS, so the pool may start
    whatever numpy's BLAS."""
    def hung(signum, frame):
        raise TimeoutError("slcd() waits on a dead worker")

    usable_cpus(2)
    monkeypatch.setattr(_fork, "_blas_forks_safely", lambda: True)
    monkeypatch.setattr(solver, "_restarts", _killed_restarts)
    previous = signal.signal(signal.SIGALRM, hung)
    signal.alarm(60)
    try:
        with pytest.raises(BrokenProcessPool):
            slcd(ds2_data, Hyperparams(restarts=2, iterations=1))
    finally:
        signal.alarm(0)
        signal.signal(signal.SIGALRM, previous)


_BUILD_RECORD = {"name": "scipy-openblas", "openblas configuration":
                 "OpenBLAS 0.3.31  USE64BITINT DYNAMIC_ARCH NO_AFFINITY Haswell MAX_THREADS=64"}


@pytest.mark.parametrize("platform, record, safe", [
    ("linux", _BUILD_RECORD, True),
    ("darwin", _BUILD_RECORD, False),
    ("linux", {**_BUILD_RECORD, "openblas configuration": "OpenBLAS 0.3.21 USE_OPENMP Haswell"}, False),
    ("linux", {"name": "accelerate"}, False),
    ("linux", {"name": "mkl-sdl"}, False),
    ("linux", {"name": "openblas"}, False),
    ("linux", None, False),
])
def test_blas_forks_safely_reads_numpys_build(monkeypatch, platform, record, safe) -> None:
    """The solver forks only onto a pthreads OpenBLAS on Linux; a BLAS
    built on OpenMP, another BLAS, a record without OpenBLAS's
    configuration, or a numpy without a build record (None: an older
    show_config takes no mode) keeps the solve in this process."""
    def show_config(mode):
        if record is None:
            raise TypeError("show_config() got an unexpected keyword argument 'mode'")
        return {"Build Dependencies": {"blas": record, "lapack": record}}

    monkeypatch.setattr(_fork.sys, "platform", platform)
    monkeypatch.setattr(_fork.np, "show_config", show_config)
    assert _fork._blas_forks_safely() is safe
    monkeypatch.setattr(_fork, "_usable_cpus", lambda: 2)
    assert _fork._workers(4, blas=True) == (2 if safe else 1)
    assert _fork._workers(4) == 2


_CHILD_HP = Hyperparams(restarts=10, iterations=2)


def _pools_started_in_a_child(path: str) -> tuple[int, bytes, bytes]:
    """In a process that multiprocessing started: the pools that slcd()
    on 10 restarts and a load in pieces start with two usable CPUs, and
    their results."""
    with mock.patch.object(_fork, "_usable_cpus", return_value=2), \
            mock.patch.object(_fork, "_pool", wraps=_fork._pool) as pool, \
            mock.patch.object(_csvio, "_READ_PIECE", 256):
        result = slcd(sample(builtin_spec(2), 300, 0), _CHILD_HP)
        X = load_dataset(path).X
    return pool.call_count, result.D_opt.tobytes(), X.tobytes()


def test_spawned_child_starts_no_pool(tmp_path) -> None:
    """User code that multiprocessing starts, here a spawned, non-daemonic
    child, may have siblings that already keep the CPUs busy: neither the
    solver nor the CSV codec starts a pool in it, and it gets the same
    results."""
    import multiprocessing
    from concurrent.futures import ProcessPoolExecutor

    path = str(tmp_path / "d.csv")
    save_dataset(sample(builtin_spec(3), 400, 2), path)
    with ProcessPoolExecutor(max_workers=1,
                             mp_context=multiprocessing.get_context("spawn")) as child:
        pools, D_opt, X = child.submit(_pools_started_in_a_child, path).result(timeout=300)
    assert pools == 0
    assert D_opt == slcd(sample(builtin_spec(2), 300, 0), _CHILD_HP).D_opt.tobytes()
    assert X == load_dataset(path).X.tobytes()


def test_restart_wall_ms_partitions_total(ds2_data, fast_hp) -> None:
    result = slcd(ds2_data, fast_hp)
    walls = [r.wall_ms for r in result.restarts]
    assert all(w > 0 for w in walls)
    assert sum(walls) <= result.wall_ms * (1 + 1e-6)
    assert sum(walls) == pytest.approx(result.wall_ms, rel=1e-6)
