"""Objective value, constraint residuals, and analytic gradients.

The gradient is checked against a central finite-difference oracle;
every closed-form example below was worked out by hand from the
surrogate definitions.
"""
from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from slcd import (
    Hyperparams,
    builtin_spec,
    center,
    resolve_epsilons,
    sample,
    sample_covariance,
)
from slcd.objective import EPS_REL, _residuals, _smoothed_rank, _smoothed_trace, objective
from slcd.scm_core import _numerical_rank
from oracle_utils import analytic_variances, gradient, induced_covariance


def finite_difference(D, X, Sigma, sd, hp, mu1, mu2, h=1e-5) -> np.ndarray:
    n = D.shape[0]
    out = np.zeros_like(D)
    for i in range(n):
        for j in range(n):
            Dp = D.copy()
            Dp[i, j] += h
            Dm = D.copy()
            Dm[i, j] -= h
            fp = objective(Dp, X, Sigma, sd, hp, mu1, mu2).total
            fm = objective(Dm, X, Sigma, sd, hp, mu1, mu2).total
            out[i, j] = (fp - fm) / (2.0 * h)
    return out


def random_instance(rng, n: int, m: int = 40):
    X = rng.normal(size=(n, m))
    X -= X.mean(axis=1, keepdims=True)
    Sigma = (X @ X.T) / m
    return X, Sigma, np.diag(Sigma).copy()


# ------------------------------------------------------------- hyperparams

def test_hyperparams_defaults() -> None:
    hp = Hyperparams()
    assert hp.sigma == 0.3
    assert hp.lam == 5.0
    assert hp.tau == 2
    assert hp.iterations == 5
    assert hp.restarts == 20
    assert hp.eps1 is None and hp.eps2 is None


def test_hyperparams_validation() -> None:
    with pytest.raises(ValueError):
        Hyperparams(sigma=0.0)
    # sigma^2 would round to 0, and the solve divides by it
    with pytest.raises(ValueError, match="at least 1e-154"):
        Hyperparams(sigma=1e-300)
    assert Hyperparams(sigma=1e-154).sigma == 1e-154
    with pytest.raises(ValueError):
        Hyperparams(lam=-1.0)
    with pytest.raises(ValueError):
        Hyperparams(tau=0)
    with pytest.raises(ValueError):
        Hyperparams(eps1=-1e-9)
    with pytest.raises(ValueError):
        Hyperparams(restarts=0)
    for bad in (dict(lam=float("nan")), dict(sigma=float("inf")), dict(eps2=float("nan")),
                dict(sigma="0.3"), dict(tau=2.5), dict(iterations=3.0), dict(restarts=True)):
        with pytest.raises(ValueError):
            Hyperparams(**bad)


def test_hyperparams_json_round_trip() -> None:
    hp = Hyperparams(sigma=0.2, lam=3.0, tau=1, eps1=0.5, iterations=2, restarts=7)
    back = Hyperparams.from_json(hp.to_json())
    assert back == hp
    assert hp.to_json()["lambda"] == 3.0


def test_resolve_epsilons_scaling() -> None:
    ds = center(sample(builtin_spec(2), 500, 0))
    Sigma, _ = sample_covariance(ds)
    eps1, eps2 = resolve_epsilons(Hyperparams(), ds.X, Sigma)
    n, m = ds.X.shape
    assert eps1 == pytest.approx(EPS_REL * n * m * float(np.mean(np.diag(Sigma))))
    assert eps2 == pytest.approx(EPS_REL * float(np.sum(Sigma * Sigma)))
    explicit = Hyperparams(eps1=0.25, eps2=0.5)
    assert resolve_epsilons(explicit, ds.X, Sigma) == (0.25, 0.5)


# ------------------------------------------------------------- surrogates

def test_smoothed_rank_zero_matrix() -> None:
    assert _smoothed_rank(np.zeros((4, 4)), 0.3) == 0.0


def test_smoothed_rank_identity_closed_form() -> None:
    # three singular values of 1: 3 (1 - exp(-1/0.09))
    val = _smoothed_rank(np.eye(3), 0.3)
    assert abs(val - 3.0) < 1e-4
    assert val == pytest.approx(3.0 * (1.0 - np.exp(-1.0 / 0.09)))


def test_smoothed_rank_limit_is_rank() -> None:
    D = builtin_spec(2).structural_matrix().entries
    assert _smoothed_rank(D, 1e-3) == pytest.approx(2.0, abs=1e-3)
    assert _numerical_rank(D) == 2


def test_smoothed_rank_monotone_in_sigma() -> None:
    rng = np.random.default_rng(0)
    D = rng.normal(size=(5, 5))
    values = [_smoothed_rank(D, s) for s in (0.01, 0.1, 0.3, 1.0, 3.0)]
    assert all(a >= b for a, b in zip(values, values[1:]))


@given(st.integers(min_value=0, max_value=2 ** 32 - 1))
def test_smoothed_rank_orthogonal_invariance(seed: int) -> None:
    rng = np.random.default_rng(seed)
    n = int(rng.integers(2, 6))
    D = rng.normal(size=(n, n))
    Q, _ = np.linalg.qr(rng.normal(size=(n, n)))
    R, _ = np.linalg.qr(rng.normal(size=(n, n)))
    assert _smoothed_rank(Q @ D @ R, 0.3) == pytest.approx(
        _smoothed_rank(D, 0.3), abs=1e-9)


@given(st.integers(min_value=0, max_value=2 ** 32 - 1))
def test_smoothed_rank_bounds(seed: int) -> None:
    rng = np.random.default_rng(seed)
    n = int(rng.integers(1, 7))
    D = rng.uniform(-3, 3, size=(n, n))
    val = _smoothed_rank(D, 0.3)
    assert 0.0 <= val <= n


def test_smoothed_trace_zero_diagonal() -> None:
    D = np.array([[0.0, 2.0], [3.0, 0.0]])
    assert _smoothed_trace(D, 0.3) == 0.0


def test_smoothed_trace_identity() -> None:
    assert _smoothed_trace(np.eye(4), 0.3) == pytest.approx(4.0, abs=1e-4)


def test_smoothed_trace_dataset3_truth() -> None:
    D = builtin_spec(3).structural_matrix().entries
    assert _smoothed_trace(D, 0.3) == pytest.approx(2.0, abs=1e-4)


# -------------------------------------------------------------- residuals

def test_residuals_truth_reconstructs() -> None:
    spec = builtin_spec(2)
    ds = sample(spec, 300, 0)
    Sigma, sd = sample_covariance(ds)
    recon, _ = _residuals(spec.structural_matrix().entries, ds.X, Sigma, sd)
    assert recon < 1e-20


def test_residuals_identity_violates_covariance(ds2_data) -> None:
    ds = center(ds2_data)
    Sigma, sd = sample_covariance(ds)
    recon, cov = _residuals(np.eye(4), ds.X, Sigma, sd)
    assert recon == 0.0
    off_diag = Sigma - np.diag(np.diag(Sigma))
    assert cov == pytest.approx(float(np.sum(off_diag * off_diag)))
    assert cov > 1.0


def test_residuals_zero_matrix(ds2_data) -> None:
    ds = center(ds2_data)
    Sigma, sd = sample_covariance(ds)
    recon, cov = _residuals(np.zeros((4, 4)), ds.X, Sigma, sd)
    assert recon == pytest.approx(float(np.sum(ds.X * ds.X)))
    assert cov == pytest.approx(float(np.sum(Sigma * Sigma)))


def test_residuals_dimension_mismatch() -> None:
    with pytest.raises(ValueError):
        _residuals(np.eye(3), np.zeros((4, 10)), np.eye(4), np.ones(4))


# -------------------------------------------------------------- objective

def test_objective_truth_penalties_inactive() -> None:
    # with the population covariance the truth satisfies both
    # constraints exactly, so any nonnegative slack leaves the
    # penalties inactive and the total is rank + lambda * trace
    for ds_id in (1, 2, 3, 4, 5):
        spec = builtin_spec(ds_id)
        ds = sample(spec, 400, 0)
        D = spec.structural_matrix().entries
        Sigma = induced_covariance(D, analytic_variances(spec))
        sd = analytic_variances(spec)
        hp = Hyperparams(eps1=1e-8, eps2=1e-8)
        got = objective(D, ds.X, Sigma, sd, hp, mu1=1e6, mu2=1e6)
        expected = _smoothed_rank(D, hp.sigma) + hp.lam * _smoothed_trace(D, hp.sigma)
        assert got.total == pytest.approx(expected), f"dataset {ds_id}"
        assert got.recon_residual < 1e-8
        assert got.cov_residual < 1e-8


def test_objective_identity_dominated_by_covariance(ds2_data) -> None:
    ds = center(ds2_data)
    Sigma, sd = sample_covariance(ds)
    hp = Hyperparams(eps1=1e-8, eps2=1e-8)
    got = objective(np.eye(4), ds.X, Sigma, sd, hp, mu1=1.0, mu2=1e4)
    smooth_part = got.smoothed_rank + hp.lam * got.smoothed_trace
    assert got.total > 100.0 * smooth_part


def test_objective_zero_matrix_closed_form(ds2_data) -> None:
    ds = center(ds2_data)
    Sigma, sd = sample_covariance(ds)
    hp = Hyperparams(lam=0.0, eps1=0.0, eps2=0.0)
    mu1, mu2 = 2.0, 3.0
    got = objective(np.zeros((4, 4)), ds.X, Sigma, sd, hp, mu1, mu2)
    x4 = float(np.sum(ds.X * ds.X)) ** 2
    s4 = float(np.sum(Sigma * Sigma)) ** 2
    assert got.total == pytest.approx(mu1 * x4 + mu2 * s4, rel=1e-12)


def test_objective_breakdown_consistency() -> None:
    rng = np.random.default_rng(5)
    X, Sigma, sd = random_instance(rng, 4)
    D = rng.uniform(-1, 1, size=(4, 4))
    hp = Hyperparams(eps1=0.1, eps2=0.1)
    mu1, mu2 = 7.0, 11.0
    got = objective(D, X, Sigma, sd, hp, mu1, mu2)
    hinge1 = max(0.0, got.recon_residual - 0.1)
    hinge2 = max(0.0, got.cov_residual - 0.1)
    assert got.total == pytest.approx(
        got.smoothed_rank + hp.lam * got.smoothed_trace
        + mu1 * hinge1 ** 2 + mu2 * hinge2 ** 2)


# --------------------------------------------------------------- gradient

def test_gradient_zero_matrix_smooth_terms_flat() -> None:
    rng = np.random.default_rng(1)
    X, Sigma, sd = random_instance(rng, 3)
    hp = Hyperparams(lam=4.0, eps1=1e12, eps2=1e12)  # penalties inactive
    g = gradient(np.zeros((3, 3)), X, Sigma, sd, hp, 1.0, 1.0)
    np.testing.assert_allclose(g, np.zeros((3, 3)), atol=1e-12)


def test_gradient_matches_finite_differences() -> None:
    rng = np.random.default_rng(7)
    worst = 0.0
    for _ in range(50):
        n = int(rng.integers(3, 8))
        X, Sigma, sd = random_instance(rng, n)
        D = rng.uniform(-1, 1, size=(n, n))
        hp = Hyperparams(eps1=0.5, eps2=0.5)
        mu1, mu2 = 3.0, 3.0
        g = gradient(D, X, Sigma, sd, hp, mu1, mu2)
        fd = finite_difference(D, X, Sigma, sd, hp, mu1, mu2)
        denom = max(1.0, float(np.max(np.abs(fd))))
        worst = max(worst, float(np.max(np.abs(g - fd))) / denom)
    assert worst < 1e-5


def test_gradient_symmetric_for_spd_rank_term() -> None:
    rng = np.random.default_rng(3)
    A = rng.normal(size=(4, 4))
    D = A @ A.T + 4.0 * np.eye(4)  # SPD with well-separated eigenvalues
    X = rng.normal(size=(4, 20))
    Sigma = (X @ X.T) / 20
    sd = np.diag(Sigma).copy()
    hp = Hyperparams(lam=0.0, eps1=1e12, eps2=1e12)  # rank term only
    g = gradient(D, X, Sigma, sd, hp, 0.0, 0.0)
    np.testing.assert_allclose(g, g.T, atol=1e-9)


def test_gradient_rejects_non_finite() -> None:
    rng = np.random.default_rng(2)
    X, Sigma, sd = random_instance(rng, 3)
    D = np.full((3, 3), np.nan)
    with pytest.raises((ValueError, np.linalg.LinAlgError)):
        gradient(D, X, Sigma, sd, Hyperparams(), 1.0, 1.0)
