"""Independent oracles used by the tests.

The support-enumeration oracle minimizes the exact penalized objective
over every row-sparse support pattern with a general-purpose
derivative-free optimizer, giving a solver-independent answer on tiny
instances. Keep n at 2 or 3: the support count grows combinatorially.
The row-thresholding reference works one row at a time, as the stacked
solver.row_threshold must agree with it bit for bit; the doubling line
search starts every member's search at a width of one, and the
round-by-round restart loop waits for every restart's solve before any
restart's next round, as the solver's windowed search and its
restarts must agree with them bit for bit. The analytic
gradient of the X-form objective, the induced covariance and the
closed-form variances of a spec are references the tests check the
package against.
"""
from __future__ import annotations

import math
from dataclasses import replace
from itertools import combinations, product

import numpy as np
from scipy.optimize import minimize

from slcd import Dataset, Hyperparams, ScmSpec, SolverControls, center, resolve_epsilons, row_threshold
from slcd.objective import _covariance_residual, _reconstruction_residual, _Workspace, objective
from slcd.scm_core import _matrix_entries
from slcd.solver import _ARMIJO_C, _STEPS, REFERENCE_WEIGHT, _sqp


def brute_force_best(X_raw: np.ndarray, hp: Hyperparams) -> tuple[float, np.ndarray]:
    """Exhaustively minimize the penalized objective over all supports
    with at most tau nonzeros per row. Returns (best value, best D)."""
    Xc = center_data(X_raw)
    n = Xc.shape[0]
    tau = min(hp.tau, n)
    row_supports = []
    for _ in range(n):
        opts = []
        for k in range(tau + 1):
            opts.extend(combinations(range(n), k))
        row_supports.append(opts)

    best_val, best_D = np.inf, np.zeros((n, n))
    for choice in product(*row_supports):
        positions = [(r, j) for r, cols in enumerate(choice) for j in cols]

        def build(v: np.ndarray) -> np.ndarray:
            D = np.zeros((n, n))
            for t, (r, j) in enumerate(positions):
                D[r, j] = v[t]
            return D

        def f(v: np.ndarray) -> float:
            return objective_of(build(v), Xc, hp)

        if positions:
            val, v_best = np.inf, None
            for x0 in (np.full(len(positions), 0.5),
                       np.full(len(positions), -0.5),
                       np.ones(len(positions))):
                r = minimize(f, x0, method="Nelder-Mead",
                             options={"xatol": 1e-10, "fatol": 1e-12,
                                      "maxiter": 40000, "maxfev": 40000})
                if r.fun < val:
                    val, v_best = r.fun, r.x
            D = build(v_best)
        else:
            D = np.zeros((n, n))
            val = f(np.zeros(0))
        if val < best_val:
            best_val, best_D = val, D
    return best_val, best_D


def center_data(X: np.ndarray) -> np.ndarray:
    X = np.asarray(X, dtype=float)
    return X - X.mean(axis=1, keepdims=True)


def objective_of(D, X, hp: Hyperparams, mu: float = REFERENCE_WEIGHT) -> float:
    """Penalized objective at the reference penalty weight, used to
    compare candidates. X is expected to be centered; the covariance is
    taken as X X^T / m."""
    X = np.asarray(X, dtype=float)
    Sigma = (X @ X.T) / X.shape[1]
    sd = np.diag(Sigma).copy()
    return objective(D, X, Sigma, sd, hp, mu, mu).total


def solve_relaxed(D_init, X, Sigma, sigma_diag, hp: Hyperparams) -> np.ndarray:
    """Locally minimize the rank/trace surrogate subject to the two
    residual constraints, starting from D_init.

    The result never scores worse than D_init under the reference
    penalty weight; if the solve fails to improve, D_init is returned
    unchanged.
    """
    D_init = np.asarray(D_init, dtype=float)
    X = np.asarray(X, dtype=float)
    eps1, eps2 = resolve_epsilons(hp, X, Sigma)
    ws = _Workspace(X @ X.T, Sigma, sigma_diag, replace(hp, eps1=eps1, eps2=eps2))
    D = sqp_once(ws, D_init[None], SolverControls())[0][0]
    mu = REFERENCE_WEIGHT
    j_out = objective(D, X, Sigma, sigma_diag, hp, mu, mu).total
    j_in = objective(D_init, X, Sigma, sigma_diag, hp, mu, mu).total
    if not np.isfinite(j_out) or j_out > j_in:
        D = D_init.copy()
    return D


def sqp_once(ws: _Workspace, D0, controls: SolverControls) -> tuple[np.ndarray, list[int]]:
    """One solve from each matrix of the (k, n, n) stack D0 on one
    lockstep stack (solver._sqp, no member solving again): the (k, n, n)
    final iterates and the SQP iterations each member ran."""
    Z, iters = np.array(D0, dtype=float), [0] * len(D0)

    def finish(members, iterates, its):
        Z[members] = iterates.reshape(-1, *Z.shape[1:])
        for i, it in zip(members.tolist(), its):
            iters[i] = it
        return members[:0], iterates[:0]

    _sqp(ws, D0, controls, finish)
    return Z, iters


def slcd_by_rounds(X, hp: Hyperparams, controls: SolverControls):
    """The reference for slcd()'s rounds, with a barrier after each:
    every restart's solve of a round (sqp_once on the whole stack) ends
    before any restart's next round starts, and then one row_threshold
    call and one evaluation threshold and score the whole stack. slcd()
    instead starts a restart's next round as soon as its own solve stops;
    a restart's path is the same either way. Returns D_opt, J_min and,
    per restart, the best score (inf when none was finite), its (recon,
    cov) residuals and the SQP iterations of each round, a (rounds, R)
    array."""
    X = center(Dataset(X=X)).X
    n, m = X.shape
    G = X @ X.T
    Sigma = G / m
    eps1, eps2 = resolve_epsilons(hp, X, Sigma)
    hp = replace(hp, eps1=eps1, eps2=eps2)
    ws = _Workspace(G, Sigma, np.diag(Sigma).copy(), hp)
    R = hp.restarts
    seeds = np.random.SeedSequence(entropy=controls.seed).spawn(R)
    D = np.array([np.random.default_rng(s).uniform(-1.0, 1.0, (n, n)) for s in seeds])
    best_j, best_d, best_res, per_round = np.full(R, math.inf), np.zeros((R, n, n)), np.full((R, 2), math.nan), []
    for _ in range(hp.iterations):
        Z, its = sqp_once(ws, D, controls)
        per_round.append(its)
        D = row_threshold(Z, min(hp.tau, n))
        f, c, _ = ws.evaluate(D.reshape(R, -1), jac=False)
        h = np.maximum(c, 0.0)
        j = f + REFERENCE_WEIGHT * h[:, 0] * h[:, 0] + REFERENCE_WEIGHT * h[:, 1] * h[:, 1]
        better = np.isfinite(j) & (j < best_j)
        best_j[better], best_d[better], best_res[better] = j[better], D[better], c[better] + ws.eps
    win = int(np.argmin(best_j))
    return best_d[win], float(best_j[win]), best_j, best_res, np.array(per_round)


def row_threshold_loop(D, tau: int) -> np.ndarray:
    """The reference for solver.row_threshold on one matrix: each row
    keeps its tau largest-magnitude entries, the lowest column index
    first among equal magnitudes (stable sort), one row at a time."""
    D = np.asarray(D, dtype=float)
    out = np.zeros_like(D)
    for i in range(D.shape[0]):
        keep = np.argsort(-np.abs(D[i]), kind="stable")[:tau]
        out[i, keep] = D[i, keep]
    return out


def line_search_doubling(ws: _Workspace, z, P, rows, widths, nu, phi0, dphi):
    """The reference for solver._line_search: every member still
    searching evaluates its next 1, then 2, then 4, ... steps of
    solver._STEPS in one stacked call, whatever its width in widths, and
    takes the first step that passes the Armijo test on the l1 merit.
    Returns, per member, None or (alpha, trial point, index of alpha in
    solver._STEPS)."""
    out = [None] * len(rows)
    pending = list(range(len(rows)))
    start, width = 0, 1
    while pending:
        trials = [_STEPS[start:start + width] for _ in pending]
        take = [rows[i] for i, steps in zip(pending, trials) for _ in steps]
        alphas = [a for steps in trials for a in steps]
        Zt = z.take(take, axis=0) + np.array(alphas)[:, None] * P.take(take, axis=0)
        ft, ct, _ = ws.evaluate(Zt, jac=False)
        ft, ct = ft.tolist(), ct.tolist()
        base, still = 0, []
        for i, steps in zip(pending, trials):
            for t in range(base, base + len(steps)):
                phin = ft[t] + nu[i] * (max(ct[t][0], 0.0) + max(ct[t][1], 0.0))
                if math.isfinite(phin) and phin <= phi0[i] + _ARMIJO_C * alphas[t] * dphi[i]:
                    out[i] = (alphas[t], Zt[t], start + t - base)
                    break
            else:
                if start + width < len(_STEPS):
                    still.append(i)
            base += len(steps)
        pending = still
        start += width
        width *= 2
    return out


def gradient(D, X, Sigma, sigma_diag, hp: Hyperparams, mu1: float, mu2: float) -> np.ndarray:
    """Analytic gradient of objective(...).total with respect to D.

    At repeated singular values the rank term's derivative is not
    unique; the subgradient induced by the computed SVD is returned.
    """
    D = _matrix_entries(D)
    X = np.asarray(X, dtype=float)
    Sigma = np.asarray(Sigma, dtype=float)
    sd = np.asarray(sigma_diag, dtype=float)
    if not np.all(np.isfinite(D)):
        raise ValueError("non-finite matrix entries")
    # the helpers check the dimensions
    recon = _reconstruction_residual(D, X)
    R = _covariance_residual(D, Sigma, sd)
    n = D.shape[0]
    sig2 = hp.sigma * hp.sigma
    eps1, eps2 = resolve_epsilons(hp, X, Sigma)

    U, s, Vt = np.linalg.svd(D)
    g = (U * (2.0 * s / sig2 * np.exp(-(s * s) / sig2))) @ Vt

    d = np.diag(D)
    g[np.arange(n), np.arange(n)] += hp.lam * (2.0 * d / sig2) * np.exp(-(d * d) / sig2)

    h1 = float(np.maximum(0.0, recon - eps1))
    if h1 > 0.0 and mu1 > 0.0:
        g += mu1 * (-4.0 * h1) * ((X - D @ X) @ X.T)

    cov = float(np.sum(R * R))
    h2 = float(np.maximum(0.0, cov - eps2))
    if h2 > 0.0 and mu2 > 0.0:
        g += mu2 * (-8.0 * h2) * (R @ (D * sd))
    return g


def induced_covariance(D, sigma_diag) -> np.ndarray:
    """Covariance matrix D diag(sigma_diag) D^T implied by a structural
    matrix and per-variable variances."""
    a = _matrix_entries(D)
    sd = np.asarray(sigma_diag, dtype=float)
    if sd.ndim != 1 or sd.shape[0] != a.shape[0]:
        raise ValueError(
            f"sigma_diag length {sd.shape} does not match matrix size {a.shape[0]}"
        )
    if np.any(sd < 0):
        raise ValueError("variances must be nonnegative")
    return (a * sd) @ a.T


def analytic_variances(spec: ScmSpec) -> np.ndarray:
    """Closed-form variance of every variable of spec (parents are
    independent, so dependent variances are coefficient-squared sums)."""
    var = np.zeros(spec.n)
    for i, v in enumerate(spec.variables):
        if v.role == "independent":
            var[i] = v.dist.variance
        else:
            var[i] = sum(c * c * var[j] for j, c in v.terms)
    return var
