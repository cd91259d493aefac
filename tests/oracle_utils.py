"""Independent oracles used by the tests.

The support-enumeration oracle minimizes the exact penalized objective
over every row-sparse support pattern with a general-purpose
derivative-free optimizer, giving a solver-independent answer on tiny
instances. Keep n at 2 or 3: the support count grows combinatorially.
"""
from __future__ import annotations

from itertools import combinations, product

import numpy as np
from scipy.optimize import minimize

from slcd import Hyperparams, objective
from slcd.solver import REFERENCE_WEIGHT


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
