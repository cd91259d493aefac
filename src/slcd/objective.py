"""The discovery objective: smoothed rank plus weighted smoothed trace,
with reconstruction and induced-covariance constraint residuals.

The rank of D is approximated by the smoothed-L0 surrogate
sum_i (1 - exp(-s_i^2 / sigma^2)) over its singular values, and the
trace-support term applies the same surrogate to the diagonal. Both
constraints enter through squared hinges: a residual only contributes
once it exceeds its slack epsilon.

objective() works from the data X and is the reference; perfbench checks
each reported J_min against it. The solver evaluates the same terms,
and their gradients, through the private _Workspace, which holds only
the Gram matrix G = X X^T and the covariance.
"""
from __future__ import annotations

import math
import numbers
from dataclasses import dataclass

import numpy as np

from .scm_core import _matrix_entries

__all__ = [
    "EPS_REL",
    "Hyperparams",
    "ObjectiveBreakdown",
    "resolve_epsilons",
    "objective",
]

# Relative scale for the default constraint slacks. eps1 covers the
# reconstruction residual ||X - DX||_F^2, whose natural size is
# n * m * mean-variance; eps2 covers the covariance residual, whose
# natural size is ||Sigma||_F^2. Keeping the factor this small makes the
# constraints behave like equalities, which is what separates the true
# structure from the many loosely-fitting dense matrices: with a looser
# slack, whole families of wrong supports become feasible and the rank
# term alone cannot tell them apart.
EPS_REL = 1e-8


def _require_finite(**values) -> None:
    """Reject anything but a finite real number, with a ValueError that
    names the field."""
    for name, v in values.items():
        if isinstance(v, bool) or not isinstance(v, numbers.Real) or not math.isfinite(v):
            raise ValueError(f"{name} must be a finite number, got {v!r}")


def _require_integer(**values) -> None:
    """Reject anything but an integer (bool included), with a ValueError
    that names the field."""
    for name, v in values.items():
        if isinstance(v, bool) or not isinstance(v, numbers.Integral):
            raise ValueError(f"{name} must be an integer, got {v!r}")


@dataclass(frozen=True)
class Hyperparams:
    """Algorithm hyperparameters.

    sigma is the smoothing width of the rank/trace surrogates, lam the
    trace weight, tau the per-row sparsity budget, iterations the number
    of solve-threshold repetitions per restart, and restarts the number
    of random re-initializations. eps1/eps2 are the constraint slacks;
    leave them None to resolve data-relative defaults at solve time.
    """

    sigma: float = 0.3
    lam: float = 5.0
    tau: int = 2
    eps1: float | None = None
    eps2: float | None = None
    iterations: int = 5
    restarts: int = 20

    def __post_init__(self):
        _require_finite(sigma=self.sigma, lam=self.lam, **{
            name: getattr(self, name) for name in ("eps1", "eps2")
            if getattr(self, name) is not None})
        _require_integer(tau=self.tau, iterations=self.iterations, restarts=self.restarts)
        if not self.sigma > 0:
            raise ValueError(f"sigma must be positive, got {self.sigma}")
        # the surrogates divide by sigma^2, which must not round to 0
        if self.sigma < 1e-154:
            raise ValueError(f"sigma must be at least 1e-154, got {self.sigma}")
        if self.lam < 0:
            raise ValueError(f"lam must be nonnegative, got {self.lam}")
        if self.tau < 1:
            raise ValueError(f"tau must be a positive integer, got {self.tau}")
        for name in ("eps1", "eps2"):
            v = getattr(self, name)
            if v is not None and v < 0:
                raise ValueError(f"{name} must be nonnegative, got {v}")
        if self.iterations < 1:
            raise ValueError(f"iterations must be positive, got {self.iterations}")
        if self.restarts < 1:
            raise ValueError(f"restarts must be positive, got {self.restarts}")

    def to_json(self) -> dict:
        return {
            "sigma": self.sigma,
            "lambda": self.lam,
            "tau": self.tau,
            "eps1": self.eps1,
            "eps2": self.eps2,
            "iterations": self.iterations,
            "restarts": self.restarts,
        }

    @classmethod
    def from_json(cls, obj: dict) -> "Hyperparams":
        kwargs = dict(obj)
        if "lambda" in kwargs:
            kwargs["lam"] = kwargs.pop("lambda")
        return cls(**kwargs)


@dataclass(frozen=True)
class ObjectiveBreakdown:
    """The objective value split into its four ingredients."""

    smoothed_rank: float
    smoothed_trace: float
    recon_residual: float
    cov_residual: float
    total: float


def resolve_epsilons(hp: Hyperparams, X: np.ndarray, Sigma: np.ndarray) -> tuple[float, float]:
    """Effective constraint slacks: explicit values pass through, None
    becomes EPS_REL * n * m * mean(variance) for the reconstruction side
    and EPS_REL * ||Sigma||_F^2 for the covariance side."""
    n, m = X.shape
    if hp.eps1 is None:
        eps1 = EPS_REL * n * m * float(np.mean(np.diag(Sigma)))
    else:
        eps1 = float(hp.eps1)
    if hp.eps2 is None:
        eps2 = EPS_REL * float(np.sum(Sigma * Sigma))
    else:
        eps2 = float(hp.eps2)
    return eps1, eps2


def _surrogate(values: np.ndarray, sigma: float) -> float:
    return float(np.sum(1.0 - np.exp(-(values * values) / (sigma * sigma))))


def _smoothed_rank(D, sigma: float) -> float:
    """sum_i (1 - exp(-s_i^2/sigma^2)) over the singular values of D.
    Approaches rank(D) as sigma shrinks."""
    s = np.linalg.svd(_matrix_entries(D), compute_uv=False)
    return _surrogate(s, sigma)


def _smoothed_trace(D, sigma: float) -> float:
    """Same surrogate applied to the diagonal entries of D; counts how
    many diagonal entries are far from zero."""
    return _surrogate(np.diag(_matrix_entries(D)), sigma)


def _check_dims(D, X, Sigma, sigma_diag):
    n = D.shape[0]
    if D.shape != (n, n):
        raise ValueError(f"D must be square, got {D.shape}")
    if X.shape[0] != n:
        raise ValueError(f"X has {X.shape[0]} rows, D is {n}x{n}")
    if Sigma.shape != (n, n):
        raise ValueError(f"Sigma shape {Sigma.shape} does not match n={n}")
    if sigma_diag.shape != (n,):
        raise ValueError(f"sigma_diag shape {sigma_diag.shape} does not match n={n}")


def _residuals(D, X, Sigma, sigma_diag) -> tuple[float, float]:
    """Squared constraint residuals (||X - DX||_F^2,
    ||Sigma - D diag(sigma_diag) D^T||_F^2)."""
    D = _matrix_entries(D)
    X = np.asarray(X, dtype=float)
    Sigma = np.asarray(Sigma, dtype=float)
    sd = np.asarray(sigma_diag, dtype=float)
    _check_dims(D, X, Sigma, sd)
    # one n-by-m temporary, reused for the residual and its square
    E = D @ X
    np.subtract(X, E, out=E)
    np.multiply(E, E, out=E)
    recon = float(np.sum(E))
    R = Sigma - (D * sd) @ D.T
    cov = float(np.sum(R * R))
    return recon, cov


def objective(D, X, Sigma, sigma_diag, hp: Hyperparams, mu1: float, mu2: float) -> ObjectiveBreakdown:
    """Penalized objective: smoothed_rank + lam * smoothed_trace plus
    squared-hinge penalties mu * max(0, residual - eps)^2 for each
    constraint."""
    if mu1 < 0 or mu2 < 0:
        raise ValueError("penalty weights must be nonnegative")
    D = _matrix_entries(D)
    eps1, eps2 = resolve_epsilons(hp, np.asarray(X, dtype=float), np.asarray(Sigma, dtype=float))
    rank = _smoothed_rank(D, hp.sigma)
    trace = _smoothed_trace(D, hp.sigma)
    recon, cov = _residuals(D, X, Sigma, sigma_diag)
    # NaN residuals must poison the total, so the hinge cannot use
    # Python's max (max(0.0, nan) is 0.0)
    h1 = float(np.maximum(0.0, recon - eps1))
    h2 = float(np.maximum(0.0, cov - eps2))
    total = rank + hp.lam * trace + mu1 * h1 * h1 + mu2 * h2 * h2
    return ObjectiveBreakdown(
        smoothed_rank=rank,
        smoothed_trace=trace,
        recon_residual=recon,
        cov_residual=cov,
        total=total,
    )


class _Workspace:
    """The objective's core, built once from the data's sufficient
    statistics: the Gram matrix G = X X^T, the covariance Sigma, its
    diagonal sigma_diag, and the slacks, which hp must hold resolved.
    The reconstruction residual ||X - DX||_F^2 is the trace form
    tr((I - D) G (I - D)^T), so no evaluation touches X or costs more
    with m. objective() above works from X; it is the reference this
    core is tested against."""

    def __init__(self, G: np.ndarray, Sigma: np.ndarray, sigma_diag: np.ndarray,
                 hp: Hyperparams):
        self.n = len(G)
        self.G = np.asarray(G, dtype=float)
        self.Sigma = np.asarray(Sigma, dtype=float)
        self.sd = np.asarray(sigma_diag, dtype=float)
        self.I = np.eye(self.n)
        self.k = -1.0 / (hp.sigma * hp.sigma)
        self.lam = hp.lam
        self.eps = np.array((hp.eps1, hp.eps2), dtype=float)
        # f = f0 - sum(w * exp(k x^2)) over the singular values, then the diagonal
        self.f0 = self.n * (1.0 + hp.lam)
        self.w = np.repeat((1.0, hp.lam), self.n)

    def evaluate(self, Z: np.ndarray, jac: bool = True):
        """The smooth part f (rank + lam * trace surrogates) and the
        constraint values c (residual minus slack) of each row of Z, a
        (k, n^2) stack of flattened matrices, as a (k,) and a (k, 2)
        array; with jac also the (k, 3, n^2) Jacobians whose rows are the
        gradients of f, c[:, 0] and c[:, 1] (else None). Every row is
        computed on its own, so its values do not depend on the rest of
        the stack."""
        n, k = self.n, self.k
        D = Z.reshape(-1, n, n)
        if jac:
            U, s, Vt = np.linalg.svd(D)
        else:
            s = np.linalg.svd(D, compute_uv=False)
        d = Z[:, ::n + 1]
        # exp(k x^2) of the singular values, then of the diagonal entries
        e = np.concatenate((s, d), axis=1)
        np.exp(k * (e * e), out=e)
        f = self.f0 - np.add.reduce(e * self.w, axis=1)
        E = self.I - D
        EG = E @ self.G
        Dsd = D * self.sd
        R = self.Sigma - Dsd @ D.transpose(0, 2, 1)
        sq = np.empty((len(D), 2, n, n))
        np.multiply(EG, E, out=sq[:, 0])
        np.multiply(R, R, out=sq[:, 1])
        c = np.add.reduce(sq.reshape(len(D), 2, -1), axis=2) - self.eps
        if not jac:
            return f, c, None
        J = np.empty((len(D), 3, n * n))
        Jm = J.reshape(len(D), 3, n, n)
        np.matmul(U * ((-2.0 * k) * s * e[:, :n])[:, None, :], Vt, out=Jm[:, 0])
        J[:, 0, ::n + 1] -= (2.0 * k * self.lam) * d * e[:, n:]
        np.multiply(EG, -2.0, out=Jm[:, 1])
        np.matmul(R * -4.0, Dsd, out=Jm[:, 2])
        return f, c, J
