"""Multi-restart recovery of the structural matrix.

Each restart starts from a random dense matrix and alternates two moves:
solve the relaxed problem (minimize the rank/trace surrogate subject to
the reconstruction and covariance residuals staying within their
slacks), then keep only the tau largest-magnitude entries per row. The
sparse candidate after each threshold step is scored with the penalized
objective at a fixed reference weight, and the best-scoring candidate
across all restarts wins.

The relaxed solve is a dense SQP on H, a damped-BFGS approximation of
the inverse Hessian of the Lagrangian. Each iterate minimizes the
quadratic model subject to the two linearized constraints; the four
candidate active sets of two inequalities are each solved in closed
form from the products of H with the gradients. An l1 merit function
with Armijo backtracking accepts the step, evaluating trial points
without gradients.
Being a local method matters here: each restart converges to a nearby
stationary point instead of funneling into one global attractor, which
is what keeps the restart population diverse enough to visit the true
structure's basin.
"""
from __future__ import annotations

import math
import time
from dataclasses import asdict, dataclass, field

import numpy as np

from .datagen import Dataset, center
from .objective import (Hyperparams, _require_finite, _require_integer, objective,
                        resolve_epsilons)
from .scm_core import StructuralMatrix

__all__ = [
    "SolverControls",
    "RestartRecord",
    "DiscoveryResult",
    "SolverAbort",
    "solve_relaxed",
    "row_threshold",
    "objective_of",
    "slcd",
]

FORMAT_VERSION = 1


@dataclass(frozen=True)
class SolverControls:
    """Knobs of the relaxed solve and the restart loop.

    max_inner_steps caps SQP iterations per solve call. backtrack_factor
    and armijo_c drive the merit line search; step_init is the initial
    trial step of the constraint-restoration fallback used when the
    quadratic subproblem has no usable solution. grad_tol is the
    stationarity tolerance. The penalty fields set the reference weight
    at which candidates are compared: mu_init * growth^(rounds - 1),
    1000 with the defaults; mu_init also seeds the merit weight. seed
    feeds the restart initializations.
    """

    max_inner_steps: int = 500
    step_init: float = 1e-2
    backtrack_factor: float = 0.5
    armijo_c: float = 1e-4
    penalty_mu_init: float = 1.0
    penalty_growth: float = 10.0
    penalty_outer_rounds: int = 4
    grad_tol: float = 1e-6
    seed: int = 0

    def __post_init__(self):
        _require_finite(step_init=self.step_init, backtrack_factor=self.backtrack_factor,
                        armijo_c=self.armijo_c, penalty_mu_init=self.penalty_mu_init,
                        penalty_growth=self.penalty_growth, grad_tol=self.grad_tol)
        _require_integer(max_inner_steps=self.max_inner_steps,
                         penalty_outer_rounds=self.penalty_outer_rounds, seed=self.seed)
        if self.max_inner_steps < 1:
            raise ValueError("max_inner_steps must be positive")
        if not 0 < self.backtrack_factor < 1:
            raise ValueError("backtrack_factor must be in (0, 1)")
        if not 0 < self.armijo_c < 1:
            raise ValueError("armijo_c must be in (0, 1)")
        if not self.step_init > 0:
            raise ValueError("step_init must be positive")
        if self.penalty_mu_init < 0:
            raise ValueError("penalty_mu_init must be non-negative")
        if not self.penalty_growth > 1:
            raise ValueError("penalty_growth must exceed 1")
        if self.penalty_outer_rounds < 1:
            raise ValueError("penalty_outer_rounds must be positive")
        if not self.grad_tol > 0:
            raise ValueError("grad_tol must be positive")
        if self.seed < 0:
            raise ValueError("seed must be non-negative")

    @property
    def final_penalty_weight(self) -> float:
        return self.penalty_mu_init * self.penalty_growth ** (self.penalty_outer_rounds - 1)

    def to_json(self) -> dict:
        return asdict(self)

    @classmethod
    def from_json(cls, obj: dict) -> "SolverControls":
        return cls(**obj)


@dataclass(frozen=True)
class RestartRecord:
    """Diagnostics for one restart: its best candidate's score and
    residuals, the running minimum after it, and the work spent."""

    index: int
    seed: int
    objective: float
    running_min: float
    recon_residual: float
    cov_residual: float
    iterations: int
    wall_ms: float
    aborted: bool = False
    message: str = ""

    def to_json(self) -> dict:
        def clean(v):
            return None if not math.isfinite(v) else v

        return {
            "index": self.index,
            "seed": self.seed,
            "objective": clean(self.objective),
            "running_min": clean(self.running_min),
            "recon_residual": clean(self.recon_residual),
            "cov_residual": clean(self.cov_residual),
            "iterations": self.iterations,
            "wall_ms": self.wall_ms,
            "aborted": self.aborted,
            "message": self.message,
        }


@dataclass(frozen=True)
class DiscoveryResult:
    """Estimate returned by slcd: the winning matrix, its score, the
    per-restart log, and the configuration that produced it."""

    D_opt: np.ndarray
    J_min: float
    restarts: list[RestartRecord] = field(default_factory=list)
    hp: Hyperparams = Hyperparams()
    controls: SolverControls = SolverControls()
    wall_ms: float = 0.0

    def to_json(self) -> dict:
        return {
            "format_version": FORMAT_VERSION,
            "estimated_matrix": StructuralMatrix(np.asarray(self.D_opt)).to_json(),
            "j_min": self.J_min,
            "hyperparams": self.hp.to_json(),
            "controls": self.controls.to_json(),
            "restarts": [r.to_json() for r in self.restarts],
            "wall_ms": self.wall_ms,
        }


class SolverAbort(RuntimeError):
    """Raised when every restart failed to produce a finite candidate."""

    def __init__(self, message: str, records: list[RestartRecord]):
        super().__init__(message)
        self.records = records


class _Workspace:
    """Precomputed pieces shared by every solve on one dataset: the Gram
    matrix G = X X^T (so the reconstruction residual is a trace form
    independent of m in cost), the covariance, and the resolved slacks."""

    def __init__(self, X: np.ndarray, Sigma: np.ndarray, sigma_diag: np.ndarray,
                 hp: Hyperparams):
        self.n = X.shape[0]
        self.G = X @ X.T
        self.Sigma = np.asarray(Sigma, dtype=float)
        self.sd = np.asarray(sigma_diag, dtype=float)
        self.I = np.eye(self.n)
        self.k = -1.0 / (hp.sigma * hp.sigma)
        self.lam = hp.lam
        self.eps1, self.eps2 = resolve_epsilons(hp, X, self.Sigma)

    def evaluate(self, z: np.ndarray, jac: bool = True):
        """The smooth part f (rank + lam * trace surrogates) and the
        constraint values c (residual minus slack) at the flattened
        matrix z, and with jac the 3 x n^2 Jacobian whose rows are the
        gradients of f, c[0] and c[1] (else None)."""
        n, k = self.n, self.k
        D = z.reshape(n, n)
        d = D.diagonal()
        if jac:
            U, s, Vt = np.linalg.svd(D)
        else:
            s = np.linalg.svd(D, compute_uv=False)
        # Python floats: for a handful of values this beats numpy's per-call cost
        sl, dl = s.tolist(), d.tolist()
        f = (n - sum([math.exp(k * x * x) for x in sl])
             + self.lam * (n - sum([math.exp(k * x * x) for x in dl])))
        E = self.I - D
        EG = E @ self.G
        Dsd = D * self.sd
        R = self.Sigma - Dsd @ D.T
        c = (float(np.vdot(EG, E)) - self.eps1, float(np.vdot(R, R)) - self.eps2)
        if not jac:
            return f, c, None
        J = np.empty((3, n * n))
        Jm = J.reshape(3, n, n)
        np.matmul(U * ((-2.0 * k) * s * np.exp(k * (s * s))), Vt, out=Jm[0])
        J[0, ::n + 1] -= (2.0 * k * self.lam) * d * np.exp(k * (d * d))
        np.multiply(EG, -2.0, out=Jm[1])
        np.matmul(R, Dsd, out=Jm[2])
        J[2] *= -4.0
        return f, c, J


def _qp_solve(H, J, c):
    """min g.p + 0.5 p.B.p subject to a_i.p + c[i] <= 0 for i = 0, 1,
    where H = B^-1 and the rows of J are g, a_0 and a_1. The candidate
    active sets are tried in the order {}, {0}, {1}, {0, 1}, each solved
    in closed form from the products of H with the rows of J. Returns
    (step, (lambda_0, lambda_1)) or (None, None) when no candidate is
    usable."""
    W = J @ H  # rows H g, H a_0, H a_1 (H is symmetric)
    (gHg, g0, g1), (_, s00, s01), (_, s10, s11) = (J @ W.T).tolist()
    if not 0.0 <= gHg < math.inf:  # g.H.g < 0 (H lost definiteness) or overflow
        return None, None
    p0 = -W[0]
    # residuals of the linearized constraints at p0
    r0, r1 = c[0] - g0, c[1] - g1
    tol0, tol1 = max(1.0, abs(c[0])), max(1.0, abs(c[1]))
    if r0 <= 1e-10 * tol0 and r1 <= 1e-10 * tol1:
        return p0, (0.0, 0.0)
    # (multipliers, whether the constraint left out of the set holds)
    candidates = []
    if s00 != 0.0:
        l0 = r0 / s00
        candidates.append(((l0, 0.0), r1 - s10 * l0 <= 1e-8 * tol1))
    if s11 != 0.0:
        l1 = r1 / s11
        candidates.append(((0.0, l1), r0 - s01 * l1 <= 1e-8 * tol0))
    det = s00 * s11 - s01 * s10
    if det != 0.0:
        candidates.append((((s11 * r0 - s01 * r1) / det, (s00 * r1 - s10 * r0) / det), True))
    usable = [(lams, ok) for lams, ok in candidates if min(lams) >= -1e-12]
    if not usable:
        return None, None
    # the first candidate that is feasible, else the first usable one
    lams = next((lams for lams, ok in usable if ok), usable[0][0])
    return p0 - lams[0] * W[1] - lams[1] * W[2], lams


def _sqp(ws: _Workspace, D0: np.ndarray, controls: SolverControls) -> tuple[np.ndarray, int]:
    """One local solve of the relaxed problem from D0. Returns the final
    iterate and the number of SQP iterations consumed."""
    n = ws.n
    nv = n * n
    z = np.asarray(D0, dtype=float).ravel().copy()
    H = np.eye(nv)
    nu = controls.penalty_mu_init

    f, c, J = ws.evaluate(z)
    iters = 0
    if not (math.isfinite(f) and math.isfinite(c[0]) and math.isfinite(c[1])):
        return z.reshape(n, n), iters
    for it in range(controls.max_inner_steps):
        iters = it + 1
        p, lams = _qp_solve(H, J, c)
        if p is None:
            H = np.eye(nv)
            p, lams = _qp_solve(H, J, c)
        restoring = p is None
        viol0 = max(c[0], 0.0) + max(c[1], 0.0)
        alpha0 = 1.0
        if restoring:
            if viol0 <= 0.0:
                break
            p = -(max(c[0], 0.0) * J[1] + max(c[1], 0.0) * J[2])
            pn = math.sqrt(float(p @ p))
            if pn < 1e-300:
                break
            p /= pn
            lams = (0.0, 0.0)
            alpha0 = controls.step_init
        nu = max(nu, 2.0 * max(abs(lams[0]), abs(lams[1])) + 1.0)
        phi0 = f + nu * viol0
        dphi = min(float(J[0] @ p) - nu * viol0, -1e-16)
        pn = math.sqrt(float(p @ p))
        if pn < controls.grad_tol and viol0 <= 0.0:
            break
        alpha = alpha0
        while alpha > 1e-16:
            zn = z + alpha * p
            fn, cn, _ = ws.evaluate(zn, jac=False)
            phin = fn + nu * (max(cn[0], 0.0) + max(cn[1], 0.0))
            if math.isfinite(phin) and phin <= phi0 + controls.armijo_c * alpha * dphi:
                break
            alpha *= controls.backtrack_factor
        else:  # no trial point passed the Armijo test
            break
        fn, cn, Jn = ws.evaluate(zn)
        # Damped BFGS on the Lagrangian gradient, applied to H = B^-1.
        # B s comes from the QP's stationarity, B p = -(g + A^T lams);
        # a restoration step was taken with H = B = I.
        weights = np.array((1.0, *lams))
        gl_old = weights @ J
        s_vec = zn - z
        y_vec = weights @ Jn - gl_old
        Bs = s_vec if restoring else -alpha * gl_old
        sBs = float(s_vec @ Bs)
        sy = float(s_vec @ y_vec)
        if sy < 0.2 * sBs:
            theta = 0.8 * sBs / max(sBs - sy, 1e-300)
            y_vec = theta * y_vec + (1.0 - theta) * Bs
            sy = float(s_vec @ y_vec)
        if sy > 1e-300:
            # H+ = (I - rho s y^T) H (I - rho y s^T) + rho s s^T
            Hy = H @ y_vec
            rho = 1.0 / sy
            w = (0.5 * rho * (1.0 + rho * float(y_vec @ Hy))) * s_vec - rho * Hy
            H += np.outer(s_vec, w)
            H += np.outer(w, s_vec)
        z, f, c, J = zn, fn, cn, Jn
        if alpha * pn < 1e-14:
            break
    return z.reshape(n, n), iters


def solve_relaxed(D_init, X, Sigma, sigma_diag, hp: Hyperparams,
                  controls: SolverControls = SolverControls(),
                  return_info: bool = False):
    """Locally minimize the rank/trace surrogate subject to the two
    residual constraints, starting from D_init.

    The result never scores worse than D_init under the reference
    penalty weight; if the solve fails to improve, D_init is returned
    unchanged.
    """
    D_init = np.asarray(D_init, dtype=float)
    X = np.asarray(X, dtype=float)
    ws = _Workspace(X, Sigma, sigma_diag, hp)
    D, iters = _sqp(ws, D_init, controls)
    mu = controls.final_penalty_weight
    j_out = objective(D, X, Sigma, sigma_diag, hp, mu, mu).total
    j_in = objective(D_init, X, Sigma, sigma_diag, hp, mu, mu).total
    if not np.isfinite(j_out) or j_out > j_in:
        D = D_init.copy()
    if return_info:
        return D, {"iterations": iters}
    return D


def row_threshold(D, tau: int) -> np.ndarray:
    """Keep the tau largest-magnitude entries of each row, zeroing the
    rest. Ties keep the lowest column index (stable sort)."""
    D = np.asarray(D, dtype=float)
    if tau < 1:
        raise ValueError(f"tau must be at least 1, got {tau}")
    out = np.zeros_like(D)
    for i in range(D.shape[0]):
        keep = np.argsort(-np.abs(D[i]), kind="stable")[:tau]
        out[i, keep] = D[i, keep]
    return out


def objective_of(D, X, hp: Hyperparams, mu: float | None = None) -> float:
    """Penalized objective at the reference penalty weight, used to
    compare candidates. X is expected to be centered; the covariance is
    taken as X X^T / m."""
    X = np.asarray(X, dtype=float)
    Sigma = (X @ X.T) / X.shape[1]
    sd = np.diag(Sigma).copy()
    if mu is None:
        mu = SolverControls().final_penalty_weight
    return objective(D, X, Sigma, sd, hp, mu, mu).total


def _as_dataset(data) -> Dataset:
    if isinstance(data, Dataset):
        return data
    return Dataset(X=np.asarray(data, dtype=float), spec_name="", seed=0, centered=False)


def slcd(data, hp: Hyperparams = Hyperparams(),
         controls: SolverControls = SolverControls()) -> DiscoveryResult:
    """Recover a structural matrix from data.

    Runs hp.restarts random initializations; each alternates
    hp.iterations rounds of relaxed solve and row thresholding. Every
    post-threshold candidate is scored at the reference penalty weight
    and the global best is returned. Deterministic for fixed data, hp,
    and controls.seed: restart r draws its start from
    SeedSequence(entropy=controls.seed, spawn_key=(r,)).
    """
    ds = _as_dataset(data)
    if ds.m < 2:
        raise ValueError("discovery needs at least 2 samples")
    if not ds.centered:
        ds = center(ds)
    X = ds.X
    n, m = X.shape
    Sigma = (X @ X.T) / m
    sd = np.diag(Sigma).copy()
    try:
        hp_res = hp.with_resolved_epsilons(X, Sigma)
    except ValueError:  # non-finite data: every restart aborts below
        hp_res = hp
    tau_eff = min(hp_res.tau, n)
    mu = controls.final_penalty_weight
    ws = _Workspace(X, Sigma, sd, hp_res)

    t_start = time.perf_counter()
    best_j = math.inf
    best_d: np.ndarray | None = None
    records: list[RestartRecord] = []
    for r in range(hp_res.restarts):
        t0 = time.perf_counter()
        rng = np.random.default_rng(np.random.SeedSequence(entropy=controls.seed, spawn_key=(r,)))
        D = rng.uniform(-1.0, 1.0, (n, n))
        iters = 0
        local_j = math.inf
        local_d: np.ndarray | None = None
        local_res = (math.nan, math.nan)
        for _ in range(hp_res.iterations):
            D, it = _sqp(ws, D, controls)
            iters += it
            D = row_threshold(D, tau_eff)
            bd = objective(D, X, Sigma, sd, hp_res, mu, mu)
            if np.isfinite(bd.total) and bd.total < local_j:
                local_j = bd.total
                local_d = D.copy()
                local_res = (bd.recon_residual, bd.cov_residual)
        wall = (time.perf_counter() - t0) * 1000.0
        if local_d is None:
            records.append(RestartRecord(
                index=r, seed=controls.seed, objective=math.nan,
                running_min=best_j, recon_residual=math.nan,
                cov_residual=math.nan, iterations=iters, wall_ms=wall,
                aborted=True, message="no finite candidate produced",
            ))
            continue
        if local_j < best_j:
            best_j = local_j
            best_d = local_d
        records.append(RestartRecord(
            index=r, seed=controls.seed, objective=local_j,
            running_min=best_j, recon_residual=local_res[0],
            cov_residual=local_res[1], iterations=iters, wall_ms=wall,
        ))
    if best_d is None:
        raise SolverAbort("every restart aborted without a finite candidate", records)
    total_wall = (time.perf_counter() - t_start) * 1000.0
    return DiscoveryResult(
        D_opt=best_d, J_min=best_j, restarts=records,
        hp=hp_res, controls=controls, wall_ms=total_wall,
    )
