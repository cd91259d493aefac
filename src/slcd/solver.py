"""Multi-restart recovery of the structural matrix.

The data are centred and reduced once to their Gram matrix G = X X^T
and covariance Sigma = G / m; nothing after that touches X. Each
restart starts from a random dense matrix and alternates two moves:
solve the relaxed problem (minimize the rank/trace surrogate subject to
the reconstruction and covariance residuals staying within their
slacks), then keep only the tau largest-magnitude entries per row. The
sparse candidate after each threshold step is scored with the penalized
objective at the fixed REFERENCE_WEIGHT, evaluated on the same
Gram-matrix core (objective._Workspace) as the solve, and the
best-scoring candidate across all restarts wins.

The relaxed solve is a dense SQP on H, a damped-BFGS approximation of
the inverse Hessian of the Lagrangian. Each iterate minimizes the
quadratic model subject to the two linearized constraints; the four
candidate active sets of two inequalities are each solved in closed
form from the products of H with the gradients. An l1 merit function
with Armijo backtracking accepts the step, evaluating trial points
without gradients; its weight starts at 1 and rises to exceed twice
the largest multiplier.

All restarts are solved together: one SQP call advances a (k, n, n)
stack of iterates in lockstep, with one stacked SVD per evaluation and
stacked products for the QP and the BFGS update, while the per-restart
scalars (step, merit weight, stop tests) stay Python floats. A restart
leaves the stack when its own solve stops. The backtracking runs as a
ladder: in each round every restart still searching evaluates its next
1, then 2, then 4, ... trial steps in one stacked call and takes the
first that passes, the same step as one-at-a-time backtracking in about
log2 as many rounds. Every row is computed on its own, so a restart's
iterates are bit-identical whatever the stack it runs in.
Being a local method matters here: each restart converges to a nearby
stationary point instead of funneling into one global attractor, which
is what keeps the restart population diverse enough to visit the true
structure's basin.
"""
from __future__ import annotations

import math
import time
from dataclasses import asdict, dataclass, field, replace

import numpy as np

from .datagen import Dataset, center
from .objective import (Hyperparams, _require_finite, _require_integer, _Workspace,
                        resolve_epsilons)
from .scm_core import StructuralMatrix

__all__ = [
    "SolverControls",
    "RestartRecord",
    "DiscoveryResult",
    "SolverAbort",
    "row_threshold",
    "slcd",
    "REFERENCE_WEIGHT",
]

FORMAT_VERSION = 1

# The penalty weight on both squared hinges at which candidates are
# compared and J_min is reported.
REFERENCE_WEIGHT = 1000.0


@dataclass(frozen=True)
class SolverControls:
    """Knobs of the relaxed solve and the restart loop.

    max_inner_steps caps SQP iterations per solve call. backtrack_factor
    and armijo_c drive the merit line search; step_init is the initial
    trial step of the constraint-restoration fallback used when the
    quadratic subproblem has no usable solution. grad_tol is the
    stationarity tolerance. seed feeds the restart initializations.
    Candidates are compared at the fixed REFERENCE_WEIGHT.
    """

    max_inner_steps: int = 500
    step_init: float = 1e-2
    backtrack_factor: float = 0.5
    armijo_c: float = 1e-4
    grad_tol: float = 1e-6
    seed: int = 0

    def __post_init__(self):
        _require_finite(step_init=self.step_init, backtrack_factor=self.backtrack_factor,
                        armijo_c=self.armijo_c, grad_tol=self.grad_tol)
        _require_integer(max_inner_steps=self.max_inner_steps, seed=self.seed)
        if self.max_inner_steps < 1:
            raise ValueError("max_inner_steps must be positive")
        if not 0 < self.backtrack_factor < 1:
            raise ValueError("backtrack_factor must be in (0, 1)")
        if not 0 < self.armijo_c < 1:
            raise ValueError("armijo_c must be in (0, 1)")
        if not self.step_init > 0:
            raise ValueError("step_init must be positive")
        if not self.grad_tol > 0:
            raise ValueError("grad_tol must be positive")
        if self.seed < 0:
            raise ValueError("seed must be non-negative")

    def to_json(self) -> dict:
        return asdict(self)

    @classmethod
    def from_json(cls, obj: dict) -> "SolverControls":
        return cls(**obj)


@dataclass(frozen=True)
class RestartRecord:
    """Diagnostics for one restart: its best candidate's score and
    residuals, the running minimum after it, and the work spent.
    Restarts are solved in one stack, so wall_ms is the restart's share
    of the run's time as slcd() apportions it."""

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


def _active_set(M, c):
    """The multipliers (lambda_0, lambda_1) of one closed-form QP step,
    or None when no candidate active set is usable. M is the 3 x 3
    matrix of products J H J^T (rows g, a_0, a_1 of J) and c the two
    constraint values. The candidate active sets are tried in the order
    {}, {0}, {1}, {0, 1}."""
    (gHg, g0, g1), (_, s00, s01), (_, s10, s11) = M
    if not 0.0 <= gHg < math.inf:  # g.H.g < 0 (H lost definiteness) or overflow
        return None
    # residuals of the linearized constraints at the unconstrained step
    r0, r1 = c[0] - g0, c[1] - g1
    tol0, tol1 = max(1.0, abs(c[0])), max(1.0, abs(c[1]))
    if r0 <= 1e-10 * tol0 and r1 <= 1e-10 * tol1:
        return 0.0, 0.0
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
        return None
    # the first candidate that is feasible, else the first usable one
    return next((lams for lams, ok in usable if ok), usable[0][0])


def _qp_solve(H, J, c):
    """For each member i of a stack: min g.p + 0.5 p.B.p subject to
    a_j.p + c[i][j] <= 0 for j = 0, 1, where H[i] = B^-1 and the rows of
    J[i] are g, a_0 and a_1. The products of H with the rows of J are
    formed for the whole stack at once; _active_set picks each member's
    multipliers. Returns the (k, n^2) steps and the list of multiplier
    pairs, None for a member with no usable candidate (its step row is
    then meaningless)."""
    W = J @ H  # rows H g, H a_0, H a_1 (H is symmetric)
    lams = [_active_set(M, ci) for M, ci in zip((J @ W.transpose(0, 2, 1)).tolist(), c)]
    # p = -(H g + lambda_0 H a_0 + lambda_1 H a_1)
    L = np.array([[(-1.0, -l[0], -l[1]) if l else (-1.0, 0.0, 0.0)] for l in lams])
    return (L @ W)[:, 0], lams


def _ladder(alpha: float, beta: float) -> list[float]:
    """The Armijo trial steps alpha, alpha beta, alpha beta^2, ... above 1e-16."""
    steps = []
    while alpha > 1e-16:
        steps.append(alpha)
        alpha *= beta
    return steps


def _line_search(ws: _Workspace, z, P, rows, ladders, nu, phi0, dphi, armijo_c):
    """Armijo backtracking on the l1 merit for several members at once.
    Member rows[i] tries the steps ladders[i] in order and takes the
    first that passes. Trials are evaluated in rounds: a member still
    searching evaluates its next 1, then 2, then 4, ... steps in one
    stacked call, so it accepts the same step as one-at-a-time
    backtracking in about log2 as many rounds. Returns, per member, None
    when no step passed, else (alpha, trial point)."""
    out = [None] * len(rows)
    pending = [i for i in range(len(rows)) if ladders[i]]
    start, width = 0, 1
    while pending:
        trials = [ladders[i][start:start + width] for i in pending]
        take = [rows[i] for i, steps in zip(pending, trials) for _ in steps]
        alphas = [a for steps in trials for a in steps]
        Zt = z.take(take, axis=0) + np.array(alphas)[:, None] * P.take(take, axis=0)
        ft, ct, _ = ws.evaluate(Zt, jac=False)
        ft, ct = ft.tolist(), ct.tolist()
        base, still = 0, []
        for i, steps in zip(pending, trials):
            for t in range(base, base + len(steps)):
                phin = ft[t] + nu[i] * (max(ct[t][0], 0.0) + max(ct[t][1], 0.0))
                if math.isfinite(phin) and phin <= phi0[i] + armijo_c * alphas[t] * dphi[i]:
                    out[i] = (alphas[t], Zt[t])
                    break
            else:
                if start + width < len(ladders[i]):
                    still.append(i)
            base += len(steps)
        pending = still
        start += width
        width *= 2
    return out


def _sqp(ws: _Workspace, D0: np.ndarray, controls: SolverControls) -> tuple[np.ndarray, list[int]]:
    """Local solves of the relaxed problem, one from each matrix of the
    (k, n, n) stack D0, advanced in lockstep. A member leaves the stack
    when its own solve stops, and follows the same path as it would in
    a stack of one. Returns the (k, n, n) final iterates and the number
    of SQP iterations each member consumed."""
    n = ws.n
    nv = n * n
    Z = np.array(D0, dtype=float).reshape(-1, nv)
    iters = [0] * len(Z)
    F, C, J = ws.evaluate(Z)
    F, C = F.tolist(), C.tolist()
    # the members still running, by index into Z, and their state row by row
    idx = [i for i in range(len(Z))
           if math.isfinite(F[i]) and math.isfinite(C[i][0]) and math.isfinite(C[i][1])]
    z, J = Z[idx], J[idx]
    f, c = [F[i] for i in idx], [C[i] for i in idx]
    H = np.tile(np.eye(nv), (len(idx), 1, 1))
    nu = [1.0] * len(idx)
    full_steps = _ladder(1.0, controls.backtrack_factor)
    restore_steps = _ladder(controls.step_init, controls.backtrack_factor)
    for it in range(controls.max_inner_steps):
        if not idx:
            break
        P, lams = _qp_solve(H, J, c)
        reset = [r for r, l in enumerate(lams) if l is None]
        if reset:
            H[reset] = np.eye(nv)
            P[reset], retry = _qp_solve(H[reset], J[reset], [c[r] for r in reset])
            for r, l in zip(reset, retry):
                lams[r] = l
        restoring = [l is None for l in lams]
        viol0 = [max(c0, 0.0) + max(c1, 0.0) for c0, c1 in c]
        stopped = set()
        for r in (r for r in reset if restoring[r]):
            if viol0[r] <= 0.0:
                stopped.add(r)
                continue
            p = -(max(c[r][0], 0.0) * J[r, 1] + max(c[r][1], 0.0) * J[r, 2])
            norm = math.sqrt(float(p @ p))
            if norm < 1e-300:
                stopped.add(r)
                continue
            P[r] = p / norm
            lams[r] = (0.0, 0.0)
        gp = (J[:, 0] * P).sum(axis=1).tolist()
        pn = np.sqrt((P * P).sum(axis=1)).tolist()
        rows, ladders, nus, phi0, dphi = [], [], [], [], []
        for r in range(len(idx)):
            if r in stopped:
                continue
            nu[r] = max(nu[r], 2.0 * max(abs(lams[r][0]), abs(lams[r][1])) + 1.0)
            if pn[r] < controls.grad_tol and viol0[r] <= 0.0:
                continue
            rows.append(r)
            ladders.append(restore_steps if restoring[r] else full_steps)
            nus.append(nu[r])
            phi0.append(f[r] + nu[r] * viol0[r])
            dphi.append(min(gp[r] - nu[r] * viol0[r], -1e-16))
        hits = dict(zip(rows, _line_search(ws, z, P, rows, ladders, nus, phi0, dphi,
                                           controls.armijo_c)))
        # a member stops with its iterate when no step passed, and after a negligible step
        keep = [r for r in rows if hits[r] is not None and hits[r][0] * pn[r] >= 1e-14]
        if len(keep) < len(idx):
            for r in set(range(len(idx))).difference(keep):
                Z[idx[r]] = z[r] if hits.get(r) is None else hits[r][1]
                iters[idx[r]] = it + 1
            if not keep:
                idx = []
                break
            idx, nu, lams, restoring = ([v[r] for r in keep] for v in (idx, nu, lams, restoring))
            z, J, H = z[keep], J[keep], H[keep]
        alpha = [hits[r][0] for r in keep]
        zn = np.array([hits[r][1] for r in keep])
        fn, cn, Jn = ws.evaluate(zn)
        # Damped BFGS on the Lagrangian gradient, applied to H = B^-1.
        # B s comes from the QP's stationarity, B p = -(g + A^T lams);
        # a restoration step was taken with H = B = I.
        L = np.array([[(1.0, *l)] for l in lams])
        gl_old = L @ J
        s_vec = (zn - z)[:, None, :]
        y_vec = L @ Jn
        y_vec -= gl_old
        sg, sy = (s_vec * np.concatenate((gl_old, y_vec), axis=1)).sum(axis=2).T.tolist()
        upd = []
        for r, a in enumerate(alpha):
            sBs = float(s_vec[r, 0] @ s_vec[r, 0]) if restoring[r] else -a * sg[r]
            if sy[r] < 0.2 * sBs:
                theta = 0.8 * sBs / max(sBs - sy[r], 1e-300)
                Bs = s_vec[r, 0] if restoring[r] else -a * gl_old[r, 0]
                y_vec[r, 0] = theta * y_vec[r, 0] + (1.0 - theta) * Bs
                sy[r] = float(s_vec[r, 0] @ y_vec[r, 0])
            if sy[r] > 1e-300:
                upd.append(r)
        if upd:
            # H+ = (I - rho s y^T) H (I - rho y s^T) + rho s s^T
            sel = upd if len(upd) < len(idx) else slice(None)
            s_u, y_u = s_vec[sel], y_vec[sel]
            Hy = y_u @ H[sel]  # (H y)^T, H being symmetric
            rho = [1.0 / sy[r] for r in upd]
            coef = [(0.5 * rh * (1.0 + rh * v), -rh)
                    for rh, v in zip(rho, (y_u * Hy).sum(axis=2)[:, 0].tolist())]
            w = np.array(coef)[:, None, :] @ np.concatenate((s_u, Hy), axis=1)
            T = s_u.transpose(0, 2, 1) * w
            H[sel] += T + T.transpose(0, 2, 1)
        z, f, c, J = zn, fn.tolist(), cn.tolist(), Jn
    for r, i in enumerate(idx):  # these ran out of iterations
        Z[i] = z[r]
        iters[i] = controls.max_inner_steps
    return Z.reshape(-1, n, n), iters


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


def _data_abort(restarts: int, seed: int, why: str) -> SolverAbort:
    """The abort of a run whose data leave nothing to solve: every
    restart recorded as aborted before its first step."""
    records = [RestartRecord(index=r, seed=seed, objective=math.nan, running_min=math.inf,
                             recon_residual=math.nan, cov_residual=math.nan, iterations=0,
                             wall_ms=0.0, aborted=True, message=why) for r in range(restarts)]
    return SolverAbort(f"every restart aborted: {why}", records)


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

    In each round one stacked solve moves all restarts, then each one is
    thresholded and scored. A restart's wall_ms is its own draw and
    scoring time plus, of each round's solve, the share of the SQP
    iterations it ran in that round (an even share when no restart
    iterated), so the restarts' wall_ms add up to the result's wall_ms.
    """
    ds = _as_dataset(data)
    if ds.m < 2:
        raise ValueError("discovery needs at least 2 samples")
    # An inf cell would turn to NaN in centring; checked first, so that
    # no arithmetic runs on non-finite data.
    if not np.isfinite(ds.X).all():
        raise _data_abort(hp.restarts, controls.seed, "the data hold a NaN or infinite value")
    X = (ds if ds.centered else center(ds)).X
    n, m = X.shape
    G = X @ X.T
    Sigma = G / m
    sd = np.diag(Sigma).copy()
    eps = resolve_epsilons(hp, X, Sigma)
    if not np.isfinite(eps).all():
        raise _data_abort(hp.restarts, controls.seed, "the data's second moments overflow")
    del X  # from here on the data enter only through G and Sigma
    hp_res = replace(hp, eps1=eps[0], eps2=eps[1])
    tau_eff = min(hp_res.tau, n)
    ws = _Workspace(G, Sigma, sd, hp_res)

    t_start = t = time.perf_counter()
    R = hp_res.restarts
    wall = [0.0] * R  # seconds charged to each restart
    starts = []
    for r in range(R):
        rng = np.random.default_rng(np.random.SeedSequence(entropy=controls.seed, spawn_key=(r,)))
        starts.append(rng.uniform(-1.0, 1.0, (n, n)))
        now = time.perf_counter()
        wall[r] += now - t
        t = now
    D = np.array(starts)
    iters = [0] * R
    local_j = [math.inf] * R
    local_d: list[np.ndarray | None] = [None] * R
    local_res = [(math.nan, math.nan)] * R
    for _ in range(hp_res.iterations):
        D, its = _sqp(ws, D, controls)
        now = time.perf_counter()
        total = sum(its)
        for r in range(R):
            wall[r] += (now - t) * (its[r] / total if total else 1.0 / R)
        t = now
        for r in range(R):
            iters[r] += its[r]
            D[r] = row_threshold(D[r], tau_eff)
            f, c, _ = ws.evaluate(D[r].reshape(1, -1), jac=False)
            # as objective() at REFERENCE_WEIGHT; np.maximum keeps a NaN
            # residual in the score, where Python's max(0.0, nan) is 0.0
            h = np.maximum(c[0], 0.0)
            j = float(f[0] + REFERENCE_WEIGHT * h[0] * h[0] + REFERENCE_WEIGHT * h[1] * h[1])
            if math.isfinite(j) and j < local_j[r]:
                local_j[r] = j
                local_d[r] = D[r].copy()
                local_res[r] = tuple((c[0] + ws.eps).tolist())
            now = time.perf_counter()
            wall[r] += now - t
            t = now
    total_wall = (t - t_start) * 1000.0

    best_j = math.inf
    best_d: np.ndarray | None = None
    records: list[RestartRecord] = []
    for r in range(R):
        if local_d[r] is None:
            records.append(RestartRecord(
                index=r, seed=controls.seed, objective=math.nan,
                running_min=best_j, recon_residual=math.nan,
                cov_residual=math.nan, iterations=iters[r], wall_ms=wall[r] * 1000.0,
                aborted=True, message="no finite candidate produced",
            ))
            continue
        if local_j[r] < best_j:
            best_j = local_j[r]
            best_d = local_d[r]
        records.append(RestartRecord(
            index=r, seed=controls.seed, objective=local_j[r],
            running_min=best_j, recon_residual=local_res[r][0],
            cov_residual=local_res[r][1], iterations=iters[r], wall_ms=wall[r] * 1000.0,
        ))
    if best_d is None:
        raise SolverAbort("every restart aborted without a finite candidate", records)
    return DiscoveryResult(
        D_opt=best_d, J_min=best_j, restarts=records,
        hp=hp_res, controls=controls, wall_ms=total_wall,
    )
