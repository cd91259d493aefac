"""Multi-restart recovery of the structural matrix.

The data are centred and reduced once to their Gram matrix G = X X^T
and covariance Sigma = G / m; nothing after that touches X. Each
restart starts from a random dense matrix and alternates two moves:
solve the relaxed problem (minimize the rank/trace surrogate subject to
the reconstruction and covariance residuals staying within their
slacks), then keep only the tau largest-magnitude entries per row. The
sparse candidate after each threshold step is scored with the penalized
objective at the fixed REFERENCE_WEIGHT, evaluated on the same
Gram-matrix core (objective._Workspace) as the solve. Each restart keeps
its best candidate, and the best of those wins, the lowest restart
index among equal scores.

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
iterates are bit-identical whatever the stack it runs in. The rounds of
slcd() work on the same stack: after each solve, one row_threshold call
thresholds all restarts and one evaluation scores them, and a restart's
wall_ms is its share of the run's time by SQP iterations.
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

from .datagen import _as_dataset, center
from .objective import Hyperparams, _require_integer, _Workspace, resolve_epsilons
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

# Constants of the SQP: the Armijo sufficient-decrease fraction (the
# textbook 1e-4 of Nocedal & Wright, Numerical Optimization, sec. 3.1)
# and backtracking factor of the merit line search, the first trial
# step of the constraint-restoration fallback used when the quadratic
# subproblem has no usable solution, and the stationarity tolerance on
# the length of a feasible iterate's step.
_ARMIJO_C = 1e-4
_BACKTRACK = 0.5
_RESTORE_STEP = 1e-2
_GRAD_TOL = 1e-6


@dataclass(frozen=True)
class SolverControls:
    """Knobs of the restart loop: max_inner_steps caps SQP iterations
    per solve call, and seed feeds the restart initializations. The
    SQP's line-search and stopping constants are fixed (see _ARMIJO_C
    and its neighbours), and candidates are compared at the fixed
    REFERENCE_WEIGHT.
    """

    max_inner_steps: int = 500
    seed: int = 0

    def __post_init__(self):
        _require_integer(max_inner_steps=self.max_inner_steps, seed=self.seed)
        if self.max_inner_steps < 1:
            raise ValueError("max_inner_steps must be positive")
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
    Restarts are solved in one stack, so wall_ms is the run's wall_ms
    times the restart's share of all SQP iterations (an even share when
    no restart iterated); the restarts' wall_ms add up to the run's."""

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


def _ladder(alpha: float, beta: float) -> tuple[float, ...]:
    """The Armijo trial steps alpha, alpha beta, alpha beta^2, ... above 1e-16."""
    steps = []
    while alpha > 1e-16:
        steps.append(alpha)
        alpha *= beta
    return tuple(steps)


# The trial steps of a QP step and of a restoration step.
_FULL_STEPS = _ladder(1.0, _BACKTRACK)
_RESTORE_STEPS = _ladder(_RESTORE_STEP, _BACKTRACK)


def _line_search(ws: _Workspace, z, P, rows, ladders, nu, phi0, dphi):
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
                if math.isfinite(phin) and phin <= phi0[i] + _ARMIJO_C * alphas[t] * dphi[i]:
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
            if pn[r] < _GRAD_TOL and viol0[r] <= 0.0:
                continue
            rows.append(r)
            ladders.append(_RESTORE_STEPS if restoring[r] else _FULL_STEPS)
            nus.append(nu[r])
            phi0.append(f[r] + nu[r] * viol0[r])
            dphi.append(min(gp[r] - nu[r] * viol0[r], -1e-16))
        hits = dict(zip(rows, _line_search(ws, z, P, rows, ladders, nus, phi0, dphi)))
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
    """Keep the tau largest-magnitude entries of each row of a matrix, or
    of every matrix in a (..., n, n) stack, zeroing the rest. Ties keep
    the lowest column index (stable sort)."""
    D = np.asarray(D, dtype=float)
    if tau < 1:
        raise ValueError(f"tau must be at least 1, got {tau}")
    keep = np.argsort(-np.abs(D), axis=-1, kind="stable")[..., :tau]
    out = np.zeros_like(D)
    np.put_along_axis(out, keep, np.take_along_axis(D, keep, axis=-1), axis=-1)
    return out


def _records(seed: int, best_j, best_res, iters, wall, why: str) -> list[RestartRecord]:
    """The restart log from per-restart arrays: the best score best_j,
    its (recon, cov) residuals best_res, the SQP iterations and the wall
    time in ms, with the running minimum of best_j. A restart whose
    best_j is inf produced no finite candidate and is recorded as
    aborted with message why."""
    running = np.minimum.accumulate(best_j).tolist()
    return [RestartRecord(index=r, seed=seed, objective=j if j < math.inf else math.nan,
                          running_min=run, recon_residual=res[0], cov_residual=res[1],
                          iterations=it, wall_ms=w, aborted=j == math.inf,
                          message=why if j == math.inf else "")
            for r, (j, run, res, it, w) in enumerate(zip(
                best_j.tolist(), running, best_res.tolist(), iters.tolist(), wall.tolist()))]


def slcd(data, hp: Hyperparams = Hyperparams(),
         controls: SolverControls = SolverControls()) -> DiscoveryResult:
    """Recover a structural matrix from data.

    Runs hp.restarts random initializations; each alternates
    hp.iterations rounds of relaxed solve and row thresholding. Every
    post-threshold candidate is scored at the reference penalty weight
    and the global best is returned. Deterministic for fixed data, hp,
    and controls.seed: restart r draws its start from
    SeedSequence(entropy=controls.seed, spawn_key=(r,)).

    In each round one stacked solve moves all restarts, one stacked call
    thresholds them and one more scores them. A restart's wall_ms is the
    run's wall_ms times its share of all SQP iterations (an even share
    when no restart iterated), so the restarts' wall_ms add up to the
    result's wall_ms.
    """
    ds = _as_dataset(data)
    if ds.m < 2:
        raise ValueError("discovery needs at least 2 samples")
    n, m = ds.X.shape
    R = hp.restarts
    # per restart: best score (inf until a finite candidate), its matrix
    # and residuals, and the SQP iterations run
    best_j, best_d = np.full(R, math.inf), np.zeros((R, n, n))
    best_res, iters = np.full((R, 2), math.nan), np.zeros(R, dtype=int)
    # An inf cell would turn to NaN in centring; checked first, so that
    # no arithmetic runs on non-finite data.
    why = "" if np.isfinite(ds.X).all() else "the data hold a NaN or infinite value"
    if not why:
        X = center(ds).X
        G = X @ X.T
        Sigma = G / m
        eps = resolve_epsilons(hp, X, Sigma)
        if not np.isfinite(eps).all():
            why = "the data's second moments overflow"
        del X  # from here on the data enter only through G and Sigma
    if why:
        records = _records(controls.seed, best_j, best_res, iters, np.zeros(R), why)
        raise SolverAbort(f"every restart aborted: {why}", records)
    hp_res = replace(hp, eps1=eps[0], eps2=eps[1])
    tau_eff = min(hp_res.tau, n)
    ws = _Workspace(G, Sigma, np.diag(Sigma).copy(), hp_res)

    t_start = time.perf_counter()
    seeds = np.random.SeedSequence(entropy=controls.seed).spawn(R)
    D = np.array([np.random.default_rng(s).uniform(-1.0, 1.0, (n, n)) for s in seeds])
    for _ in range(hp_res.iterations):
        D, its = _sqp(ws, D, controls)
        iters += its
        D = row_threshold(D, tau_eff)
        f, c, _ = ws.evaluate(D.reshape(R, -1), jac=False)
        # as objective() at REFERENCE_WEIGHT; np.maximum keeps a NaN
        # residual in the score, where Python's max(0.0, nan) is 0.0
        h = np.maximum(c, 0.0)
        j = f + REFERENCE_WEIGHT * h[:, 0] * h[:, 0] + REFERENCE_WEIGHT * h[:, 1] * h[:, 1]
        better = np.isfinite(j) & (j < best_j)
        best_j[better], best_d[better], best_res[better] = j[better], D[better], c[better] + ws.eps
    wall_ms = (time.perf_counter() - t_start) * 1000.0

    total = iters.sum()
    wall = wall_ms * iters / total if total else np.full(R, wall_ms / R)
    records = _records(controls.seed, best_j, best_res, iters, wall, "no finite candidate produced")
    win = int(np.argmin(best_j))  # the first of equal scores
    if best_j[win] == math.inf:
        raise SolverAbort("every restart aborted without a finite candidate", records)
    return DiscoveryResult(
        D_opt=best_d[win].copy(), J_min=float(best_j[win]), restarts=records,
        hp=hp_res, controls=controls, wall_ms=wall_ms,
    )
