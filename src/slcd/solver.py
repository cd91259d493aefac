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
the largest multiplier. When no active set is usable, H is reset to the
identity and the QP solved again; a restart whose QP still has no
usable active set stops with its iterate, as one does when no trial
step passes.

All restarts are solved together: one SQP call advances a (k, n, n)
stack of iterates in lockstep, with one stacked SVD per evaluation and
stacked products for the QP and the BFGS update, while the per-restart
scalars (step, merit weight, stop tests) stay Python floats. The
backtracking runs in windows: in each round every restart still
searching evaluates its next few trial steps in one stacked call and
takes the first that passes, the same step as one-at-a-time
backtracking. A restart's first window reaches one step past the step
it accepted in its previous iteration (alpha = 1 and 1/2 at the start
of a solve), and each later window is twice the one before: a search
that accepts a step no more than one halving below its last ends in one
round. Every row is computed on its own, so a restart's iterates are
bit-identical whatever the stack it runs in.
Restarts share nothing until the final comparison, so no round waits
for another restart's. slcd() splits the restarts into contiguous
blocks, one per process that _fork._runner gives it, and each process
carries its block through every round on one stack (_restarts): when a
restart's solve stops, its iterate is thresholded and scored at once,
and the candidate starts the restart's next solve, which joins the
same stack while the others run on. The calling process joins the
blocks' best candidates in restart order. A restart's wall_ms is its
share of the run's time by SQP iterations.
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

from . import _fork
from .datagen import _as_dataset, center
from .objective import Hyperparams, _Workspace, resolve_epsilons
from .scm_core import StructuralMatrix, _require_integer

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
# and backtracking factor of the merit line search, and the
# stationarity tolerance on the length of a feasible iterate's step.
_ARMIJO_C = 1e-4
_BACKTRACK = 0.5
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


@dataclass(frozen=True)
class RestartRecord:
    """Diagnostics for one restart: its best candidate's score and
    residuals, the running minimum after it, and the work spent.
    A restart runs all its rounds on a stack it shares with others, so
    its own time is not measured: wall_ms is the run's wall_ms times the
    restart's share of all SQP iterations (an even share when no restart
    iterated); the restarts' wall_ms add up to the run's."""

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
        """The fields in order, a NaN or infinite float as None."""
        return {k: None if isinstance(v, float) and not math.isfinite(v) else v
                for k, v in asdict(self).items()}


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


# The trial steps of the line search.
_STEPS = _ladder(1.0, _BACKTRACK)


def _line_search(ws: _Workspace, z, P, rows, widths, nu, phi0, dphi):
    """Armijo backtracking on the l1 merit for several members at once.
    Member rows[i] tries the steps _STEPS in order and takes the first
    that passes. Trials are evaluated in rounds: in one stacked
    call, each member still searching evaluates its next widths[i]
    steps, and its width doubles for the next round. It thus accepts
    the same step as one-at-a-time backtracking, in one round when its
    first window covers that step and in about log2 as many rounds when
    not. Returns, per member, None when no step passed, else (alpha,
    trial point, index of alpha in _STEPS)."""
    out = [None] * len(rows)
    start, width = [0] * len(rows), list(widths)
    pending = list(range(len(rows)))
    while pending:
        trials = [_STEPS[start[i]:start[i] + width[i]] for i in pending]
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
                    out[i] = (alphas[t], Zt[t], start[i] + t - base)
                    break
            else:
                start[i] += width[i]
                width[i] *= 2
                if start[i] < len(_STEPS):
                    still.append(i)
            base += len(steps)
        pending = still
    return out


def _sqp(ws: _Workspace, D0: np.ndarray, controls: SolverControls, finish) -> None:
    """Local solves of the relaxed problem, one from each matrix of the
    (k, n, n) stack D0, advanced in lockstep. A member stops with its
    iterate when its QP has no usable active set even at H = I, when no
    trial step passes, or when it is feasible and its QP step is shorter
    than _GRAD_TOL; with the accepted point after a step shorter than
    1e-14 or its controls.max_inner_steps-th iteration; and with its
    start, after no iteration, where f or c is not finite. It then leaves
    the stack, and follows the same path as it would in a stack of one.
    The members that stop in one iteration go to finish(members, Z,
    iters) as their indices into D0 (an int array), (k', n^2) final
    iterates and SQP iterations. finish returns the indices and (k'',
    n^2) starts of the members that solve again, which join the stack
    before the next iteration, each with H = I, nu = 1 and its own
    iteration count. Returns when the stack is empty."""
    nv = ws.n * ws.n
    members, starts = np.arange(len(D0)), np.array(D0, dtype=float).reshape(-1, nv)
    # the stack row by row: the member's index into D0, its iterations,
    # f and c at its iterate, merit weight and the index in _STEPS of its
    # last accepted step; and its iterate, Jacobian and H, stacked
    idx, its, f, c, nu, last = [], [], [], [], [], []
    z, J, H = np.empty((0, nv)), np.empty((0, 3, nv)), np.empty((0, nv, nv))
    while True:
        while len(members):
            F, C, Jn = ws.evaluate(starts)
            ok = np.isfinite(F) & np.isfinite(C).all(axis=1)
            k = int(ok.sum())
            idx, f, c = idx + members[ok].tolist(), f + F[ok].tolist(), c + C[ok].tolist()
            its, nu, last = its + [0] * k, nu + [1.0] * k, last + [0] * k
            z, J = np.concatenate((z, starts[ok])), np.concatenate((J, Jn[ok]))
            H = np.concatenate((H, np.tile(np.eye(nv), (k, 1, 1))))
            members, starts = (finish(members[~ok], starts[~ok], [0] * (len(ok) - k))
                               if k < len(ok) else (members[:0], starts[:0]))
        if not idx:
            return
        P, lams = _qp_solve(H, J, c)
        reset = [r for r, l in enumerate(lams) if l is None]
        if reset:
            H[reset] = np.eye(nv)
            P[reset], retry = _qp_solve(H[reset], J[reset], [c[r] for r in reset])
            for r, l in zip(reset, retry):
                lams[r] = l
        viol0 = [max(c0, 0.0) + max(c1, 0.0) for c0, c1 in c]
        gp = (J[:, 0] * P).sum(axis=1).tolist()
        pn = np.sqrt((P * P).sum(axis=1)).tolist()
        rows, widths, nus, phi0, dphi = [], [], [], [], []
        for r, l in enumerate(lams):
            if l is None:
                continue
            nu[r] = max(nu[r], 2.0 * max(abs(l[0]), abs(l[1])) + 1.0)
            if pn[r] < _GRAD_TOL and viol0[r] <= 0.0:
                continue
            rows.append(r)
            # the first round reaches one step past the last accepted one
            widths.append(last[r] + 2)
            nus.append(nu[r])
            phi0.append(f[r] + nu[r] * viol0[r])
            dphi.append(min(gp[r] - nu[r] * viol0[r], -1e-16))
        hits = dict(zip(rows, _line_search(ws, z, P, rows, widths, nus, phi0, dphi)))
        its = [t + 1 for t in its]
        # a member stops with its iterate when it has no QP step or no
        # step passed, and with the accepted point after a negligible
        # step or its last iteration
        keep = [r for r in rows if hits[r] is not None and hits[r][0] * pn[r] >= 1e-14
                and its[r] < controls.max_inner_steps]
        if len(keep) < len(idx):
            stop = sorted(set(range(len(idx))).difference(keep))
            members, starts = finish(np.array([idx[r] for r in stop]),
                                     np.array([z[r] if hits.get(r) is None else hits[r][1]
                                               for r in stop]), [its[r] for r in stop])
            idx, its, f, c, nu, lams, last = (
                [v[r] for r in keep] for v in (idx, its, f, c, nu, lams, last))
            z, J, H = z[keep], J[keep], H[keep]
            if not keep:
                continue
        alpha = [hits[r][0] for r in keep]
        last = [hits[r][2] for r in keep]
        zn = np.array([hits[r][1] for r in keep])
        fn, cn, Jn = ws.evaluate(zn)
        # Damped BFGS on the Lagrangian gradient, applied to H = B^-1.
        # B s comes from the QP's stationarity, B p = -(g + A^T lams).
        L = np.array([[(1.0, *l)] for l in lams])
        gl_old = L @ J
        s_vec = (zn - z)[:, None, :]
        y_vec = L @ Jn
        y_vec -= gl_old
        sg, sy = (s_vec * np.concatenate((gl_old, y_vec), axis=1)).sum(axis=2).T.tolist()
        upd = []
        for r, a in enumerate(alpha):
            sBs = -a * sg[r]
            if sy[r] < 0.2 * sBs:
                theta = 0.8 * sBs / max(sBs - sy[r], 1e-300)
                y_vec[r, 0] = theta * y_vec[r, 0] + (1.0 - theta) * (-a * gl_old[r, 0])
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


def _threshold(D: np.ndarray, tau: int) -> np.ndarray:
    """row_threshold on a float array, unchecked. The solver's workers
    call this, not the public name: a forked child inherits whatever
    the calling process has bound to solver.row_threshold, such as a
    tracer's wrapper, and must not run it."""
    keep = np.argsort(-np.abs(D), axis=-1, kind="stable")[..., :tau]
    out = np.zeros_like(D)
    np.put_along_axis(out, keep, np.take_along_axis(D, keep, axis=-1), axis=-1)
    return out


def row_threshold(D, tau: int) -> np.ndarray:
    """Keep the tau largest-magnitude entries of each row of a matrix, or
    of every matrix in a (..., n, n) stack, zeroing the rest. Ties keep
    the lowest column index (stable sort)."""
    D = np.asarray(D, dtype=float)
    if tau < 1:
        raise ValueError(f"tau must be at least 1, got {tau}")
    return _threshold(D, tau)


def _score(ws: _Workspace, D: np.ndarray):
    """The scores of a (k, n, n) stack of candidates, as objective() at
    REFERENCE_WEIGHT, and their (k, 2) (recon, cov) residuals."""
    f, c, _ = ws.evaluate(D.reshape(len(D), -1), jac=False)
    # np.maximum keeps a NaN residual in the score, where Python's
    # max(0.0, nan) is 0.0
    h = np.maximum(c, 0.0)
    j = f + REFERENCE_WEIGHT * h[:, 0] * h[:, 0] + REFERENCE_WEIGHT * h[:, 1] * h[:, 1]
    return j, c + ws.eps


def _restarts(ws: _Workspace, D0: np.ndarray, tau: int, rounds: int, controls: SolverControls):
    """One block of restarts from the (k, n, n) starts D0, each through
    its rounds of relaxed solve and row thresholding on one lockstep
    stack (see _sqp): a restart whose solve stops is thresholded and
    scored at once and, with rounds left, solves again from that
    candidate while the others run on. Returns, per restart, its best
    score (inf while no candidate was finite), that candidate, its
    (recon, cov) residuals and the SQP iterations it ran."""
    k = len(D0)
    best_j, best_d = np.full(k, math.inf), np.zeros(D0.shape)
    best_res, iters = np.full((k, 2), math.nan), np.zeros(k, dtype=int)
    done = np.zeros(k, dtype=int)  # rounds finished

    def finish(members, Z, its):
        D = _threshold(Z.reshape(-1, ws.n, ws.n), tau)
        j, res = _score(ws, D)
        better = np.isfinite(j) & (j < best_j[members])
        won = members[better]
        best_j[won], best_d[won], best_res[won] = j[better], D[better], res[better]
        iters[members] += its
        done[members] += 1
        go = done[members] < rounds
        return members[go], D[go].reshape(-1, ws.n * ws.n)

    _sqp(ws, D0, controls, finish)
    return best_j, best_d, best_res, iters


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

    The restarts are split into contiguous blocks, one per process that
    _fork._runner gives (one per usable CPU, up to one per restart; see
    _fork._workers for where no pool starts), and each process carries
    its block through every round (see _restarts): a restart's next
    round starts as soon as its solve stops, with no wait for the
    others. This process then joins the blocks in restart order. The
    result is the same bits on any number of processes. A worker that
    dies fails the call with concurrent.futures.process.BrokenProcessPool.
    A restart's wall_ms is the run's wall_ms times its share of all SQP
    iterations (an even share when no restart iterated), so the
    restarts' wall_ms add up to the result's wall_ms.
    """
    ds = _as_dataset(data)
    if ds.m < 2:
        raise ValueError("discovery needs at least 2 samples")
    n, m = ds.X.shape
    R = hp.restarts
    # An inf cell would turn to NaN in centring; checked first, so that
    # no arithmetic runs on non-finite data.
    why = "" if np.isfinite(ds.X).all() else "the data hold a NaN or infinite value"
    if not why:
        X = center(ds).X
        with np.errstate(over="ignore", invalid="ignore"):  # checked on G and eps below
            G = X @ X.T
            Sigma = G / m
            eps = resolve_epsilons(hp, X, Sigma)
        # explicit slacks pass through resolve_epsilons whatever G holds
        if not (np.isfinite(G).all() and np.isfinite(eps).all()):
            why = "the data's second moments overflow"
        del X  # from here on the data enter only through G and Sigma
    if why:
        records = _records(controls.seed, np.full(R, math.inf), np.full((R, 2), math.nan),
                           np.zeros(R, dtype=int), np.zeros(R), why)
        raise SolverAbort(f"every restart aborted: {why}", records)
    hp_res = replace(hp, eps1=eps[0], eps2=eps[1])
    ws = _Workspace(G, Sigma, np.diag(Sigma).copy(), hp_res)

    t_start = time.perf_counter()
    seeds = np.random.SeedSequence(entropy=controls.seed).spawn(R)
    D = np.array([np.random.default_rng(s).uniform(-1.0, 1.0, (n, n)) for s in seeds])
    with _fork._runner(R, ws, blas=True) as (workers, run):
        blocks = [(D0, min(hp_res.tau, n), hp_res.iterations, controls)
                  for D0 in np.array_split(D, workers)]
        best_j, best_d, best_res, iters = (np.concatenate(p) for p in zip(*run(_restarts, blocks)))
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
