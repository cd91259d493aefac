"""Output checks. Each returns a list of failure messages; an empty list
means the output is correct. No check raises on a wrong output, so a
failed check is counted and the run goes on."""
from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from slcd.cli import REPRO_MAX_DEVIATION
from slcd.datagen import Dataset, center
from slcd.objective import Hyperparams, objective

# The solver compares candidates, and reports J_min, at this penalty
# weight on both constraint residuals.
REFERENCE_WEIGHT = 1000.0
J_RTOL = 1e-6
METRIC_RTOL = 1e-9


@dataclass
class Discovery:
    """One estimate and what the benchmark measures and checks on it."""

    label: str
    D: np.ndarray
    J_min: float
    hp: Hyperparams
    wall_ms: float
    scale: float = 1.0  # host-speed correction of the operation that made it
    restart_ms: list[float] = field(default_factory=list)
    iterations: int = 0
    aborted: int = 0
    precision: float = math.nan
    recall: float = math.nan

    @classmethod
    def from_result(cls, label, result, bundle=None, scale=1.0) -> "Discovery":
        return cls(
            label=label, D=np.asarray(result.D_opt), J_min=result.J_min,
            hp=result.hp, wall_ms=result.wall_ms, scale=scale,
            restart_ms=[r.wall_ms for r in result.restarts],
            iterations=sum(r.iterations for r in result.restarts),
            aborted=sum(1 for r in result.restarts if r.aborted),
            precision=bundle.precision if bundle is not None else math.nan,
            recall=bundle.recall if bundle is not None else math.nan,
        )

    @property
    def restarts_done(self) -> int:
        return len(self.restart_ms) - self.aborted


def objective_failures(disc: Discovery, data: Dataset) -> list[str]:
    """J_min is finite and equals the public objective() of D on the
    centered data at the reference weight."""
    if not math.isfinite(disc.J_min):
        return [f"{disc.label}: J_min is not finite ({disc.J_min})"]
    X = center(data).X
    Sigma = (X @ X.T) / X.shape[1]
    sd = np.diag(Sigma).copy()
    j = objective(disc.D, X, Sigma, sd, disc.hp, REFERENCE_WEIGHT, REFERENCE_WEIGHT).total
    if not math.isclose(j, disc.J_min, rel_tol=J_RTOL):
        return [f"{disc.label}: J_min {disc.J_min!r} but objective() gives {j!r}"]
    return []


def max_deviation(D, D_true) -> float:
    return float(np.max(np.abs(np.asarray(D) - np.asarray(D_true))))


def recovered(disc: Discovery, D_true) -> bool:
    """The repro gate: every true link found, no spurious one, and no
    entry further from the truth than the CLI's repro tolerance."""
    return (disc.precision == 1.0 and disc.recall == 1.0
            and max_deviation(disc.D, D_true) <= REPRO_MAX_DEVIATION)


def gate_failures(disc: Discovery, D_true) -> list[str]:
    if recovered(disc, D_true):
        return []
    return [f"{disc.label}: not recovered (precision {disc.precision:g}, recall "
            f"{disc.recall:g}, max deviation {max_deviation(disc.D, D_true):.3g} "
            f"> {REPRO_MAX_DEVIATION:g} allowed)"]


def exit_failures(step: str, code: int, stderr: str) -> list[str]:
    if code == 0:
        return []
    return [f"{step}: exit code {code}: {stderr.strip()[-300:]}"]


def bundle_failures(label: str, reported: dict, bundle) -> list[str]:
    """A metrics JSON written by the program agrees with metric_bundle."""
    out = []
    for key, want in bundle.to_json().items():
        got = reported.get(key)
        if isinstance(want, bool) or isinstance(want, int):
            same = got == want
        else:
            same = isinstance(got, (int, float)) and math.isclose(
                got, want, rel_tol=METRIC_RTOL, abs_tol=1e-300)
        if not same:
            out.append(f"{label}: {key} is {got!r}, metric_bundle gives {want!r}")
    return out
