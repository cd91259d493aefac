"""Deterministic sampling of datasets from SCM specifications.

Five built-in benchmark models are provided (ids 1 through 5), covering
3 to 7 variables with 1 to 3 independent sources each. Sampling uses
NumPy's default PCG64 generator seeded through SeedSequence, consuming
the stream variable-major so that adding variables to a spec never
perturbs the draws of earlier variables.
"""
from __future__ import annotations

import json
import os
import warnings
from dataclasses import dataclass, replace

import numpy as np

from .scm_core import (
    Distribution,
    Gaussian,
    ScmSpec,
    Uniform,
    VariableDef,
)

__all__ = [
    "Dataset",
    "Distribution",
    "Uniform",
    "Gaussian",
    "builtin_spec",
    "BUILTIN_IDS",
    "sample",
    "center",
    "sample_covariance",
    "save_dataset",
    "load_dataset",
]

FORMAT_VERSION = 1

BUILTIN_IDS = (1, 2, 3, 4, 5)

_U = Uniform(-2.5, 2.5)
_G = Gaussian(0.0, 4.0)

_BUILTIN_SPECS: dict[int, ScmSpec] = {
    1: ScmSpec(
        name="dataset1",
        variables=(
            VariableDef.independent(_U),
            VariableDef.dependent([(0, 2.0)]),
            VariableDef.dependent([(0, 0.4)]),
        ),
    ),
    2: ScmSpec(
        name="dataset2",
        variables=(
            VariableDef.independent(_U),
            VariableDef.independent(_U),
            VariableDef.dependent([(0, 0.3)]),
            VariableDef.dependent([(0, 1.0), (1, 2.0)]),
        ),
    ),
    3: ScmSpec(
        name="dataset3",
        variables=(
            VariableDef.independent(_U),
            VariableDef.independent(_U),
            VariableDef.dependent([(0, 1.0), (1, 3.0)]),
            VariableDef.dependent([(1, 2.0)]),
            VariableDef.dependent([(0, 2.0), (1, 1.0)]),
        ),
    ),
    4: ScmSpec(
        name="dataset4",
        variables=(
            VariableDef.independent(_U),
            VariableDef.independent(_U),
            VariableDef.independent(_G),
            VariableDef.dependent([(0, 1.0), (2, 0.3)]),
            VariableDef.dependent([(0, 2.0), (1, 3.0)]),
            VariableDef.dependent([(1, 2.0), (2, 0.5)]),
        ),
    ),
    5: ScmSpec(
        name="dataset5",
        variables=(
            VariableDef.independent(_U),
            VariableDef.independent(_U),
            VariableDef.independent(_G),
            VariableDef.dependent([(0, 1.0), (2, 0.5)]),
            VariableDef.dependent([(1, 1.0), (2, 2.0)]),
            VariableDef.dependent([(0, 1.0), (2, 3.0)]),
            VariableDef.dependent([(1, 1.0), (2, 1.0)]),
        ),
    ),
}


@dataclass(frozen=True)
class Dataset:
    """An n-by-m sample matrix (columns are samples) plus provenance."""

    X: np.ndarray
    spec_name: str
    seed: int
    centered: bool = False

    def __post_init__(self):
        # Force one memory layout: BLAS kernels round differently on
        # C- vs F-ordered operands, and that ulp noise can steer the
        # solver into a different basin on identical values.
        a = np.array(self.X, dtype=float, order="C")
        if a.ndim != 2:
            raise ValueError(f"data must be a 2-d matrix, got shape {a.shape}")
        a.flags.writeable = False
        object.__setattr__(self, "X", a)

    @property
    def n(self) -> int:
        return self.X.shape[0]

    @property
    def m(self) -> int:
        return self.X.shape[1]


def builtin_spec(dataset_id: int) -> ScmSpec:
    """One of the five built-in benchmark SCM specifications."""
    try:
        return _BUILTIN_SPECS[int(dataset_id)]
    except (KeyError, ValueError, TypeError):
        raise ValueError(
            f"dataset id must be one of {BUILTIN_IDS}, got {dataset_id!r}"
        ) from None


def sample(spec: ScmSpec, m: int, seed: int) -> Dataset:
    """Draw m samples from the spec. Independent variables are drawn
    i.i.d. from their distributions; dependents are computed exactly.
    Identical (spec, m, seed) always yields bit-identical data."""
    if m < 1:
        raise ValueError(f"sample count must be at least 1, got {m}")
    rng = np.random.default_rng(np.random.SeedSequence(int(seed)))
    X = np.zeros((spec.n, m))
    for i, v in enumerate(spec.variables):
        if v.role == "independent":
            X[i] = v.dist.draw(rng, m)
        else:
            for j, c in v.terms:
                X[i] += c * X[j]
    return Dataset(X=X, spec_name=spec.name, seed=int(seed), centered=False)


def center(ds: Dataset) -> Dataset:
    """Remove the per-variable sample mean. Idempotent: an
    already-centered dataset is returned unchanged."""
    if ds.m < 2:
        raise ValueError("centering needs at least 2 samples")
    if ds.centered:
        return ds
    Xc = ds.X - ds.X.mean(axis=1, keepdims=True)
    return replace(ds, X=Xc, centered=True)


def sample_covariance(ds: Dataset) -> tuple[np.ndarray, np.ndarray]:
    """Sample covariance Sigma = (1/m) Xc Xc^T of the centered data and
    its diagonal. The normalizer is 1/m, not 1/(m-1)."""
    if ds.m < 2:
        raise ValueError("covariance needs at least 2 samples")
    Xc = ds.X - ds.X.mean(axis=1, keepdims=True)
    Sigma = (Xc @ Xc.T) / ds.m
    return Sigma, np.diag(Sigma).copy()


def _sidecar_path(csv_path: str) -> str:
    root, _ = os.path.splitext(csv_path)
    return root + ".json"


def save_dataset(ds: Dataset, csv_path: str) -> tuple[str, str]:
    """Write the dataset as CSV (one sample per line, n columns, 17
    significant digits) plus a JSON sidecar with the provenance fields.
    Returns the two paths written."""
    sidecar = _sidecar_path(csv_path)
    with open(csv_path, "w", encoding="utf-8") as fh:
        np.savetxt(fh, ds.X.T, fmt="%.17g", delimiter=",")
    meta = {
        "format_version": FORMAT_VERSION,
        "spec_name": ds.spec_name,
        "seed": ds.seed,
        "m": ds.m,
        "centered": ds.centered,
    }
    with open(sidecar, "w", encoding="utf-8") as fh:
        fh.write(json.dumps(meta, indent=2, sort_keys=True) + "\n")
    return csv_path, sidecar


def load_dataset(csv_path: str) -> Dataset:
    """Read a dataset written by save_dataset. Empty lines are skipped;
    any other line must hold the same number of numeric cells, so a
    line of only spaces or a '#' comment is malformed (ValueError). The
    sidecar is optional; without it the provenance fields fall back to
    neutral values."""
    with open(csv_path, "r", encoding="utf-8") as fh, warnings.catch_warnings():
        # an empty input is reported below as a ValueError, not a warning
        warnings.filterwarnings("ignore", "loadtxt: input contained no data", UserWarning)
        X = np.loadtxt(fh, delimiter=",", comments=None, ndmin=2).T
    if X.size == 0:
        raise ValueError(f"no data rows in {csv_path}")
    meta = {"spec_name": "", "seed": 0, "centered": False}
    sidecar = _sidecar_path(csv_path)
    if os.path.exists(sidecar):
        with open(sidecar, "r", encoding="utf-8") as fh:
            loaded = json.load(fh)
        meta.update({k: loaded[k] for k in ("spec_name", "seed", "centered") if k in loaded})
    return Dataset(
        X=X,
        spec_name=str(meta["spec_name"]),
        seed=int(meta["seed"]),
        centered=bool(meta["centered"]),
    )
