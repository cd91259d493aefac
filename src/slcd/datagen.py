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
from dataclasses import dataclass, replace

import numpy as np

from .scm_core import Gaussian, ScmSpec, Uniform, VariableDef, _require_integer

__all__ = [
    "Dataset",
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

# center() leaves a dataset as it is when no row mean exceeds this
# fraction of the row's largest magnitude. A relative mean delta moves
# the second moments by about delta**2, so below 1e-8 the shift is under
# one rounding error, while center()'s own output sits near 1e-17.
_CENTRED_TOL = 1e-8

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
    """An n-by-m sample matrix (columns are samples) plus provenance: the
    name of the spec it was drawn from, a string, and its integer seed."""

    X: np.ndarray
    spec_name: str
    seed: int

    def __post_init__(self):
        # Force one memory layout: BLAS kernels round differently on
        # C- vs F-ordered operands, and that ulp noise can steer the
        # solver into a different basin on identical values. A plain,
        # read-only, C-ordered float64 array on memory of its own is kept
        # as it is, so that the arrays this module builds are not copied;
        # any other X is copied, and the copy is made read-only.
        a = self.X
        if not (type(a) is np.ndarray and a.dtype == np.float64
                and a.flags.c_contiguous and not a.flags.writeable and _own_memory(a)):
            a = np.array(a, dtype=float, order="C")
            a.flags.writeable = False
        if a.ndim != 2:
            raise ValueError(f"data must be a 2-d matrix, got shape {a.shape}")
        object.__setattr__(self, "X", a)
        if not isinstance(self.spec_name, str):
            raise ValueError(f"spec_name must be a string, got {self.spec_name!r}")
        _require_integer(seed=self.seed)

    @property
    def n(self) -> int:
        return self.X.shape[0]

    @property
    def m(self) -> int:
        return self.X.shape[1]


def _own_memory(a: np.ndarray) -> bool:
    """Whether a's memory is not another array's: a owns it, or a views
    an mmap.mmap, as the matrix load_dataset() reads into does. A view
    of another array may change with it."""
    if a.flags.owndata:
        return True
    base = a.base
    while isinstance(base, np.ndarray):
        base = base.base
    if not isinstance(base, memoryview):
        return False
    import mmap

    return isinstance(base.obj, mmap.mmap)


def _as_dataset(data) -> Dataset:
    """data itself when it is a Dataset, else a raw n-by-m array wrapped
    into one without provenance."""
    if isinstance(data, Dataset):
        return data
    return Dataset(X=np.asarray(data, dtype=float), spec_name="", seed=0)


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
    X.flags.writeable = False
    return Dataset(X=X, spec_name=spec.name, seed=int(seed))


def _centred(X: np.ndarray) -> np.ndarray:
    """X less its row means, or X itself when every row mean is at most
    _CENTRED_TOL times the row's largest magnitude, as after centring."""
    mean = X.mean(axis=1, keepdims=True)
    # row by row, so that the first uncentred row ends the scan; a row's
    # largest magnitude comes from its extremes, without an |X| copy
    for row, mu in zip(X, mean[:, 0]):
        if not abs(mu) <= _CENTRED_TOL * max(row.max(), -row.min()):
            return X - mean
    return X


def center(ds: Dataset) -> Dataset:
    """Remove the per-variable sample mean. Idempotent: ds itself is
    returned when every row mean is at most 1e-8 times the row's largest
    magnitude, as it is after center(); other data are centred."""
    if ds.m < 2:
        raise ValueError("centering needs at least 2 samples")
    X = _centred(ds.X)
    if X is ds.X:
        return ds
    X.flags.writeable = False   # the Dataset keeps it without a copy
    return replace(ds, X=X)


def sample_covariance(ds: Dataset) -> tuple[np.ndarray, np.ndarray]:
    """Sample covariance Sigma = (1/m) Xc Xc^T of the data centred as
    center() centres them, and its diagonal. The normalizer is 1/m, not
    1/(m-1)."""
    if ds.m < 2:
        raise ValueError("covariance needs at least 2 samples")
    Xc = _centred(ds.X)
    Sigma = (Xc @ Xc.T) / ds.m
    return Sigma, np.diag(Sigma).copy()


def _sidecar_path(csv_path: str) -> str:
    root, _ = os.path.splitext(csv_path)
    return root + ".json"


def save_dataset(ds: Dataset, csv_path: str) -> tuple[str, str]:
    """Write the dataset as CSV (one sample per line, n columns, 17
    significant digits) plus a JSON sidecar with the provenance fields.
    Returns the two paths written. The bytes are those of
    np.savetxt(fh, X.T, fmt="%.17g", delimiter=","); the file is
    written in pieces on up to one process per CPU (see _csvio)."""
    from . import _csvio

    _csvio.write(ds.X, csv_path)
    sidecar = _sidecar_path(csv_path)
    meta = {
        "format_version": FORMAT_VERSION,
        "spec_name": ds.spec_name,
        "seed": ds.seed,
        "m": ds.m,
    }
    with open(sidecar, "w", encoding="utf-8") as fh:
        fh.write(json.dumps(meta, indent=2, sort_keys=True) + "\n")
    return csv_path, sidecar


def load_dataset(csv_path: str) -> Dataset:
    """Read a dataset written by save_dataset. Empty lines are skipped;
    any other line must hold the same number of numeric cells, so a
    line of only spaces or a '#' comment is malformed: the ValueError
    names the first malformed line. The file is read in pieces on up to
    one process per CPU (see _csvio). The sidecar is optional; without
    it the provenance fields fall back to neutral values; a sidecar that
    is not valid JSON, is not a JSON object, whose seed is not an
    integer or whose spec_name is not a string is a ValueError that
    names it. A "centered" value in the sidecar, which earlier versions
    wrote, is ignored: data read from a file are never taken as centred,
    so slcd() centres them."""
    from . import _csvio

    X = _csvio.read(csv_path)
    meta = {"spec_name": "", "seed": 0}
    sidecar = _sidecar_path(csv_path)
    if os.path.exists(sidecar):
        with open(sidecar, "r", encoding="utf-8") as fh:
            try:
                loaded = json.load(fh)
            except ValueError as exc:
                raise ValueError(f"{sidecar}: {exc}") from None
        if not isinstance(loaded, dict):
            raise ValueError(f"{sidecar}: sidecar must be a JSON object")
        meta.update({k: loaded[k] for k in ("spec_name", "seed") if k in loaded})
    try:
        return Dataset(X=X, **meta)
    except ValueError as exc:   # X is a matrix, so the sidecar's spec_name or seed
        raise ValueError(f"{sidecar}: {exc}") from None
