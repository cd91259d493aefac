"""Deterministic sampling of datasets from SCM specifications.

Five built-in benchmark models are provided (ids 1 through 5), covering
3 to 7 variables with 1 to 3 independent sources each. Sampling uses
NumPy's default PCG64 generator seeded through SeedSequence, consuming
the stream variable-major so that adding variables to a spec never
perturbs the draws of earlier variables.
"""
from __future__ import annotations

from dataclasses import dataclass

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
    """An n-by-m sample matrix (columns are samples)."""

    X: np.ndarray

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
    into one."""
    if isinstance(data, Dataset):
        return data
    return Dataset(X=np.asarray(data, dtype=float))


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
    _require_integer(m=m, seed=seed)
    if m < 1:
        raise ValueError(f"sample count must be at least 1, got {m}")
    if seed < 0:
        raise ValueError(f"seed must be non-negative, got {seed}")
    rng = np.random.default_rng(np.random.SeedSequence(seed))
    X = np.zeros((spec.n, m))
    for i, v in enumerate(spec.variables):
        if v.role == "independent":
            X[i] = v.dist.draw(rng, m)
        else:
            for j, c in v.terms:
                X[i] += c * X[j]
    X.flags.writeable = False
    return Dataset(X=X)


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
    return Dataset(X=X)


def sample_covariance(ds: Dataset) -> tuple[np.ndarray, np.ndarray]:
    """Sample covariance Sigma = (1/m) Xc Xc^T of the data centred as
    center() centres them, and its diagonal. The normalizer is 1/m, not
    1/(m-1)."""
    if ds.m < 2:
        raise ValueError("covariance needs at least 2 samples")
    Xc = _centred(ds.X)
    Sigma = (Xc @ Xc.T) / ds.m
    return Sigma, np.diag(Sigma).copy()


def save_dataset(ds: Dataset, csv_path: str) -> None:
    """Write the dataset as CSV: one sample per line, n columns, 17
    significant digits. The bytes are those of
    np.savetxt(fh, X.T, fmt="%.17g", delimiter=","); the file is
    written in pieces on up to one process per CPU (see _csvio)."""
    from . import _csvio

    _csvio.write(ds.X, csv_path)


def load_dataset(csv_path: str) -> Dataset:
    """Read a dataset written by save_dataset. Empty lines are skipped;
    any other line must hold the same number of numeric cells, so a
    line of only spaces or a '#' comment is malformed: the ValueError
    names the first malformed line. The file is read in pieces on up to
    one process per CPU (see _csvio)."""
    from . import _csvio

    return Dataset(X=_csvio.read(csv_path))
