"""Domain types for linear structural causal models.

A structural matrix D encodes a linear SCM: row i holds the coefficients
that produce variable x_i, so the data satisfies x = D x. Independent
variables carry a single 1 on the diagonal of their row; dependent
variables carry their parents' coefficients and a zero diagonal. The
induced covariance D diag(var) D^T ties the matrix to the second-order
statistics of the data it generates.

Indices are 0-based everywhere, including the JSON wire format.
"""
from __future__ import annotations

import json
import math
import numbers
from dataclasses import dataclass, field

import numpy as np

__all__ = [
    "Uniform",
    "Gaussian",
    "Distribution",
    "VariableDef",
    "ScmSpec",
    "StructuralMatrix",
    "EdgeSet",
    "true_edges",
]


@dataclass(frozen=True)
class Uniform:
    """Uniform distribution on the open interval (a, b)."""

    a: float
    b: float

    def __post_init__(self):
        if not (math.isfinite(self.a) and math.isfinite(self.b)):
            raise ValueError("uniform bounds must be finite")
        if not self.a < self.b:
            raise ValueError(f"uniform requires a < b, got a={self.a}, b={self.b}")

    @property
    def variance(self) -> float:
        return (self.b - self.a) ** 2 / 12.0

    def draw(self, rng: np.random.Generator, m: int) -> np.ndarray:
        return rng.uniform(self.a, self.b, m)

    def to_json(self) -> dict:
        return {"kind": "uniform", "a": self.a, "b": self.b}


@dataclass(frozen=True)
class Gaussian:
    """Normal distribution with the given mean and variance."""

    mean: float
    variance: float

    def __post_init__(self):
        if not (math.isfinite(self.mean) and math.isfinite(self.variance)):
            raise ValueError("gaussian parameters must be finite")
        if not self.variance > 0:
            raise ValueError(f"gaussian requires variance > 0, got {self.variance}")

    def draw(self, rng: np.random.Generator, m: int) -> np.ndarray:
        return rng.normal(self.mean, math.sqrt(self.variance), m)

    def to_json(self) -> dict:
        return {"kind": "gaussian", "mean": self.mean, "variance": self.variance}


Distribution = Uniform | Gaussian


def distribution_from_json(obj: dict) -> Distribution:
    kind = obj.get("kind")
    if kind == "uniform":
        return Uniform(float(obj["a"]), float(obj["b"]))
    if kind == "gaussian":
        return Gaussian(float(obj["mean"]), float(obj["variance"]))
    raise ValueError(f"unknown distribution kind: {kind!r}")


@dataclass(frozen=True)
class VariableDef:
    """One variable of an SCM: independent with a distribution, or a
    sparse linear combination of earlier independent variables."""

    role: str
    dist: Distribution | None = None
    terms: tuple[tuple[int, float], ...] | None = None

    def __post_init__(self):
        if self.role == "independent":
            if self.dist is None or self.terms is not None:
                raise ValueError("independent variable needs a distribution and no terms")
        elif self.role == "dependent":
            if self.terms is None or self.dist is not None:
                raise ValueError("dependent variable needs terms and no distribution")
            terms = tuple((int(j), float(c)) for j, c in self.terms)
            if not terms:
                raise ValueError("dependent variable needs at least one parent term")
            parents = [j for j, _ in terms]
            if len(set(parents)) != len(parents):
                raise ValueError(f"duplicate parent indices in terms: {parents}")
            if any(c == 0.0 for _, c in terms):
                raise ValueError("zero coefficients are not allowed in terms")
            object.__setattr__(self, "terms", terms)
        else:
            raise ValueError(f"role must be 'independent' or 'dependent', got {self.role!r}")

    @classmethod
    def independent(cls, dist: Distribution) -> "VariableDef":
        return cls(role="independent", dist=dist)

    @classmethod
    def dependent(cls, terms) -> "VariableDef":
        return cls(role="dependent", terms=tuple(terms))

    def to_json(self) -> dict:
        if self.role == "independent":
            return {"role": "independent", "dist": self.dist.to_json()}
        return {"role": "dependent", "terms": [[j, c] for j, c in self.terms]}

    @classmethod
    def from_json(cls, obj: dict) -> "VariableDef":
        if obj.get("role") == "independent":
            return cls.independent(distribution_from_json(obj["dist"]))
        if obj.get("role") == "dependent":
            return cls.dependent(tuple((int(j), float(c)) for j, c in obj["terms"]))
        raise ValueError(f"unknown variable role: {obj.get('role')!r}")


@dataclass(frozen=True)
class ScmSpec:
    """Declarative description of a linear SCM.

    Every dependent variable must combine independent variables only,
    which keeps the graph acyclic and lets one generation pass suffice.
    """

    name: str
    variables: tuple[VariableDef, ...]

    def __post_init__(self):
        object.__setattr__(self, "variables", tuple(self.variables))
        if not self.variables:
            raise ValueError("spec needs at least one variable")
        independents = {i for i, v in enumerate(self.variables) if v.role == "independent"}
        for i, v in enumerate(self.variables):
            if v.role != "dependent":
                continue
            for j, _ in v.terms:
                if not 0 <= j < len(self.variables):
                    raise ValueError(f"variable {i}: parent index {j} out of range")
                if j == i:
                    raise ValueError(f"variable {i}: refers to itself")
                if j not in independents:
                    raise ValueError(
                        f"variable {i}: parent {j} is not an independent variable"
                    )

    @property
    def n(self) -> int:
        return len(self.variables)

    def structural_matrix(self) -> "StructuralMatrix":
        """Ground-truth D: diagonal 1 for independents, coefficients for dependents."""
        D = np.zeros((self.n, self.n))
        for i, v in enumerate(self.variables):
            if v.role == "independent":
                D[i, i] = 1.0
            else:
                for j, c in v.terms:
                    D[i, j] = c
        return StructuralMatrix(D)

    def to_json(self) -> dict:
        return {"name": self.name, "variables": [v.to_json() for v in self.variables]}

    @classmethod
    def from_json(cls, obj: dict) -> "ScmSpec":
        return cls(
            name=str(obj["name"]),
            variables=tuple(VariableDef.from_json(v) for v in obj["variables"]),
        )

    @classmethod
    def from_json_file(cls, path) -> "ScmSpec":
        with open(path, "r", encoding="utf-8") as fh:
            return cls.from_json(json.load(fh))


@dataclass(frozen=True, eq=False)
class StructuralMatrix:
    """Square real matrix D where entry (i, j) is the coefficient of x_j
    in the equation producing x_i."""

    entries: np.ndarray

    def __post_init__(self):
        a = np.array(self.entries, dtype=float)
        if a.ndim != 2 or a.shape[0] != a.shape[1]:
            raise ValueError(f"structural matrix must be square, got shape {a.shape}")
        if not np.all(np.isfinite(a)):
            raise ValueError("structural matrix entries must be finite")
        a.flags.writeable = False
        object.__setattr__(self, "entries", a)

    @property
    def n(self) -> int:
        return self.entries.shape[0]

    def to_json(self) -> dict:
        return {"n": self.n, "rows": self.entries.tolist()}

    @classmethod
    def from_json(cls, obj: dict) -> "StructuralMatrix":
        n = obj["n"]
        if isinstance(n, bool) or not isinstance(n, numbers.Integral):
            raise ValueError(f"n must be an integer, got {n!r}")
        m = cls(np.array(obj["rows"], dtype=float))
        if m.n != n:
            raise ValueError(f"declared n={n} does not match {m.n} rows")
        return m


@dataclass(frozen=True)
class EdgeSet:
    """Directed links (parent index, child index) with no self-loops."""

    pairs: frozenset = field(default_factory=frozenset)

    def __init__(self, pairs=()):
        cleaned = frozenset((int(j), int(i)) for j, i in pairs)
        for j, i in cleaned:
            if j == i:
                raise ValueError(f"self-loop ({j}, {i}) is not a valid edge")
        object.__setattr__(self, "pairs", cleaned)

    def __iter__(self):
        return iter(self.pairs)

    def __len__(self) -> int:
        return len(self.pairs)


def _matrix_entries(D) -> np.ndarray:
    """Accept a StructuralMatrix or a plain square array."""
    if isinstance(D, StructuralMatrix):
        return D.entries
    a = np.asarray(D, dtype=float)
    if a.ndim != 2 or a.shape[0] != a.shape[1]:
        raise ValueError(f"expected a square matrix, got shape {a.shape}")
    return a


def _numerical_rank(D, rel_tol: float = 1e-8) -> int:
    """Count of singular values above rel_tol times the largest one."""
    a = _matrix_entries(D)
    s = np.linalg.svd(a, compute_uv=False)
    if s.size == 0 or s[0] == 0.0:
        return 0
    return int(np.sum(s > rel_tol * s[0]))


def _validate_ground_truth(D, tau: int) -> list[str]:
    """Check that D has the shape of a ground-truth structural matrix.

    Rows must partition into independent rows (exactly one nonzero, the
    value 1 on the diagonal) and dependent rows (zero diagonal, at most
    tau nonzeros, every nonzero in the column of an independent row).
    The matrix rank must equal the number of independent rows. Returns a
    list of human-readable violations; an empty list means valid.
    """
    a = _matrix_entries(D)
    n = a.shape[0]
    violations: list[str] = []

    independent_rows = set()
    for i in range(n):
        row = a[i]
        nz = np.flatnonzero(row)
        if len(nz) == 1 and nz[0] == i and row[i] == 1.0:
            independent_rows.add(i)

    for i in range(n):
        if i in independent_rows:
            continue
        row = a[i]
        if row[i] != 0.0:
            violations.append(
                f"row {i}: diagonal entry {row[i]} is neither 0 (dependent row) "
                f"nor the sole nonzero 1 (independent row)"
            )
            continue
        nz = np.flatnonzero(row)
        if len(nz) > tau:
            violations.append(
                f"row {i}: dependent row has {len(nz)} nonzero entries, exceeds tau={tau}"
            )
        for j in nz:
            if j not in independent_rows:
                violations.append(
                    f"row {i}: dependent row references column {j}, "
                    f"which is not an independent row"
                )

    rank = _numerical_rank(a)
    if rank != len(independent_rows):
        violations.append(
            f"rank {rank} does not equal the independent-row count {len(independent_rows)}"
        )
    return violations


def true_edges(D) -> EdgeSet:
    """Edges (parent, child) from the off-diagonal nonzeros of a
    ground-truth matrix. Rejects matrices that fail validation."""
    a = _matrix_entries(D)
    problems = _validate_ground_truth(a, tau=a.shape[0])
    if problems:
        raise ValueError("not a valid ground-truth matrix: " + "; ".join(problems))
    n = a.shape[0]
    return EdgeSet(
        (j, i) for i in range(n) for j in range(n) if i != j and a[i, j] != 0.0
    )
