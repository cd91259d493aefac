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


def _require_finite(**values) -> None:
    """Reject anything but a finite real number within the float range
    (bool included), with a ValueError that names the field."""
    for name, v in values.items():
        try:
            ok = not isinstance(v, bool) and isinstance(v, numbers.Real) and math.isfinite(v)
        except OverflowError:
            ok = False
        if not ok:
            raise ValueError(f"{name} must be a finite number, got {v!r}")


def _require_integer(**values) -> None:
    """Reject anything but an integer (bool included), with a ValueError
    that names the field."""
    for name, v in values.items():
        if isinstance(v, bool) or not isinstance(v, numbers.Integral):
            raise ValueError(f"{name} must be an integer, got {v!r}")


# Passes over the samples take them this many at a time, so that their
# temporaries hold n * _BLOCK floats (3.7 MB at n = 7) whatever m is.
_BLOCK = 65536


def _column_blocks(X: np.ndarray):
    """Views of the consecutive blocks of at most _BLOCK columns of X."""
    return (X[:, j:j + _BLOCK] for j in range(0, X.shape[1], _BLOCK))


@dataclass(frozen=True)
class Uniform:
    """Uniform distribution on the open interval (a, b)."""

    a: float
    b: float

    def __post_init__(self):
        _require_finite(a=self.a, b=self.b)
        object.__setattr__(self, "a", float(self.a))
        object.__setattr__(self, "b", float(self.b))
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
        _require_finite(mean=self.mean, variance=self.variance)
        object.__setattr__(self, "mean", float(self.mean))
        object.__setattr__(self, "variance", float(self.variance))
        if not self.variance > 0:
            raise ValueError(f"gaussian requires variance > 0, got {self.variance}")

    def draw(self, rng: np.random.Generator, m: int) -> np.ndarray:
        return rng.normal(self.mean, math.sqrt(self.variance), m)

    def to_json(self) -> dict:
        return {"kind": "gaussian", "mean": self.mean, "variance": self.variance}


Distribution = Uniform | Gaussian


def distribution_from_json(obj: dict) -> Distribution:
    if not isinstance(obj, dict):
        raise ValueError(f"a distribution must be a JSON object, got {obj!r}")
    kind = obj.get("kind")
    params = {"uniform": ("a", "b"), "gaussian": ("mean", "variance")}.get(kind)
    if params is None:
        raise ValueError(f"unknown distribution kind: {kind!r}")
    return (Uniform if kind == "uniform" else Gaussian)(*(obj[p] for p in params))


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
            for j, c in self.terms:
                _require_integer(parent=j)
                _require_finite(coefficient=c)
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
        role = obj.get("role") if isinstance(obj, dict) else None
        if role == "independent":
            return cls.independent(distribution_from_json(obj["dist"]))
        if role == "dependent":
            return cls.dependent(obj["terms"])
        raise ValueError(f"unknown variable role: {role!r}")


@dataclass(frozen=True)
class ScmSpec:
    """Declarative description of a linear SCM.

    Every dependent variable must combine independent variables only,
    which keeps the graph acyclic and lets one generation pass suffice.
    """

    name: str
    variables: tuple[VariableDef, ...]

    def __post_init__(self):
        if not isinstance(self.name, str):
            raise ValueError(f"name must be a string, got {self.name!r}")
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
            name=obj["name"],
            variables=tuple(VariableDef.from_json(v) for v in obj["variables"]),
        )


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
        n, rows = obj["n"], obj["rows"]
        _require_integer(n=n)
        for i, row in enumerate(rows):
            _require_finite(**{f"rows[{i}][{j}]": v for j, v in enumerate(row)})
        m = cls(np.array(rows, dtype=float))
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


def _links(mask: np.ndarray) -> EdgeSet:
    """Links (parent j, child i) for the off-diagonal True entries (i, j)
    of a square boolean mask."""
    child, parent = np.nonzero(mask)
    off = child != parent
    return EdgeSet(zip(parent[off].tolist(), child[off].tolist()))


def _validate_ground_truth(D) -> list[str]:
    """Check that D has the shape of a ground-truth structural matrix.

    Rows must partition into independent rows (exactly one nonzero, the
    value 1 on the diagonal) and dependent rows (zero diagonal, every
    nonzero in the column of an independent row). Every row then lies in
    the span of the independent rows, so the rank of D is the number of
    independent rows. Returns a list of human-readable violations; an
    empty list means valid.
    """
    a = _matrix_entries(D)
    if not np.isfinite(a).all():
        return ["entries must be finite"]
    unit = (np.count_nonzero(a, axis=1) == 1) & (np.diag(a) == 1.0)
    violations: list[str] = []
    for i in np.flatnonzero(~unit):
        if a[i, i] != 0.0:
            violations.append(
                f"row {i}: diagonal entry {a[i, i]} is neither 0 (dependent row) "
                f"nor the sole nonzero 1 (independent row)"
            )
            continue
        violations += [
            f"row {i}: dependent row references column {j}, which is not an independent row"
            for j in np.flatnonzero(a[i]) if not unit[j]
        ]
    return violations


def true_edges(D) -> EdgeSet:
    """Edges (parent, child) from the off-diagonal nonzeros of a
    ground-truth matrix. Rejects matrices that fail validation."""
    a = _matrix_entries(D)
    problems = _validate_ground_truth(a)
    if problems:
        raise ValueError("not a valid ground-truth matrix: " + "; ".join(problems))
    return _links(a != 0.0)
