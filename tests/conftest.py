"""Shared fixtures: small benchmark samples, the non-uniqueness
fixture model, a hypothesis profile sized for CI, a chosen usable CPU
count for the worker pools, a check that no test leaves a child
process behind, and the peak memory a call allocates."""
from __future__ import annotations

import sys
from unittest import mock

import numpy as np
import pytest
from hypothesis import HealthCheck, settings

from slcd import (
    Dataset,
    Hyperparams,
    ScmSpec,
    SolverControls,
    Uniform,
    VariableDef,
    builtin_spec,
    sample,
)
from slcd import _fork

settings.register_profile(
    "ci", max_examples=40, deadline=None,
    suppress_health_check=[HealthCheck.too_slow])
settings.load_profile("ci")


@pytest.fixture(autouse=True)
def no_child_process_left():
    """Fail a test that leaves a child process running: the CSV codec,
    slcd() and sweep() start processes only while a call runs. Nothing
    can have started one before multiprocessing is loaded."""
    yield
    if "multiprocessing" in sys.modules:
        left = sys.modules["multiprocessing"].active_children()
        if left:
            pytest.fail(f"child processes left running: {left}")


@pytest.fixture()
def usable_cpus():
    """usable_cpus(n) sets the usable CPU count of the worker pools to n
    for the rest of the test and returns a spy on _fork._pool, its call
    count reset. At the end no ResourceWarning was issued
    (no_child_process_left checks that no pool process is left)."""
    import gc
    import warnings

    with warnings.catch_warnings(record=True) as caught, \
            mock.patch.object(_fork, "_usable_cpus") as cpus, \
            mock.patch.object(_fork, "_pool", wraps=_fork._pool) as pool:
        warnings.simplefilter("always", ResourceWarning)

        def set_cpus(n: int):
            cpus.return_value = n
            pool.reset_mock()
            return pool

        yield set_cpus
        gc.collect()
    assert [w.message for w in caught if issubclass(w.category, ResourceWarning)] == []


@pytest.fixture(scope="session")
def truth_matrices() -> dict[int, np.ndarray]:
    """Ground-truth structural matrices of the five built-in models."""
    return {i: builtin_spec(i).structural_matrix().entries for i in range(1, 6)}


@pytest.fixture(scope="session")
def ds2_data() -> Dataset:
    return sample(builtin_spec(2), 1000, 0)


@pytest.fixture(scope="session")
def ds3_data() -> Dataset:
    return sample(builtin_spec(3), 1000, 0)


@pytest.fixture(scope="session")
def pair_sum_spec() -> ScmSpec:
    """Two independent variables and their sum: the smallest model where
    X = DX alone cannot identify the structure (the identity matrix and
    an aliased matrix both reconstruct the data exactly)."""
    return ScmSpec(name="pair_sum", variables=(
        VariableDef.independent(Uniform(-2.5, 2.5)),
        VariableDef.independent(Uniform(-2.5, 2.5)),
        VariableDef.dependent([(0, 1.0), (1, 1.0)]),
    ))


@pytest.fixture(scope="session")
def pair_sum_data(pair_sum_spec) -> Dataset:
    return sample(pair_sum_spec, 1000, 0)


def peak_bytes(fn):
    """fn()'s result and the peak of the memory, in bytes, that tracemalloc
    traces while it runs (numpy's array buffers included)."""
    import tracemalloc

    tracemalloc.start()
    try:
        out = fn()
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    return out, peak


def without_wall(records) -> list[dict]:
    """Restart records as JSON, NaN as None, without wall_ms: what two
    runs of the same solve must agree on."""
    return [{k: v for k, v in r.to_json().items() if k != "wall_ms"} for r in records]


# An alternative matrix with zero reconstruction residual on pair_sum
# data: row 1 rewrites x1 as x3 - x2.
PAIR_SUM_ALIAS = np.array([
    [0.0, -1.0, 1.0],
    [0.0, 1.0, 0.0],
    [0.0, 0.0, 1.0],
])


@pytest.fixture()
def fast_hp() -> Hyperparams:
    """Reduced restart budget for solver tests that do not gate recovery."""
    return Hyperparams(restarts=4)


@pytest.fixture()
def fast_controls() -> SolverControls:
    return SolverControls(seed=0)
