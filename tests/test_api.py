"""The package's public names: each has a caller outside the tests, so
adding one is a decision this list makes visible."""
from __future__ import annotations

import types

import slcd

PUBLIC_NAMES = [
    "BUILTIN_IDS",
    "DEFAULT_LAMBDA_GRID",
    "DEFAULT_SIGMA_GRID",
    "DEFAULT_THETA",
    "Dataset",
    "DiscoveryResult",
    "Distribution",
    "EdgeSet",
    "Gaussian",
    "Hyperparams",
    "MetricBundle",
    "RestartRecord",
    "ScmSpec",
    "SolverAbort",
    "SolverControls",
    "StructuralMatrix",
    "SweepCell",
    "SweepResult",
    "Uniform",
    "VariableDef",
    "__version__",
    "builtin_spec",
    "center",
    "covariance_error",
    "extract_edges",
    "load_dataset",
    "metric_bundle",
    "precision_recall",
    "reconstruction_error",
    "resolve_epsilons",
    "row_threshold",
    "sample",
    "sample_covariance",
    "save_dataset",
    "slcd",
    "structure_error",
    "sweep",
    "true_edges",
]


def test_public_names_are_pinned() -> None:
    assert sorted(slcd.__all__) == PUBLIC_NAMES
    for name in slcd.__all__:
        getattr(slcd, name)


def test_reference_functions_are_not_exported() -> None:
    for name in ("ObjectiveBreakdown", "gradient", "residuals", "smoothed_rank",
                 "smoothed_trace", "induced_covariance", "numerical_rank",
                 "validate_ground_truth"):
        assert not hasattr(slcd, name), name
    # slcd.objective is the submodule, which still holds objective()
    assert isinstance(slcd.objective, types.ModuleType)
    assert callable(slcd.objective.objective)
    assert not hasattr(slcd.ScmSpec, "analytic_variances")
