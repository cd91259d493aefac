"""Sparse linear causal discovery.

Generate data from linear structural causal models, recover the
structural matrix by minimizing a smoothed rank plus trace surrogate
under reconstruction and induced-covariance constraints, and evaluate
the recovered links.
"""

from .datagen import (
    BUILTIN_IDS,
    Dataset,
    builtin_spec,
    center,
    load_dataset,
    sample,
    sample_covariance,
    save_dataset,
)
from .evaluation import (
    DEFAULT_LAMBDA_GRID,
    DEFAULT_SIGMA_GRID,
    DEFAULT_THETA,
    MetricBundle,
    SweepCell,
    SweepResult,
    covariance_error,
    extract_edges,
    metric_bundle,
    precision_recall,
    reconstruction_error,
    structure_error,
    sweep,
)
from .objective import (
    Hyperparams,
    resolve_epsilons,
)
from .scm_core import (
    Distribution,
    EdgeSet,
    Gaussian,
    ScmSpec,
    StructuralMatrix,
    Uniform,
    VariableDef,
    true_edges,
)
from .solver import (
    DiscoveryResult,
    RestartRecord,
    SolverAbort,
    SolverControls,
    slcd,
)

__version__ = "0.1.0"

__all__ = [
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
    "builtin_spec",
    "center",
    "covariance_error",
    "extract_edges",
    "load_dataset",
    "metric_bundle",
    "precision_recall",
    "reconstruction_error",
    "resolve_epsilons",
    "sample",
    "sample_covariance",
    "save_dataset",
    "slcd",
    "structure_error",
    "sweep",
    "true_edges",
    "__version__",
]
