"""Directed information-flow analysis for multivariate time series.

Estimates the rate (nats per unit time) at which each component of a
multivariate series contributes to the entropy evolution of every other
component, attaches asymptotic and surrogate significance, detects self
loops, and assembles significance-filtered weighted causal graphs. Closed
forms for stable linear stochastic systems (via a Lyapunov solve) provide
exact ground truth, and a seeded Euler-Maruyama simulator generates
validation data with planted causal structure.
"""

from .analytic import (
    LinearSDE,
    StationaryCovariance,
    analytic_flow,
    load_system,
    stationary_covariance,
    transform_other_components,
)
from .covariance import CovarianceSet, build_covariance_set
from .errors import (
    ConditioningWarning,
    DataError,
    DegenerateComponentError,
    DegenerateInferenceWarning,
    DegenerateNormalizerError,
    InfoflowError,
    InstabilityError,
    InsufficientDataError,
    InvalidPairError,
    InvalidStrideError,
    InvalidTransformError,
    NonStationaryError,
    NumericalError,
    ResolutionError,
    SingularCovarianceError,
    UsageError,
    ValidationError,
)
from .estimator import (
    FlowEstimate,
    FlowMatrix,
    estimate_flow_matrix,
)
from .graph import (
    CausalGraph,
    GraphEdge,
    SelfLoop,
    export_graph,
    import_graph,
    reconstruct_graph,
)
from .panel import (
    TimeSeriesPanel,
    forward_difference,
    ingest_csv,
    write_csv,
)
from .significance import (
    asymptotic_inference,
    surrogate_flow_samples,
    surrogate_significance,
)
from .simulate import (
    BenchmarkResult,
    SimulationSpec,
    benchmark,
    euler_maruyama,
    regime_switch_panel,
    simulate_system,
)
from .window import WindowedFlowSeries, windowed_flows

__version__ = "0.1.0"

__all__ = [
    "BenchmarkResult",
    "CausalGraph",
    "ConditioningWarning",
    "CovarianceSet",
    "DataError",
    "DegenerateComponentError",
    "DegenerateInferenceWarning",
    "DegenerateNormalizerError",
    "FlowEstimate",
    "FlowMatrix",
    "GraphEdge",
    "InfoflowError",
    "InstabilityError",
    "InsufficientDataError",
    "InvalidPairError",
    "InvalidStrideError",
    "InvalidTransformError",
    "LinearSDE",
    "NonStationaryError",
    "NumericalError",
    "ResolutionError",
    "SelfLoop",
    "SimulationSpec",
    "SingularCovarianceError",
    "StationaryCovariance",
    "TimeSeriesPanel",
    "UsageError",
    "ValidationError",
    "WindowedFlowSeries",
    "analytic_flow",
    "asymptotic_inference",
    "benchmark",
    "build_covariance_set",
    "estimate_flow_matrix",
    "euler_maruyama",
    "export_graph",
    "forward_difference",
    "import_graph",
    "ingest_csv",
    "load_system",
    "reconstruct_graph",
    "regime_switch_panel",
    "simulate_system",
    "stationary_covariance",
    "surrogate_flow_samples",
    "surrogate_significance",
    "transform_other_components",
    "windowed_flows",
    "write_csv",
]
