"""Distributed consensus+innovation parameter estimation with online
gain learning, and the Monte Carlo harness that measures its agreement,
consistency, and asymptotic-efficiency behavior against a centralized
benchmark."""

from .errors import (
    AdleError,
    InvalidExponent,
    NotGloballyObservable,
    NotMeanConnected,
    NotPositiveDefinite,
    ParseError,
    ScheduleViolation,
    TrialDiverged,
    ValidationError,
)
from .estimator import NetworkState, initial_network_state
from .harness import (
    AcceptanceThresholds,
    ExperimentReport,
    StatResult,
    TrialMetrics,
    checkpoint_grid,
    estimate_scaled_covariance,
    evaluate_acceptance,
    fit_decay_slope,
    run_experiment,
    run_trial,
    trajectory,
    write_report,
)
from .model import (
    CentralizedSummary,
    ObservationModel,
    centralized_estimate,
    sample_observation,
    validate_observation_model,
)
from .network import (
    Graph,
    TopologyModel,
    complete_graph,
    cycle_graph,
    fiedler_value,
    laplacian_of,
    mean_laplacian,
    path_graph,
    sample_laplacian,
    validate_mean_connectivity,
)
from .schedule import (
    WeightSchedule,
    deterministic_recursion_oracle,
    recursion_trace,
    validate_schedule,
)

__version__ = "0.1.0"
