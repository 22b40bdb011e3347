"""MDP-based cloud elasticity decisions, quantitative queries, and a
desk-scale policy-comparison harness."""

from .errors import (
    ConfigurationError,
    DataFormatError,
    ElastimdpError,
    InstantiationError,
    NoDataError,
    QueryEvaluationError,
    QueryParseError,
    SolverError,
)
from .logs import LogStore, MeasurementRecord, read_records_csv, write_records_csv
from .model import (
    Action,
    ActionKind,
    MdpModel,
    MdpState,
    ModelConfig,
    Variant,
    build_model,
    validate_model,
)
from .policies import (
    MdpPolicy,
    PolicyKind,
    PostProcessConfig,
    QTable,
    REConfig,
    RLConfig,
    RLPolicy,
    ReactivePolicy,
    apply_benefit_threshold,
    instantiate_model,
    make_policy,
    re_decide,
    rl_decide,
    rl_update,
)
from .queries import parse_query
from .rewards import (
    ClusterSummary,
    ClusteringConfig,
    UtilityConfig,
    UtilityKind,
    cluster_behavior,
    cluster_cells,
    utility_eval,
)
from .solver import (
    PolicyDecision,
    ReachabilityQuery,
    best_move,
    brute_force_oracle,
    brute_force_reachability,
    decide,
    reachability_probability,
)
from .emulator import (
    ExperimentTrace,
    LoadProfile,
    LoadVariation,
    ScheduleConfig,
    SyntheticModelParams,
    emulate_state,
    gen_load,
    gen_synthetic_dataset,
    run_episode,
)
from .harness import (
    ComparisonResult,
    ExperimentConfig,
    compute_metrics,
    parse_config,
    run_comparison,
)

__version__ = "0.1.0"
