"""Hop-count path statistics for random connection models.

Simulates planar random connection models conditioned on two anchor nodes,
counts k-hop simple paths between them exactly, and reproduces the counts'
moments with closed forms and quadrature, including the decomposition of
the 3-hop variance into ordered path-pair intersection classes and
factorial-moment brackets on the path-existence probability.
"""
from .analytics import (
    AnalyticMoments,
    QuadratureSpec,
    mean_khop_numeric,
    mean_khop_rayleigh,
    variance_terms_numeric,
    variance_threehop_rayleigh,
)
from .errors import (
    QuadratureConfigError,
    ReplicationError,
    UnsupportedClosedFormError,
    ValidationError,
)
from .experiments import (
    ExperimentConfig,
    MarginCheck,
    MomentReport,
    preset_config,
    run_experiment,
    run_replications,
    validate_margin,
)
from .model import (
    ConnectionSpec,
    ModelParams,
    Point,
    Region,
    default_margin,
    region_for,
)
from .moments import (
    ExistenceBracket,
    PathCountSamples,
    bonferroni_bound_order2,
    empirical_factorial_moment,
    quadratic_existence_bound,
    truncated_zero_probability,
)
from .paths import (
    PairStructureCounts,
    classify_pair_structures,
    iter_khop_paths,
    khop_paths,
)
from .sampler import (
    GraphRealization,
    realize_graph,
    sample_conditioned_ppp,
    sample_realization,
)

__version__ = "0.1.0"

__all__ = [
    "AnalyticMoments",
    "ConnectionSpec",
    "ExistenceBracket",
    "ExperimentConfig",
    "GraphRealization",
    "MarginCheck",
    "ModelParams",
    "MomentReport",
    "PairStructureCounts",
    "PathCountSamples",
    "Point",
    "QuadratureConfigError",
    "QuadratureSpec",
    "Region",
    "ReplicationError",
    "UnsupportedClosedFormError",
    "ValidationError",
    "bonferroni_bound_order2",
    "classify_pair_structures",
    "default_margin",
    "empirical_factorial_moment",
    "iter_khop_paths",
    "khop_paths",
    "mean_khop_numeric",
    "mean_khop_rayleigh",
    "preset_config",
    "quadratic_existence_bound",
    "realize_graph",
    "region_for",
    "run_experiment",
    "run_replications",
    "sample_conditioned_ppp",
    "sample_realization",
    "truncated_zero_probability",
    "validate_margin",
    "variance_terms_numeric",
    "variance_threehop_rayleigh",
]
