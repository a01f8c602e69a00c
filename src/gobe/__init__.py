"""Covariate-adjusted treatment effect estimation and auditing for A/B tests.

The library fits a per-arm regression, imputes each unit's unobserved
counterfactual with the other arm's model, and averages imputed differences
to estimate the average treatment effect. On top of the estimator it ships
the evaluation machinery used to decide whether a model is worth adopting:
variance-reduction accounting against the difference-in-means baseline, an
A/A re-randomization audit of conditional bias and interval calibration,
a spurious-covariate stress protocol, and power-based experiment duration
recommendations.
"""

__version__ = "0.1.0"

from .aa import AaRun, BucketMetrics, bucket_metrics, pooled_coverage, run_aa
from .dataset import (
    CsvSchema,
    ExperimentData,
    SyntheticConfig,
    filter_by_day,
    generate,
    load_csv,
    restrict_to_arm,
    write_csv,
)
from .errors import ConvergenceError, ParseError, SchemaError, ValidationError
from .estimator import (
    AteEstimate,
    estimate,
    fit_arm_models,
    impute,
    variance_reduction,
)
from .power import (
    ArmForecast,
    DurationRecommendation,
    forecast_arm_sizes,
    projected_power,
    recommend_duration,
)
from .regression import (
    FittedArmModel,
    ModelSpec,
    cross_validate,
    fit,
    lasso_gamma_max,
    parse_model,
    predict,
)
from .stress import StressConfig, StressResult, augment, error_distribution, timing_profile

__all__ = [
    "AaRun",
    "ArmForecast",
    "AteEstimate",
    "BucketMetrics",
    "ConvergenceError",
    "CsvSchema",
    "DurationRecommendation",
    "ExperimentData",
    "FittedArmModel",
    "ModelSpec",
    "ParseError",
    "SchemaError",
    "StressConfig",
    "StressResult",
    "SyntheticConfig",
    "ValidationError",
    "augment",
    "bucket_metrics",
    "cross_validate",
    "error_distribution",
    "estimate",
    "filter_by_day",
    "fit",
    "fit_arm_models",
    "forecast_arm_sizes",
    "generate",
    "impute",
    "lasso_gamma_max",
    "load_csv",
    "parse_model",
    "pooled_coverage",
    "predict",
    "projected_power",
    "recommend_duration",
    "restrict_to_arm",
    "run_aa",
    "timing_profile",
    "variance_reduction",
    "write_csv",
]
