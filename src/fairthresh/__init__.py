"""Consistent equal-opportunity-fair classification via threshold recalibration."""

from .benchmark import BenchmarkConfig, BenchmarkReport, run_benchmark, run_unlabeled_sweep
from .calibration import (
    FairClassifier,
    GroupStatistics,
    blind_unfairness,
    breakpoints,
    calibrate,
    calibrate_scores,
    empirical_unfairness,
    fit_theta,
    fit_theta_blind,
)
from .data import (
    LabeledDataset,
    SplitPlan,
    SplitResult,
    UnlabeledDataset,
    load_csv,
    split,
)
from .errors import (
    ConfigError,
    DataValueError,
    FairthreshError,
    GroupCoverageError,
    NumericError,
    ParseError,
    SchemaError,
)
from .estimators import (
    KnnConfig,
    LogisticConfig,
    ScoreModel,
    fit_knn,
    fit_logistic,
    floor_value,
)
from .metrics import EvaluationReport, accuracy, deo
from .oracle import (
    GroupSpec,
    OracleSolution,
    SyntheticDistribution,
    consistency_run,
    linear_distribution,
    sample,
    solve_theta_star,
    tpr_gap,
)

__version__ = "0.1.0"
