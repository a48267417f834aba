"""Two-parameter Weibull estimation library and Monte Carlo comparison lab.

Ten estimators of the (shape, scale) pair — pairwise-kernel U-statistics,
maximum likelihood, median-weighted maximum likelihood, three probability-plot
regressions, L-moments, log-moments, percentiles and ordinary moments — plus
KS/CVM goodness-of-fit distances and a reproducible bias/RMSE simulation
harness.
"""

__version__ = "0.1.0"

from .classical import (
    LMomentSummary,
    PercentileConfig,
    fit_lm,
    fit_mlm,
    fit_mm,
    fit_pm,
    sample_lmoments,
)
from .core import (
    BatchFit,
    EstimateResult,
    SortedSample,
    WeibullParams,
    cdf,
    draw_sorted,
    pdf,
    quantile,
    raw_moment,
    sample,
)
from .datasets import Dataset, lifetime48, load_dataset, parse_dataset
from .errors import (
    BracketError,
    DataError,
    DegenerateSampleError,
    EstimationError,
    InvalidRatioError,
    SingularSystemError,
)
from .gof import GofReport, cvm_distance, gof_report, gof_reports, ks_distance
from .likelihood import (
    WeightPair,
    WeightStore,
    fit_mle,
    fit_wmle,
    profile_score,
    simulate_weight_medians,
)
from .methods import METHOD_NAMES, FitOptions, fit_batch, fit_method
from .regression import (
    PlottingPositions,
    build_positions,
    fit_gls1,
    fit_gls2,
    fit_wls,
)
from .simlab import (
    MetricRow,
    MetricTable,
    SimulationConfig,
    emit_plot_data,
    rank_methods,
    run_experiment,
    write_metric_csv,
)
from .ustat import (
    UStatEstimate,
    estimate_u,
    fit_ustat,
    kernel_h1,
    kernel_h2,
)

__all__ = [
    "__version__",
    # core
    "WeibullParams", "SortedSample", "EstimateResult", "BatchFit",
    "pdf", "cdf", "quantile", "sample", "draw_sorted", "raw_moment",
    # errors
    "DataError", "EstimationError", "DegenerateSampleError", "InvalidRatioError",
    "BracketError", "SingularSystemError",
    # estimators
    "kernel_h1", "kernel_h2", "UStatEstimate", "estimate_u", "fit_ustat",
    "sample_lmoments", "LMomentSummary",
    "PercentileConfig", "fit_lm", "fit_mlm", "fit_pm", "fit_mm",
    "profile_score", "fit_mle", "fit_wmle", "WeightPair", "WeightStore",
    "simulate_weight_medians",
    "PlottingPositions", "build_positions",
    "fit_gls1", "fit_gls2", "fit_wls",
    # gof
    "GofReport", "ks_distance", "cvm_distance", "gof_report", "gof_reports",
    # lab
    "METHOD_NAMES", "FitOptions", "fit_method", "fit_batch",
    "SimulationConfig", "MetricRow", "MetricTable", "run_experiment",
    "rank_methods", "emit_plot_data", "write_metric_csv",
    # datasets
    "Dataset", "lifetime48", "load_dataset", "parse_dataset",
]
