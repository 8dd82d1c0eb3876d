"""Estimation of additive properties of discrete distributions.

The package provides the plug-in (empirical) estimator family, a two-stream
amplified estimator that emulates the plug-in rule on a larger sample, exact
property evaluation, Poissonized samplers for the benchmark distributions, a
reproducible Monte-Carlo sweep harness, and a numerical self-check suite.
"""

from .distributions import (
    Distribution,
    Histogram,
    SplitSample,
    make_distribution,
    sample_histogram,
    split_sample,
)
from .estimators import (
    AmplifiedEstimate,
    CoefficientTable,
    CoefficientTables,
    EstimatorParams,
    ParameterError,
    amplified_estimate,
    amplified_estimate_detailed,
    build_coefficient_table,
    build_coefficient_tables,
    derive_params,
    empirical,
    modified_empirical,
    smoothed_h_hat,
)
from .properties import (
    PropertySpec,
    distance_to_uniformity,
    entropy,
    exact_value,
    kl_divergence,
    l1_distance,
    lipschitz,
    power_sum,
    support_coverage,
    support_size,
)
from .benchmark import (
    ExperimentConfig,
    ResultRow,
    mse,
    run_experiment,
    trial_seed,
)

__version__ = "0.1.0"
