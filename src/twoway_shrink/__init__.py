"""Empirical-Bayes shrinkage estimation of two-way cell means.

Estimates all cell means of an unbalanced (possibly missing-cell) two-way
additive Gaussian layout by shrinkage, with hyper-parameters tuned either
by an unbiased risk estimate (URE) or by marginal maximum likelihood
(EBMLE), plus a Monte-Carlo harness for risk comparisons.
"""

from .tables import (
    CellTable,
    DesignSet,
    DisconnectedDesignError,
    HyperParams,
    aggregate_records,
    build_design,
    design_components,
    imbalance_ratio,
    ingest_observations,
    is_connected,
    load_table,
    quantile_bounds,
    read_agg_csv,
    read_raw_csv,
)
from .linear_core import (
    NumericError,
    SigmaContext,
    logdet_sigma,
    shrink_apply,
    sigma_solve,
)
from .risk_metrics import (
    QLoss,
    a2_statistic,
    balanced_decoupling_check,
    lambda1_q,
    loss_ss,
    loss_weighted,
    q_matrix,
)
from .estimators import (
    FitEngine,
    ShrinkageFit,
    WeightedProblem,
    bayes_estimate,
    complete_means,
    estimating_eq_residuals,
    fit_ml,
    fit_ure,
    marginal_loglik,
    oracle_fit,
    profile_mu_gls,
    profile_mu_ure,
    ure_value,
    weighted_transform,
    wls_fit,
    wls_fit_full,
)
from .simulation import (
    Constant,
    NormalEffects,
    PointMass,
    RiskTable,
    ScenarioSpec,
    TwoGroup,
    TwoPoint,
    UniformCounts,
    compare_estimators,
    gen_scenario,
    oracle_gap_study,
    ure_concentration_study,
)

__version__ = "0.1.0"
