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
    build_design,
    design_components,
    imbalance_ratio,
    ingest_observations,
    is_connected,
    load_table,
    quantile_bounds,
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
    lambda1_q,
    loss_mode,
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
    fit_ml,
    fit_ure,
    marginal_loglik,
    ure_value,
    weighted_transform,
    wls_fit,
    wls_fit_full,
)

# The Monte-Carlo study names load ``simulation`` (and its process pool) on
# first access, so a process that only fits never imports it (PEP 562).
_SIMULATION_EXPORTS = frozenset((
    "Constant", "NormalEffects", "PointMass", "RiskTable", "ScenarioSpec",
    "TwoGroup", "TwoPoint", "UniformCounts", "compare_estimators", "gen_scenario",
    "oracle_gap_study", "ure_concentration_study",
))


def __getattr__(name):
    if name in _SIMULATION_EXPORTS:
        from . import simulation

        return getattr(simulation, name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


__version__ = "0.1.0"
