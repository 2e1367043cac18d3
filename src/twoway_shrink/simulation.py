"""Scenario generation and Monte-Carlo risk studies.

Scenarios draw a two-way design (counts, possibly with empty cells) and
additive true means once per seed; replicates differ only in the noise,
drawn from counter-based substreams keyed by (seed, replicate), so serial
and parallel runs agree exactly.  Studies compare the WLS, EBMLE, URE and
oracle estimators replicate by replicate with common random numbers and
emit plot-ready CSV.  The URE-concentration study fits nothing: it
evaluates fixed hyper-parameters through the public evaluators.
"""

from __future__ import annotations

import csv
import io
import logging
from collections import Counter
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, field, replace
from math import isfinite, sqrt

import numpy as np

from .estimators import (FitEngine, bayes_estimate, complete_means, hp_from_tilde,
                         ure_value, wls_fit)
from .linear_core import SigmaContext
from .risk_metrics import QLoss, loss_ss
from .tables import CellTable, _component_labels, build_design

_log = logging.getLogger("twoway_shrink")

__all__ = [
    "Constant",
    "UniformCounts",
    "TwoPoint",
    "NormalEffects",
    "PointMass",
    "TwoGroup",
    "ScenarioSpec",
    "RiskTable",
    "RiskRow",
    "GapStudyResult",
    "ConcentrationResult",
    "gen_scenario",
    "compare_estimators",
    "oracle_gap_study",
    "ure_concentration_study",
    "check_estimators",
    "ebmle_stress_scenario",
    "risk_csv",
]

ALL_ESTIMATORS = ("wls", "ebmle", "ure", "oracle")
# oracle_gap_study counts a replicate whose URE loss exceeds the oracle loss
# by more than this fraction of the oracle risk.
EXCEED_FRAC = 0.1


def check_estimators(estimators) -> tuple:
    """``estimators`` as a tuple; ValueError on an unknown or repeated name."""
    estimators = tuple(estimators)
    unknown = set(estimators) - set(ALL_ESTIMATORS)
    if unknown or len(set(estimators)) < len(estimators):
        raise ValueError(
            f"estimators must be distinct names from {', '.join(ALL_ESTIMATORS)}; "
            f"got {', '.join(estimators)}"
        )
    return estimators


# ---------------------------------------------------------------------------
# Count and effect laws
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class Constant:
    """Every cell gets the same count."""

    k: int = 1

    def draw(self, rng, r, c, alpha=None):
        return np.full((r, c), self.k, dtype=np.int64)


@dataclass(frozen=True)
class UniformCounts:
    """Counts drawn iid uniformly on {k_min, ..., k_max}."""

    k_min: int = 1
    k_max: int = 5

    def draw(self, rng, r, c, alpha=None):
        return rng.integers(self.k_min, self.k_max + 1, size=(r, c)).astype(np.int64)


@dataclass(frozen=True)
class TwoPoint:
    """Heavy two-point counts, optionally anti-correlated with row effects.

    With ``anti_effect`` set, whole rows share a count: the rows with the
    smallest |alpha| get ``k_hi`` (lots of data where there is little
    signal) and the remaining rows get ``k_lo``.  This is the regime where
    likelihood-based tuning is misled by the precise-but-flat cells.
    """

    k_lo: int = 1
    k_hi: int = 20
    frac_hi: float = 0.5
    anti_effect: bool = False

    def draw(self, rng, r, c, alpha=None):
        if self.anti_effect:
            if alpha is None:
                raise ValueError("anti_effect counts need the row effects")
            n_hi = int(round(self.frac_hi * r))
            order = np.argsort(np.abs(alpha))  # ascending |alpha|
            row_counts = np.full(r, self.k_lo, dtype=np.int64)
            row_counts[order[:n_hi]] = self.k_hi
            return np.repeat(row_counts[:, None], c, axis=1)
        hi = rng.random((r, c)) < self.frac_hi
        return np.where(hi, self.k_hi, self.k_lo).astype(np.int64)


@dataclass(frozen=True)
class NormalEffects:
    sd: float = 1.0

    def draw(self, rng, size):
        return rng.normal(0.0, self.sd, size=size)


@dataclass(frozen=True)
class PointMass:
    value: float = 0.0

    def draw(self, rng, size):
        return np.full(size, self.value)


@dataclass(frozen=True)
class TwoGroup:
    """Most effects at ``low`` magnitude, a random subset at +/- ``high``."""

    low: float = 0.0
    high: float = 3.0
    frac_high: float = 0.2

    def draw(self, rng, size):
        vals = np.full(size, self.low)
        n_high = int(round(self.frac_high * size))
        if n_high:
            idx = rng.choice(size, size=n_high, replace=False)
            signs = rng.choice([-1.0, 1.0], size=n_high)
            vals[idx] = signs * self.high
        return vals


@dataclass(frozen=True)
class ScenarioSpec:
    r: int
    c: int
    count_law: object = Constant(1)
    missing_frac: float = 0.0
    effect_law_a: object = NormalEffects(1.0)
    effect_law_b: object = NormalEffects(1.0)
    mu_true: float = 0.0
    sigma2: float = 1.0
    seed: int = 0
    name: str = ""

    def __post_init__(self):
        if not 0.0 <= self.missing_frac < 1.0:  # False for NaN
            raise ValueError(
                f"missing_frac must lie in [0, 1), got {self.missing_frac!r}"
            )
        if not (isfinite(self.sigma2) and self.sigma2 > 0):
            raise ValueError(
                f"sigma2 must be a positive finite number, got {self.sigma2!r}"
            )
        if not isfinite(self.mu_true):
            raise ValueError(f"mu_true must be finite, got {self.mu_true!r}")
        n_observed = self.r * self.c - self.n_missing
        if n_observed < self.r + self.c - 1:
            raise ValueError(
                f"r={self.r}, c={self.c} with missing_frac={self.missing_frac!r} "
                f"leaves {n_observed} observed cells; a connected design needs "
                f"r+c-1 = {self.r + self.c - 1}"
            )

    @property
    def n_missing(self) -> int:
        """Number of cells the design leaves empty."""
        return int(self.missing_frac * self.r * self.c)

    def label(self) -> str:
        return self.name or f"{self.r}x{self.c}-seed{self.seed}"

    @property
    def size(self) -> str:
        return f"{self.r}x{self.c}"


def _rng(*key) -> np.random.Generator:
    """Counter-based generator on a substream keyed by (seed, stream, ...)."""
    return np.random.Generator(np.random.Philox(np.random.SeedSequence(key)))


def gen_scenario(spec: ScenarioSpec, replicate: int = 0):
    """Draw (CellTable, true complete means) for one noise replicate.

    The design and the true means depend only on ``spec.seed``; the noise
    stream is keyed by (seed, replicate), so the truth stays fixed while
    replicates vary.  Raises after 1000 rejected (disconnected) designs.
    """
    rng_s = _rng(spec.seed, 0)
    r, c = spec.r, spec.c
    alpha = spec.effect_law_a.draw(rng_s, r)
    beta = spec.effect_law_b.draw(rng_s, c)
    counts = spec.count_law.draw(rng_s, r, c, alpha=alpha)
    if np.any(counts < 1):
        raise ValueError("count law produced empty cells; use missing_frac instead")
    if spec.missing_frac > 0:
        for attempt in range(1000):
            cand = counts.copy()
            drop = rng_s.choice(r * c, size=spec.n_missing, replace=False)
            cand.ravel()[drop] = 0
            if _component_labels(cand)[0] == 1:
                counts = cand
                break
        else:
            raise RuntimeError(
                "could not draw a connected design in 1000 attempts"
            )
    eta = spec.mu_true + alpha[:, None] + beta[None, :]
    rng_n = _rng(spec.seed, 1, replicate)
    noise = rng_n.standard_normal((r, c)) * np.sqrt(
        spec.sigma2 / np.maximum(counts, 1)
    )
    means = np.where(counts > 0, eta + noise, np.nan)
    table = CellTable(counts, means, spec.sigma2)
    return table, eta.ravel()


# ---------------------------------------------------------------------------
# Risk tables
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class RiskRow:
    estimator: str
    mean_loss: float
    se: float
    gap: float
    gap_se: float


@dataclass(frozen=True, eq=False)
class RiskTable:
    """One row per estimator and each one's ``losses`` by replicate; the
    oracle's is the smallest realized loss among the family members fitted
    on the replicate (the oracle fit, URE, EBMLE)."""

    scenario: str
    size: str
    n_reps: int
    n_failed: int
    rows: tuple
    losses: dict = field(repr=False, default=None)

    def row(self, estimator: str) -> RiskRow:
        for row in self.rows:
            if row.estimator == estimator:
                return row
        raise KeyError(estimator)


def _fmt(x) -> str:
    if x is None or (isinstance(x, float) and not np.isfinite(x)):
        return ""
    return repr(float(x))


def _mean_se(x: np.ndarray) -> tuple:
    """(mean, standard error) of a sample; the error is NaN below two values."""
    n = x.size
    se = float(x.std(ddof=1) / sqrt(n)) if n > 1 else float("nan")
    return float(x.mean()), se


def risk_csv(tables, extra_rows=(), out=None) -> str:
    """Emit risk tables as long-format CSV (scenario,estimator,size,mean_loss,se,gap)."""
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(["scenario", "estimator", "size", "mean_loss", "se", "gap"])
    for table in tables:
        for row in table.rows:
            writer.writerow(
                [table.scenario, row.estimator, table.size,
                 _fmt(row.mean_loss), _fmt(row.se), _fmt(row.gap)]
            )
    for row in extra_rows:
        writer.writerow(row)
    text = buf.getvalue()
    if out is not None:
        with open(out, "w", encoding="utf-8", newline="") as fh:
            fh.write(text)
    return text


def _run_chunk(spec: ScenarioSpec, reps, estimators, tau):
    """Fit all requested estimators on a chunk of replicates (worker body)."""
    table0, eta_complete = gen_scenario(spec, 0)
    engine = FitEngine(table0, tau=tau, qmode="auto")
    observed = table0.counts > 0
    eta_obs = eta_complete.reshape(spec.r, spec.c)[observed]
    out = []
    for rep in reps:
        table, _ = gen_scenario(spec, rep)
        y = table.y_observed
        rec = {}
        try:
            fits = {}
            if "ure" in estimators:
                fits["ure"] = engine.fit(y, "URE")
            if "ebmle" in estimators:
                fits["ebmle"] = engine.fit(y, "EBMLE")
            if "oracle" in estimators:
                fits["oracle"] = engine.fit(y, "ORACLE", true_eta_obs=eta_obs)
            for name, fit in fits.items():
                rec[name] = loss_ss(fit.eta_complete, eta_complete)
            if "oracle" in rec:  # the family member with the smallest loss
                rec["oracle"] = min(rec[name] for name in fits)
            if "wls" in estimators:
                eta_w = complete_means(engine.design, wls_fit(engine.design, y))
                rec["wls"] = loss_ss(eta_w, eta_complete)
        except Exception as exc:  # propagate per-replicate failures upward
            rec = {"__error__": f"{type(exc).__name__}: {exc}"}
        out.append(rec)
    return out


def _gather(spec, N, estimators, tau, n_jobs):
    reps = list(range(N))
    if n_jobs <= 1:
        records = _run_chunk(spec, reps, estimators, tau)
    else:
        chunks = [list(ch) for ch in np.array_split(reps, n_jobs) if len(ch)]
        records = []
        with ProcessPoolExecutor(max_workers=len(chunks)) as pool:
            futures = [
                pool.submit(_run_chunk, spec, ch, estimators, tau) for ch in chunks
            ]
            for fut in futures:  # submission order = replicate order
                records.extend(fut.result())
    return records


def compare_estimators(
    spec: ScenarioSpec,
    N: int,
    estimators=ALL_ESTIMATORS,
    tau: float = 0.05,
    n_jobs: int = 1,
) -> RiskTable:
    """Monte-Carlo risk comparison on N common-random-number replicates.

    Per replicate all estimators see the same data; losses are normalized
    completed sum-of-squares against the true means; the oracle's is the
    smallest realized loss among the family members fitted on the replicate
    (the oracle fit, URE, EBMLE).  The ``gap`` column is the paired mean of
    loss(estimator) - loss(oracle).  Aborts if more than
    1% of the replicates fail; fewer failed replicates are dropped, counted
    in ``n_failed`` and reported in one warning on the ``twoway_shrink``
    logger that names each distinct reason with its count.  Unknown or
    repeated estimator names, N < 1 and n_jobs < 1 raise ValueError before
    any fit.
    """
    if N < 1:
        raise ValueError("N must be positive")
    if n_jobs < 1:
        raise ValueError(f"n_jobs must be positive, got {n_jobs}")
    estimators = check_estimators(estimators)
    records = _gather(spec, N, estimators, tau, n_jobs)
    failures = [r["__error__"] for r in records if "__error__" in r]
    if len(failures) > 0.01 * N:
        raise RuntimeError(
            f"{len(failures)}/{N} replicates failed; first: {failures[0]}"
        )
    if failures:
        reasons = "; ".join(f"{why} (x{k})" for why, k in Counter(failures).items())
        _log.warning(
            "%s: dropped %d/%d failed replicates: %s",
            spec.label(), len(failures), N, reasons,
        )
    good = [r for r in records if "__error__" not in r]
    losses = {
        est: np.array([r[est] for r in good])
        for est in estimators
    }
    rows = []
    oracle = losses.get("oracle")
    for est in estimators:
        ls = losses[est]
        mean, se = _mean_se(ls)
        if oracle is not None and est != "oracle":
            gap, gap_se = _mean_se(ls - oracle)
        elif oracle is not None:
            gap, gap_se = 0.0, 0.0
        else:
            gap, gap_se = float("nan"), float("nan")
        rows.append(RiskRow(est, mean, se, gap, gap_se))
    return RiskTable(
        scenario=spec.label(),
        size=spec.size,
        n_reps=len(good),
        n_failed=len(failures),
        rows=tuple(rows),
        losses=losses,
    )


@dataclass(frozen=True, eq=False)
class GapStudyResult:
    sizes: tuple
    tables: tuple
    p_exceed: tuple
    p_exceed_se: tuple

    def to_csv(self, out=None) -> str:
        extra = []
        for size, p, se in zip(self.sizes, self.p_exceed, self.p_exceed_se):
            extra.append(
                [self.tables[0].scenario, "p_exceed_ure",
                 f"{size[0]}x{size[1]}", _fmt(p), _fmt(se), ""]
            )
        return risk_csv(self.tables, extra_rows=extra, out=out)


def oracle_gap_study(
    sizes,
    template: ScenarioSpec,
    N: int,
    tau: float = 0.05,
    n_jobs: int = 1,
) -> GapStudyResult:
    """Oracle-gap ladder across increasing table sizes.

    For each (r, c) the scenario template is re-dimensioned and the mean
    oracle gaps of URE and EBMLE are estimated, together with the empirical
    probability that the URE loss exceeds the oracle loss by more than
    ``EXCEED_FRAC`` times the oracle risk.  A size listed twice raises
    ValueError before any fit.
    """
    sizes = tuple(tuple(s) for s in sizes)
    repeated = [s for i, s in enumerate(sizes) if s in sizes[:i]]
    if repeated:
        raise ValueError(f"sizes lists {repeated[0][0]}x{repeated[0][1]} more than once")
    tables = []
    p_list, p_se_list = [], []
    for (r, c) in sizes:
        spec = replace(template, r=r, c=c, name=template.name or "oracle-gap")
        rt = compare_estimators(
            spec, N, estimators=ALL_ESTIMATORS, tau=tau, n_jobs=n_jobs
        )
        eps = EXCEED_FRAC * rt.row("oracle").mean_loss
        exceed = rt.losses["ure"] >= rt.losses["oracle"] + eps
        p = float(exceed.mean())
        p_se = float(sqrt(max(p * (1 - p), 1e-12) / exceed.size))
        tables.append(rt)
        p_list.append(p)
        p_se_list.append(p_se)
    return GapStudyResult(
        sizes=sizes,
        tables=tuple(tables),
        p_exceed=tuple(p_list),
        p_exceed_se=tuple(p_se_list),
    )


@dataclass(frozen=True, eq=False)
class ConcentrationResult:
    scenario: str
    size: str
    lt_grid: tuple
    mean_abs: tuple
    se_abs: tuple
    mean_diff: tuple
    se_diff: tuple

    def to_csv(self, out=None) -> str:
        extra = [
            [self.scenario, f"lt={a:g},{b:g}", self.size, _fmt(ma), _fmt(sa), _fmt(md)]
            for (a, b), ma, sa, md in zip(
                self.lt_grid, self.mean_abs, self.se_abs, self.mean_diff
            )
        ]
        return risk_csv((), extra_rows=extra, out=out)


def ure_concentration_study(
    spec: ScenarioSpec,
    lt_grid,
    N: int,
) -> ConcentrationResult:
    """Monte-Carlo E|URE - loss| at location zero over a hyper-parameter grid.

    ``lt_grid`` is a list of distinct (lambda_tilde_a, lambda_tilde_b)
    pairs (a repeated pair raises ValueError); the exact (0, 0) pair
    denotes the unshrunken corner, where URE - loss is
    sigma^2 tr(QM)/(rc) minus the loss of the raw data vector.  ``N``
    must be positive.  Nothing is searched: URE is :func:`ure_value` and the
    loss that of :func:`bayes_estimate`, each pair's capacitance factored once.
    """
    if N < 1:
        raise ValueError("N must be positive")
    pairs = [tuple(p) for p in lt_grid]
    repeated = [p for i, p in enumerate(pairs) if p in pairs[:i]]
    if repeated:
        raise ValueError(f"lt_grid lists the pair {repeated[0]} more than once")
    table0, eta_complete = gen_scenario(spec, 0)
    design = build_design(table0)
    qloss = QLoss.of(design)
    rc = spec.r * spec.c
    contexts = [SigmaContext(design, hp_from_tilde(0.0, p), sigma2=spec.sigma2)
                for p in pairs]
    eta_obs = eta_complete[(table0.counts > 0).ravel()]
    diffs = np.empty((len(pairs), N))
    for rep in range(N):
        y = gen_scenario(spec, rep)[0].y_observed
        for k, ctx in enumerate(contexts):
            delta = bayes_estimate(ctx, y, 0.0) - eta_obs
            diffs[k, rep] = ure_value(ctx, y, 0.0, qloss=qloss) - qloss.quad(delta) / rc
    mean_abs, se_abs = zip(*(_mean_se(np.abs(d)) for d in diffs))
    mean_diff, se_diff = zip(*(_mean_se(d) for d in diffs))
    return ConcentrationResult(spec.label(), spec.size, tuple(pairs),
                               mean_abs, se_abs, mean_diff, se_diff)


def ebmle_stress_scenario(seed: int = 11) -> ScenarioSpec:
    """Frozen unbalanced scenario on which likelihood tuning overshrinks.

    Row counts are anti-correlated with the row-effect magnitude
    (imbalance ratio 20): nine in ten rows are flat and heavily sampled,
    the rest carry large effects but only one observation per cell.  The
    marginal likelihood, dominated by the precise flat rows, picks too
    small a row variance and overshrinks the informative rows, while the
    risk-estimate criterion keeps them.  Calibrated once and frozen; used
    by the acceptance suite.
    """
    return ScenarioSpec(
        r=50,
        c=6,
        count_law=TwoPoint(k_lo=1, k_hi=20, frac_hi=0.9, anti_effect=True),
        effect_law_a=TwoGroup(low=0.0, high=5.0, frac_high=0.1),
        effect_law_b=PointMass(0.0),
        mu_true=0.0,
        sigma2=1.0,
        seed=seed,
        name="ebmle-stress",
    )
