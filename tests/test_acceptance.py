"""Acceptance suite: one test per criterion, each printing a PASS line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
lines.  Monte-Carlo seeds and scenario constants were calibrated once and
are frozen here.
"""

import numpy as np
import pytest

from twoway_shrink import (
    CellTable,
    HyperParams,
    ShrinkageFit,
    SigmaContext,
    balanced_decoupling_check,
    build_design,
    estimating_eq_residuals,
    fit_ml,
    fit_ure,
    lambda1_q,
    loss_ss,
    marginal_loglik,
    q_matrix,
    quantile_bounds,
    sigma_solve,
    ure_value,
)
from twoway_shrink.linear_core import lam_from_tilde
from twoway_shrink.risk_metrics import QLoss
from twoway_shrink.simulation import (
    Constant,
    NormalEffects,
    ScenarioSpec,
    compare_estimators,
    ebmle_stress_scenario,
    oracle_gap_study,
    risk_csv,
)
from conftest import make_random_table
from dense_oracle import (
    dense_design,
    dense_solve,
    dense_ure,
    lambda1_q_from_grams,
    ure_variance_zero_mu,
)

N_JOBS = 2


def report(number, name, ok):
    status = "PASS" if ok else "FAIL"
    print(f"[ACCEPTANCE] criterion {number} ({name}): {status}")
    assert ok, f"criterion {number} ({name}) failed"


def batched_ure_and_loss(design, ql, hp, eta_obs, sigma2, n_draws, rng):
    """Per-draw risk estimates and realized losses at a fixed hyper-parameter.

    Vectorized over draws through the capacitance factorization; the loss
    is the observed-cell quadratic form, identical to the completed
    sum-of-squares loss.
    """
    ctx = SigmaContext(design, hp, mode="fast", sigma2=sigma2)
    d = design
    q = d.q
    s, cinv = ctx.scale, ctx.cap_inverse
    k = d.k_obs.astype(float)
    rc = d.r * d.c
    eps = rng.standard_normal((d.n_obs, n_draws)) * np.sqrt(sigma2 * d.m_diag)[:, None]
    Y = eta_obs[:, None] + eps
    Xi = Y - hp.mu
    KXi = k[:, None] * Xi
    ZT = np.zeros((q, n_draws))
    np.add.at(ZT, d.row_index, KXi)
    np.add.at(ZT, d.r + d.col_index, KXi)
    W = cinv @ (s[:, None] * ZT)
    SW = s[:, None] * W
    G = Xi - (SW[d.row_index] + SW[d.r + d.col_index])
    Q = ql.Q
    tr_qm = float(d.m_diag @ np.diag(Q))
    dd = dense_design(d)
    zqz = np.concatenate([dd.Za, dd.Zb], axis=1).T @ Q @ np.concatenate(
        [dd.Za, dd.Zb], axis=1
    )
    tr_red = float(np.sum(cinv * (s[:, None] * zqz * s[None, :])))
    quad = np.einsum("ij,ik,kj->j", G, Q, G)
    ures = (sigma2 * (-tr_qm + 2.0 * tr_red) + quad) / rc
    delta = eps - G  # estimator minus truth
    losses = np.einsum("ij,ik,kj->j", delta, Q, delta) / rc
    return ures, losses


@pytest.fixture(scope="module")
def gap_ladder():
    template = ScenarioSpec(
        r=10, c=10, count_law=Constant(1),
        effect_law_a=NormalEffects(0.5), effect_law_b=NormalEffects(0.5),
        mu_true=0.0, sigma2=1.0, seed=2026, name="ladder",
    )
    return oracle_gap_study(
        [(10, 10), (20, 20), (40, 40)], template, 200, n_jobs=N_JOBS
    )


def test_criterion_1_ure_unbiasedness():
    """Mean of the risk estimate equals Monte-Carlo mean loss (20k draws)."""
    rng = np.random.default_rng(202401)
    triples = []
    # complete unbalanced
    t1, e1 = make_random_table(rng, 5, 6, k_max=5, noise=False)
    triples.append((t1, e1, HyperParams(0.3, 1.0, 0.5)))
    # complete balanced
    t2, e2 = make_random_table(rng, 6, 6, k_max=1, noise=False)
    triples.append((t2, e2, HyperParams(0.0, 0.2, 2.0)))
    # missing cells
    t3, e3 = make_random_table(rng, 6, 5, k_max=4, n_missing=5, noise=False)
    triples.append((t3, e3, HyperParams(0.5, 1.5, 0.8)))
    ok = True
    for table, eta, hp in triples:
        d = build_design(table)
        if table.is_complete:
            ql = QLoss(Q=np.eye(d.n_obs), mode="identity")
        else:
            ql = q_matrix(d)
        eta_obs = eta.reshape(table.r, table.c)[table.counts > 0]
        ures, losses = batched_ure_and_loss(
            d, ql, hp, eta_obs, table.sigma2, 20_000, rng
        )
        diff = ures - losses
        se = diff.std(ddof=1) / np.sqrt(diff.size)
        ok = ok and abs(diff.mean()) <= 3.0 * se
    report(1, "URE unbiasedness", ok)


def test_criterion_2_ure_variance_identity():
    """Sample variance of the risk estimate at mu=0 matches the quadratic-form formula."""
    rng = np.random.default_rng(1)
    counts = rng.integers(1, 6, size=(6, 6))
    al, be = rng.normal(0, 1.0, 6), rng.normal(0, 0.8, 6)
    eta = 0.4 + al[:, None] + be[None, :]
    table = CellTable(counts, eta.copy(), 1.0)
    d = build_design(table)
    ql = q_matrix(d)
    hp = HyperParams(0.0, 1.2, 0.7)
    analytic = ure_variance_zero_mu(d, hp, eta.ravel(), 1.0, ql)
    ures, _ = batched_ure_and_loss(d, ql, hp, eta.ravel(), 1.0, 20_000, rng)
    sample = ures.var(ddof=1)
    report(2, "URE variance identity", abs(sample - analytic) <= 0.05 * analytic)


def test_criterion_3_fast_path_equivalence():
    """Capacitance-form URE and Woodbury solves match dense evaluation <= 1e-9."""
    rng = np.random.default_rng(77)
    worst_ure, worst_solve = 0.0, 0.0
    for i in range(200):
        r = int(rng.integers(2, 13))
        c = int(rng.integers(2, 13))
        n_missing = int(rng.integers(0, 3)) if i % 2 else 0
        try:
            table, _ = make_random_table(rng, r, c, k_max=6, n_missing=n_missing)
        except RuntimeError:
            continue
        d = build_design(table)
        hp = HyperParams(
            float(rng.normal()),
            lam_from_tilde(float(rng.uniform(0.1, 1.0))),
            lam_from_tilde(float(rng.uniform(0.1, 1.0))),
        )
        fast = SigmaContext(d, hp, sigma2=table.sigma2)
        y = table.y_observed
        v_fast = ure_value(fast, y, hp.mu)
        Q = None if table.is_complete else q_matrix(d).Q
        v_dense = dense_ure(fast, y, hp.mu, Q=Q)
        worst_ure = max(worst_ure, abs(v_fast - v_dense) / max(abs(v_dense), 1e-12))
        x = rng.normal(0, 1, d.n_obs)
        a, b = sigma_solve(fast, x), dense_solve(fast, x)
        worst_solve = max(worst_solve, np.max(np.abs(a - b)) / np.max(np.abs(b)))
    report(3, "fast-path equivalence", worst_ure <= 1e-9 and worst_solve <= 1e-9)


def test_criterion_4_estimating_equations():
    """Interior optima satisfy the estimating equations; analytic residuals
    agree with finite-difference derivatives of the objectives."""
    rng = np.random.default_rng(1)
    al = rng.normal(0, 1.2, 10)
    be = rng.normal(0, 0.9, 10)
    counts = rng.integers(1, 5, size=(10, 10))
    eta = 0.3 + al[:, None] + be[None, :]
    y = eta + rng.normal(0, 1, (10, 10)) / np.sqrt(counts)
    table = CellTable(counts, y, 1.0)
    d = build_design(table)
    rc = d.r * d.c
    ok = True
    for method, fitter in (("ure", fit_ure), ("ml", fit_ml)):
        fit = fitter(table)
        assert not fit.mu_clamped and np.isfinite(fit.hp.lambda_a)
        res = estimating_eq_residuals(fit, table)
        scales = fit.diagnostics["residual_scales"]
        ok = ok and abs(res[1]) <= 1e-4 * scales[1]
        ok = ok and abs(res[2]) <= 1e-4 * scales[2]
    # finite-difference agreement of the residual formulas at random
    # interior points, for both criteria
    y_obs = table.y_observed
    for method in ("URE", "EBMLE"):
        for _ in range(2):
            hp = HyperParams(
                0.2, float(rng.uniform(0.4, 2.5)), float(rng.uniform(0.4, 2.5))
            )
            fit = ShrinkageFit(
                method=method, hp=hp, eta_obs=y_obs, eta_complete=np.zeros(rc),
                objective=0.0, mu_clamped=False, tau=0.05,
                bounds=quantile_bounds(table, 0.05), qmode="identity",
                diagnostics={},
            )
            res = estimating_eq_residuals(fit, table)
            h = 1e-5 * (1.0 + hp.lambda_a)
            up = SigmaContext(d, HyperParams(hp.mu, hp.lambda_a + h, hp.lambda_b),
                              mode="fast", sigma2=1.0)
            dn = SigmaContext(d, HyperParams(hp.mu, hp.lambda_a - h, hp.lambda_b),
                              mode="fast", sigma2=1.0)
            if method == "URE":
                fd = (ure_value(up, y_obs, hp.mu, qmode="identity")
                      - ure_value(dn, y_obs, hp.mu, qmode="identity")) / (2 * h)
                analytic = 2.0 / rc * res[1]
            else:
                fd = (marginal_loglik(up, y_obs, hp.mu)
                      - marginal_loglik(dn, y_obs, hp.mu)) / (2 * h)
                analytic = -0.5 * res[1]
            ok = ok and abs(fd - analytic) <= 1e-5 * max(abs(analytic), 1e-8)
    report(4, "estimating equations", ok)


def test_criterion_5_q_machinery():
    """lambda1(Q) laws and the exactness of the completed-loss identity."""
    rng = np.random.default_rng(55)
    ok = True
    # complete designs: lambda1 = 1 exactly
    for _ in range(10):
        table, _ = make_random_table(rng, int(rng.integers(2, 8)),
                                     int(rng.integers(2, 8)), k_max=5)
        ok = ok and abs(lambda1_q(build_design(table)) - 1.0) <= 1e-9
    # 200 random connected missing designs
    checked = 0
    while checked < 200:
        r = int(rng.integers(3, 8))
        c = int(rng.integers(3, 8))
        n_missing = int(rng.integers(1, max(2, (r * c) // 4)))
        try:
            table, _ = make_random_table(rng, r, c, k_max=5, n_missing=n_missing)
        except RuntimeError:
            continue
        d = build_design(table)
        ql = q_matrix(d)
        v2 = lambda1_q_from_grams(d)
        ok = ok and ql.lambda1 >= 1.0 - 1e-12
        ok = ok and abs(ql.lambda1 - v2) <= 1e-9 * max(1.0, abs(v2))
        e1 = rng.normal(0, 1, d.n_obs)
        e2 = rng.normal(0, 1, d.n_obs)
        lhs = float((e1 - e2) @ ql.Q @ (e1 - e2)) / (r * c)
        rhs = loss_ss(d.completion_map @ e1, d.completion_map @ e2)
        ok = ok and abs(lhs - rhs) <= 1e-12 * max(1.0, abs(rhs))
        checked += 1
    report(5, "Q machinery", ok)


def test_criterion_6_oracle_dominance(gap_ladder):
    """Oracle loss bounds URE and EBMLE losses on every replicate of every study."""
    ok = True
    for rt in gap_ladder.tables:
        ok = ok and np.all(rt.losses["oracle"] <= rt.losses["ure"] + 1e-8)
        ok = ok and np.all(rt.losses["oracle"] <= rt.losses["ebmle"] + 1e-8)
    # a missing-cell study as well
    spec = ScenarioSpec(
        r=7, c=7, count_law=Constant(2), missing_frac=0.15,
        effect_law_a=NormalEffects(0.8), effect_law_b=NormalEffects(0.8),
        mu_true=0.3, sigma2=1.0, seed=31, name="missing-study",
    )
    rt = compare_estimators(spec, 100, estimators=("ebmle", "ure", "oracle"),
                            n_jobs=N_JOBS)
    ok = ok and np.all(rt.losses["oracle"] <= rt.losses["ure"] + 1e-8)
    ok = ok and np.all(rt.losses["oracle"] <= rt.losses["ebmle"] + 1e-8)
    report(6, "oracle dominance", ok)


def test_criterion_7_oracle_gap_trend(gap_ladder):
    """URE's oracle gap and exceedance probability shrink along the size ladder."""
    gaps = [rt.row("ure").gap for rt in gap_ladder.tables]
    gses = [rt.row("ure").gap_se for rt in gap_ladder.tables]
    ok = True
    for i in range(len(gaps) - 1):
        slack = 2.0 * float(np.hypot(gses[i], gses[i + 1]))
        ok = ok and gaps[i + 1] <= gaps[i] + slack
        ok = ok and gap_ladder.p_exceed[i + 1] <= gap_ladder.p_exceed[i]
    report(7, "oracle-gap trend", ok)


def test_criterion_8_ebmle_suboptimality():
    """URE beats EBMLE by more than two combined standard errors on the
    frozen anti-correlated-counts scenario."""
    rt = compare_estimators(
        ebmle_stress_scenario(), 400, estimators=("ebmle", "ure"), n_jobs=N_JOBS
    )
    u, m = rt.row("ure"), rt.row("ebmle")
    combined = float(np.hypot(u.se, m.se))
    report(8, "EBMLE sub-optimality", u.mean_loss <= m.mean_loss - 2.0 * combined)


def test_criterion_9_balanced_decoupling():
    """Loss decomposition on balanced tables and ML/URE agreement there."""
    rng = np.random.default_rng(99)
    ok = True
    for _ in range(50):
        r = int(rng.integers(2, 7))
        c = int(rng.integers(2, 7))
        k0 = int(rng.integers(1, 5))
        alpha = rng.normal(0, 1.0, r)
        beta = rng.normal(0, 1.0, c)
        alpha -= alpha.mean()
        beta -= beta.mean()
        eta = rng.normal() + alpha[:, None] + beta[None, :]
        y = eta + rng.normal(0, 1, (r, c)) / np.sqrt(k0)
        table = CellTable(np.full((r, c), k0), y, 1.0)
        hp = HyperParams(0.0, float(rng.uniform(0, 6)), float(rng.uniform(0, 6)))
        ok = ok and balanced_decoupling_check(table, hp, eta.ravel()) <= 1e-10
    for seed in (300, 301, 302):
        rng_b = np.random.default_rng(seed)
        al, be = rng_b.normal(0, 1.0, 12), rng_b.normal(0, 0.7, 12)
        eta = 0.5 + al[:, None] + be[None, :]
        y = eta + rng_b.normal(0, 1, (12, 12)) / np.sqrt(2)
        table = CellTable(np.full((12, 12), 2), y, 1.0)
        diff = np.linalg.norm(
            fit_ure(table).eta_obs - fit_ml(table).eta_obs
        ) / 12.0
        ok = ok and diff <= 0.02
    report(9, "balanced decoupling", ok)


def test_criterion_10_wls_analytic_risk():
    """Monte-Carlo WLS risk equals sigma^2 (r+c-1)/(rc) on complete unit counts."""
    spec = ScenarioSpec(
        r=7, c=5, count_law=Constant(1), effect_law_a=NormalEffects(1.0),
        effect_law_b=NormalEffects(1.0), mu_true=0.2, sigma2=1.0, seed=3,
        name="wls-risk",
    )
    rt = compare_estimators(spec, 400, estimators=("wls",))
    row = rt.row("wls")
    expected = 1.0 * (7 + 5 - 1) / 35.0
    report(10, "WLS analytic risk", abs(row.mean_loss - expected) <= 3 * row.se)


def test_criterion_11_determinism():
    """Seeded studies are byte-identical across runs and across serial and
    parallel execution."""
    spec = ScenarioSpec(
        r=6, c=6, count_law=Constant(1), effect_law_a=NormalEffects(0.6),
        effect_law_b=NormalEffects(0.6), mu_true=0.0, sigma2=1.0, seed=17,
        name="determinism",
    )
    texts = [
        risk_csv([compare_estimators(spec, 10, estimators=("wls", "ure"),
                                     n_jobs=j)])
        for j in (1, 1, 2)
    ]
    report(11, "determinism", texts[0] == texts[1] == texts[2])
