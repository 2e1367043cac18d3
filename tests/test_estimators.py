import numpy as np
import pytest

from twoway_shrink import (
    CellTable,
    DisconnectedDesignError,
    FitEngine,
    HyperParams,
    QLoss,
    SigmaContext,
    a2_statistic,
    bayes_estimate,
    build_design,
    complete_means,
    fit_ml,
    fit_ure,
    loss_ss,
    marginal_loglik,
    q_matrix,
    quantile_bounds,
    ure_value,
    weighted_transform,
    wls_fit,
    wls_fit_full,
)
from twoway_shrink.linear_core import lam_from_tilde
from twoway_shrink.simulation import (
    NormalEffects,
    ScenarioSpec,
    UniformCounts,
    compare_estimators,
    ebmle_stress_scenario,
    gen_scenario,
)
from conftest import make_random_table
from dense_oracle import (
    CapacitanceBundle,
    dense_sigma,
    dense_ure,
    estimating_eq_at,
    evaluate_bundle,
    lbfgs_polish,
    profile_mu_gls,
    profile_mu_ure,
    weighted_bayes_estimate,
    weighted_grid_min,
    weighted_ure,
)


def make_ctx(table, hp):
    return SigmaContext(build_design(table), hp, sigma2=table.sigma2)


class TestWls:
    def test_noise_free_exact(self, rng):
        table, eta = make_random_table(rng, 4, 5, k_max=4, noise=False)
        d = build_design(table)
        np.testing.assert_allclose(
            wls_fit(d, table.y_observed), table.y_observed, atol=1e-10
        )

    def test_balanced_closed_form(self, rng):
        y = rng.normal(0, 1, (5, 4))
        table = CellTable(np.ones((5, 4), int), y, 1.0)
        d = build_design(table)
        eta = wls_fit(d, table.y_observed).reshape(5, 4)
        classical = (
            y.mean(axis=1, keepdims=True) + y.mean(axis=0, keepdims=True) - y.mean()
        )
        np.testing.assert_allclose(eta, classical, atol=1e-12)

    def test_missing_cell_recovery(self, rng):
        counts = np.ones((3, 3), int)
        counts[2, 2] = 0
        alpha, beta = rng.normal(0, 1, 3), rng.normal(0, 1, 3)
        eta = 1.0 + alpha[:, None] + beta[None, :]
        means = np.where(counts > 0, eta, np.nan)
        table = CellTable(counts, means, 1.0)
        d = build_design(table)
        eta_c = complete_means(d, wls_fit(d, table.y_observed))
        np.testing.assert_allclose(eta_c.reshape(3, 3), eta, atol=1e-10)

    @pytest.mark.xfail(strict=True, reason=(
        "a WLS fit's lambda = (inf, inf) reads as the unshrunken corner; "
        "ROADMAP item 4 decides whether it means the WLS limit"))
    def test_evaluators_reproduce_the_wls_fit(self):
        # Today bayes_estimate returns y itself at the WLS fit's
        # hyper-parameters, and ure_value the corner's sigma^2 tr(QM)/(rc),
        # 0.4722 on this table.
        table, _ = make_random_table(np.random.default_rng(0), 6, 4, k_max=4)
        wls = wls_fit_full(table)
        ctx = make_ctx(table, wls.hp)
        eta = bayes_estimate(ctx, table.y_observed, wls.hp.mu)
        np.testing.assert_allclose(eta, wls.eta_obs, rtol=0, atol=1e-9)

    def test_disconnected_raises(self):
        counts = np.array([[2, 0, 0], [0, 1, 1], [0, 1, 1]])
        means = np.where(counts > 0, 1.0, np.nan)
        with pytest.raises(DisconnectedDesignError):
            d = build_design(CellTable(counts, means, 1.0))
            wls_fit(d, np.zeros(d.n_obs))


class TestBayesEstimate:
    def test_zero_lambda_constant(self, rng):
        table, _ = make_random_table(rng, 3, 4)
        ctx = make_ctx(table, HyperParams(3.0, 0.0, 0.0))
        np.testing.assert_allclose(
            bayes_estimate(ctx, table.y_observed, 3.0), 3.0, atol=1e-12
        )

    def test_wls_limit(self, rng):
        table, _ = make_random_table(rng, 5, 6, k_max=4, n_missing=3)
        lam = lam_from_tilde(1e-6)
        ctx = make_ctx(table, HyperParams(0.0, lam, lam))
        est = bayes_estimate(ctx, table.y_observed, 0.0)
        ref = wls_fit(ctx.design, table.y_observed)
        assert np.max(np.abs(est - ref)) <= 1e-4

    def test_2x2_dense_identity(self):
        y = np.array([1.0, 0.0, 0.0, -1.0])
        table = CellTable(np.ones((2, 2), int), y.reshape(2, 2), 1.0)
        ctx = make_ctx(table, HyperParams(0.0, 1.0, 1.0))
        sig = dense_sigma(ctx)
        expected = (np.eye(4) - np.linalg.inv(sig)) @ y  # M = I here
        np.testing.assert_allclose(bayes_estimate(ctx, y, 0.0), expected, atol=1e-12)


class TestCompleteMeans:
    def test_projector_identity_when_in_colspace(self, rng):
        table, eta = make_random_table(rng, 4, 4, noise=False)
        d = build_design(table)
        np.testing.assert_allclose(
            complete_means(d, table.y_observed), eta, atol=1e-10
        )

    def test_linearity_zero(self, rng):
        table, _ = make_random_table(rng, 3, 3)
        d = build_design(table)
        assert np.all(complete_means(d, np.zeros(d.n_obs)) == 0.0)

    def test_recovers_empty_cells(self, rng):
        table, eta = make_random_table(rng, 5, 5, n_missing=6, noise=False)
        d = build_design(table)
        np.testing.assert_allclose(
            complete_means(d, table.y_observed), eta, atol=1e-9
        )


class TestUreValue:
    def test_needs_sigma2_on_the_context(self, rng):
        table, _ = make_random_table(rng, 3, 3)
        ctx = SigmaContext(build_design(table), HyperParams(0.0, 1.0, 1.0))
        with pytest.raises(ValueError, match="sigma2 must be supplied on the context"):
            ure_value(ctx, table.y_observed, 0.0)

    def test_marginal_loglik_at_the_corner_is_minus_infinity(self, rng):
        table, _ = make_random_table(rng, 3, 3)
        ctx = make_ctx(table, HyperParams(0.0, np.inf, np.inf))
        assert marginal_loglik(ctx, table.y_observed, 0.0) == -np.inf

    def test_unshrunken_corner(self, rng):
        table, _ = make_random_table(rng, 4, 4, k_max=5)
        ctx = make_ctx(table, HyperParams(0.0, np.inf, np.inf))
        d = ctx.design
        expected = table.sigma2 * np.sum(d.m_diag) / (d.r * d.c)
        assert ure_value(ctx, table.y_observed, 0.0) == pytest.approx(expected)

    def test_zero_lambda_constant_estimator(self, rng):
        table, _ = make_random_table(rng, 4, 3, k_max=4)
        ctx = make_ctx(table, HyperParams(0.0, 0.0, 0.0))
        d = ctx.design
        mu = 0.7
        y = table.y_observed
        expected = (np.sum((y - mu) ** 2) - table.sigma2 * np.sum(d.m_diag)) / (
            d.r * d.c
        )
        got = ure_value(ctx, y, mu, qmode="identity")
        assert got == pytest.approx(expected, rel=1e-10)

    def test_dual_path_agreement(self, rng):
        for _ in range(25):
            table, _ = make_random_table(rng, 4, 5, k_max=6)
            hp = HyperParams(
                0.0, float(rng.uniform(0, 20)), float(rng.uniform(0, 20))
            )
            ctx = make_ctx(table, hp)
            mu = float(rng.normal())
            fast = ure_value(ctx, table.y_observed, mu)
            dense = dense_ure(ctx, table.y_observed, mu)
            assert fast == pytest.approx(dense, rel=1e-9, abs=1e-12)

    def test_dual_path_agreement_missing(self, rng):
        for _ in range(10):
            table, _ = make_random_table(rng, 5, 4, k_max=5, n_missing=4)
            hp = HyperParams(0.0, float(rng.uniform(0, 8)), float(rng.uniform(0, 8)))
            ctx = make_ctx(table, hp)
            fast = ure_value(ctx, table.y_observed, 0.1, qmode="qmatrix")
            dense = dense_ure(ctx, table.y_observed, 0.1, Q=q_matrix(ctx.design).Q)
            assert fast == pytest.approx(dense, rel=1e-9, abs=1e-12)

    def test_unbiasedness_quick(self, rng):
        # E[URE] = E[loss] for a fixed hp; the acceptance suite runs 20k draws
        table, eta = make_random_table(rng, 4, 5, k_max=3, n_missing=3, noise=False)
        d = build_design(table)
        ql = q_matrix(d)
        hp = HyperParams(0.4, 1.5, 0.8)
        ctx = SigmaContext(d, hp, mode="fast", sigma2=1.0)
        eta_obs = table.y_observed
        n_draws = 4000
        diffs = np.empty(n_draws)
        for i in range(n_draws):
            y = eta_obs + rng.standard_normal(d.n_obs) * np.sqrt(d.m_diag)
            est = bayes_estimate(ctx, y, hp.mu)
            loss = float((est - eta_obs) @ ql.Q @ (est - eta_obs)) / (d.r * d.c)
            diffs[i] = ure_value(ctx, y, hp.mu, qmode="qmatrix", qloss=ql) - loss
        se = diffs.std(ddof=1) / np.sqrt(n_draws)
        assert abs(diffs.mean()) <= 3 * se


    @pytest.mark.parametrize("qmode", ["identity", "weighted", "qmatrix"])
    def test_given_loss_equals_named_loss(self, rng, qmode):
        for n_missing in (0, 4):
            if qmode == "weighted" and n_missing:
                continue
            table, _ = make_random_table(rng, 5, 4, k_max=5, n_missing=n_missing)
            d = build_design(table)
            ql = QLoss.of(d, qmode)
            assert ql.mode == qmode
            for lt in ((0.0, 0.0), (0.3, 0.8), (1.0, 0.5)):
                hp = HyperParams(
                    0.2,
                    np.inf if lt == (0.0, 0.0) else lam_from_tilde(lt[0]),
                    np.inf if lt == (0.0, 0.0) else lam_from_tilde(lt[1]),
                )
                ctx = SigmaContext(d, hp, sigma2=table.sigma2)
                y = table.y_observed
                # The loss given is the loss used, whatever qmode says.
                assert ure_value(ctx, y, 0.2, qloss=ql) == ure_value(
                    ctx, y, 0.2, qmode=qmode
                )
                assert ure_value(ctx, y, 0.2, qmode="weighted", qloss=ql) == (
                    ure_value(ctx, y, 0.2, qmode=qmode)
                )


class TestProfileMu:
    def test_constant_vector(self, rng):
        table = CellTable(np.ones((3, 3), int), np.full((3, 3), 4.2), 1.0)
        ctx = make_ctx(table, HyperParams(0.0, 1.3, 0.5))
        assert profile_mu_ure(ctx, table.y_observed) == pytest.approx(4.2)

    def test_zero_lambda_mean(self, rng):
        table, _ = make_random_table(rng, 3, 4)
        ctx = make_ctx(table, HyperParams(0.0, 0.0, 0.0))
        assert profile_mu_ure(ctx, table.y_observed) == pytest.approx(
            table.y_observed.mean()
        )

    def test_grid_search_oracle(self, rng):
        table, _ = make_random_table(rng, 4, 4, k_max=4)
        hp = HyperParams(0.0, 0.9, 2.0)
        ctx = make_ctx(table, hp)
        y = table.y_observed
        mu_hat = profile_mu_ure(ctx, y)
        grid = np.linspace(mu_hat - 1.0, mu_hat + 1.0, 2001)
        vals = [ure_value(ctx, y, m) for m in grid]
        assert abs(grid[int(np.argmin(vals))] - mu_hat) <= 1.5e-3

    def test_stationarity_fd(self, rng):
        table, _ = make_random_table(rng, 5, 5, k_max=3, effect_sd_a=2.0)
        ctx = make_ctx(table, HyperParams(0.0, 1.0, 1.0))
        y = table.y_observed
        mu_hat = profile_mu_ure(ctx, y)
        h = 1e-5
        fd = (ure_value(ctx, y, mu_hat + h) - ure_value(ctx, y, mu_hat - h)) / (2 * h)
        assert abs(fd) <= 1e-6 * max(abs(ure_value(ctx, y, mu_hat)), 1e-3)


class TestFitUre:
    def test_pure_noise_strong_shrinkage(self):
        # frozen calibration: 12/12 seeds gave lambda <= 0.021 on this family
        hits = 0
        for seed in range(10):
            rng = np.random.default_rng(100 + seed)
            y = rng.normal(0, 1, (20, 20))
            table = CellTable(np.ones((20, 20), int), y, 1.0)
            fit = fit_ure(table)
            if fit.hp.lambda_a <= 0.05 and fit.hp.lambda_b <= 0.05:
                hits += 1
        assert hits >= 9

    def test_huge_effects_keep_structure(self):
        for seed in range(3):
            rng = np.random.default_rng(200 + seed)
            al = rng.normal(0, 10, 15)
            be = rng.normal(0, 1, 12)
            eta = al[:, None] + be[None, :]
            y = eta + rng.normal(0, 1, (15, 12))
            table = CellTable(np.ones((15, 12), int), y, 1.0)
            fit = fit_ure(table)
            assert fit.hp.lambda_tilde_a <= 0.2

    def test_objective_self_consistency(self, rng):
        table, _ = make_random_table(rng, 5, 6, k_max=4, n_missing=4)
        fit = fit_ure(table)
        ctx = SigmaContext(
            build_design(table), fit.hp, mode="fast", sigma2=table.sigma2
        )
        recomputed = ure_value(ctx, table.y_observed, fit.hp.mu, qmode=fit.qmode)
        assert fit.objective == recomputed  # bit identical

    def test_grid_dominance_and_corners(self, rng):
        table, _ = make_random_table(rng, 5, 4, k_max=5)
        fit = fit_ure(table)
        d = build_design(table)
        y = table.y_observed
        lo, hi = quantile_bounds(table, 0.05)
        slack = 1e-12 * max(1.0, abs(fit.objective))
        for lt_a in np.linspace(0.0, 1.0, 33):
            for lt_b in np.linspace(0.0, 1.0, 33):
                if lt_a == 0.0 and lt_b == 0.0:
                    hp = HyperParams(0.0, np.inf, np.inf)
                    ctx = SigmaContext(d, hp, mode="fast", sigma2=table.sigma2)
                    val = ure_value(ctx, y, 0.0)
                else:
                    hp = HyperParams(
                        0.0, lam_from_tilde(lt_a), lam_from_tilde(lt_b)
                    )
                    ctx = SigmaContext(d, hp, mode="fast", sigma2=table.sigma2)
                    mu = float(np.clip(profile_mu_ure(ctx, y), lo, hi))
                    val = ure_value(ctx, y, mu)
                assert fit.objective <= val + slack

    def test_grid_dominance_missing_cells(self, rng):
        # completed-loss mode: the fit beats a coarse profiled grid too
        table, _ = make_random_table(rng, 5, 5, k_max=4, n_missing=4)
        fit = fit_ure(table)
        assert fit.qmode == "qmatrix"
        d = build_design(table)
        ql = q_matrix(d)
        y = table.y_observed
        lo, hi = quantile_bounds(table, 0.05)
        slack = 1e-12 * max(1.0, abs(fit.objective))
        for lt_a in np.linspace(0.0, 1.0, 9):
            for lt_b in np.linspace(0.0, 1.0, 9):
                if lt_a == 0.0 and lt_b == 0.0:
                    hp = HyperParams(0.0, np.inf, np.inf)
                    ctx = SigmaContext(d, hp, mode="fast", sigma2=table.sigma2)
                    val = ure_value(ctx, y, 0.0, qmode="qmatrix", qloss=ql)
                else:
                    hp = HyperParams(0.0, lam_from_tilde(lt_a), lam_from_tilde(lt_b))
                    ctx = SigmaContext(d, hp, mode="fast", sigma2=table.sigma2)
                    mu = float(np.clip(
                        profile_mu_ure(ctx, y, qmode="qmatrix", qloss=ql), lo, hi
                    ))
                    val = ure_value(ctx, y, mu, qmode="qmatrix", qloss=ql)
                assert fit.objective <= val + slack

    def test_bounds_respected(self, rng):
        table, _ = make_random_table(rng, 4, 4)
        fit = fit_ure(table, tau=0.5)
        lo, hi = fit.bounds
        assert lo <= fit.hp.mu <= hi

    def test_location_equivariance(self, rng):
        table, _ = make_random_table(rng, 5, 5, k_max=3, effect_sd_a=1.5)
        fit0 = fit_ure(table)
        delta = 11.0
        shifted = CellTable(
            table.counts, table.means + delta, table.sigma2
        )
        fit1 = fit_ure(shifted)
        # equivariance is exact in real arithmetic; allow optimizer float noise
        assert fit1.hp.mu == pytest.approx(fit0.hp.mu + delta, abs=2e-6)
        assert fit1.hp.lambda_tilde_a == pytest.approx(
            fit0.hp.lambda_tilde_a, abs=1e-6
        )
        assert fit1.hp.lambda_tilde_b == pytest.approx(
            fit0.hp.lambda_tilde_b, abs=1e-6
        )
        np.testing.assert_allclose(fit1.eta_obs, fit0.eta_obs + delta, atol=2e-6)


class TestFitMl:
    def test_objective_self_consistency(self, rng):
        table, _ = make_random_table(rng, 5, 5, k_max=4)
        fit = fit_ml(table)
        ctx = SigmaContext(
            build_design(table), fit.hp, mode="fast", sigma2=table.sigma2
        )
        assert fit.objective == marginal_loglik(ctx, table.y_observed, fit.hp.mu)

    def test_objective_beats_grid(self, rng):
        table, _ = make_random_table(rng, 4, 5, k_max=3)
        fit = fit_ml(table)
        d = build_design(table)
        y = table.y_observed
        slack = 1e-12 * max(1.0, abs(fit.objective))
        for lt_a in np.linspace(0.0, 1.0, 9)[1:]:
            for lt_b in np.linspace(0.0, 1.0, 9)[1:]:
                hp = HyperParams(0.0, lam_from_tilde(lt_a), lam_from_tilde(lt_b))
                ctx = SigmaContext(d, hp, mode="fast", sigma2=table.sigma2)
                mu = float(np.clip(profile_mu_gls(ctx, y), *fit.bounds))
                assert fit.objective >= marginal_loglik(ctx, y, mu) - slack

    def test_pure_noise_small_lambda(self):
        rng = np.random.default_rng(42)
        y = rng.normal(0, 1, (20, 20))
        table = CellTable(np.ones((20, 20), int), y, 1.0)
        fit = fit_ml(table)
        assert fit.hp.lambda_a <= 0.05 and fit.hp.lambda_b <= 0.05

    def test_balanced_agreement_with_ure(self):
        # calibration: observed ||d||/sqrt(rc) <= 0.003 over seeds 300..305
        for seed in range(3):
            rng = np.random.default_rng(300 + seed)
            al, be = rng.normal(0, 1.0, 12), rng.normal(0, 0.7, 12)
            eta = 0.5 + al[:, None] + be[None, :]
            y = eta + rng.normal(0, 1, (12, 12)) / np.sqrt(2)
            table = CellTable(np.full((12, 12), 2), y, 1.0)
            f_ure, f_ml = fit_ure(table), fit_ml(table)
            diff = np.linalg.norm(f_ure.eta_obs - f_ml.eta_obs) / 12.0
            assert diff <= 0.02

    def test_unbalanced_divergence(self):
        table, _ = gen_scenario(ebmle_stress_scenario(), 0)
        f_ure, f_ml = fit_ure(table), fit_ml(table)
        rc = table.r * table.c
        diff = np.linalg.norm(f_ure.eta_obs - f_ml.eta_obs) / np.sqrt(rc)
        assert diff > 10 * 1e-10


class TestEstimatingEquations:
    def _interior_fit(self, seed=1, method="ure"):
        rng = np.random.default_rng(seed)
        al = rng.normal(0, 1.2, 10)
        be = rng.normal(0, 0.9, 10)
        counts = rng.integers(1, 5, size=(10, 10))
        eta = 0.3 + al[:, None] + be[None, :]
        y = eta + rng.normal(0, 1, (10, 10)) / np.sqrt(counts)
        table = CellTable(counts, y, 1.0)
        fit = fit_ure(table) if method == "ure" else fit_ml(table)
        return table, fit

    def test_interior_residuals_small(self):
        for method in ("ure", "ml"):
            table, fit = self._interior_fit(method=method)
            assert np.isfinite(fit.hp.lambda_a) and fit.hp.lambda_a > 0
            assert not fit.mu_clamped
            res = fit.diagnostics["estimating_eq"]
            scales = fit.diagnostics["residual_scales"]
            assert abs(res[1]) <= 1e-4 * scales[1]
            assert abs(res[2]) <= 1e-4 * scales[2]
            assert abs(res[0]) <= 1e-4 * scales[0]

    def test_boundary_kkt_sign(self):
        rng = np.random.default_rng(77)
        y = rng.normal(0, 1, (15, 15))  # pure noise: boundary lambda = 0
        table = CellTable(np.ones((15, 15), int), y, 1.0)
        fit = fit_ure(table)
        if fit.hp.lambda_a > 0 and fit.hp.lambda_b > 0:
            pytest.skip("draw did not hit the boundary")
        res = fit.diagnostics["estimating_eq"]
        scales = fit.diagnostics["residual_scales"]
        if fit.hp.lambda_a == 0.0:
            assert res[1] >= -1e-4 * scales[1]
        if fit.hp.lambda_b == 0.0:
            assert res[2] >= -1e-4 * scales[2]

    def test_finite_difference_consistency(self, rng):
        # res_a equals (rc / 2 sigma2) * dURE/dlambda_a at fixed mu
        table, _ = make_random_table(rng, 6, 5, k_max=4)
        d = build_design(table)
        y = table.y_observed
        rc = d.r * d.c
        for _ in range(3):
            hp = HyperParams(
                0.1, float(rng.uniform(0.3, 3.0)), float(rng.uniform(0.3, 3.0))
            )
            res = estimating_eq_at(table, hp, "URE", qmode="identity")
            h = 1e-5 * (1.0 + hp.lambda_a)
            up = HyperParams(hp.mu, hp.lambda_a + h, hp.lambda_b)
            dn = HyperParams(hp.mu, hp.lambda_a - h, hp.lambda_b)
            fd = (
                ure_value(make_ctx(table, up), y, hp.mu, qmode="identity")
                - ure_value(make_ctx(table, dn), y, hp.mu, qmode="identity")
            ) / (2 * h)
            analytic = 2.0 * table.sigma2 / rc * res[1]
            assert fd == pytest.approx(analytic, rel=1e-5, abs=1e-12)

    def test_finite_difference_ml(self, rng):
        # res_a equals -2 d loglik / d lambda_a at fixed mu
        table, _ = make_random_table(rng, 5, 5, k_max=3)
        y = table.y_observed
        hp = HyperParams(0.0, 1.1, 0.6)
        res = estimating_eq_at(table, hp, "EBMLE")
        h = 1e-6 * (1.0 + hp.lambda_a)
        up = HyperParams(hp.mu, hp.lambda_a + h, hp.lambda_b)
        dn = HyperParams(hp.mu, hp.lambda_a - h, hp.lambda_b)
        fd = (
            marginal_loglik(make_ctx(table, up), y, hp.mu)
            - marginal_loglik(make_ctx(table, dn), y, hp.mu)
        ) / (2 * h)
        assert -2.0 * fd == pytest.approx(res[1], rel=1e-5, abs=1e-10)

    def test_residuals_bitwise_equal_fit_diagnostics(self, rng):
        complete, _ = make_random_table(rng, 7, 5, k_max=6, effect_sd_a=1.5)
        missing, _ = make_random_table(rng, 7, 5, k_max=6, n_missing=5)
        fits = [
            (complete, fit_ure(complete)),
            (complete, FitEngine(complete, qmode="weighted").fit(
                complete.y_observed, "URE")),
            (missing, fit_ure(missing)),
            (missing, fit_ml(missing)),
        ]
        assert [f.qmode for _, f in fits] == [
            "identity", "weighted", "qmatrix", "qmatrix"
        ]
        for table, fit in fits:
            expected = fit.diagnostics["estimating_eq"]
            assert estimating_eq_at(table, fit.hp, fit.method, fit.qmode) == expected

    def test_a_wls_fit_has_no_residuals(self, rng):
        table, _ = make_random_table(rng, 4, 3, k_max=4)
        assert "estimating_eq" not in wls_fit_full(table).diagnostics

    def test_a_corner_fit_has_no_residuals(self, rng):
        # non-additive means and little noise: URE keeps y, the corner
        table = CellTable(np.full((4, 3), 2), rng.normal(0, 3, (4, 3)), 0.01)
        fit = fit_ure(table)
        assert fit.diagnostics["lambda_tilde"] == (0.0, 0.0)
        assert "estimating_eq" not in fit.diagnostics


class TestOracle:
    def test_zero_noise_interpolation(self, rng):
        table, eta = make_random_table(rng, 4, 5, noise=False)
        eta_obs = table.y_observed
        fit = FitEngine(table).fit(eta_obs, "ORACLE", true_eta_obs=eta_obs)
        assert fit.objective <= 1e-6

    def test_definitional_dominance(self):
        spec = ScenarioSpec(5, 5, count_law=UniformCounts(1, 4), missing_frac=0.12,
                            seed=3)
        assert_oracle_is_the_smallest_family_loss(spec, 5)

    def test_random_probe_dominance(self, rng):
        table, eta = make_random_table(rng, 4, 4, k_max=3)
        d = build_design(table)
        eta_obs = eta.reshape(4, 4)[table.counts > 0]
        orc = FitEngine(table).fit(table.y_observed, "ORACLE", true_eta_obs=eta_obs)
        lo, hi = quantile_bounds(table, 0.05)
        for _ in range(100):
            hp = HyperParams(
                float(rng.uniform(lo, hi)),
                float(rng.uniform(0, 50)),
                float(rng.uniform(0, 50)),
            )
            ctx = SigmaContext(d, hp, mode="fast", sigma2=table.sigma2)
            probe = complete_means(d, bayes_estimate(ctx, table.y_observed, hp.mu))
            assert orc.objective <= loss_ss(probe, eta) + 1e-8

    def test_requires_truth(self, rng):
        table, _ = make_random_table(rng, 3, 3)
        with pytest.raises(ValueError, match="oracle fit requires the true"):
            FitEngine(table).fit(table.y_observed, "ORACLE")


class TestThreadPinning:
    def test_fits_bitwise_equal_with_and_without_pin(self, monkeypatch):
        from twoway_shrink import linear_core

        table, _ = make_random_table(
            np.random.default_rng(7), 30, 5, k_max=4, n_missing=25
        )
        pinned = [fit_ure(table), fit_ml(table)]
        monkeypatch.setattr(linear_core, "_scipy_openblas_threads", lambda: None)
        unpinned = [fit_ure(table), fit_ml(table)]
        for a, b in zip(pinned, unpinned):
            assert a.hp == b.hp
            assert np.array_equal(a.eta_complete, b.eta_complete)


def _rel_err(a, b):
    return np.abs(a - b) / np.maximum(1.0, np.abs(b))


class TestAbsorbedGrid:
    """The absorbed grid against capacitance bundles at the same points."""

    @pytest.mark.parametrize(
        "r, c, n_missing",
        [(7, 4, 0), (4, 7, 0), (5, 5, 0), (2, 2, 0), (9, 5, 8), (5, 9, 8)],
    )
    def test_matches_capacitance_bundles(self, rng, r, c, n_missing):
        table, eta = make_random_table(rng, r, c, k_max=20, n_missing=n_missing)
        eta_obs = eta[(table.counts > 0).ravel()]
        for qmode in ("identity", "qmatrix"):
            engine = FitEngine(table, qmode=qmode)
            grid = engine._loss_grid()
            ref = CapacitanceBundle(engine, grid.lt)
            # Points with a lambda_tilde = 0 coordinate sit at lambda = 1e12,
            # where the capacitance path amplifies rounding by lambda.
            edge = (grid.lt == 0.0).any(axis=1)
            for name in ("logdet", "tr_red"):
                err = _rel_err(getattr(grid, name), getattr(ref, name))
                assert err[~edge].max() <= 1e-12, name
                assert err[edge].max() <= 1e-11, name
            pieces = engine._data_pieces(table.y_observed, eta_obs)
            for method in ("URE", "EBMLE", "ORACLE"):
                obj, mu, _ = engine._score(grid, pieces, method)
                obj_ref, mu_ref, _ = evaluate_bundle(engine, ref, pieces, method)
                err = _rel_err(obj, obj_ref)
                assert err[~edge].max() <= 1e-10, (qmode, method)
                assert err[edge].max() <= 1e-9, (qmode, method)
                assert np.argmin(obj) == np.argmin(obj_ref), (qmode, method)

    def test_holds_no_per_point_capacitance_inverses(self, rng):
        table, _ = make_random_table(rng, 30, 5, k_max=20, n_missing=20)
        engine = FitEngine(table)
        q = engine.design.q
        n_points = len(engine._grid_bundle.lt)
        assert n_points == 33 * 33 - 1
        arrays = list(vars(engine).values())
        for value in vars(engine).values():
            arrays += [getattr(value, s, None) for s in getattr(value, "__slots__", ())]
        shapes = [a.shape for a in arrays if isinstance(a, np.ndarray)]
        assert (n_points, q, q) not in shapes
        assert not any(len(s) == 3 and s[0] == n_points for s in shapes)


def _scorer_designs(rng, n):
    """Random tables: complete and missing, r >= c and r < c, counts 1..20."""
    for i in range(n):
        r, c = sorted(int(k) for k in rng.integers(2, 10, 2))
        if i % 4 < 2:
            r, c = c, r
        missing = i % 2 == 1
        n_missing = (r * c) // 5 if missing else 0
        yield make_random_table(rng, r, c, k_max=20, n_missing=n_missing)


class TestSinglePointScorer:
    """The engine's single-point scorer against the batch capacitance oracle.

    Each point is scored as a batch of one, the shape every refinement
    evaluation had before the scorer existed.  Larger batches round the
    solve terms differently (batched products), so they are not compared
    here; the grid test above covers them with tolerances.
    """

    def test_bit_identical_to_batch_oracle(self, rng):
        n_points = 0
        for table, eta in _scorer_designs(rng, 56):
            eta_obs = eta[(table.counts > 0).ravel()]
            qmodes = ("identity", "qmatrix")
            if table.is_complete:
                qmodes += ("weighted",)
            for qmode in qmodes:
                engine = FitEngine(table, qmode=qmode)
                pieces = engine._data_pieces(table.y_observed, eta_obs)
                x = float(rng.uniform(0.05, 0.95))
                points = [(1e-6, 1e-6), (0.0, x), (x, 0.0), (1.0, 1.0)]
                points += [tuple(rng.uniform(0.0, 1.0, 2)) for _ in range(3)]
                for lt in points:
                    bundle = CapacitanceBundle(engine, np.array([lt]))
                    for method in ("URE", "EBMLE", "ORACLE"):
                        got = engine._score_point(lt, pieces, method)
                        obj, mu, clamped = evaluate_bundle(engine, bundle, pieces, method)
                        want = (float(obj[0]), float(mu[0]), bool(clamped[0]))
                        assert got == want, (table.r, table.c, qmode, lt, method)
                        n_points += 1
        assert n_points >= 50 * 7 * 3

    def test_corner_and_public_entry(self, rng):
        table, eta = make_random_table(rng, 6, 4, k_max=20, n_missing=4)
        eta_obs = eta[(table.counts > 0).ravel()]
        engine = FitEngine(table)
        y = table.y_observed
        pieces = engine._data_pieces(y, eta_obs)
        mid = 0.5 * (engine.bounds[0] + engine.bounds[1])
        ure = engine.objective_at((0.0, 0.0), y, "ure")
        assert ure == (engine.sigma2 * engine.qloss.trace_qm / engine.rc, mid, False)
        loss = engine.objective_at((0.0, 0.0), y, "ORACLE", true_eta_obs=eta_obs)
        assert loss[0] == pytest.approx(
            float((y - eta_obs) @ engine.qloss.apply(y - eta_obs)) / engine.rc,
            rel=1e-12,
        )
        assert loss[1:] == (mid, False)
        assert engine.objective_at((0.0, 0.0), y, "EBMLE")[0] == np.inf
        for method in ("URE", "EBMLE", "ORACLE"):
            got = engine.objective_at((0.3, 0.8), y, method, eta_obs)
            assert got == engine._score_point((0.3, 0.8), pieces, method)
        with pytest.raises(ValueError):
            engine.objective_at((0.3, 0.8), y, "ORACLE")
        with pytest.raises(ValueError):
            engine.objective_at((0.3, 0.8), y, "WLS")


class TestOneOptimizer:
    """Nelder-Mead is the fit's only refinement, and it leaves nothing to gain."""

    def test_each_fit_runs_nelder_mead_once(self, rng, monkeypatch):
        from twoway_shrink import estimators

        calls = []
        real = estimators.minimize

        def recording(*args, **kwargs):
            calls.append("Nelder-Mead")
            return real(*args, **kwargs)

        monkeypatch.setattr(estimators, "minimize", recording)
        table, eta = make_random_table(rng, 8, 5, k_max=6, n_missing=4)
        eta_obs = eta[(table.counts > 0).ravel()]
        engine = FitEngine(table)
        y = table.y_observed
        for method in ("URE", "EBMLE"):
            calls.clear()
            engine.fit(y, method)
            assert calls == ["Nelder-Mead"], method
        calls.clear()
        engine.fit(y, "ORACLE", true_eta_obs=eta_obs)
        assert calls == ["Nelder-Mead"]

    def test_exact_ties_prefer_strongest_shrinkage(self, monkeypatch):
        # All observed means equal and eta = y: every grid point's realized
        # loss is rounding noise of 0, so all 1,089 points tie.  The pick is
        # the largest lambda_tilde_a, then the largest lambda_tilde_b, and
        # Nelder-Mead starts there; the corner is the last resort.
        from twoway_shrink import estimators

        starts = []
        real = estimators.minimize

        def recording(fun, x0, *args, **kwargs):
            starts.append(tuple(x0))
            return real(fun, x0, *args, **kwargs)

        monkeypatch.setattr(estimators, "minimize", recording)
        counts = np.random.default_rng(0).integers(1, 6, size=(6, 4))
        table = CellTable(counts, np.full((6, 4), 0.7), 1.0)
        y = table.y_observed
        fit = FitEngine(table).fit(y, "ORACLE", true_eta_obs=y)
        assert starts == [(1.0, 1.0)]
        axis = np.linspace(0.0, 1.0, 33)
        grid = [(a, b) for a in axis for b in axis if (a, b) != (0.0, 0.0)]
        assert fit.diagnostics["grid_ties"] == grid + [(0.0, 0.0)]

    @staticmethod
    def _polish_gains(rng):
        """(design kind, r >= c, lambda_tilde, objective, gain) per fit.

        20 random designs: complete tables with the plain and the weighted
        loss, missing-cell tables with Q; URE and EBMLE fits.  The gain is
        how much :func:`lbfgs_polish` from the fit's lambda_tilde lowers
        the objective; fits at the unshrunken corner are left out.
        """
        out = []
        for i in range(20):
            r, c = sorted(int(k) for k in rng.integers(3, 10, 2))
            c += r == c
            if i % 2:
                r, c = c, r
            qmode = ("identity", "weighted", "qmatrix")[i % 3]
            n_missing = (r * c) // 5 if qmode == "qmatrix" else 0
            table, _ = make_random_table(
                rng, r, c, k_max=20, n_missing=n_missing,
                effect_sd_a=float(rng.uniform(0.2, 1.5)),
                effect_sd_b=float(rng.uniform(0.2, 1.5)),
            )
            engine = FitEngine(table, qmode=qmode)
            y = table.y_observed
            methods = ("URE",) if qmode == "weighted" else ("URE", "EBMLE")
            for method in methods:
                lt = engine.fit(y, method).diagnostics["lambda_tilde"]
                if lt == (0.0, 0.0):
                    continue
                obj = engine.objective_at(lt, y, method)[0]
                _, polished = lbfgs_polish(engine, lt, y, method)
                out.append(((qmode, method), r >= c, lt, obj, obj - polished))
        return out

    def test_lbfgs_polish_finds_no_gain(self, rng):
        # The gate for dropping the polish, on the fits it used to run from
        # (both lambda_tilde in (1e-4, 1 - 1e-4)): a derivative-based
        # search improves no objective by more than 1e-12 relative.
        gains = [
            g for g in self._polish_gains(rng)
            if all(1e-4 < t < 1.0 - 1e-4 for t in g[2])
        ]
        for kind, _, lt, obj, gain in gains:
            assert gain <= 1e-12 * max(1.0, abs(obj)), (kind, lt, obj, gain)
        assert {(kind, tall) for kind, tall, *_ in gains} == {
            (kind, tall)
            for kind in [("identity", "URE"), ("identity", "EBMLE"),
                         ("weighted", "URE"), ("qmatrix", "URE"),
                         ("qmatrix", "EBMLE")]
            for tall in (True, False)
        }
        assert len(gains) >= 25

    @pytest.mark.xfail(
        strict=True,
        raises=AssertionError,
        reason="Nelder-Mead stalls on the lambda_tilde = 1 edge (lambda = 0) "
        "when the optimum lies just inside it",
    )
    def test_lbfgs_polish_finds_no_gain_at_an_edge_fit(self):
        # Small column effects put the likelihood optimum at lambda_tilde_b
        # of about 0.993; Nelder-Mead returns lambda_tilde_b = 1 exactly.
        table, _ = make_random_table(
            np.random.default_rng(4), 4, 7, k_max=20, effect_sd_b=0.25
        )
        engine = FitEngine(table)
        y = table.y_observed
        lt = engine.fit(y, "EBMLE").diagnostics["lambda_tilde"]
        if lt[1] != 1.0:
            pytest.fail(f"the fit left the lambda_tilde_b = 1 edge: {lt}")
        obj = engine.objective_at(lt, y, "EBMLE")[0]
        _, polished = lbfgs_polish(engine, lt, y, "EBMLE")
        assert obj - polished <= 1e-12 * max(1.0, abs(obj))


class TestWeightedTransform:
    def test_identity_when_unit_counts(self, rng):
        table, _ = make_random_table(rng, 3, 4, k_max=1)
        wp = weighted_transform(table)
        np.testing.assert_array_equal(wp.sqrt_k * table.y_observed, table.y_observed)
        np.testing.assert_array_equal(wp.sqrt_k, np.ones(12))

    def test_loss_correspondence(self, rng):
        from twoway_shrink import loss_weighted

        table, _ = make_random_table(rng, 4, 4, k_max=6)
        wp = weighted_transform(table)
        a = rng.normal(0, 1, 16)
        b = rng.normal(0, 1, 16)
        lhs = loss_weighted(a, b, table)
        rhs = loss_ss(wp.sqrt_k * a, wp.sqrt_k * b)
        # both normalized by rc = number of observed cells here
        assert lhs == pytest.approx(rhs * 16 / 16, rel=1e-12)

    def test_shrinkage_matrix_symmetric(self, rng):
        table, _ = make_random_table(rng, 4, 5, k_max=7)
        wp = weighted_transform(table)
        v = wp.shrinkage_matrix(1.3, 0.4)
        assert np.max(np.abs(v - v.T)) <= 1e-12

    def test_rejects_missing_cells(self, rng):
        table, _ = make_random_table(rng, 4, 4, n_missing=2)
        with pytest.raises(ValueError):
            weighted_transform(table)

    def test_fit_runs_and_is_consistent(self, rng):
        table, _ = make_random_table(rng, 5, 4, k_max=5, effect_sd_a=1.5)
        wp = weighted_transform(table)
        hp, eta_orig, objective = wp.fit_ure()
        assert np.isfinite(objective)
        assert objective == pytest.approx(
            weighted_ure(wp, hp.mu, hp.lambda_a, hp.lambda_b), rel=1e-12
        )
        assert eta_orig.shape == (20,)


def _complete_designs(rng, n):
    """Random complete tables with counts 1..20, alternating r = c and r != c."""
    for i in range(n):
        r = int(rng.integers(2, 9))
        c = r if i % 2 else int(rng.choice([k for k in range(2, 9) if k != r]))
        yield make_random_table(rng, r, c, k_max=20, effect_sd_a=1.5)[0]


class TestWeightedLoss:
    """FitEngine's count-weighted loss against the dense transformed problem."""

    def test_ure_matches_dense_transformed_oracle(self, rng):
        worst = 0.0
        for table in _complete_designs(rng, 60):
            wp = weighted_transform(table)
            engine = FitEngine(table, qmode="weighted")
            lt = tuple(float(t) for t in rng.uniform(0.1, 1.0, 2))
            obj, mu, _ = engine.objective_at(lt, table.y_observed, "URE")
            hp = HyperParams(mu, lam_from_tilde(lt[0]), lam_from_tilde(lt[1]))
            ref = weighted_ure(wp, mu, hp.lambda_a, hp.lambda_b)
            ctx = SigmaContext(engine.design, hp, sigma2=table.sigma2)
            for got in (obj, ure_value(ctx, table.y_observed, mu, qmode="weighted")):
                worst = max(worst, abs(got - ref) / max(abs(ref), 1e-12))
        assert worst <= 1e-9

    def test_fit_not_worse_than_oracle_grid(self, rng):
        for table in _complete_designs(rng, 6):
            wp = weighted_transform(table)
            hp, eta, objective = wp.fit_ure()
            assert objective <= weighted_grid_min(wp) + 1e-10 * max(1.0, abs(objective))
            assert objective == pytest.approx(
                weighted_ure(wp, hp.mu, hp.lambda_a, hp.lambda_b), rel=1e-9
            )
            _, eta_ref = weighted_bayes_estimate(wp, hp.mu, hp.lambda_a, hp.lambda_b)
            np.testing.assert_allclose(eta, eta_ref, rtol=0, atol=1e-9)

    def test_engine_holds_no_n_by_n_array(self, rng):
        table, _ = make_random_table(rng, 12, 9, k_max=20)
        engine = FitEngine(table, qmode="weighted")
        n = engine.n
        values = list(vars(engine).values())
        for value in list(values):
            values += [getattr(value, s, None) for s in getattr(value, "__slots__", ())]
        values += list(vars(engine.qloss).values())
        shapes = [v.shape for v in values if isinstance(v, np.ndarray)]
        assert (n, n) not in shapes
        assert engine.qloss.Q is None


def study_fit_losses(spec, n):
    """Per replicate, the losses of the URE, EBMLE and oracle fits that a
    study of ``spec`` makes, refitted on an engine built as the study builds
    it; rows are replicates."""
    table0, eta = gen_scenario(spec, 0)
    engine = FitEngine(table0)
    eta_obs = eta[(table0.counts > 0).ravel()]
    losses = []
    for rep in range(n):
        y = gen_scenario(spec, rep)[0].y_observed
        fits = [engine.fit(y, "URE"), engine.fit(y, "EBMLE"),
                engine.fit(y, "ORACLE", true_eta_obs=eta_obs)]
        losses.append([loss_ss(f.eta_complete, eta) for f in fits])
    return np.array(losses)


def assert_oracle_is_the_smallest_family_loss(spec, n):
    """The study's oracle loss is, replicate by replicate and exactly, the
    smallest of its oracle fit's, URE's and EBMLE's losses."""
    rt = compare_estimators(spec, n, estimators=("ebmle", "ure", "oracle"))
    assert rt.n_reps == n
    ure, ebmle, oracle = study_fit_losses(spec, n).T
    assert np.array_equal(rt.losses["ure"], ure)
    assert np.array_equal(rt.losses["ebmle"], ebmle)
    assert np.array_equal(rt.losses["oracle"], np.minimum(oracle, np.minimum(ure, ebmle)))
    assert np.all(rt.losses["oracle"] <= rt.losses["ure"])
    assert np.all(rt.losses["oracle"] <= rt.losses["ebmle"])
    return rt


class TestDominanceChain:
    def test_loss_chain_on_replicates(self):
        spec = ScenarioSpec(6, 6, count_law=UniformCounts(1, 3),
                            effect_law_a=NormalEffects(0.7), seed=4)
        assert_oracle_is_the_smallest_family_loss(spec, 3)


def _three_component_table():
    """Rows a-c x columns x-z, rows d-e x columns w-v, and an empty column u."""
    counts = np.zeros((5, 6), int)
    counts[:3, :3] = 1
    counts[3:, 3:5] = 2
    means = np.where(counts > 0, 1.0, np.nan)
    return CellTable(counts, means, 1.0, row_labels=tuple("abcde"),
                     col_labels=tuple("xyzwvu"))


THREE_COMPONENTS = (
    "design is disconnected; component 1: rows ['a', 'b', 'c'], cols ['x', 'y', 'z']; "
    "component 2: rows ['d', 'e'], cols ['w', 'v']; component 3: rows [], cols ['u']"
)


class TestFitValidation:
    @pytest.mark.parametrize("entry", [
        build_design,
        FitEngine,
        fit_ure,
        fit_ml,
        wls_fit_full,
        a2_statistic,
    ], ids=["build_design", "FitEngine", "fit_ure", "fit_ml", "wls_fit_full",
            "a2_statistic"])
    def test_disconnected_table_names_every_component(self, entry):
        with pytest.raises(DisconnectedDesignError) as exc:
            entry(_three_component_table())
        assert str(exc.value) == THREE_COMPONENTS

    def test_disconnected_design_rejected(self):
        counts = np.array([[1, 1, 0, 0], [1, 1, 0, 0], [0, 0, 1, 1], [0, 0, 1, 1]])
        means = np.where(counts > 0, 1.0, np.nan)
        table = CellTable(counts, means, 1.0)
        with pytest.raises(DisconnectedDesignError):
            fit_ure(table)

    def test_completion_identity_on_fits(self, rng):
        table, _ = make_random_table(rng, 4, 5, k_max=3, n_missing=3)
        d = build_design(table)
        for fit in (fit_ure(table), fit_ml(table)):
            np.testing.assert_allclose(
                fit.eta_complete, d.completion_map() @ fit.eta_obs, atol=1e-12
            )


def _same_fit(a, b):
    return (
        a.hp == b.hp
        and a.objective == b.objective
        and a.mu_clamped == b.mu_clamped
        and a.eta_obs.tobytes() == b.eta_obs.tobytes()
        and a.eta_complete.tobytes() == b.eta_complete.tobytes()
        and a.diagnostics == b.diagnostics
    )


class TestLazyLoss:
    """The completed loss is built by the criteria that read it, once."""

    def test_likelihood_fits_build_no_completed_loss(self, rng, monkeypatch):
        from twoway_shrink import risk_metrics, tables

        table, _ = make_random_table(rng, 12, 5, k_max=20, n_missing=15)
        y = table.y_observed
        expected = fit_ml(table)

        def refuse(*args):
            raise AssertionError("the completed loss was built")

        monkeypatch.setattr(risk_metrics, "q_matrix", refuse)
        monkeypatch.setattr(tables.DesignSet, "completion_map", property(refuse))
        assert _same_fit(fit_ml(table), expected)
        engine = FitEngine(table, qmode="auto")
        assert engine.qmode == "qmatrix"
        fit = engine.fit(y, "EBMLE")
        assert _same_fit(fit, expected)
        assert fit.qmode == fit.diagnostics["qmode"] == "qmatrix"
        assert engine.objective_at((0.4, 0.7), y, "ebmle")[0] < np.inf
        with pytest.raises(AssertionError, match="completed loss"):
            engine.fit(y, "URE")

    @pytest.mark.parametrize("order", [
        ("EBMLE", "URE", "ORACLE"), ("URE", "EBMLE", "ORACLE"),
    ])
    def test_shared_engine_fits_equal_fresh_engines(self, rng, order):
        table, eta = make_random_table(rng, 9, 5, k_max=20, n_missing=8)
        eta_obs = eta[(table.counts > 0).ravel()]
        y = table.y_observed
        engine = FitEngine(table)
        for method in order:
            shared = engine.fit(y, method, eta_obs)
            fresh = FitEngine(table).fit(y, method, eta_obs)
            assert _same_fit(shared, fresh), method

    def test_constructor_validates_qmode(self, rng):
        complete, _ = make_random_table(rng, 4, 5)
        missing, _ = make_random_table(rng, 4, 5, n_missing=3)
        with pytest.raises(ValueError, match="unknown qmode"):
            FitEngine(complete, qmode="bogus")
        with pytest.raises(ValueError, match="fully observed"):
            FitEngine(missing, qmode="weighted")

    def test_likelihood_engine_holds_no_n_by_n_array(self, rng):
        table, _ = make_random_table(rng, 30, 6, k_max=20, n_missing=50)
        engine = FitEngine(table, qmode="auto")
        engine.fit(table.y_observed, "EBMLE")
        n = engine.n
        values = list(vars(engine).values())
        for value in list(values):
            values += [getattr(value, s, None) for s in getattr(value, "__slots__", ())]
        shapes = [v.shape for v in values if isinstance(v, np.ndarray)]
        assert (n, n) not in shapes
        assert "qloss" not in vars(engine)

    def test_likelihood_fit_on_a_missing_table_stays_small(self):
        """A 150 x 40 table with 30% of cells missing: Q alone (4,200 cells
        observed) would be 141 MB."""
        import tracemalloc

        rng = np.random.default_rng(150)
        counts = rng.integers(1, 21, size=(150, 40))
        counts.ravel()[rng.choice(counts.size, counts.size * 3 // 10, replace=False)] = 0
        means = np.where(counts > 0, rng.normal(0, 1, counts.shape), np.nan)
        table = CellTable(counts, means, 1.0)
        tracemalloc.start()
        try:
            fit_ml(table)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 20e6, f"fit_ml peak {peak / 1e6:.1f} MB"

    def test_ure_engine_keeps_no_completion_map(self):
        """A 120 x 8 table with 30% of cells missing: the rc x n completion
        map is 5.2 MB and Q (672 cells observed) 3.6 MB.  After a URE fit
        the engine keeps Q, and nothing keeps the map."""
        import tracemalloc

        rng = np.random.default_rng(120)
        counts = rng.integers(1, 21, size=(120, 8))
        counts.ravel()[rng.choice(counts.size, counts.size * 3 // 10, replace=False)] = 0
        means = np.where(counts > 0, rng.normal(0, 1, counts.shape), np.nan)
        table = CellTable(counts, means, 1.0)
        map_bytes = 8 * counts.size * table.n_observed
        tracemalloc.start()
        try:
            engine = FitEngine(table)
            fit = engine.fit(table.y_observed, "URE")
            held, _ = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert fit.qmode == "qmatrix"
        assert held < map_bytes, f"{held / 1e6:.1f} MB held after the fit"


class TestScoreGap:
    """A fit reports how far the scorer's value of its pick is from the
    exact re-evaluation, and warns when they disagree."""

    def test_oracle_wls_limit_pick_warns_and_the_study_takes_ure(self, caplog):
        # On replicate 4 the ORACLE scorer undershoots at the WLS limit: the
        # oracle fit returns that pick and warns of a relative gap of 9.1e-4,
        # and the study records URE's smaller loss as the oracle's.
        spec = ebmle_stress_scenario(seed=20)
        with caplog.at_level("WARNING", logger="twoway_shrink"):
            rt = compare_estimators(spec, 10, estimators=("ebmle", "ure", "oracle"))
        [record] = caplog.records
        message = record.getMessage()
        assert message.startswith("ORACLE fit at lambda_tilde (1.00085e-06, 9.98909e-07)")
        assert "relative gap 0.000914" in message
        ure, ebmle, oracle = study_fit_losses(spec, 5)[4]
        assert oracle > ure == rt.losses["ure"][4] == rt.losses["oracle"][4]

    def test_returned_wls_limit_pick_warns(self, caplog):
        rng = np.random.default_rng(1)
        counts = rng.integers(1, 500, (30, 30))
        table = CellTable(counts, rng.normal(0, 1, (30, 30)), 1.0)
        with caplog.at_level("WARNING", logger="twoway_shrink"):
            fit = fit_ml(table)
        assert fit.diagnostics["lambda_tilde"] == (1e-6, 1e-6)
        assert fit.diagnostics["score_gap"] > 0.03
        [record] = caplog.records
        message = record.getMessage()
        assert record.name == "twoway_shrink"
        assert message.startswith("EBMLE fit at lambda_tilde (1e-06, 1e-06)")
        assert "relative gap 0.0399" in message

    def test_normal_fits_do_not_warn(self, rng, caplog):
        table, _ = make_random_table(rng, 8, 6, k_max=20, n_missing=6)
        with caplog.at_level("WARNING", logger="twoway_shrink"):
            fits = [fit_ure(table), fit_ml(table)]
        assert caplog.records == []
        for fit in fits:
            assert 0.0 <= fit.diagnostics["score_gap"] <= 1e-12, fit.method


class TestUnfactorableCandidates:
    """A refinement candidate whose capacitance matrix C = I + S G_w S is not
    positive definite in float64 scores +inf: the fit skips it with one
    warning and returns the best of the rest."""

    @staticmethod
    def large_count_table():
        # Counts up to 2000 put C at the WLS limit (lambda ~ 1e12) beyond
        # float64's reach; the likelihood's grid pick is interior.
        rng = np.random.default_rng(7)
        counts = rng.integers(1, 2000, (20, 20))
        return CellTable(counts, rng.normal(0, 1, (20, 20)), 1.0)

    def test_wls_limit_is_skipped(self, caplog):
        table = self.large_count_table()
        with caplog.at_level("WARNING", logger="twoway_shrink"):
            fits = [fit_ure(table), fit_ml(table)]
        assert [r.getMessage() for r in caplog.records] == [
            f"{method} fit: 1 candidate(s) skipped, their capacitance matrix could "
            "not be factored; the first at lambda_tilde (1e-06, 1e-06)"
            for method in ("URE", "EBMLE")
        ]
        for fit in fits:
            assert fit.diagnostics["skipped_candidates"] == 1
            assert np.isfinite(fit.objective)
        lt = np.array(fits[1].diagnostics["lambda_tilde"])
        assert np.all((lt > 0.9) & (lt < 1.0)), lt

    def test_oracle_skips_the_unfactorable_wls_limit(self):
        table = self.large_count_table()
        eta = table.y_observed + 0.01
        fit = FitEngine(table).fit(table.y_observed, "ORACLE", true_eta_obs=eta)
        assert fit.diagnostics["skipped_candidates"] == 1
        assert np.isfinite(fit.objective)

    def test_single_point_scorer_still_raises(self):
        from twoway_shrink.linear_core import NumericError

        table = self.large_count_table()
        with pytest.raises(NumericError):
            FitEngine(table).objective_at((1e-6, 1e-6), table.y_observed, "EBMLE")

    def test_no_key_when_nothing_is_skipped(self, rng):
        table, _ = make_random_table(rng, 8, 6, k_max=20, n_missing=6)
        for fit in (fit_ure(table), fit_ml(table)):
            assert "skipped_candidates" not in fit.diagnostics
