import re
import warnings

import numpy as np
import pytest

from twoway_shrink import (
    Constant,
    NormalEffects,
    PointMass,
    ScenarioSpec,
    TwoGroup,
    TwoPoint,
    UniformCounts,
    compare_estimators,
    gen_scenario,
    imbalance_ratio,
    is_connected,
    oracle_gap_study,
    ure_concentration_study,
)
from twoway_shrink.estimators import bayes_estimate, hp_from_tilde, ure_value
from twoway_shrink.linear_core import SigmaContext
from twoway_shrink.risk_metrics import QLoss
from twoway_shrink.simulation import ebmle_stress_scenario, risk_csv
from twoway_shrink.tables import build_design
from dense_oracle import dense_design, dense_solve, dense_ure


def small_spec(**kw):
    base = dict(
        r=6, c=6, count_law=Constant(2), effect_law_a=NormalEffects(0.8),
        effect_law_b=NormalEffects(0.8), mu_true=0.5, sigma2=1.0, seed=9,
    )
    base.update(kw)
    return ScenarioSpec(**base)


class TestGenScenario:
    def test_complete_when_no_missing(self):
        table, eta = gen_scenario(small_spec())
        assert table.is_complete
        assert eta.shape == (36,)

    def test_additive_truth(self):
        _, eta = gen_scenario(small_spec())
        grid = eta.reshape(6, 6)
        inter = grid - grid.mean(0) - grid.mean(1)[:, None] + grid.mean()
        assert np.max(np.abs(inter)) <= 1e-12

    def test_determinism(self):
        t1, e1 = gen_scenario(small_spec(), replicate=3)
        t2, e2 = gen_scenario(small_spec(), replicate=3)
        assert np.array_equal(t1.counts, t2.counts)
        assert np.array_equal(t1.means, t2.means)
        assert np.array_equal(e1, e2)
        t3, _ = gen_scenario(small_spec(), replicate=4)
        assert not np.array_equal(t1.means, t3.means)

    def test_missing_frac_connected(self):
        spec = small_spec(missing_frac=0.3, seed=4)
        table, _ = gen_scenario(spec)
        assert not table.is_complete
        assert is_connected(table)
        assert table.n_observed == 36 - int(0.3 * 36)

    def test_count_laws(self):
        spec = small_spec(count_law=UniformCounts(2, 7), seed=2)
        table, _ = gen_scenario(spec)
        assert table.k_observed.min() >= 2 and table.k_observed.max() <= 7
        spec = small_spec(count_law=TwoPoint(1, 20, 0.5), seed=2)
        table, _ = gen_scenario(spec)
        assert set(np.unique(table.k_observed)) <= {1, 20}

    def test_anti_effect_counts(self):
        spec = ebmle_stress_scenario()
        table, eta = gen_scenario(spec)
        assert imbalance_ratio(table) == 20.0
        grid = eta.reshape(spec.r, spec.c)
        alpha = grid.mean(axis=1) - grid.mean()
        row_counts = table.counts[:, 0]
        # rows with the largest effects carry the fewest observations
        assert row_counts[np.abs(alpha) > 1.0].max() == 1
        assert row_counts[np.abs(alpha) <= 1.0].min() == 20

    def test_mc_mean_matches_truth(self):
        spec = small_spec(r=3, c=3, seed=21)
        _, eta = gen_scenario(spec)
        acc = np.zeros(9)
        n = 3000
        for rep in range(n):
            table, _ = gen_scenario(spec, rep)
            acc += table.means.ravel()
        mean = acc / n
        se = np.sqrt(spec.sigma2 / 2 / n)  # counts are 2
        assert np.max(np.abs(mean - eta)) <= 3.5 * se

    def test_effect_laws(self):
        spec = small_spec(
            effect_law_a=PointMass(0.7), effect_law_b=TwoGroup(0.0, 2.0, 0.5),
            mu_true=0.0, seed=13,
        )
        _, eta = gen_scenario(spec)
        grid = eta.reshape(6, 6)
        alpha = grid.mean(axis=1) - grid.mean(axis=1).mean()
        assert np.max(np.abs(alpha)) <= 1e-12  # point mass: constant rows


class TestCompareEstimators:
    def test_wls_analytic_risk(self):
        # complete K = 1: E loss(WLS) = sigma2 (r+c-1)/(rc)
        spec = small_spec(r=7, c=5, count_law=Constant(1), seed=3)
        rt = compare_estimators(spec, 300, estimators=("wls",))
        row = rt.row("wls")
        expected = 1.0 * (7 + 5 - 1) / 35.0
        assert abs(row.mean_loss - expected) <= 3 * row.se

    def test_dominance_and_gap(self):
        spec = small_spec(seed=5)
        rt = compare_estimators(spec, 25, estimators=("ebmle", "ure", "oracle"))
        assert np.all(rt.losses["oracle"] <= rt.losses["ure"] + 1e-8)
        assert np.all(rt.losses["oracle"] <= rt.losses["ebmle"] + 1e-8)
        assert rt.row("ure").gap >= -1e-12
        assert rt.row("oracle").gap == 0.0

    def test_ure_beats_wls_under_strong_shrinkage(self):
        spec = small_spec(
            r=10, c=10, count_law=Constant(1), seed=6,
            effect_law_a=NormalEffects(np.sqrt(0.1)),
            effect_law_b=NormalEffects(np.sqrt(0.1)),
        )
        rt = compare_estimators(spec, 60, estimators=("wls", "ure"))
        d = rt.losses["ure"] - rt.losses["wls"]
        se = d.std(ddof=1) / np.sqrt(len(d))
        assert d.mean() <= -2 * se  # URE clearly better

    def test_common_random_numbers_pair(self):
        spec = small_spec(seed=8)
        rt = compare_estimators(spec, 40, estimators=("wls", "ure", "oracle"))
        paired_var = np.var(rt.losses["ure"] - rt.losses["wls"], ddof=1)
        unpaired_var = np.var(rt.losses["ure"], ddof=1) + np.var(
            rt.losses["wls"], ddof=1
        )
        assert paired_var < unpaired_var

    def test_csv_schema_and_determinism(self, tmp_path):
        spec = small_spec(seed=10, name="demo")
        rt1 = compare_estimators(spec, 10, estimators=("wls", "ure"))
        rt2 = compare_estimators(spec, 10, estimators=("wls", "ure"))
        text1 = risk_csv([rt1], out=tmp_path / "a.csv")
        text2 = risk_csv([rt2], out=tmp_path / "b.csv")
        assert text1 == text2
        assert (tmp_path / "a.csv").read_bytes() == (tmp_path / "b.csv").read_bytes()
        header = text1.splitlines()[0]
        assert header == "scenario,estimator,size,mean_loss,se,gap"
        assert text1.splitlines()[1].startswith("demo,wls,6x6,")

    def test_serial_parallel_identical(self):
        spec = small_spec(seed=12)
        rt1 = compare_estimators(spec, 8, estimators=("wls", "ure"), n_jobs=1)
        rt2 = compare_estimators(spec, 8, estimators=("wls", "ure"), n_jobs=2)
        assert risk_csv([rt1]) == risk_csv([rt2])
        np.testing.assert_array_equal(rt1.losses["ure"], rt2.losses["ure"])

    def test_pool_never_exceeds_chunk_count(self, monkeypatch):
        import twoway_shrink.simulation as sim

        class InlineFuture:
            def __init__(self, value):
                self._value = value

            def result(self):
                return self._value

        class InlineExecutor:
            workers = []

            def __init__(self, max_workers):
                self.workers.append(max_workers)

            def __enter__(self):
                return self

            def __exit__(self, *exc):
                return False

            def submit(self, fn, *args):
                return InlineFuture(fn(*args))

        monkeypatch.setattr(sim, "ProcessPoolExecutor", InlineExecutor)
        spec = small_spec(seed=12)
        serial = compare_estimators(spec, 5, estimators=("wls",), n_jobs=1)
        for n_jobs, workers in ((64, 5), (3, 3), (2, 2)):
            rt = compare_estimators(spec, 5, estimators=("wls",), n_jobs=n_jobs)
            assert InlineExecutor.workers[-1] == workers
            np.testing.assert_array_equal(rt.losses["wls"], serial.losses["wls"])

    @pytest.mark.parametrize("names", [("wls", "foo"), ("wls", "ure", "wls"), ("",)])
    def test_bad_estimator_names_rejected_before_fitting(self, names, monkeypatch):
        import twoway_shrink.simulation as sim

        def no_fits(*args):
            raise AssertionError("replicates were fitted")

        monkeypatch.setattr(sim, "_gather", no_fits)
        with pytest.raises(ValueError, match="wls, ebmle, ure, oracle"):
            compare_estimators(small_spec(), 4, estimators=names)

    @pytest.mark.parametrize("n_jobs", [0, -5])
    def test_jobs_below_one_rejected_before_fitting(self, n_jobs, monkeypatch):
        # They used to run serially, as if n_jobs were 1.
        import twoway_shrink.simulation as sim

        def no_fits(*args):
            raise AssertionError("replicates were fitted")

        monkeypatch.setattr(sim, "_gather", no_fits)
        message = f"n_jobs must be positive, got {n_jobs}"
        with pytest.raises(ValueError, match=message):
            compare_estimators(small_spec(), 4, n_jobs=n_jobs)
        with pytest.raises(ValueError, match=message):
            oracle_gap_study([(4, 4)], small_spec(), 4, n_jobs=n_jobs)


class TestStudies:
    def test_oracle_gap_smoke(self):
        template = small_spec(seed=14)
        res = oracle_gap_study([(5, 5), (8, 8)], template, 12)
        assert len(res.tables) == 2
        for rt in res.tables:
            assert rt.row("ure").gap >= -1e-12
        text = res.to_csv()
        assert "p_exceed_ure" in text

    def test_oracle_gap_rejects_a_repeated_size(self, monkeypatch):
        # A size listed twice would be fitted twice and written twice.
        from twoway_shrink import simulation

        def refuse(*args, **kwargs):
            raise AssertionError("a size was fitted before the sizes were checked")

        monkeypatch.setattr(simulation, "compare_estimators", refuse)
        with pytest.raises(ValueError, match="sizes lists 4x3 more than once"):
            oracle_gap_study([(4, 3), (5, 5), [4, 3]], small_spec(), 3)

    def test_concentration_unbiased_at_grid(self):
        spec = small_spec(r=8, c=8, seed=15)
        res = ure_concentration_study(
            spec, [(0.0, 0.0), (0.5, 0.5), (1.0, 1.0)], N=400
        )
        for md, sd in zip(res.mean_diff, res.se_diff):
            assert abs(md) <= 3.0 * sd  # URE unbiased at every grid point
        assert all(m >= 0 for m in res.mean_abs)

    def test_concentration_one_replicate_nan_se(self):
        spec = small_spec(r=4, c=4, seed=16)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            res = ure_concentration_study(spec, [(0.0, 0.0), (0.5, 0.5)], N=1)
        assert all(np.isfinite(res.mean_abs)) and all(np.isfinite(res.mean_diff))
        assert all(np.isnan(res.se_abs)) and all(np.isnan(res.se_diff))

    def test_concentration_rejects_a_repeated_pair(self, monkeypatch):
        # A pair listed twice would share one list of differences, and so
        # count each replicate twice in its standard error.
        from twoway_shrink import simulation

        def refuse(*args, **kwargs):
            raise AssertionError("a replicate was drawn before the grid was checked")

        monkeypatch.setattr(simulation, "gen_scenario", refuse)
        spec = small_spec(r=4, c=4, seed=16)
        grid = [(0.5, 0.5), (0.2, 0.2), (0.5, 0.5)]
        with pytest.raises(ValueError, match=r"\(0\.5, 0\.5\) more than once"):
            ure_concentration_study(spec, grid, N=3)

    @pytest.mark.parametrize("n", [0, -1])
    def test_concentration_rejects_no_replicates(self, n):
        with pytest.raises(ValueError, match="N must be positive"):
            ure_concentration_study(small_spec(r=4, c=4, seed=16), [(0.5, 0.5)], N=n)

    def test_concentration_builds_no_fit_engine(self, monkeypatch):
        # The study evaluates fixed hyper-parameters; it searches nothing.
        from twoway_shrink import simulation

        def refuse(*args, **kwargs):
            raise AssertionError("the concentration study built a FitEngine")

        monkeypatch.setattr(simulation, "FitEngine", refuse)
        spec = small_spec(r=5, c=4, missing_frac=0.2, seed=16)
        res = ure_concentration_study(spec, [(0.0, 0.0), (0.5, 0.5)], N=3)
        assert all(np.isfinite(res.mean_abs))

    def test_concentration_matches_public_evaluators_bitwise(self):
        # Replaying the study through SigmaContext, ure_value and
        # bayes_estimate gives the same bits; the dense oracle agrees at the
        # corner and wherever both lambda_tilde are at least 0.05.
        spec = small_spec(r=7, c=4, count_law=TwoPoint(1, 20, 0.3),
                          missing_frac=0.2, seed=31)
        grid = [(0.0, 0.0), (1e-6, 1e-6), (0.0, 0.4), (0.6, 0.0), (0.3, 0.7),
                (0.05, 0.9), (1.0, 1.0)]
        n = 5
        res = ure_concentration_study(spec, grid, N=n)

        table0, eta = gen_scenario(spec, 0)
        design = build_design(table0)
        qloss = QLoss.of(design)
        rc = design.r * design.c
        eta_obs = eta[(table0.counts > 0).ravel()]
        dd = dense_design(design)
        t = dd.Zc @ np.linalg.pinv(dd.Z, rcond=1e-10)
        q_dense = t.T @ t
        m = design.m_diag
        diffs = {p: [] for p in grid}
        for rep in range(n):
            y = gen_scenario(spec, rep)[0].y_observed
            for p in grid:
                ctx = SigmaContext(design, hp_from_tilde(0.0, p), sigma2=spec.sigma2)
                ure = ure_value(ctx, y, 0.0, qloss=qloss)
                delta = bayes_estimate(ctx, y, 0.0) - eta_obs
                loss = qloss.quad(delta) / rc
                diffs[p].append(ure - loss)
                if p == (0.0, 0.0):
                    ure_ref = spec.sigma2 * float(m @ np.diag(q_dense)) / rc
                    eta_ref = y
                elif min(p) >= 0.05:
                    ure_ref = dense_ure(ctx, y, 0.0, Q=q_dense)
                    eta_ref = y - m * dense_solve(ctx, y)
                else:
                    continue
                loss_ref = float((eta_ref - eta_obs) @ q_dense @ (eta_ref - eta_obs)) / rc
                assert ure == pytest.approx(ure_ref, rel=1e-9, abs=0), (rep, p)
                assert loss == pytest.approx(loss_ref, rel=1e-9, abs=0), (rep, p)
        d = [np.array(diffs[p]) for p in grid]
        assert res.mean_abs == tuple(float(np.abs(x).mean()) for x in d)
        assert res.mean_diff == tuple(float(x.mean()) for x in d)
        assert res.se_diff == tuple(float(x.std(ddof=1) / np.sqrt(n)) for x in d)

    def test_concentration_shrinks_with_size(self):
        # E|URE - loss| decreases along the size ladder at every grid point
        grid = [(0.0, 0.0), (0.3, 0.3), (0.7, 0.7), (1.0, 1.0)]
        results = []
        for r in (8, 20):
            spec = small_spec(r=r, c=r, seed=18)
            results.append(ure_concentration_study(spec, grid, N=300))
        small_t, large = results
        for i in range(len(grid)):
            slack = 2 * np.hypot(small_t.se_abs[i], large.se_abs[i])
            assert large.mean_abs[i] <= small_t.mean_abs[i] + slack

    def test_stress_scenario_gap_ordering(self):
        # counts anti-correlated with effect size: likelihood tuning pays a
        # visibly larger oracle gap than risk-estimate tuning
        rt = compare_estimators(
            ebmle_stress_scenario(), 60, estimators=("ebmle", "ure", "oracle")
        )
        u, m = rt.row("ure"), rt.row("ebmle")
        combined = np.hypot(u.gap_se, m.gap_se)
        assert m.gap >= u.gap - 2 * combined
        assert m.gap > u.gap  # and in fact strictly larger here

    @pytest.mark.parametrize("seed", [20, 61, 85])
    def test_oracle_dominance_near_wls_limit(self, seed):
        # Stress replicates where the oracle's expanded objective undershoots
        # at lambda ~ 1e12 and would otherwise lose to URE.
        rt = compare_estimators(
            ebmle_stress_scenario(seed=seed), 5, estimators=("ebmle", "ure", "oracle")
        )
        assert np.all(rt.losses["oracle"] <= rt.losses["ure"])
        assert np.all(rt.losses["oracle"] <= rt.losses["ebmle"])

    def test_failure_abort(self):
        bad = small_spec(sigma2=1.0, seed=16, count_law=Constant(1), r=2, c=2)
        # sabotage: negative N rejected
        with pytest.raises(ValueError):
            compare_estimators(bad, 0)


class TestGenerationLimits:
    def test_rejection_limit(self):
        # 49 of 625 cells observed, r+c-1: only a spanning tree of the
        # row-column graph is connected, about 5e-7 of the draws.
        spec = small_spec(r=25, c=25, missing_frac=0.9216, seed=1)
        assert spec.n_missing == 625 - 49
        with pytest.raises(RuntimeError, match="in 1000 attempts"):
            gen_scenario(spec)

    @pytest.mark.parametrize("r, c, frac, observed", [(4, 4, 0.8, 4), (5, 5, 0.9, 3),
                                                      (6, 3, 0.65, 7)])
    def test_fewer_than_r_plus_c_minus_1_observed_cells(self, r, c, frac, observed):
        with pytest.raises(ValueError, match=re.escape(
                f"r={r}, c={c} with missing_frac={frac!r} leaves {observed} observed "
                f"cells; a connected design needs r+c-1 = {r + c - 1}")):
            small_spec(r=r, c=c, missing_frac=frac)

    @pytest.mark.parametrize("frac", [-0.3, float("nan"), 1.0],
                             ids=["negative", "nan", "one"])
    def test_missing_frac_outside_the_unit_interval(self, frac):
        with pytest.raises(ValueError, match=rf"missing_frac must lie in \[0, 1\), "
                                             rf"got {frac!r}"):
            small_spec(missing_frac=frac)

    @pytest.mark.parametrize("sigma2", [-1.0, 0.0, float("nan"), float("inf")],
                             ids=["negative", "zero", "nan", "inf"])
    def test_sigma2_not_positive_finite(self, sigma2):
        with pytest.raises(ValueError, match=re.escape(
                f"sigma2 must be a positive finite number, got {sigma2!r}")):
            small_spec(sigma2=sigma2)

    @pytest.mark.parametrize("mu_true", [float("nan"), float("inf"), -float("inf")],
                             ids=["nan", "inf", "-inf"])
    def test_mu_true_not_finite(self, mu_true):
        with pytest.raises(ValueError, match=re.escape(
                f"mu_true must be finite, got {mu_true!r}")):
            small_spec(mu_true=mu_true)

    def test_anti_effect_counts_need_row_effects(self):
        law = TwoPoint(anti_effect=True)
        with pytest.raises(ValueError, match="anti_effect counts need the row effects"):
            law.draw(np.random.default_rng(0), 4, 3)

    def test_count_law_that_draws_zeros(self):
        spec = small_spec(r=4, c=4, count_law=UniformCounts(0, 1), seed=2)
        with pytest.raises(ValueError, match="count law produced empty cells; "
                                             "use missing_frac instead"):
            gen_scenario(spec)

    def test_risk_table_row_of_an_unknown_estimator(self):
        rt = compare_estimators(small_spec(r=3, c=3, seed=19), 2, estimators=("wls",))
        assert rt.row("wls").estimator == "wls"
        with pytest.raises(KeyError, match="ure"):
            rt.row("ure")

    def test_failure_rate_abort(self, monkeypatch):
        from twoway_shrink import simulation as sim

        def broken_fit(self, *a, **kw):
            raise RuntimeError("synthetic fit failure")

        monkeypatch.setattr(sim.FitEngine, "fit", broken_fit)
        with pytest.raises(RuntimeError, match="replicates failed"):
            compare_estimators(small_spec(seed=19), 10, estimators=("ure",))

    def test_dropped_failure_is_logged(self, monkeypatch, caplog):
        from twoway_shrink import simulation as sim

        real_fit = sim.FitEngine.fit
        calls, fitted = [], []

        def fails_thrice(self, *a, **kw):
            calls.append(None)
            if len(calls) in (1, 3):
                raise RuntimeError("synthetic fit failure")
            if len(calls) == 2:
                raise ValueError("another synthetic failure")
            if not fitted:  # one real fit stands in for all 297
                fitted.append(real_fit(self, *a, **kw))
            return fitted[0]

        monkeypatch.setattr(sim.FitEngine, "fit", fails_thrice)
        spec = small_spec(r=3, c=3, seed=19)
        with caplog.at_level("WARNING", logger="twoway_shrink"):
            rt = compare_estimators(spec, 300, estimators=("ure",))
        assert (rt.n_reps, rt.n_failed) == (297, 3)
        [record] = caplog.records
        assert record.name == "twoway_shrink"
        assert record.levelname == "WARNING"
        message = record.getMessage()
        assert "3/300" in message
        assert "RuntimeError: synthetic fit failure (x2)" in message
        assert "ValueError: another synthetic failure (x1)" in message
