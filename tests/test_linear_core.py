import numpy as np
import pytest
from scipy.stats import norm

from twoway_shrink import (
    CellTable,
    FitEngine,
    HyperParams,
    QLoss,
    SigmaContext,
    build_design,
    logdet_sigma,
    marginal_loglik,
    shrink_apply,
    sigma_solve,
    ure_value,
)
from twoway_shrink.estimators import _first_order_terms
from twoway_shrink.linear_core import lam_from_tilde
from conftest import make_random_table
from dense_oracle import (
    dense_design,
    dense_loglik,
    dense_logdet,
    dense_sigma,
    dense_solve,
)


def trace_sigma_inv_msq(ctx, Q=None):
    """tr(Sigma^{-1} M Q M), Q = I when None, read off the library's risk
    estimate at y = mu 1: there URE = s2 {tr(QM) - 2 tr(Sigma^{-1} M Q M)} / rc."""
    d = ctx.design
    if Q is None:
        qmode, qloss, tr_qm = "identity", None, float(np.sum(d.m_diag))
    else:
        qmode, qloss = "qmatrix", QLoss(d, "qmatrix", Q)
        tr_qm = float(d.m_diag @ np.diag(Q))
    ctx = SigmaContext(d, ctx.hp, sigma2=1.0)
    ure = ure_value(ctx, np.zeros(d.n_obs), 0.0, qmode=qmode, qloss=qloss)
    return 0.5 * (tr_qm - ure * d.r * d.c)


def trace_blocks(ctx):
    """(tr(S^{-1} Za Za^T), tr(S^{-1} Zb Zb^T), tr(S^{-1} Za Za^T S^{-1} M^2),
    tr(S^{-1} Zb Zb^T S^{-1} M^2)): the trace scales of the likelihood and
    the plain-loss risk estimating equations."""
    d, y = ctx.design, np.zeros(ctx.design.n_obs)
    ctx = SigmaContext(d, ctx.hp, sigma2=1.0)
    ml = _first_order_terms(ctx, None, y, 0.0, "EBMLE")
    ure = _first_order_terms(ctx, QLoss.of(d, "identity"), y, 0.0, "URE")
    return ml["scale_a"], ml["scale_b"], ure["scale_a"], ure["scale_b"]


class TestSigmaSolve:
    def test_zero_lambda_is_diagonal(self, rng):
        table, _ = make_random_table(rng, 3, 4, k_max=6)
        d = build_design(table)
        ctx = SigmaContext(d, HyperParams(0.0, 0.0, 0.0), mode="fast")
        v = rng.normal(0, 1, d.n_obs)
        np.testing.assert_allclose(sigma_solve(ctx, v), d.k_obs * v, rtol=1e-12)

    def test_small_dense_oracle(self):
        table = CellTable(np.ones((2, 2), int), np.zeros((2, 2)), 1.0)
        d = build_design(table)
        hp = HyperParams(0.0, 1.0, 1.0)
        ctx = SigmaContext(d, hp, mode="fast")
        dd = dense_design(d)
        za, zb = dd.Za, dd.Zb
        sigma = za @ za.T + zb @ zb.T + np.eye(4)
        ones = np.ones(4)
        np.testing.assert_allclose(
            sigma_solve(ctx, ones), np.linalg.solve(sigma, ones), rtol=1e-12
        )

    def test_fast_matches_dense_randomized(self, rng):
        max_rel = 0.0
        for _ in range(200):
            r = int(rng.integers(2, 11))
            c = int(rng.integers(2, 11))
            table, _ = make_random_table(rng, r, c, k_max=7)
            d = build_design(table)
            hp = HyperParams(
                0.0,
                lam_from_tilde(float(rng.uniform(0.1, 1.0))),
                lam_from_tilde(float(rng.uniform(0.1, 1.0))),
            )
            fast = SigmaContext(d, hp)
            v = rng.normal(0, 1, d.n_obs)
            a, b = sigma_solve(fast, v), dense_solve(fast, v)
            max_rel = max(max_rel, np.max(np.abs(a - b)) / np.max(np.abs(b)))
        assert max_rel <= 1e-10

    def test_matrix_rhs_and_dim_checks(self, rng):
        table, _ = make_random_table(rng, 3, 3)
        d = build_design(table)
        hp = HyperParams(0.0, 0.5, 0.5)
        fast = SigmaContext(d, hp)
        V = rng.normal(0, 1, (d.n_obs, 3))
        with pytest.raises(ValueError):
            sigma_solve(fast, V)  # vectors only: no fit path solves for columns
        with pytest.raises(ValueError):
            sigma_solve(fast, np.ones(d.n_obs + 1))
        with pytest.raises(ValueError):
            shrink_apply(fast, np.ones(d.n_obs - 1))


class TestShrinkApply:
    def test_zero_lambda_identity(self, rng):
        table, _ = make_random_table(rng, 4, 3)
        d = build_design(table)
        ctx = SigmaContext(d, HyperParams(0.0, 0.0, 0.0), mode="fast")
        x = rng.normal(0, 1, d.n_obs)
        np.testing.assert_array_equal(shrink_apply(ctx, x), x)

    def test_large_lambda_projection_residual(self, rng):
        # at lambda = 1e8 the shrinkage matrix is close to I - P_W, the
        # residual projector of the weighted least squares fit
        table, _ = make_random_table(rng, 4, 5, k_max=4)
        d = build_design(table)
        hp = HyperParams(0.0, 1e8, 1e8)
        fast = SigmaContext(d, hp)
        x = rng.normal(0, 1, d.n_obs)
        # the dense solve itself carries O(cond * eps) ~ 1e-7 error out here
        np.testing.assert_allclose(
            shrink_apply(fast, x), d.m_diag * dense_solve(fast, x), atol=1e-6
        )
        k = d.k_obs.astype(float)
        z = dense_design(d).Z
        pw = z @ np.linalg.pinv(z.T @ (k[:, None] * z)) @ (z.T * k)
        np.testing.assert_allclose(shrink_apply(fast, x), x - pw @ x, atol=1e-6)

    def test_random_matches_dense(self, rng):
        for _ in range(30):
            table, _ = make_random_table(rng, 5, 7, k_max=6, n_missing=4)
            d = build_design(table)
            hp = HyperParams(
                0.0, float(rng.uniform(0.0, 30.0)), float(rng.uniform(0.0, 30.0))
            )
            fast = SigmaContext(d, hp)
            x = rng.normal(0, 1, d.n_obs)
            a = shrink_apply(fast, x)
            b = d.m_diag * dense_solve(fast, x)
            assert np.max(np.abs(a - b)) <= 1e-10 * max(1.0, np.max(np.abs(b)))


class TestTraces:
    def test_zero_lambda_trace_m(self, rng):
        table, _ = make_random_table(rng, 3, 5, k_max=6)
        d = build_design(table)
        ctx = SigmaContext(d, HyperParams(0.0, 0.0, 0.0), mode="fast")
        assert trace_sigma_inv_msq(ctx) == pytest.approx(np.sum(d.m_diag), rel=1e-12)

    def test_2x2_dense_value(self):
        table = CellTable(np.ones((2, 2), int), np.zeros((2, 2)), 1.0)
        d = build_design(table)
        hp = HyperParams(0.0, 1.0, 1.0)
        fast = SigmaContext(d, hp)
        sig = dense_sigma(fast)
        expected = np.trace(np.linalg.inv(sig) @ np.diag(d.m_diag**2))
        assert trace_sigma_inv_msq(fast) == pytest.approx(expected, rel=1e-12)

    def test_q_identity_reduces(self, rng):
        table, _ = make_random_table(rng, 4, 4, k_max=5)
        d = build_design(table)
        ctx = SigmaContext(d, HyperParams(0.0, 2.0, 0.3), mode="fast")
        no_q = trace_sigma_inv_msq(ctx)
        with_q = trace_sigma_inv_msq(ctx, Q=np.eye(d.n_obs))
        assert with_q == pytest.approx(no_q, rel=1e-12)

    def test_with_q_matches_dense(self, rng):
        table, _ = make_random_table(rng, 4, 5, n_missing=3)
        d = build_design(table)
        hp = HyperParams(0.0, 1.2, 0.7)
        fast = SigmaContext(d, hp)
        a = rng.normal(0, 1, (d.n_obs, d.n_obs))
        Q = a @ a.T
        m = np.diag(d.m_diag)
        expected = np.trace(np.linalg.inv(dense_sigma(fast)) @ m @ Q @ m)
        assert trace_sigma_inv_msq(fast, Q=Q) == pytest.approx(expected, rel=1e-10)

    def test_trace_blocks_identity_case(self):
        table = CellTable(np.ones((3, 4), int), np.zeros((3, 4)), 1.0)
        d = build_design(table)
        ctx = SigmaContext(d, HyperParams(0.0, 0.0, 0.0), mode="fast")
        t_a, t_b, t_am, t_bm = trace_blocks(ctx)
        assert t_a == pytest.approx(12.0)  # tr(Za Za^T) = rc when Sigma = I
        assert t_b == pytest.approx(12.0)
        assert t_am == pytest.approx(12.0)
        assert t_bm == pytest.approx(12.0)

    def test_trace_blocks_dense_oracle(self, rng):
        table, _ = make_random_table(rng, 4, 6, k_max=6, n_missing=3)
        d = build_design(table)
        hp = HyperParams(0.0, 0.9, 2.4)
        ctx = SigmaContext(d, hp, mode="fast")
        inv = np.linalg.inv(dense_sigma(ctx))
        m2 = np.diag(d.m_diag**2)
        dd = dense_design(d)
        za, zb = dd.Za, dd.Zb
        expect = (
            np.trace(inv @ za @ za.T),
            np.trace(inv @ zb @ zb.T),
            np.trace(inv @ za @ za.T @ inv @ m2),
            np.trace(inv @ zb @ zb.T @ inv @ m2),
        )
        got = trace_blocks(ctx)
        np.testing.assert_allclose(got, expect, rtol=1e-9)

    def test_transpose_symmetry(self, rng):
        counts = rng.integers(1, 5, size=(4, 6))
        means = rng.normal(0, 1, (4, 6))
        t1 = CellTable(counts, means, 1.0)
        t2 = CellTable(counts.T.copy(), means.T.copy(), 1.0)
        hp12 = HyperParams(0.0, 1.5, 0.4)
        hp21 = HyperParams(0.0, 0.4, 1.5)
        b1 = trace_blocks(SigmaContext(build_design(t1), hp12, mode="fast"))
        b2 = trace_blocks(SigmaContext(build_design(t2), hp21, mode="fast"))
        assert b1[0] == pytest.approx(b2[1], rel=1e-10)
        assert b1[2] == pytest.approx(b2[3], rel=1e-10)


class TestMatrixProperties:
    def test_psd_ordering_in_lambda(self, rng):
        table, _ = make_random_table(rng, 4, 4)
        d = build_design(table)
        v = rng.normal(0, 1, d.n_obs)
        prev = None
        for lam in [0.0, 0.3, 1.0, 4.0, 20.0]:
            ctx = SigmaContext(d, HyperParams(0.0, lam, lam))
            quad = float(v @ sigma_solve(ctx, v))
            if prev is not None:
                assert quad <= prev + 1e-12
            prev = quad

    def test_w_contraction(self, rng):
        for _ in range(25):
            table, _ = make_random_table(rng, 3, 5, k_max=6, n_missing=2)
            d = build_design(table)
            hp = HyperParams(
                0.0, float(rng.uniform(0, 50)), float(rng.uniform(0, 50))
            )
            ctx = SigmaContext(d, hp)
            sqm = np.sqrt(d.m_diag)
            w = sqm[:, None] * np.linalg.inv(dense_sigma(ctx)) * sqm[None, :]
            evals = np.linalg.eigvalsh(0.5 * (w + w.T))
            assert np.all(evals > 0)
            assert np.all(evals <= 1 + 1e-10)


class TestLogLik:
    def test_iid_standard_normal(self, rng):
        means = rng.normal(0, 1, (3, 4))
        table = CellTable(np.ones((3, 4), int), means, 1.0)
        d = build_design(table)
        ctx = SigmaContext(d, HyperParams(0.2, 0.0, 0.0), mode="fast", sigma2=1.0)
        expected = norm.logpdf(table.y_observed - 0.2).sum()
        assert marginal_loglik(ctx, table.y_observed, 0.2) == pytest.approx(expected)

    def test_dense_agreement(self, rng):
        table, _ = make_random_table(rng, 5, 4, k_max=5, n_missing=2, sigma2=2.5)
        d = build_design(table)
        hp = HyperParams(0.3, 1.7, 0.6)
        fast = SigmaContext(d, hp, sigma2=2.5)
        a = marginal_loglik(fast, table.y_observed, 0.3)
        b = dense_loglik(fast, table.y_observed, 0.3, 2.5)
        assert a == pytest.approx(b, rel=1e-9)
        assert logdet_sigma(fast) == pytest.approx(dense_logdet(fast), rel=1e-10)

    def test_location_invariance(self, rng):
        table, _ = make_random_table(rng, 4, 4, k_max=3)
        d = build_design(table)
        ctx = SigmaContext(d, HyperParams(0.0, 0.8, 0.8), mode="fast", sigma2=1.0)
        y = table.y_observed
        base = marginal_loglik(ctx, y, 0.4)
        shifted = marginal_loglik(ctx, y + 7.5, 0.4 + 7.5)
        assert shifted == pytest.approx(base, rel=1e-12)


class TestContextMechanics:
    @pytest.mark.parametrize("lt", [-1e-12, 1.0 + 1e-12, np.nan])
    def test_lambda_tilde_outside_the_unit_interval(self, lt):
        with pytest.raises(ValueError, match=r"lambda_tilde must lie in \[0, 1\]"):
            lam_from_tilde(lt)

    def test_fast_is_the_only_mode(self, rng):
        table, _ = make_random_table(rng, 3, 3)
        d = build_design(table)
        assert SigmaContext(d, HyperParams(0.0, 1.0, 1.0)).mode == "fast"
        for mode in ("auto", "dense"):
            with pytest.raises(ValueError):
                SigmaContext(d, HyperParams(0.0, 1.0, 1.0), mode=mode)

    def test_factorization_double_failure_raises(self, rng, monkeypatch):
        from twoway_shrink import linear_core
        from twoway_shrink.linear_core import NumericError

        table, _ = make_random_table(rng, 3, 3)
        d = build_design(table)

        engine = FitEngine(table)
        pieces = engine._data_pieces(table.y_observed, None)

        def always_fail(a, **kw):
            return a, 1

        monkeypatch.setattr(linear_core, "_potrf", always_fail)
        ctx = SigmaContext(d, HyperParams(0.0, 1.0, 1.0), mode="fast")
        with pytest.raises(NumericError):
            shrink_apply(ctx, np.zeros(d.n_obs))
        with pytest.raises(NumericError):
            engine._score_point((0.5, 0.5), pieces, "URE")

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    @pytest.mark.parametrize("where", [(0, 0), (2, 1), (3, 3)])
    def test_non_finite_capacitance_raises(self, rng, bad, where):
        from twoway_shrink.linear_core import NumericError, _cholesky

        a = rng.normal(size=(4, 4))
        c = a @ a.T + 4.0 * np.eye(4)
        c[where] = c[where[::-1]] = bad
        with pytest.raises(NumericError):
            _cholesky(c)


class TestLoadFlapack:
    def test_missing_extension_names_the_folder(self, tmp_path, monkeypatch):
        import importlib.machinery
        import sys

        from twoway_shrink import linear_core

        empty = tmp_path / "scipy"
        empty.mkdir()
        spec = importlib.machinery.ModuleSpec("scipy", None, is_package=True)
        spec.submodule_search_locations = [str(empty)]
        monkeypatch.delitem(sys.modules, "scipy.linalg._flapack")
        monkeypatch.setattr(linear_core.importlib.util, "find_spec",
                            lambda name: spec if name == "scipy" else None)
        with pytest.raises(ImportError) as info:
            linear_core._load_flapack()
        assert str(empty / "linalg") in str(info.value)


class TestSingleThreadedLapack:
    @pytest.fixture
    def fake_api(self, monkeypatch):
        from twoway_shrink import linear_core

        state = {"n": 4, "sets": []}

        def set_(n):
            state["sets"].append(n)
            state["n"] = n

        monkeypatch.setattr(
            linear_core, "_scipy_openblas_threads", lambda: (lambda: state["n"], set_)
        )
        return state

    def test_restores_after_return(self, fake_api):
        from twoway_shrink.linear_core import _single_threaded_lapack

        @_single_threaded_lapack
        def inner():
            return fake_api["n"]

        assert inner() == 1
        assert fake_api["n"] == 4

    def test_restores_after_exception(self, fake_api):
        from twoway_shrink.linear_core import _single_threaded_lapack

        with pytest.raises(ZeroDivisionError):
            with _single_threaded_lapack:
                assert fake_api["n"] == 1
                1 / 0
        assert fake_api["n"] == 4

    def test_nested_restores_at_outermost_exit(self, fake_api):
        from twoway_shrink.linear_core import _single_threaded_lapack

        with _single_threaded_lapack:
            with _single_threaded_lapack:
                assert fake_api["n"] == 1
            assert fake_api["n"] == 1
        assert fake_api["n"] == 4
        assert fake_api["sets"] == [1, 4]

    def test_threads_share_one_scope(self, fake_api):
        import sys
        import threading

        from twoway_shrink.linear_core import _single_threaded_lapack

        seen = []

        def worker():
            for _ in range(300):
                with _single_threaded_lapack:
                    with _single_threaded_lapack:
                        seen.append(fake_api["n"])

        old = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            threads = [threading.Thread(target=worker) for _ in range(8)]
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=30)
        finally:
            sys.setswitchinterval(old)
        assert not any(t.is_alive() for t in threads)
        assert len(seen) == 8 * 300 and set(seen) == {1}
        assert fake_api["n"] == 4

    def test_noop_without_openblas(self, monkeypatch):
        from twoway_shrink import linear_core

        lookup = linear_core._scipy_openblas_threads
        real = lookup()
        before = None if real is None else real[0]()

        class NoSymbols:
            def __init__(self, path):
                pass

        monkeypatch.setattr(linear_core.ctypes, "CDLL", NoSymbols)
        assert lookup.__wrapped__() is None

        monkeypatch.setattr(linear_core, "_scipy_openblas_threads", lambda: None)
        with linear_core._single_threaded_lapack:
            if real is not None:
                assert real[0]() == before

    def test_real_library_count(self):
        from twoway_shrink import linear_core

        api = linear_core._scipy_openblas_threads()
        if api is None:
            pytest.skip("scipy's LAPACK is not OpenBLAS")
        get, set_ = api
        original = get()
        try:
            set_(2)  # OpenBLAS may cap this at the core count
            before = get()
            with linear_core._single_threaded_lapack:
                assert get() == 1
            assert get() == before
        finally:
            set_(original)
