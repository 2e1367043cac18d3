import numpy as np
import pytest

from twoway_shrink import (
    CellTable,
    DisconnectedDesignError,
    HyperParams,
    QLoss,
    SigmaContext,
    a2_statistic,
    build_design,
    lambda1_q,
    loss_mode,
    loss_ss,
    loss_weighted,
    q_matrix,
    ure_value,
)
from conftest import make_random_table
from dense_oracle import (
    balanced_decoupling_check,
    lambda1_q_from_grams,
    quad_form_moments,
    ure_variance_zero_mu,
)


class TestLosses:
    def test_zero_on_equal(self, rng):
        v = rng.normal(0, 1, 12)
        assert loss_ss(v, v) == 0.0

    def test_normalization(self):
        a = np.zeros(12)
        assert loss_ss(a + 1.0, a) == pytest.approx(1.0)

    def test_direct_recomputation(self, rng):
        a, b = rng.normal(0, 1, 10), rng.normal(0, 1, 10)
        assert loss_ss(a, b) == pytest.approx(np.sum((a - b) ** 2) / 10)

    def test_weighted_reduces_to_ss_when_k1(self, rng):
        table, _ = make_random_table(rng, 3, 4, k_max=1)
        a = rng.normal(0, 1, 12)
        b = rng.normal(0, 1, 12)
        assert loss_weighted(a, b, table) == pytest.approx(loss_ss(a, b))

    def test_weighted_linear_in_counts(self, rng):
        counts = rng.integers(1, 5, size=(3, 3))
        means = rng.normal(0, 1, (3, 3))
        t1 = CellTable(counts, means, 1.0)
        t2 = CellTable(2 * counts, means, 1.0)
        a, b = rng.normal(0, 1, 9), rng.normal(0, 1, 9)
        assert loss_weighted(a, b, t2) == pytest.approx(2 * loss_weighted(a, b, t1))

    def test_weighted_direct_sum(self, rng):
        table, _ = make_random_table(rng, 3, 3, k_max=6)
        a, b = rng.normal(0, 1, 9), rng.normal(0, 1, 9)
        k = table.k_observed
        direct = np.sum(k * (a - b) ** 2) / 9
        assert loss_weighted(a, b, table) == pytest.approx(direct)


    @pytest.mark.parametrize("a, b", [
        (np.zeros(3), np.zeros(4)), (np.zeros((2, 2)), np.zeros((2, 2))),
    ])
    def test_ss_rejects_mismatched_shapes(self, a, b):
        with pytest.raises(ValueError, match="loss_ss expects two vectors of equal length"):
            loss_ss(a, b)

    def test_weighted_rejects_mismatched_shapes(self, rng):
        table, _ = make_random_table(rng, 3, 3, k_max=4)
        with pytest.raises(ValueError, match="weighted loss expects observed-cell vectors"):
            loss_weighted(np.zeros(9), np.zeros(8), table)


class TestQMatrix:
    def test_complete_design_projector(self, rng):
        table, _ = make_random_table(rng, 4, 3, k_max=4)
        d = build_design(table)
        ql = q_matrix(d)
        Q = ql.Q
        np.testing.assert_allclose(Q @ Q, Q, atol=1e-10)
        np.testing.assert_allclose(Q, Q.T, atol=1e-12)
        assert np.linalg.eigvalsh(Q).max() == pytest.approx(1.0, abs=1e-9)
        assert lambda1_q(d) == 1.0

    def test_one_empty_cell_raises_lambda1(self, rng):
        counts = np.ones((3, 3), int)
        counts[1, 1] = 0
        means = np.where(counts > 0, 1.0, np.nan)
        d = build_design(CellTable(counts, means, 1.0))
        assert lambda1_q(d) > 1.0
        dense_top = np.linalg.eigvalsh(q_matrix(d).Q).max()
        assert lambda1_q(d) == pytest.approx(dense_top, rel=1e-12)

    def test_q_is_exactly_symmetric(self):
        # numpy forms T^T T with BLAS syrk, which computes one triangle and
        # mirrors it; q_matrix relies on that and does not symmetrize Q.
        rng = np.random.default_rng(27)
        for i in range(60):
            r, c = (int(x) for x in rng.integers(2, 16, 2))
            n_missing = int(rng.integers(1, max(2, r * c // 3))) if i % 2 else 0
            table, _ = make_random_table(rng, r, c, n_missing=n_missing)
            Q = q_matrix(build_design(table)).Q
            assert np.array_equal(Q, Q.T), (r, c, n_missing)

    def test_q_loss_identity(self, rng):
        for _ in range(10):
            table, _ = make_random_table(rng, 4, 5, n_missing=4)
            d = build_design(table)
            ql = q_matrix(d)
            e1 = rng.normal(0, 1, d.n_obs)
            e2 = rng.normal(0, 1, d.n_obs)
            lhs = float((e1 - e2) @ ql.Q @ (e1 - e2)) / (d.r * d.c)
            rhs = loss_ss(d.completion_map() @ e1, d.completion_map() @ e2)
            assert abs(lhs - rhs) <= 1e-12 * max(1.0, abs(rhs))


class TestLossChoice:
    def test_loss_mode_and_of(self, rng):
        complete = build_design(make_random_table(rng, 4, 5)[0])
        missing = build_design(make_random_table(rng, 4, 5, n_missing=3)[0])
        assert loss_mode(complete) == "identity"
        assert loss_mode(missing) == "qmatrix"
        for d, qmode in ((complete, "weighted"), (missing, "identity"),
                         (complete, "qmatrix")):
            assert loss_mode(d, qmode) == qmode
            ql = QLoss.of(d, qmode)
            assert ql.design is d and ql.mode == qmode
            assert (ql.Q is None) == (qmode != "qmatrix")
        np.testing.assert_array_equal(QLoss.of(complete, "weighted").w, complete.k_obs)
        with pytest.raises(ValueError, match="unknown qmode"):
            QLoss.of(complete, "bogus")
        with pytest.raises(ValueError, match="fully observed"):
            loss_mode(missing, "weighted")

    def test_dense_q_for_the_completed_loss_only(self, rng):
        d = build_design(make_random_table(rng, 4, 5)[0])
        eye = np.eye(d.n_obs)
        for mode, Q in (("qmatrix", None), ("identity", eye), ("weighted", eye),
                        ("auto", None), ("bogus", eye)):
            with pytest.raises(ValueError, match=repr(mode)):
                QLoss(d, mode, Q)


class TestLambda1:
    def test_complete_is_one(self, rng):
        table, _ = make_random_table(rng, 5, 4, k_max=3)
        assert lambda1_q(build_design(table)) == pytest.approx(1.0, abs=1e-9)

    def test_formulas_agree_and_at_least_one(self, rng):
        checked = 0
        while checked < 200:
            r = int(rng.integers(2, 7))
            c = int(rng.integers(2, 7))
            n_missing = int(rng.integers(0, max(1, r * c - (r + c - 1)) + 1))
            try:
                table, _ = make_random_table(rng, r, c, n_missing=n_missing)
            except RuntimeError:
                continue
            d = build_design(table)
            v1 = lambda1_q(d)
            v2 = lambda1_q_from_grams(d)
            assert v1 == pytest.approx(v2, rel=1e-9)
            assert v1 >= 1.0 - 1e-12
            checked += 1

    def test_pencil_matches_dense_q(self, rng):
        # lambda1_q never forms Q; check it against the dense Q's spectrum
        # on designs with missing cells, tall and wide alike
        shapes = []
        while len(shapes) < 60:
            r, c = (int(v) for v in rng.integers(2, 12, size=2))
            if r == c:
                continue
            n_missing = int(rng.integers(1, r * c - (r + c - 1) + 1))
            try:
                table, _ = make_random_table(rng, r, c, n_missing=n_missing)
            except RuntimeError:
                continue
            d = build_design(table)
            dense_top = np.linalg.eigvalsh(q_matrix(d).Q).max()
            assert lambda1_q(d) == pytest.approx(dense_top, rel=1e-12)
            shapes.append((r, c))
        assert any(r > c for r, c in shapes) and any(r < c for r, c in shapes)

    def test_disconnected_design_raises(self):
        counts = np.array([[1, 1, 0], [1, 1, 0], [0, 0, 1]])
        means = np.where(counts > 0, 0.0, np.nan)
        with pytest.raises(DisconnectedDesignError):
            lambda1_q(build_design(CellTable(counts, means, 1.0)))


class TestA2Statistic:
    def test_direct_arithmetic_10x10(self):
        table = CellTable(np.ones((10, 10), int), np.zeros((10, 10)), 1.0)
        expected = 100 ** (-1 / 8) * np.log(100) ** 2  # nu = lambda1 = 1
        got = a2_statistic(table)
        assert got == pytest.approx(expected, rel=1e-9)
        assert got == pytest.approx(11.9265, abs=2e-3)

    def test_linear_in_imbalance(self):
        counts = np.ones((4, 4), int)
        t1 = CellTable(counts, np.zeros((4, 4)), 1.0)
        counts2 = counts.copy()
        counts2[0, 0] = 2
        t2 = CellTable(counts2, np.zeros((4, 4)), 1.0)
        assert a2_statistic(t2) == pytest.approx(2 * a2_statistic(t1), rel=1e-9)

    def test_monotone_in_lambda1(self):
        counts = np.ones((4, 4), int)
        complete = CellTable(counts, np.zeros((4, 4)), 1.0)
        holes = counts.copy()
        holes[0, 1] = holes[2, 3] = 0
        means = np.where(holes > 0, 0.0, np.nan)
        missing = CellTable(holes, means, 1.0)
        assert a2_statistic(missing) >= a2_statistic(complete)


class TestQuadFormMoments:
    def test_chi_square(self):
        n = 7
        mean, var = quad_form_moments(np.eye(n), np.eye(n), np.zeros(n))
        assert mean == pytest.approx(n)
        assert var == pytest.approx(2 * n)

    def test_monte_carlo_oracle(self, rng):
        n = 5
        a = rng.normal(0, 1, (n, n))
        A = 0.5 * (a + a.T)
        b = rng.normal(0, 1, (n, n))
        V = b @ b.T + 0.5 * np.eye(n)
        eta = rng.normal(0, 2, n)
        mean, var = quad_form_moments(A, V, eta)
        L = np.linalg.cholesky(V)
        draws = eta + rng.standard_normal((1_000_000, n)) @ L.T
        vals = np.einsum("ij,jk,ik->i", draws, A, draws)
        mc_mean = vals.mean()
        mc_var = vals.var(ddof=1)
        assert abs(mc_mean - mean) <= 3 * vals.std(ddof=1) / 1000
        # quadratic forms are heavy-tailed; allow a generous band around
        # the normal-theory standard error of a sample variance
        assert abs(mc_var - var) <= 6 * np.sqrt(2.0 / 1_000_000) * var + 0.02 * var

    def test_mean_scale_in_eta(self, rng):
        n = 4
        A = np.eye(n)
        V = np.eye(n)
        eta = rng.normal(0, 1, n)
        _, v1 = quad_form_moments(A, V, eta)
        _, v3 = quad_form_moments(A, V, 3 * eta)
        # second variance term scales by t^2: var = 2n + 4 t^2 |eta|^2
        assert v3 - 2 * n == pytest.approx(9 * (v1 - 2 * n))

    def test_dim_mismatch(self):
        with pytest.raises(ValueError):
            quad_form_moments(np.eye(3), np.eye(4), np.zeros(3))


class TestBalancedDecoupling:
    def _balanced_table(self, rng, r=4, c=5, k0=3):
        alpha = rng.normal(0, 1.2, r)
        beta = rng.normal(0, 0.8, c)
        alpha -= alpha.mean()
        beta -= beta.mean()
        eta = 1.5 + alpha[:, None] + beta[None, :]
        y = eta + rng.normal(0, 1, (r, c)) / np.sqrt(k0)
        return CellTable(np.full((r, c), k0), y, 1.0), eta.ravel()

    def test_random_instances(self, rng):
        for _ in range(10):
            table, eta = self._balanced_table(rng)
            hp = HyperParams(0.0, float(rng.uniform(0, 5)), float(rng.uniform(0, 5)))
            assert balanced_decoupling_check(table, hp, eta) <= 1e-10

    def test_zero_when_estimate_equals_truth(self, rng):
        r, c, k0 = 3, 4, 2
        alpha = rng.normal(0, 1, r)
        beta = rng.normal(0, 1, c)
        eta = 0.7 + alpha[:, None] + beta[None, :]
        table = CellTable(np.full((r, c), k0), eta.copy(), 1.0)
        # noise-free data with infinite lambdas: estimator reproduces truth
        hp = HyperParams(0.0, np.inf, np.inf)
        assert balanced_decoupling_check(table, hp, eta.ravel()) <= 1e-10

    def test_row_shuffle_invariance(self, rng):
        table, eta = self._balanced_table(rng)
        hp = HyperParams(0.0, 1.3, 0.4)
        base = balanced_decoupling_check(table, hp, eta)
        perm = rng.permutation(table.r)
        shuffled = CellTable(
            table.counts[perm], table.means[perm], table.sigma2
        )
        eta_srt = eta.reshape(table.r, table.c)[perm].ravel()
        assert balanced_decoupling_check(shuffled, hp, eta_srt) <= 1e-10
        assert base <= 1e-10

    def test_rejects_unbalanced(self, rng):
        table, eta = make_random_table(rng, 3, 3, k_max=5)
        if table.k_observed.min() == table.k_observed.max():
            pytest.skip("draw happened to be balanced")
        with pytest.raises(ValueError):
            balanced_decoupling_check(table, HyperParams(0.0, 1.0, 1.0), eta)

    def test_rejects_an_incomplete_table(self):
        counts = np.array([[2, 2, 0], [2, 2, 2], [2, 2, 2]])
        means = np.where(counts > 0, 1.0, np.nan)
        table = CellTable(counts, means, 1.0)
        with pytest.raises(ValueError, match="decoupling check requires a complete table"):
            balanced_decoupling_check(table, HyperParams(0.0, 1.0, 1.0), np.zeros(9))

    def test_rejects_non_additive_truth(self, rng):
        table, eta = self._balanced_table(rng)
        eta = eta.copy()
        eta[0] += 0.5
        with pytest.raises(ValueError, match="true means must be additive"):
            balanced_decoupling_check(table, HyperParams(0.0, 1.0, 1.0), eta)


class TestUreVarianceIdentity:
    def test_sample_variance_matches_analytic(self, rng):
        # mu = 0, sigma2 = 1 fixture; moderate replication count here, the
        # acceptance suite runs the full 20k-draw version on a 6x6 fixture
        table, eta_complete = make_random_table(rng, 4, 4, k_max=3, noise=False)
        d = build_design(table)
        ql = q_matrix(d)
        hp = HyperParams(0.0, 0.8, 1.1)
        eta_obs = table.y_observed
        analytic = ure_variance_zero_mu(d, hp, eta_obs, 1.0, ql)
        ctx = SigmaContext(d, hp, mode="fast", sigma2=1.0)
        n_draws = 4000
        noise = rng.standard_normal((n_draws, d.n_obs)) * np.sqrt(d.m_diag)
        vals = np.array([
            ure_value(ctx, eta_obs + e, 0.0, qmode="qmatrix", qloss=ql)
            for e in noise
        ])
        sample_var = vals.var(ddof=1)
        assert sample_var == pytest.approx(analytic, rel=0.15)


class TestLargeProblemEigenPath:
    # lambda1_q works at order r+c-1 whatever the number of observed cells
    def test_complete_design_is_exactly_one(self):
        table = CellTable(np.ones((46, 46), int), np.zeros((46, 46)), 1.0)
        d = build_design(table)
        assert d.n_obs > 2000
        assert lambda1_q(d) == 1.0

    def test_missing_cells_match_gram_oracle(self, rng):
        table, _ = make_random_table(rng, 60, 45, n_missing=540)
        d = build_design(table)
        assert d.n_obs > 2000
        assert lambda1_q(d) == pytest.approx(lambda1_q_from_grams(d), rel=1e-10)
