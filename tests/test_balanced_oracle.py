"""The engine against exact answers on balanced designs.

On a complete table with one count k in every cell, Sigma's eigenspaces
are the ANOVA split, and every criterion is a sum of four scalar terms
(``dense_oracle.balanced_objective``); its exact minimum over the search
box is ``dense_oracle.balanced_minimum``.  The grid, the single-point
scorer, the fits, their location and the WLS fit and completion are
checked against it on 40 random balanced tables: 3 to 24 rows and
columns, k in 1..5, sigma^2 in [0.3, 3], effect scales in [0, 3], with
one or both scales 0 on every fourth table.  At its own hyper-parameters
a fit's completion is the ANOVA fit with each space shrunk by its own
factor (:func:`closed_form_fit`).
"""

from math import isinf

import numpy as np
import pytest

from twoway_shrink import CellTable, FitEngine, build_design, complete_means, wls_fit
from twoway_shrink.estimators import fit_ml, fit_ure
from dense_oracle import balanced_minimum, balanced_objective

RTOL = 1e-12
METHODS = ("URE", "EBMLE", "ORACLE")
# Single points away from the lambda = 1e12 edges, where the capacitance
# matrix is well conditioned.
POINTS = [(1.0, 1.0), (1.0, 0.3), (0.3, 1.0), (0.5, 0.5), (0.1, 0.7), (0.7, 0.1)]


def gap(value, exact):
    """|value - exact| relative to max(1, |exact|)."""
    return np.abs(value - exact) / np.maximum(1.0, np.abs(exact))


def balanced_tables(n=40, seed=5):
    rng = np.random.default_rng(seed)
    out = []
    for i in range(n):
        r, c = (int(x) for x in rng.integers(3, 25, 2))
        k = int(rng.integers(1, 6))
        sigma2 = float(rng.uniform(0.3, 3.0))
        scale_a, scale_b = rng.uniform(0.0, 3.0, 2)
        if i % 4 == 0:  # no row effects, no column effects, or neither
            zeroed = ((0.0, scale_b), (scale_a, 0.0), (0.0, 0.0))
            scale_a, scale_b = zeroed[i // 4 % 3]
        eta = (float(rng.normal()) + scale_a * rng.normal(size=r)[:, None]
               + scale_b * rng.normal(size=c)[None, :])
        y = eta + rng.normal(size=(r, c)) * np.sqrt(sigma2 / k)
        out.append((CellTable(np.full((r, c), k), y, sigma2), eta.ravel()))
    return out


@pytest.fixture(scope="module")
def tables():
    return balanced_tables()


@pytest.fixture(scope="module")
def fits(tables):
    """(table, method, fit, the fit's minimized objective, the exact minimum)
    for URE and EBMLE."""
    out = []
    for table, _ in tables:
        for method, fit in (("URE", fit_ure(table)), ("EBMLE", fit_ml(table))):
            value = -fit.objective if method == "EBMLE" else fit.objective
            out.append((table, method, fit, value, balanced_minimum(table, method)[0]))
    return out


def truth(method, eta):
    return eta if method == "ORACLE" else None


def test_grid_matches_the_closed_form(tables):
    for table, eta in tables:
        engine = FitEngine(table)
        for method in METHODS:
            pieces = engine._data_pieces(table.y_observed, truth(method, eta),
                                         loss=method != "EBMLE")
            grid = engine._grid_bundle if method == "EBMLE" else engine._loss_grid()
            obj, _, _ = engine._score(grid, pieces, method)
            exact, _, _ = balanced_objective(table, *grid.lt.T, method,
                                             truth(method, eta))
            # On the lambda_tilde = 0 lines P carries its near-null eigenvalue
            # with absolute rounding error (ROADMAP item 4): up to 1.1e-12 here.
            edge = np.any(grid.lt == 0.0, axis=1)
            assert np.max(gap(obj[~edge], exact[~edge])) <= RTOL
            assert np.max(gap(obj[edge], exact[edge])) <= 10 * RTOL


def test_point_scorer_matches_the_closed_form(tables):
    for table, eta in tables:
        engine = FitEngine(table)
        for method in METHODS:
            for pair in POINTS:
                obj, _, _ = engine.objective_at(pair, table.y_observed, method,
                                                truth(method, eta))
                exact, _, _ = balanced_objective(table, *pair, method,
                                                 truth(method, eta))
                assert gap(obj, exact) <= RTOL, (table.r, table.c, method, pair)


@pytest.mark.xfail(strict=True, reason=(
    "the capacitance point scorer loses accuracy at the WLS limit: off by up "
    "to 2.4e-2 at lambda_tilde (1e-6, 1e-6); ROADMAP item 3 removes it"))
def test_point_scorer_at_the_wls_limit(tables):
    worst = 0.0
    for table, eta in tables:
        engine = FitEngine(table)
        for method in METHODS:
            obj, _, _ = engine.objective_at((1e-6, 1e-6), table.y_observed, method,
                                            truth(method, eta))
            exact, _, _ = balanced_objective(table, 1e-6, 1e-6, method,
                                             truth(method, eta))
            worst = max(worst, float(gap(obj, exact)))
    assert worst <= RTOL


def test_fit_objective_is_the_closed_form_at_its_pick(fits):
    for table, method, fit, value, _ in fits:
        exact, _, _ = balanced_objective(table, *fit.diagnostics["lambda_tilde"],
                                         method)
        assert gap(value, exact) <= RTOL


def test_no_fit_beats_the_closed_form_minimum(fits):
    for _, _, _, value, exact in fits:
        assert value >= exact - RTOL * max(1.0, abs(exact))


@pytest.mark.xfail(strict=True, reason=(
    "Nelder-Mead stalls on the lambda_tilde = 1 edge while the optimum lies "
    "inside the box (11 of these 80 fits); ROADMAP item 3's stencil search "
    "reaches it"))
def test_every_fit_reaches_the_closed_form_minimum(fits):
    short = [(table.r, table.c, method) for table, method, _, value, exact in fits
             if value > exact + RTOL * max(1.0, abs(exact))]
    assert short == []


def test_unclamped_mu_is_the_grand_mean(fits):
    # The profile divides by rc b_G^2, b_G the grand mean's shrinkage factor,
    # so mu's rounding error grows as 1 / b_G^2 towards the WLS limit.
    n_checked = 0
    for table, _, fit, _, _ in fits:
        if fit.mu_clamped:
            continue
        lam_a, lam_b = fit.hp.lambda_a, fit.hp.lambda_b
        m = 1.0 / float(table.counts[0, 0])
        b_g = m / (m + table.c * lam_a + table.r * lam_b)
        y = table.means
        assert abs(fit.hp.mu - y.mean()) <= RTOL * np.max(np.abs(y)) / b_g**2
        n_checked += 1
    assert n_checked >= 40


def closed_form_fit(table, hp):
    """mu + (1-b_G)(ybar-mu) + (1-b_A) a_i + (1-b_B) b_j, as an r x c array.

    a_i and b_j are the row and column contrasts of y, m = 1/k, and
    b_A = m/(m + c lambda_A), b_B = m/(m + r lambda_B) and
    b_G = m/(m + c lambda_A + r lambda_B) are the shrinkage factors of the
    row, column and grand-mean spaces; the interaction is shrunk away.
    """
    r, c, y = table.r, table.c, table.means
    m = 1.0 / float(table.counts[0, 0])
    lam_a, lam_b, mu = hp.lambda_a, hp.lambda_b, hp.mu
    b_a, b_b = m / (m + c * lam_a), m / (m + r * lam_b)
    b_g = m / (m + c * lam_a + r * lam_b)
    ybar = y.mean()
    a, b = y.mean(axis=1) - ybar, y.mean(axis=0) - ybar
    return (mu + (1.0 - b_g) * (ybar - mu)
            + (1.0 - b_a) * a[:, None] + (1.0 - b_b) * b[None, :])


def test_balanced_closed_form_of_shrinkage_fits(fits):
    # TestWls::test_balanced_closed_form's check, for URE and EBMLE fits
    for table, method, fit, _, _ in fits:
        expected = closed_form_fit(table, fit.hp).ravel()
        gap = np.max(np.abs(fit.eta_complete - expected))
        assert gap <= RTOL * np.max(np.abs(table.means)), (table.r, table.c, method)


def test_a_fit_at_the_corner_returns_y():
    # Interaction five times the noise: no shrinkage beats the unshrunken
    # corner, whose estimate is y and whose completion is the ANOVA fit.
    rng = np.random.default_rng(3)
    for _ in range(5):
        r, c = (int(x) for x in rng.integers(3, 10, 2))
        y = 5.0 * rng.normal(size=(r, c))
        table = CellTable(np.full((r, c), int(rng.integers(1, 5))), y, 1.0)
        fit = fit_ure(table)
        assert isinf(fit.hp.lambda_a) and isinf(fit.hp.lambda_b)
        np.testing.assert_array_equal(fit.eta_obs, y.ravel())
        gap = np.max(np.abs(fit.eta_complete - closed_form_fit(table, fit.hp).ravel()))
        assert gap <= RTOL * np.max(np.abs(y))


def test_wls_and_completion_are_the_anova_fit(tables):
    for table, _ in tables:
        y = table.means
        anova = (y.mean(axis=1, keepdims=True) + y.mean(axis=0, keepdims=True)
                 - y.mean()).ravel()
        d = build_design(table)
        y_obs = table.y_observed
        for got in (wls_fit(d, y_obs), complete_means(d, y_obs)):
            assert np.max(np.abs(got - anova)) <= RTOL * np.max(np.abs(anova))
