"""The effect-space paths after the fit against their dense forms.

Completion, the WLS fit and the first-order terms work in the (r+c)
effect coordinates; each is compared on random designs (complete and
with missing cells, r >= c and r < c, counts 1..20) with the dense matrix
form it replaced, at 1e-9.
"""

import tracemalloc

import numpy as np
import pytest

from twoway_shrink import (
    CellTable,
    HyperParams,
    QLoss,
    SigmaContext,
    build_design,
    complete_means,
    fit_ml,
    fit_ure,
    q_matrix,
    wls_fit,
)
from twoway_shrink.estimators import _first_order_terms
from twoway_shrink.linear_core import lam_from_tilde
from conftest import make_random_table
from dense_oracle import dense_design, first_order_terms_dense

RTOL = 1e-9


def random_designs(rng, n=50):
    """Tables of every shape class: complete and missing, tall and wide."""
    out = []
    while len(out) < n:
        r, c = (int(x) for x in rng.integers(2, 12, size=2))
        missing = len(out) % 2 == 1
        n_missing = int(rng.integers(1, max(2, r * c - (r + c - 1)))) if missing else 0
        try:
            table, eta = make_random_table(
                rng, r, c, k_max=20, n_missing=n_missing, sigma2=0.7
            )
        except RuntimeError:
            continue
        out.append((table, eta))
    return out


@pytest.fixture(scope="module")
def designs():
    return random_designs(np.random.default_rng(4242))


def test_designs_cover_every_shape_class(designs):
    kinds = {(t.is_complete, t.r >= t.c) for t, _ in designs}
    assert kinds == {(True, True), (True, False), (False, True), (False, False)}


def test_complete_means_matches_dense_completion_map(designs):
    rng = np.random.default_rng(1)
    for table, eta in designs:
        d = build_design(table)
        dd = dense_design(d)
        T = dd.Zc @ np.linalg.pinv(dd.Z, rcond=1e-10)
        eta_obs = eta.reshape(table.r, table.c)[table.counts > 0]
        for x in (rng.normal(0, 1, d.n_obs), table.y_observed, eta_obs):
            ref = T @ x
            got = complete_means(d, x)
            assert np.max(np.abs(got - ref)) <= RTOL * max(1.0, np.max(np.abs(ref)))
        # x in col(Z): the completion reproduces the additive means
        np.testing.assert_allclose(complete_means(d, eta_obs), eta, rtol=0, atol=1e-9)


def test_wls_fit_matches_dense_normal_equations(designs):
    for table, _ in designs:
        d = build_design(table)
        z = dense_design(d).Z
        k = d.k_obs.astype(float)
        y = table.y_observed
        normal = z.T @ (k[:, None] * z)
        ref = z @ (np.linalg.pinv(normal, rcond=1e-10) @ (z.T @ (k * y)))
        got = wls_fit(d, y)
        assert np.max(np.abs(got - ref)) <= RTOL * max(1.0, np.max(np.abs(ref)))


def test_first_order_terms_match_column_solves(designs):
    rng = np.random.default_rng(2)
    for i, (table, _) in enumerate(designs):
        d = build_design(table)
        losses = [QLoss.identity(d) if table.is_complete else q_matrix(d)]
        if table.is_complete:
            losses.append(QLoss.weighted(d))
        lt = rng.uniform(0.05, 1.0, size=2)
        hp = HyperParams(
            float(rng.normal()), lam_from_tilde(lt[0]), lam_from_tilde(lt[1])
        )
        y = table.y_observed
        if i % 2:  # the completed loss's gram, already built and kept
            for ql in losses:
                ql.effects_gram(d)
        for method, ql in [("EBMLE", None)] + [("URE", ql) for ql in losses]:
            ctx = SigmaContext(d, hp, sigma2=table.sigma2)
            got = _first_order_terms(ctx, ql, y, hp.mu, method)
            ref = first_order_terms_dense(d, ql, table.sigma2, hp, y, hp.mu, method)
            for key in ("scale_mu", "scale_a", "scale_b"):
                assert got[key] == pytest.approx(ref[key], rel=RTOL)
            for res, scale in (("res_mu", "scale_mu"), ("res_a", "scale_a"),
                               ("res_b", "scale_b")):
                assert abs(got[res] - ref[res]) <= RTOL * max(ref[scale], abs(ref[res]))


def test_fits_on_a_complete_table_stay_small():
    """No fit path on a complete 60 x 60 table allocates an n x n or
    rc x n matrix: a single 3600 x 3600 float array is 104 MB."""
    rng = np.random.default_rng(60)
    counts = rng.integers(1, 6, size=(60, 60))
    means = rng.normal(0, 1, (60, 60))
    table = CellTable(counts, means, 1.0)
    for fit in (fit_ure, fit_ml):
        tracemalloc.start()
        try:
            fit(table)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 20e6, f"{fit.__name__} peak {peak / 1e6:.1f} MB"
