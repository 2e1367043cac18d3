"""The effect-space paths after the fit against their dense forms.

Completion, the WLS fit and the first-order terms work in the (r+c)
effect coordinates; each is compared on random designs (complete and
with missing cells, r >= c and r < c, counts 1..20) with the dense matrix
form it replaced, at 1e-9.  The effects solve behind completion and WLS
absorbs the larger factor; it is compared with the (r+c)-order augmented
Cholesky solve it replaced at 1e-12, on designs with counts up to 2000.

The design's absorbed split (``DesignSet.split_weighted`` and
``split_plain``) is built once and read by the effects solve and the
absorbed grid; both are checked bit for bit against their forms from
before the split, which chose the absorbed factor themselves, and an
engine's set-up is checked to build no dense (r+c)-order gram.
"""

import tracemalloc

import numpy as np
import pytest

from twoway_shrink import (
    CellTable,
    DesignSet,
    FitEngine,
    HyperParams,
    QLoss,
    SigmaContext,
    build_design,
    complete_means,
    fit_ml,
    fit_ure,
    q_matrix,
    wls_fit,
    wls_fit_full,
)
from twoway_shrink.estimators import GRID_POINTS, _AbsorbedGrid, _first_order_terms
from twoway_shrink.linear_core import lam_from_tilde
from conftest import make_random_table
from dense_oracle import (
    absorbed_grid_from_gram,
    complete_means_augmented,
    dense_design,
    effects_gram_block,
    effects_solve_augmented,
    effects_solve_per_call,
    first_order_terms_dense,
    wls_fit_augmented,
)

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


def oracle_designs(rng, n=50):
    """Designs of all six classes: r > c, r < c and r = c, each complete and
    with missing cells; counts 1..2000."""
    out = []
    while len(out) < n:
        shape, missing = len(out) % 3, len(out) % 2 == 1
        big, small = (int(x) for x in np.sort(rng.integers(2, 30, size=2))[::-1])
        if big == small:
            big += 1
        r, c = ((big, small), (small, big), (big, big))[shape]
        n_missing = int(rng.integers(1, r * c - (r + c - 1))) if missing else 0
        try:
            table, _ = make_random_table(rng, r, c, k_max=2000, n_missing=n_missing)
        except RuntimeError:
            continue
        out.append(table)
    return out


def test_effects_solve_matches_the_augmented_cholesky():
    rng = np.random.default_rng(2000)
    tables = oracle_designs(rng)
    kinds = {(t.is_complete, int(np.sign(t.r - t.c))) for t in tables}
    assert len(kinds) == 6

    def check(got, ref):
        assert np.max(np.abs(got - ref)) <= 1e-12 * np.max(np.abs(ref))

    for table in tables:
        d = build_design(table)
        y = table.y_observed
        for x in (y, rng.normal(0, 1, d.n_obs)):
            for weighted in (False, True):
                rhs = d.effects_rmatvec(d.k_obs * x if weighted else x)
                check(d.effects_solve(rhs, weighted),
                      effects_solve_augmented(d, rhs, weighted))
            check(wls_fit(d, x), wls_fit_augmented(d, x))
            check(complete_means(d, x), complete_means_augmented(d, x))


@pytest.fixture(scope="module")
def split_designs():
    tables = oracle_designs(np.random.default_rng(2929), n=60)
    assert len({(t.is_complete, int(np.sign(t.r - t.c))) for t in tables}) == 6
    return tables


def test_grams_and_effects_solve_are_bit_equal_to_the_per_call_forms(split_designs):
    rng = np.random.default_rng(2930)
    for table in split_designs:
        d = build_design(table)
        assert np.array_equal(d.gram_weighted, effects_gram_block(d, weighted=True))
        assert np.array_equal(d.gram_plain, effects_gram_block(d))
        for x in (table.y_observed, rng.normal(0, 1, d.n_obs)):
            for weighted in (False, True):
                rhs = d.effects_rmatvec(d.k_obs * x if weighted else x)
                assert np.array_equal(d.effects_solve(rhs, weighted),
                                      effects_solve_per_call(d, rhs, weighted))


def test_absorbed_grid_is_bit_equal_to_the_grid_from_the_dense_gram(split_designs):
    axis = np.linspace(0.0, 1.0, GRID_POINTS)
    for table in split_designs:
        d = build_design(table)
        grid = _AbsorbedGrid(d, axis)
        ref = absorbed_grid_from_gram(d, axis)
        for loss in (None, QLoss.of(d).effects_gram):
            if loss is not None:
                grid.add_loss(loss)
                ref.add_loss(loss)
            for name in _AbsorbedGrid.__slots__:
                got, want = getattr(grid, name), getattr(ref, name)
                assert (got is want is None) or np.array_equal(got, want), name


@pytest.mark.parametrize("r, c, n_missing", [(9, 5, 0), (5, 9, 12), (6, 6, 7)])
def test_engine_setup_builds_no_dense_gram(monkeypatch, r, c, n_missing):
    table, _ = make_random_table(np.random.default_rng(r * c), r, c, k_max=20,
                                 n_missing=n_missing)

    def refuse(design):
        raise AssertionError("a dense (r+c)-order gram was built")

    monkeypatch.setattr(DesignSet, "gram_weighted", property(refuse))
    monkeypatch.setattr(DesignSet, "gram_plain", property(refuse))
    engine = FitEngine(table)
    engine._grid_pick(engine._data_pieces(table.y_observed, None, loss=False), "EBMLE")


def test_engine_setup_on_a_tall_complete_table_stays_below_one_gram():
    """Set-up and the EBMLE grid pick on a complete 2000 x 20 table peak
    below one (r+c)-order float matrix, 32.6 MB."""
    rng = np.random.default_rng(2000)
    table = CellTable(rng.integers(1, 6, size=(2000, 20)),
                      rng.normal(0, 1, (2000, 20)), 1.0)
    gram_bytes = 8 * (table.r + table.c) ** 2
    tracemalloc.start()
    try:
        engine = FitEngine(table)
        engine._grid_pick(engine._data_pieces(table.y_observed, None, loss=False),
                          "EBMLE")
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < gram_bytes, f"set-up peak {peak / 1e6:.1f} MB"


def test_wls_fit_full_on_a_tall_complete_table_stays_small():
    """The effects solve forms no (r+c)-order matrix: on a complete
    5000 x 10 table one would be 200 MB."""
    rng = np.random.default_rng(5000)
    table = CellTable(rng.integers(1, 21, size=(5000, 10)),
                      rng.normal(0, 1, (5000, 10)), 1.0)
    tracemalloc.start()
    try:
        fit = wls_fit_full(table)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 50e6, f"wls_fit_full peak {peak / 1e6:.1f} MB"
    assert fit.eta_complete.shape == (50000,)


def test_first_order_terms_match_column_solves(designs):
    rng = np.random.default_rng(2)
    for i, (table, _) in enumerate(designs):
        d = build_design(table)
        losses = [QLoss.of(d, "identity") if table.is_complete else q_matrix(d)]
        if table.is_complete:
            losses.append(QLoss.of(d, "weighted"))
        lt = rng.uniform(0.05, 1.0, size=2)
        hp = HyperParams(
            float(rng.normal()), lam_from_tilde(lt[0]), lam_from_tilde(lt[1])
        )
        y = table.y_observed
        if i % 2:  # the completed loss's gram, already built and kept
            for ql in losses:
                ql.effects_gram
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
