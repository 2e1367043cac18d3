import numpy as np
import pytest

from twoway_shrink import (
    CellTable,
    DisconnectedDesignError,
    HyperParams,
    aggregate_records,
    build_design,
    design_components,
    imbalance_ratio,
    ingest_observations,
    is_connected,
    quantile_bounds,
    read_agg_csv,
)
from conftest import make_random_table
from dense_oracle import dense_design


class TestAggregation:
    def test_single_cell_mean(self):
        # aggregation itself is fine with a 1x1 grid; table construction is not
        rows, cols, counts, means, pooled = aggregate_records(
            [("a", "x", 1.0), ("a", "x", 3.0)]
        )
        assert counts.tolist() == [[2]]
        assert means[0, 0] == 2.0
        assert pooled == pytest.approx(2.0)  # s^2 of {1,3}
        with pytest.raises(ValueError):
            ingest_observations([("a", "x", 1.0), ("a", "x", 3.0)])

    def test_identity_aggregation(self):
        table = ingest_observations(
            [("a", "x", 1.0), ("a", "y", 2.0), ("b", "x", 3.0), ("b", "y", 4.0)],
            sigma2=1.0,
        )
        assert (table.r, table.c) == (2, 2)
        assert np.all(table.counts == 1)
        assert table.means.tolist() == [[1.0, 2.0], [3.0, 4.0]]
        assert table.row_labels == ("a", "b")

    def test_duplicates_against_direct_recomputation(self):
        records = [
            ("r1", "c1", 1.0), ("r1", "c1", 5.0),
            ("r1", "c2", 2.0),
            ("r2", "c1", 7.0),
            ("r2", "c2", 1.0), ("r2", "c2", 3.0),
        ]
        table = ingest_observations(records, sigma2=1.0)
        assert table.counts.tolist() == [[2, 1], [1, 2]]
        # brute-force per-cell means
        cells = {}
        for row, col, v in records:
            cells.setdefault((row, col), []).append(v)
        for (row, col), vals in cells.items():
            i = table.row_labels.index(row)
            j = table.col_labels.index(col)
            assert table.means[i, j] == pytest.approx(np.mean(vals))

    def test_pooled_sigma2_plugin(self):
        records = [("a", "x", 1.0), ("a", "x", 3.0), ("a", "y", 2.0),
                   ("b", "x", 0.0), ("b", "y", 4.0)]
        table = ingest_observations(records)
        assert table.sigma2_source == "pooled"
        assert table.sigma2 == pytest.approx(2.0)

    def test_rejects_empty_and_nonfinite(self):
        with pytest.raises(ValueError):
            aggregate_records([])
        with pytest.raises(ValueError):
            aggregate_records([("a", "x", np.nan)])


class TestCellTable:
    def test_invariants(self):
        with pytest.raises(ValueError):  # too few nonempty cells
            CellTable(
                np.array([[1, 0], [0, 1]]),
                np.array([[1.0, np.nan], [np.nan, 2.0]]),
                1.0,
            )
        with pytest.raises(ValueError):  # mean present in an empty cell
            CellTable(
                np.array([[1, 0], [1, 1]]),
                np.array([[1.0, 2.0], [3.0, 4.0]]),
                1.0,
            )
        with pytest.raises(ValueError):
            CellTable(np.ones((2, 2), int), np.ones((2, 2)), sigma2=0.0)
        with pytest.raises(ValueError):
            CellTable(np.ones((1, 3), int), np.ones((1, 3)), 1.0)

    def test_immutable(self):
        table = CellTable(np.ones((2, 2), int), np.ones((2, 2)), 1.0)
        with pytest.raises(ValueError):
            table.counts[0, 0] = 5


class TestHyperParams:
    def test_validation(self):
        HyperParams(0.0, 0.0, np.inf)  # ok
        with pytest.raises(ValueError):
            HyperParams(np.inf, 1.0, 1.0)
        with pytest.raises(ValueError):
            HyperParams(0.0, -0.5, 1.0)

    def test_lambda_tilde(self):
        hp = HyperParams(0.0, 3.0, np.inf)
        assert hp.lambda_tilde_a == pytest.approx(0.5)
        assert hp.lambda_tilde_b == 0.0


class TestReadAggCsv:
    def _write(self, tmp_path, lines):
        path = tmp_path / "agg.csv"
        path.write_text("row,col,count,mean\n" + "\n".join(lines) + "\n")
        return path

    @pytest.mark.parametrize("first", ["a,x,0,nan", "a,x,2,1.0"])
    def test_duplicate_cell_rejected(self, tmp_path, first):
        rest = ["a,y,1,0.5", "b,x,1,0.1", "b,y,1,0.2"]
        path = self._write(tmp_path, [first, *rest, "a,x,3,1.5"])
        with pytest.raises(ValueError, match="duplicate cell"):
            read_agg_csv(path, 1.0)

    def test_listed_empty_cell_loads(self, tmp_path):
        lines = ["a,x,1,0.0", "a,y,1,0.5", "b,x,1,0.1", "b,y,0,nan", "c,x,2,1.0",
                 "c,y,1,2.0"]
        table = read_agg_csv(self._write(tmp_path, lines), 1.0)
        assert table.counts.tolist() == [[1, 1], [1, 0], [2, 1]]


class TestBuildDesign:
    def test_complete_2x2_block_structure(self):
        table = CellTable(np.ones((2, 2), int), np.arange(4.0).reshape(2, 2), 1.0)
        d = build_design(table)
        assert d.row_index.tolist() == [0, 0, 1, 1]
        assert d.col_index.tolist() == [0, 1, 0, 1]
        dd = dense_design(d)
        assert dd.Zc.shape == (4, 5)
        assert np.all(dd.Zc.sum(axis=1) == 3)
        assert np.array_equal(dd.Z, dd.Zc)

    def test_row_deletion(self):
        counts = np.array([[1, 1], [1, 0]])
        means = np.array([[1.0, 2.0], [3.0, np.nan]])
        d = build_design(CellTable(counts, means, 1.0))
        assert d.n_obs == 3
        assert d.row_index.tolist() == [0, 0, 1]
        assert d.col_index.tolist() == [0, 1, 0]
        dd = dense_design(d)
        assert dd.Z.shape == (3, 5)
        assert np.array_equal(dd.Z, dd.Zc[:3])

    def test_m_diag_inverse_counts(self):
        counts = np.ones((3, 3), int)
        counts[0, 0] = 4
        means = np.zeros((3, 3))
        d = build_design(CellTable(counts, means, 1.0))
        assert d.m_diag[0] == 0.25
        assert dense_design(d).M[0, 0] == 0.25

    def test_deletion_reconstruction_random(self, rng):
        for _ in range(20):
            table, _ = make_random_table(rng, 4, 6, n_missing=5)
            d = build_design(table)
            keep = (table.counts > 0).ravel()
            dd = dense_design(d)
            assert np.array_equal(dd.Zc[keep], dd.Z)


def _dense_z(counts):
    """[1 Za Zb] of the nonzero cells of a counts array, in lexicographic order."""
    r, c = counts.shape
    rows, cols = np.nonzero(counts)
    z = np.zeros((rows.size, 1 + r + c))
    z[:, 0] = 1.0
    z[np.arange(rows.size), 1 + rows] = 1.0
    z[np.arange(rows.size), 1 + r + cols] = 1.0
    return z


def _accepts(table):
    try:
        build_design(table)
    except DisconnectedDesignError:
        return False
    return True


class TestConnectivity:
    def test_two_components(self):
        counts = np.array([[1, 0], [0, 1], [1, 1]])  # pad to satisfy min cells
        means = np.where(counts > 0, 1.0, np.nan)
        table = CellTable(counts, means, 1.0)
        assert is_connected(table)
        counts = np.array([[2, 0, 0], [0, 1, 1], [0, 1, 1]])
        means = np.where(counts > 0, 1.0, np.nan)
        table = CellTable(counts, means, 1.0)
        assert not is_connected(table)
        comps = design_components(table)
        assert len(comps) == 2

    def test_spanning_path(self):
        counts = np.array([[1, 1], [0, 1]])
        means = np.where(counts > 0, 1.0, np.nan)
        assert is_connected(CellTable(counts, means, 1.0))

    def test_matches_rank_criterion(self, rng):
        agree = 0
        for _ in range(120):
            r = int(rng.integers(2, 9))
            c = int(rng.integers(2, 9))
            counts = (rng.random((r, c)) > 0.4).astype(int)
            if counts.sum() < r + c - 1:
                continue
            means = np.where(counts > 0, 0.0, np.nan)
            table = CellTable(counts, means, 1.0)
            z = _dense_z(counts)
            full = np.linalg.matrix_rank(z.T @ z) == r + c - 1
            assert is_connected(table) == full
            assert _accepts(table) == full
            agree += 1
        assert agree >= 100


    def test_rank_from_components_matches_svd(self, rng):
        """build_design accepts a table iff its Z has rank r+c-1."""
        kinds = set()
        for _ in range(300):
            r = int(rng.integers(2, 9))
            c = int(rng.integers(2, 9))
            counts = rng.integers(1, 4, size=(r, c)) * (rng.random((r, c)) > 0.55)
            if counts.sum() == 0 or np.count_nonzero(counts) < r + c - 1:
                continue
            table = CellTable(counts, np.where(counts > 0, 0.0, np.nan), 1.0)
            full = np.linalg.matrix_rank(_dense_z(counts)) == r + c - 1
            assert _accepts(table) == full
            kinds.add("connected" if full else "disconnected")
            if np.any(counts.sum(0) == 0) or np.any(counts.sum(1) == 0):
                kinds.add("empty line")
        assert kinds == {"connected", "disconnected", "empty line"}


class TestQuantileBounds:
    def test_constant_sample(self):
        table = CellTable(np.ones((2, 3), int), np.full((2, 3), 5.0), 1.0)
        assert quantile_bounds(table, 0.3) == (5.0, 5.0)

    def test_tau_one_gives_median(self):
        means = np.array([[1.0, 2.0], [3.0, 4.0]])
        table = CellTable(np.ones((2, 2), int), means, 1.0)
        assert quantile_bounds(table, 1.0) == (2.5, 2.5)

    def test_linear_interpolation(self):
        vals = np.arange(1.0, 101.0).reshape(10, 10)
        table = CellTable(np.ones((10, 10), int), vals, 1.0)
        a, b = quantile_bounds(table, 0.05)
        assert a == pytest.approx(3.475)
        assert b == pytest.approx(97.525)

    def test_monotone_in_tau(self, rng):
        table, _ = make_random_table(rng, 5, 5)
        for t1, t2 in [(0.01, 0.05), (0.05, 0.5), (0.2, 1.0)]:
            a1, b1 = quantile_bounds(table, t1)
            a2, b2 = quantile_bounds(table, t2)
            assert a1 <= a2 and b2 <= b1

    def test_rejects_bad_tau(self, rng):
        table, _ = make_random_table(rng, 3, 3)
        for tau in (0.0, -0.1, 1.5):
            with pytest.raises(ValueError):
                quantile_bounds(table, tau)


class TestImbalance:
    def test_balanced(self):
        table = CellTable(np.full((3, 3), 3), np.zeros((3, 3)), 1.0)
        assert imbalance_ratio(table) == 1.0

    def test_max_over_min(self):
        counts = np.arange(1, 11).reshape(2, 5)
        table = CellTable(counts, np.zeros((2, 5)), 1.0)
        assert imbalance_ratio(table) == 10.0

    def test_direct_scan(self, rng):
        table, _ = make_random_table(rng, 4, 4, k_max=9)
        k = table.counts[table.counts > 0]
        assert imbalance_ratio(table) == k.max() / k.min()
