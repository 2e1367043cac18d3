import numpy as np
import pytest

from twoway_shrink import (
    CellTable,
    DisconnectedDesignError,
    HyperParams,
    build_design,
    design_components,
    imbalance_ratio,
    ingest_observations,
    is_connected,
    load_table,
    quantile_bounds,
)
from conftest import make_random_table
from dense_oracle import dense_design


class TestAggregation:
    def test_single_cell_mean(self):
        # a 1x1 grid is no table, so the replicated cell is checked in a 2x2
        with pytest.raises(ValueError):
            ingest_observations([("a", "x", 1.0), ("a", "x", 3.0)])
        table = ingest_observations(
            [("a", "x", 1.0), ("a", "x", 3.0), ("a", "y", 0.0), ("b", "x", 0.0),
             ("b", "y", 0.0)]
        )
        assert table.counts.tolist() == [[2, 1], [1, 1]]
        assert table.means[0, 0] == 2.0
        assert table.sigma2 == pytest.approx(2.0)  # s^2 of {1,3}

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
            ingest_observations([])
        with pytest.raises(ValueError):
            ingest_observations([("a", "x", np.nan)])


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


class TestCellTableChecks:
    @pytest.mark.parametrize("counts, means", [
        (np.ones(4, int), np.ones(4)),
        (np.ones((2, 3), int), np.ones((3, 2))),
    ])
    def test_rejects_non_2d_or_unequal_shapes(self, counts, means):
        with pytest.raises(ValueError, match="2-d arrays of equal shape"):
            CellTable(counts, means, 1.0)

    def test_integral_float_counts_are_converted(self):
        table = CellTable(np.array([[1.0, 2.0], [3.0, 1.0]]), np.ones((2, 2)), 1.0)
        assert table.counts.dtype == np.int64
        assert table.counts.tolist() == [[1, 2], [3, 1]]

    @pytest.mark.parametrize("bad", [1.5, np.inf])
    def test_other_float_counts_are_rejected(self, bad):
        counts = np.array([[1.0, bad], [1.0, 1.0]])
        with pytest.raises(ValueError, match="counts must be finite integers"):
            CellTable(counts, np.ones((2, 2)), 1.0)

    def test_rejects_negative_counts(self):
        with pytest.raises(ValueError, match="counts must be nonnegative"):
            CellTable(np.array([[1, -1], [1, 1]]), np.ones((2, 2)), 1.0)

    def test_rejects_non_finite_observed_mean(self):
        means = np.array([[1.0, np.inf], [1.0, 1.0]])
        with pytest.raises(ValueError, match="means of observed cells must be finite"):
            CellTable(np.ones((2, 2), int), means, 1.0)

    @pytest.mark.parametrize("labels", [
        {"row_labels": ("a",)}, {"col_labels": ("x", "y", "z")},
    ])
    def test_rejects_label_lengths_that_do_not_match(self, labels):
        with pytest.raises(ValueError, match="label lengths must match table dimensions"):
            CellTable(np.ones((2, 2), int), np.ones((2, 2)), 1.0, **labels)

    def test_no_sigma2_and_no_replicated_cell(self):
        records = [("a", "x", 1.0), ("a", "y", 2.0), ("b", "x", 3.0), ("b", "y", 4.0)]
        with pytest.raises(ValueError, match="sigma2 not given and no replicated cells"):
            ingest_observations(records)


class TestCsvChecks:
    @pytest.mark.parametrize("schema, header", [
        ("raw", "row,col,value"), ("agg", "row,col,count,mean"),
    ])
    def test_wrong_header(self, tmp_path, schema, header):
        path = tmp_path / "bad.csv"
        path.write_text("row,column,value,n\na,x,1.0,1\n", encoding="utf-8")
        with pytest.raises(ValueError, match=f"{schema} schema requires header '{header}'"):
            load_table(path, schema, sigma2=1.0)

    @pytest.mark.parametrize("schema, header", [
        ("raw", "row,col,value"), ("agg", "row,col,count,mean"),
    ])
    def test_header_and_no_data_rows(self, tmp_path, schema, header):
        path = tmp_path / "empty.csv"
        path.write_text(header + "\n\n", encoding="utf-8")
        with pytest.raises(ValueError, match="no data rows in .*empty.csv"):
            load_table(path, schema, sigma2=1.0)

    def test_agg_schema_needs_sigma2(self, tmp_path):
        path = tmp_path / "agg.csv"
        path.write_text("row,col,count,mean\na,x,1,0.5\n", encoding="utf-8")
        with pytest.raises(ValueError, match="aggregated schema carries no replicates; "
                                             "sigma2 required"):
            load_table(path, "agg")

    def test_unknown_schema(self, tmp_path):
        with pytest.raises(ValueError, match="unknown schema 'json'"):
            load_table(tmp_path / "table.json", "json", sigma2=1.0)

    @pytest.mark.parametrize("schema, text", [
        ("raw", "row,col,value\na,x,1.0\na,x,2.5\na,y,0.5\nb,x,0.1\nb,y,0.2\n"),
        ("agg", "row,col,count,mean\na,x,2,1.5\na,y,1,0.5\nb,x,1,0.1\nb,y,0,nan\n"
                "c,y,1,2.0\n"),
    ], ids=["raw", "agg"])
    def test_utf8_byte_order_mark_is_skipped(self, tmp_path, schema, text):
        plain, marked = tmp_path / "plain.csv", tmp_path / "marked.csv"
        plain.write_text(text, encoding="utf-8")
        marked.write_text(text, encoding="utf-8-sig")
        assert marked.read_bytes().startswith(b"\xef\xbb\xbf")
        assert_same_table(load_table(marked, schema, sigma2=1.0),
                          load_table(plain, schema, sigma2=1.0))


def assert_same_table(a, b):
    """Equal counts, bit-equal means, labels, sigma2 and its source."""
    assert a.counts.dtype == b.counts.dtype
    assert np.array_equal(a.counts, b.counts)
    assert a.means.tobytes() == b.means.tobytes()
    assert (a.row_labels, a.col_labels) == (b.row_labels, b.col_labels)
    assert (a.sigma2, a.sigma2_source) == (b.sigma2, b.sigma2_source)


class TestReadersAgree:
    """Raw records, raw CSV and aggregated CSV of the same cells load alike."""

    @staticmethod
    def _cells(rng):
        """Shuffled (row, col) labels of a random connected 5x4 layout."""
        table, _ = make_random_table(rng, 5, 4, n_missing=4)
        rows, cols = np.nonzero(table.counts)
        order = rng.permutation(rows.size)
        return [(f"r{rows[t] * 3 % 5}", f"c{cols[t]}") for t in order]

    def test_single_values_raw_and_agg_csv(self, tmp_path, rng):
        for _ in range(10):
            cells = self._cells(rng)
            values = rng.normal(0.0, 10.0, len(cells))
            raw, agg = tmp_path / "raw.csv", tmp_path / "agg.csv"
            raw.write_text("row,col,value\n" + "".join(
                f"{a},{b},{v!r}\n" for (a, b), v in zip(cells, values.tolist())))
            agg.write_text("row,col,count,mean\n" + "".join(
                f"{a},{b},1,{v!r}\n" for (a, b), v in zip(cells, values.tolist())))
            assert_same_table(load_table(raw, "raw", sigma2=1.5),
                              load_table(agg, "agg", sigma2=1.5))

    def test_replicated_raw_csv_and_records(self, tmp_path, rng):
        for _ in range(10):
            cells = self._cells(rng)
            records = [(a, b, float(v)) for a, b in cells
                       for v in rng.normal(0.0, 3.0, rng.integers(1, 4))]
            records = [records[t] for t in rng.permutation(len(records))]
            records.append((*cells[0], 0.25))  # at least one replicated cell
            path = tmp_path / "raw.csv"
            path.write_text("row,col,value\n" + "".join(
                f"{a},{b},{v!r}\n" for a, b, v in records))
            table = load_table(path, "raw")
            assert table.sigma2_source == "pooled"
            assert_same_table(table, ingest_observations(records))


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
            load_table(path, "agg", sigma2=1.0)

    def test_listed_empty_cell_loads(self, tmp_path):
        lines = ["a,x,1,0.0", "a,y,1,0.5", "b,x,1,0.1", "b,y,0,nan", "c,x,2,1.0",
                 "c,y,1,2.0"]
        table = load_table(self._write(tmp_path, lines), "agg", sigma2=1.0)
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

    def test_equals_numpy_quantile_bit_for_bit(self):
        # np.quantile is the reference; the bounds avoid calling it because
        # it imports numpy.ma.  Bytes are compared, so -0.0 and 0.0 differ.
        rng = np.random.default_rng(20)
        taus = (1e-9, 0.05, 0.5, 1.0)
        checked, n_tables = set(), 0
        for k in range(2400):
            r, c = rng.integers(2, 9, 2)
            counts = rng.integers(1, 5, (r, c))
            missing = k // 4 % 2
            if missing:
                counts = counts * (rng.random((r, c)) > 0.3)
            scale = 10.0 ** rng.uniform(-8, 8)
            kind = k % 4
            if kind == 0:
                means = rng.normal(size=(r, c)) * scale
            elif kind == 1:  # one constant value
                means = np.full((r, c), rng.normal() * scale)
            elif kind == 2:  # few distinct values, many ties
                means = rng.integers(-2, 3, (r, c)) * scale
            else:  # signed zeros among ties
                means = rng.choice([-0.0, 0.0, scale, -scale], (r, c))
            try:
                table = CellTable(counts, np.where(counts > 0, means, np.nan), 1.0)
            except ValueError:  # too few observed cells
                continue
            tau = taus[k % 5] if k % 5 < 4 else float(rng.uniform(1e-6, 1.0))
            got = np.array(quantile_bounds(table, tau))
            want = np.quantile(table.y_observed, [tau / 2, 1 - tau / 2],
                               method="linear")
            assert got.tobytes() == want.tobytes(), (table.y_observed, tau)
            checked.add((kind, missing, k % 5))
            n_tables += 1
        assert len(checked) == 4 * 2 * 5
        assert n_tables >= 2000


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
