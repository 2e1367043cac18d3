"""Two-way cell-mean layouts: tables, their designs, and data-driven bounds.

The central object is :class:`CellTable`, an r x c grid of per-cell
observation counts and cell averages with a known noise variance.  From a
table we derive the design of its observed cells (:class:`DesignSet`: row
and column index arrays, counts, and the effect-space grams and solves
built from them), quantile bounds for the shrinkage location, and the
design imbalance ratio.  The one dense map, the rc x n completion map
Zc Z^+, is built on each call of :meth:`DesignSet.completion_map`, once
per completed-loss matrix Q, and no design keeps it.

A table is read from one of two input kinds: raw (row, col, value)
records, in memory (:func:`ingest_observations`) or as a raw CSV, or an
aggregated CSV of (row, col, count, mean) cells (:func:`load_table` reads
both CSV schemas).  Both reach :class:`CellTable` through one map from
(row label, col label) to (count, mean), so labels keep their
first-appearance order and the same cells give the same table bit for bit.

Every cell mean is estimable exactly when the row-column incidence graph
of the observed cells is connected.  :func:`build_design` is where that is
decided: it raises :class:`DisconnectedDesignError` on a disconnected
table, so every :class:`DesignSet` is connected by construction.

All types are immutable after construction and safe to share across
threads.
"""

from __future__ import annotations

import csv
from dataclasses import dataclass, field
from functools import cached_property
from math import floor, isfinite

import numpy as np

__all__ = [
    "CellTable",
    "DesignSet",
    "HyperParams",
    "DisconnectedDesignError",
    "ingest_observations",
    "build_design",
    "is_connected",
    "design_components",
    "quantile_bounds",
    "imbalance_ratio",
    "load_table",
]

# Singular values below PINV_RTOL * s_max are treated as zero everywhere a
# pseudo-inverse or rank decision is made.
PINV_RTOL = 1e-10


class DisconnectedDesignError(ValueError):
    """The row-column incidence graph of the observed cells is disconnected."""


def _readonly(a: np.ndarray) -> np.ndarray:
    a = np.array(a, copy=True)
    a.flags.writeable = False
    return a


@dataclass(frozen=True, eq=False)
class CellTable:
    """An r x c two-way layout of cell counts and cell averages.

    Parameters
    ----------
    counts : (r, c) int array
        Number of raw observations per cell; zero marks an empty cell.
    means : (r, c) float array
        Per-cell averages; entries for empty cells must be NaN.
    sigma2 : float
        Known noise variance of a single observation (> 0).
    row_labels, col_labels : tuple, optional
        Original labels in first-appearance order; defaults to indices.
    sigma2_source : str
        "given" for user-supplied sigma2, "pooled" when it came from a
        pooled within-cell variance estimate.
    """

    counts: np.ndarray
    means: np.ndarray
    sigma2: float
    row_labels: tuple = None
    col_labels: tuple = None
    sigma2_source: str = "given"

    def __post_init__(self):
        counts = np.asarray(self.counts)
        means = np.asarray(self.means, dtype=float)
        if counts.ndim != 2 or counts.shape != means.shape:
            raise ValueError("counts and means must be 2-d arrays of equal shape")
        r, c = counts.shape
        if r < 2 or c < 2:
            raise ValueError(f"need at least a 2x2 layout, got {r}x{c}")
        if not np.issubdtype(counts.dtype, np.integer):
            rounded = np.rint(counts)
            if not np.all(np.isfinite(counts)) or np.any(rounded != counts):
                raise ValueError("counts must be finite integers")
            counts = rounded.astype(np.int64)
        if np.any(counts < 0):
            raise ValueError("counts must be nonnegative")
        observed = counts > 0
        if np.any(~np.isfinite(means[observed])):
            raise ValueError("means of observed cells must be finite")
        if np.any(np.isfinite(means[~observed])):
            raise ValueError("means must be NaN exactly where counts == 0")
        n_obs = int(observed.sum())
        if n_obs < r + c - 1:
            raise ValueError(
                f"estimability needs at least r+c-1 = {r + c - 1} nonempty "
                f"cells, got {n_obs}"
            )
        if not (isfinite(self.sigma2) and self.sigma2 > 0):
            raise ValueError("sigma2 must be a positive finite number")
        object.__setattr__(self, "counts", _readonly(counts.astype(np.int64)))
        object.__setattr__(self, "means", _readonly(means))
        object.__setattr__(self, "sigma2", float(self.sigma2))
        if self.row_labels is None:
            object.__setattr__(self, "row_labels", tuple(range(r)))
        else:
            object.__setattr__(self, "row_labels", tuple(self.row_labels))
        if self.col_labels is None:
            object.__setattr__(self, "col_labels", tuple(range(c)))
        else:
            object.__setattr__(self, "col_labels", tuple(self.col_labels))
        if len(self.row_labels) != r or len(self.col_labels) != c:
            raise ValueError("label lengths must match table dimensions")

    @property
    def r(self) -> int:
        return self.counts.shape[0]

    @property
    def c(self) -> int:
        return self.counts.shape[1]

    @property
    def n_observed(self) -> int:
        return int(np.count_nonzero(self.counts))

    @property
    def is_complete(self) -> bool:
        return self.n_observed == self.r * self.c

    @cached_property
    def y_observed(self) -> np.ndarray:
        """Cell averages of observed cells, lexicographic order."""
        return _readonly(self.means[self.counts > 0])

    @cached_property
    def k_observed(self) -> np.ndarray:
        """Counts of observed cells, lexicographic order."""
        return _readonly(self.counts[self.counts > 0])


@dataclass(frozen=True)
class HyperParams:
    """Location and relative-variance hyper-parameters (mu, lambda_a, lambda_b).

    ``lambda_a`` and ``lambda_b`` are the row/column effect variances
    relative to the noise variance; they live in [0, +inf].  The doubly
    infinite pair is reserved for the "no shrinkage" corner of the search
    box (see the estimators module).
    """

    mu: float
    lambda_a: float
    lambda_b: float

    def __post_init__(self):
        if not isfinite(self.mu):
            raise ValueError("mu must be finite")
        for name in ("lambda_a", "lambda_b"):
            v = getattr(self, name)
            if np.isnan(v) or v < 0:
                raise ValueError(f"{name} must be in [0, +inf]")

    @property
    def lambda_tilde_a(self) -> float:
        """Bounded reparameterization (1 + lambda)^{-1/2} in [0, 1]."""
        return float((1.0 + self.lambda_a) ** -0.5)

    @property
    def lambda_tilde_b(self) -> float:
        return float((1.0 + self.lambda_b) ** -0.5)


def ingest_observations(records, sigma2: float | None = None) -> CellTable:
    """Build a :class:`CellTable` from raw (row label, col label, value) records.

    Each cell holds the mean of its values.  When ``sigma2`` is omitted,
    the pooled within-cell variance ``sum((n-1) s^2) / sum(n-1)`` is used
    (and flagged via ``sigma2_source="pooled"``); this requires at least
    one cell with two or more replicates.
    """
    values = {}
    for row, col, value in records:
        value = float(value)
        if not isfinite(value):
            raise ValueError(f"non-finite value for cell ({row!r}, {col!r})")
        values.setdefault((row, col), []).append(value)
    if not values:
        raise ValueError("no records to aggregate")
    cells, ss_within, df_within = {}, 0.0, 0
    for cell, v in values.items():
        v = np.asarray(v)
        cells[cell] = (v.size, v.mean())
        ss_within += float(np.sum((v - v.mean()) ** 2))
        df_within += v.size - 1
    if sigma2 is not None:
        return _cell_table(cells, sigma2, "given")
    if df_within == 0 or ss_within <= 0:
        raise ValueError("sigma2 not given and no replicated cells to estimate it from")
    return _cell_table(cells, ss_within / df_within, "pooled")


def _cell_table(cells: dict, sigma2: float, source: str) -> CellTable:
    """CellTable of an ordered map {(row label, col label): (count, mean)}.

    Labels keep their first-appearance order in ``cells``; a count-0
    cell gets a NaN mean.
    """
    row_ix, col_ix = {}, {}
    i, j = np.array([(row_ix.setdefault(row, len(row_ix)),
                      col_ix.setdefault(col, len(col_ix))) for row, col in cells]).T
    k, m = (np.array(a) for a in zip(*cells.values()))
    counts = np.zeros((len(row_ix), len(col_ix)), dtype=np.int64)
    means = np.full(counts.shape, np.nan)
    counts[i, j] = k
    means[i, j] = np.where(k > 0, m, np.nan)
    return CellTable(counts, means, sigma2, row_labels=tuple(row_ix),
                     col_labels=tuple(col_ix), sigma2_source=source)


@dataclass(frozen=True, eq=False)
class DesignSet:
    """Index arrays of the observed cells of a two-way layout.

    Observed cells are kept in lexicographic order (the order of
    ``CellTable.y_observed``): cell k lies in row ``row_index[k]`` and column
    ``col_index[k]`` and holds ``k_obs[k]`` observations; ``m_diag`` is the
    diagonal of M, 1/K per observed cell.  The row-column incidence
    [Za Zb] acts through :meth:`effects_matvec` and
    :meth:`effects_rmatvec` and its grams are built from count sums, so no
    design matrix is stored.  The one dense map, Zc Z^+, is built anew by
    each call of :meth:`completion_map` and not kept.  Designs come from
    :func:`build_design`, so the row-column graph is connected and Z has
    rank r+c-1.
    """

    r: int
    c: int
    m_diag: np.ndarray
    row_index: np.ndarray = field(repr=False)
    col_index: np.ndarray = field(repr=False)
    k_obs: np.ndarray = field(repr=False)

    @property
    def n_obs(self) -> int:
        return self.row_index.size

    @property
    def q(self) -> int:
        """Number of row+column effect columns (intercept excluded)."""
        return self.r + self.c

    def effects_matvec(self, v: np.ndarray) -> np.ndarray:
        """[Za Zb] @ v for a vector of r+c effect coordinates."""
        return v[self.row_index] + v[self.r + self.col_index]

    def effects_rmatvec(self, x: np.ndarray) -> np.ndarray:
        """[Za Zb]^T @ x."""
        a = np.bincount(self.row_index, weights=x, minlength=self.r)
        b = np.bincount(self.col_index, weights=x, minlength=self.c)
        return np.concatenate([a, b])

    @cached_property
    def gram_weighted(self) -> np.ndarray:
        """[Za Zb]^T M^{-1} [Za Zb], built from count sums."""
        return _effects_gram(self, self.k_obs.astype(float))

    @cached_property
    def gram_plain(self) -> np.ndarray:
        """[Za Zb]^T [Za Zb], built from cell-incidence sums."""
        return _effects_gram(self, 1.0)

    def effects_solve(self, rhs: np.ndarray, weighted: bool = False) -> np.ndarray:
        """The theta with v^T theta = 0 that solves G theta = rhs.

        G is ``gram_weighted`` or ``gram_plain`` and v = (1_r, -1_c) spans
        its null space; ``rhs`` must lie in the range of G (any
        [Za Zb]^T x does).  The larger factor A, whose block D_A of G is
        diagonal, is eliminated in closed form (Searle, Casella and
        McCulloch, *Variance Components*, 1992, ch. 7): the Schur complement
        D_B - X^T D_A^{-1} X, X the cross block, is solved at order
        min(r, c) - 1 with theta_B's last entry at 0 (its null vector is
        1_B), theta_A = D_A^{-1} (rhs_A - X theta_B), and theta is shifted
        along v onto v^T theta = 0.
        """
        r = self.r
        x = _cross_block(self, self.k_obs.astype(float) if weighted else 1.0)
        rhs_a, rhs_b = rhs[:r], rhs[r:]
        if r < self.c:
            x, rhs_a, rhs_b = x.T, rhs_b, rhs_a
        d_a = x.sum(axis=1)
        xs = x / d_a[:, None]  # D_A^{-1} X
        s = np.diag(x.sum(axis=0)) - x.T @ xs
        theta_b = np.zeros(s.shape[0])
        theta_b[:-1] = np.linalg.solve(s[:-1, :-1], (rhs_b - xs.T @ rhs_a)[:-1])
        theta_a = (rhs_a - x @ theta_b) / d_a
        theta = np.concatenate([theta_b, theta_a] if r < self.c else [theta_a, theta_b])
        shift = (theta[:r].sum() - theta[r:].sum()) / self.q
        theta[:r] -= shift
        theta[r:] += shift
        return theta

    def completion_map(self) -> np.ndarray:
        """The dense rc x |E| matrix Zc Z^+ mapping observed-cell means to all cells.

        Only the completed loss matrix Q is built from it, once per Q;
        completing a vector goes through :meth:`effects_solve` instead.
        """
        r, c = self.r, self.c
        rows = np.repeat(np.arange(r), c)
        cols = np.tile(np.arange(c), r)
        Zc = np.zeros((r * c, r + c + 1))
        Zc[:, 0] = 1.0
        Zc[np.arange(r * c), 1 + rows] = 1.0
        Zc[np.arange(r * c), 1 + r + cols] = 1.0
        Z = Zc[self.row_index * c + self.col_index]
        return Zc @ np.linalg.pinv(Z, rcond=PINV_RTOL)


def _cross_block(design: DesignSet, w) -> np.ndarray:
    """The r x c cross block Za^T diag(w) Zb: each observed cell's weight."""
    cross = np.zeros((design.r, design.c))
    cross[design.row_index, design.col_index] = w
    return cross


def _effects_gram(design: DesignSet, w) -> np.ndarray:
    """[Za Zb]^T diag(w) [Za Zb]; its diagonal holds the cross block's sums."""
    x = _cross_block(design, w)
    return np.block([[np.diag(x.sum(axis=1)), x], [x.T, np.diag(x.sum(axis=0))]])


def build_design(table: CellTable) -> DesignSet:
    """Index arrays and counts of a table's observed cells.

    Raises :class:`DisconnectedDesignError`, naming each component by the
    table's labels, when the row-column graph of the observed cells is
    disconnected.  [Za Zb] is that graph's incidence matrix, so Z has rank
    r+c minus the number of components, and every cell mean is estimable
    exactly when there is one.
    """
    if not is_connected(table):
        raise DisconnectedDesignError(_disconnected_message(table))
    row_index, col_index = np.nonzero(table.counts)
    k = table.k_observed.astype(np.int64)
    return DesignSet(
        r=table.r,
        c=table.c,
        m_diag=_readonly(1.0 / k),
        row_index=_readonly(row_index),
        col_index=_readonly(col_index),
        k_obs=_readonly(k),
    )


def _component_labels(counts: np.ndarray):
    """(number, labels) of connected components of the row-column graph.

    Nodes are the r rows then the c columns of a counts array; every
    nonzero cell is an edge.  An empty row or column is a component alone.
    Components are numbered by their lowest node, as scipy's
    ``connected_components`` numbers them.  Every node points to a node of
    its component no higher than itself; each edge hooks its endpoints'
    pointers onto the lower one and pointer jumping (p = p[p]) flattens the
    forest, until every edge joins two equal pointers, each then the lowest
    node of its component.
    """
    r, c = counts.shape
    rows, cols = np.nonzero(counts)
    cols = cols + r
    parent = np.arange(r + c)
    while True:
        while not np.array_equal(jumped := parent[parent], parent):
            parent = jumped
        pr, pc = parent[rows], parent[cols]
        if np.array_equal(pr, pc):
            break
        low = np.minimum(pr, pc)
        np.minimum.at(parent, pr, low)
        np.minimum.at(parent, pc, low)
    roots, labels = np.unique(parent, return_inverse=True)
    return roots.size, labels


def is_connected(table: CellTable) -> bool:
    """True iff the bipartite row-column graph of nonempty cells is connected.

    Connectivity is equivalent to all r*c cell means being estimable
    (rank of Z^T Z equal to r+c-1).
    """
    n_comp, _ = _component_labels(table.counts)
    return n_comp == 1


def design_components(table: CellTable):
    """Connected components as a list of (row_indices, col_indices) pairs."""
    n_comp, labels = _component_labels(table.counts)
    r = table.r
    comps = []
    for k in range(n_comp):
        nodes = np.nonzero(labels == k)[0]
        comps.append((tuple(nodes[nodes < r]), tuple(nodes[nodes >= r] - r)))
    return comps


def _disconnected_message(table: CellTable) -> str:
    parts = []
    for k, (rows, cols) in enumerate(design_components(table), start=1):
        rl = [str(table.row_labels[i]) for i in rows]
        cl = [str(table.col_labels[j]) for j in cols]
        parts.append(f"component {k}: rows {rl}, cols {cl}")
    return "design is disconnected; " + "; ".join(parts)


def quantile_bounds(table: CellTable, tau: float):
    """Data-driven interval for the shrinkage location mu.

    Returns the tau/2 and 1-tau/2 quantiles of the observed cell averages,
    using linear interpolation between order statistics (type 7).  This is
    ``np.quantile(y, q, method="linear")`` step for step, so the bounds equal
    it bit for bit, -0.0 included, without the ``numpy.ma`` import that
    ``np.quantile`` adds to every CLI process.
    """
    if not (0 < tau <= 1):
        raise ValueError("tau must lie in (0, 1]")
    y = table.y_observed.copy()
    picks = [_type7_neighbours(y.size, q) for q in (tau / 2.0, 1.0 - tau / 2.0)]
    # numpy partitions at exactly these indices; a sort could order -0.0
    # and 0.0 differently.
    y.partition(sorted({0, -1}.union(*((i, j) for i, j, _ in picks))))
    return tuple(_lerp(float(y[i]), float(y[j]), g) for i, j, g in picks)


def _type7_neighbours(n: int, q: float) -> tuple:
    """numpy's (lower index, upper index, weight) for the q quantile of n values."""
    v = (n - 1) * q
    if v >= n - 1:  # the top value, interpolated with itself
        return -1, -1, v + 1.0
    i = floor(v)
    return i, i + 1, v - i


def _lerp(a: float, b: float, g: float) -> float:
    """numpy's ``_lerp``: from the nearer end, so g = 1 gives b exactly."""
    d = b - a
    return b - d * (1.0 - g) if g >= 0.5 else a + d * g


def imbalance_ratio(table: CellTable) -> float:
    """max/min of the observed cell counts (>= 1; equal to 1 iff balanced)."""
    k = table.k_observed
    return float(k.max() / k.min())


# ---------------------------------------------------------------------------
# CSV ingestion.  Two schemas, both with a required header row:
#   raw:  row,col,value   (one observation per line; read by ingest_observations)
#   agg:  row,col,count,mean   (one line per cell)
# ---------------------------------------------------------------------------

def _nonnegative_int(text: str) -> int:
    if (k := int(text)) < 0:
        raise ValueError(f"counts must be nonnegative, got {k}")
    return k


def _finite_float(text: str) -> float:
    if not isfinite(v := float(text)):
        raise ValueError(f"values must be finite, got {text.strip()!r}")
    return v


def _csv_rows(path, schema: str, header: tuple, types: tuple):
    """(line number, fields) of each non-blank data row of a CSV under ``header``.

    ``types`` holds one converter per column; a field it rejects is named
    by its line and column.  A leading UTF-8 byte-order mark is skipped,
    and a file without data rows is an error.
    """
    expected = ",".join(header)
    with open(path, newline="", encoding="utf-8-sig") as fh:
        reader = csv.reader(fh)
        first = next(reader, None)
        if first is None or [h.strip().lower() for h in first] != list(header):
            raise ValueError(f"{schema} schema requires header '{expected}'")
        line = None
        for line in filter(None, reader):  # a blank line reads as []
            if len(line) != len(header):
                raise ValueError(
                    f"line {reader.line_num}: {len(line)} fields where the header "
                    f"'{expected}' has {len(header)}"
                )
            fields = []
            for name, convert, text in zip(header, types, line):
                try:
                    fields.append(convert(text))
                except ValueError as exc:
                    raise ValueError(
                        f"line {reader.line_num}: column {name!r}: {exc}"
                    ) from None
            yield reader.line_num, tuple(fields)
        if line is None:
            raise ValueError(f"no data rows in {path}")


def load_table(path, schema: str, sigma2: float | None = None) -> CellTable:
    """Load a CellTable from CSV under the given schema ('raw' or 'agg')."""
    if schema == "raw":
        rows = _csv_rows(path, "raw", ("row", "col", "value"),
                         (str.strip, str.strip, _finite_float))
        return ingest_observations((fields for _, fields in rows), sigma2=sigma2)
    if schema != "agg":
        raise ValueError(f"unknown schema {schema!r}")
    if sigma2 is None:
        raise ValueError("aggregated schema carries no replicates; sigma2 required")
    cells = {}
    for line, (row, col, count, mean) in _csv_rows(
        path, "agg", ("row", "col", "count", "mean"),
        (str.strip, str.strip, _nonnegative_int, float),
    ):
        if count > 0 and not isfinite(mean):
            raise ValueError(f"line {line}: column 'mean': means of observed cells "
                             f"must be finite, got {mean!r}")
        if (row, col) in cells:
            raise ValueError(
                f"duplicate cell (row {row!r}, col {col!r}) in aggregated input"
            )
        cells[row, col] = (count, mean)
    return _cell_table(cells, sigma2, "given")
