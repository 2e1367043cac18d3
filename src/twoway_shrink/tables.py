"""Two-way cell-mean layouts: tables, their designs, and data-driven bounds.

The central object is :class:`CellTable`, an r x c grid of per-cell
observation counts and cell averages with a known noise variance.  From a
table we derive the design of its observed cells (:class:`DesignSet`: row
and column index arrays, counts, and the effect-space grams and solves
built from them), quantile bounds for the shrinkage location, and the
design imbalance ratio.

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
from math import isfinite

import numpy as np
from scipy.linalg import cho_solve, cholesky
from scipy.sparse import coo_matrix
from scipy.sparse.csgraph import connected_components as _sparse_components

__all__ = [
    "CellTable",
    "DesignSet",
    "HyperParams",
    "DisconnectedDesignError",
    "aggregate_records",
    "ingest_observations",
    "build_design",
    "is_connected",
    "design_components",
    "quantile_bounds",
    "imbalance_ratio",
    "read_raw_csv",
    "read_agg_csv",
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

    @cached_property
    def observed_cells(self) -> tuple:
        """Observed (i, j) pairs in lexicographic order."""
        return tuple(zip(*np.nonzero(self.counts)))

    @property
    def n_observed(self) -> int:
        return len(self.observed_cells)

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


def aggregate_records(records):
    """Aggregate raw (row_label, col_label, value) records to cell statistics.

    Returns ``(row_labels, col_labels, counts, means, pooled_var)`` where
    labels follow first-appearance order, ``counts``/``means`` are dense
    (r, c) arrays (means NaN for empty cells), and ``pooled_var`` is the
    pooled within-cell variance estimate ``sum((n-1) s^2) / sum(n-1)``, or
    None when no cell has two or more replicates.
    """
    records = list(records)
    if not records:
        raise ValueError("no records to aggregate")
    row_ix, col_ix = {}, {}
    cells = {}
    for row, col, value in records:
        value = float(value)
        if not isfinite(value):
            raise ValueError(f"non-finite value for cell ({row!r}, {col!r})")
        i = row_ix.setdefault(row, len(row_ix))
        j = col_ix.setdefault(col, len(col_ix))
        cells.setdefault((i, j), []).append(value)
    r, c = len(row_ix), len(col_ix)
    counts = np.zeros((r, c), dtype=np.int64)
    means = np.full((r, c), np.nan)
    ss_within = 0.0
    df_within = 0
    for (i, j), values in cells.items():
        v = np.asarray(values)
        counts[i, j] = v.size
        means[i, j] = v.mean()
        if v.size > 1:
            ss_within += float(np.sum((v - v.mean()) ** 2))
            df_within += v.size - 1
    pooled = ss_within / df_within if df_within > 0 else None
    return tuple(row_ix), tuple(col_ix), counts, means, pooled


def ingest_observations(records, sigma2: float | None = None) -> CellTable:
    """Build a :class:`CellTable` from raw replicate-level records.

    When ``sigma2`` is omitted, the pooled within-cell variance is used
    (and flagged via ``sigma2_source="pooled"``); this requires at least
    one cell with two or more replicates.
    """
    row_labels, col_labels, counts, means, pooled = aggregate_records(records)
    if sigma2 is None:
        if pooled is None or pooled <= 0:
            raise ValueError(
                "sigma2 not given and no replicated cells to estimate it from"
            )
        sigma2, source = pooled, "pooled"
    else:
        source = "given"
    return CellTable(
        counts,
        means,
        sigma2,
        row_labels=row_labels,
        col_labels=col_labels,
        sigma2_source=source,
    )


@dataclass(frozen=True, eq=False)
class DesignSet:
    """Index arrays of the observed cells of a two-way layout.

    Observed cells are kept in lexicographic order (the order of
    ``CellTable.y_observed``): cell k lies in row ``row_index[k]`` and column
    ``col_index[k]`` and holds ``k_obs[k]`` observations; ``m_diag`` is the
    diagonal of M, 1/K per observed cell.  The row-column incidence
    [Za Zb] acts through :meth:`effects_matvec` and
    :meth:`effects_rmatvec` and its grams are built from count sums, so no
    design matrix is stored.  The one dense map, ``completion_map``
    (Zc Z^+), is built on demand for the completed loss.  Designs come from
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
        return _effects_gram(self, np.ones(self.n_obs))

    def effects_solve(self, rhs: np.ndarray, weighted: bool = False) -> np.ndarray:
        """The theta with v^T theta = 0 that solves G theta = rhs.

        G is ``gram_weighted`` or ``gram_plain`` and v = (1_r, -1_c) spans
        its null space; ``rhs`` must lie in the range
        of G (any [Za Zb]^T x does).  Solved as (G + v v^T) theta = rhs,
        whose Cholesky factor is kept per gram.
        """
        factor = self._weighted_factor if weighted else self._plain_factor
        return cho_solve((factor, True), rhs)

    @cached_property
    def _plain_factor(self) -> np.ndarray:
        return _augmented_cholesky(self, self.gram_plain)

    @cached_property
    def _weighted_factor(self) -> np.ndarray:
        return _augmented_cholesky(self, self.gram_weighted)

    @cached_property
    def completion_map(self) -> np.ndarray:
        """The dense rc x |E| matrix Zc Z^+ mapping observed-cell means to all cells.

        Only the completed loss matrix Q is built from it; completing a
        vector goes through :meth:`effects_solve` instead.
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


def _augmented_cholesky(design: DesignSet, gram: np.ndarray) -> np.ndarray:
    """Lower Cholesky factor of gram + v v^T, v = (1_r, -1_c)."""
    v = np.concatenate([np.ones(design.r), -np.ones(design.c)])
    return cholesky(gram + np.outer(v, v), lower=True)


def _effects_gram(design: DesignSet, w: np.ndarray) -> np.ndarray:
    r, c = design.r, design.c
    g = np.zeros((r + c, r + c))
    ra = np.bincount(design.row_index, weights=w, minlength=r)
    cb = np.bincount(design.col_index, weights=w, minlength=c)
    g[np.arange(r), np.arange(r)] = ra
    g[r + np.arange(c), r + np.arange(c)] = cb
    cross = np.zeros((r, c))
    np.add.at(cross, (design.row_index, design.col_index), w)
    g[:r, r:] = cross
    g[r:, :r] = cross.T
    return g


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
    """
    r, c = counts.shape
    rows, cols = np.nonzero(counts)
    adj = coo_matrix(
        (np.ones(rows.size), (rows, r + cols)), shape=(r + c, r + c)
    )
    n_comp, labels = _sparse_components(adj, directed=False)
    return n_comp, labels


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
    using linear interpolation between order statistics (type 7).
    """
    if not (0 < tau <= 1):
        raise ValueError("tau must lie in (0, 1]")
    y = table.y_observed
    a, b = np.quantile(y, [tau / 2.0, 1.0 - tau / 2.0], method="linear")
    return float(a), float(b)


def imbalance_ratio(table: CellTable) -> float:
    """max/min of the observed cell counts (>= 1; equal to 1 iff balanced)."""
    k = table.k_observed
    return float(k.max() / k.min())


# ---------------------------------------------------------------------------
# CSV ingestion.  Two schemas, both with a required header row:
#   raw:  row,col,value   (one observation per line)
#   agg:  row,col,count,mean
# ---------------------------------------------------------------------------

def read_raw_csv(path):
    """Read raw-schema CSV into a list of (row, col, value) records."""
    records = []
    with open(path, newline="", encoding="utf-8") as fh:
        reader = csv.reader(fh)
        header = next(reader, None)
        if header is None or [h.strip().lower() for h in header] != ["row", "col", "value"]:
            raise ValueError("raw schema requires header 'row,col,value'")
        for line in reader:
            if not line:
                continue
            row, col, value = line
            records.append((row.strip(), col.strip(), float(value)))
    if not records:
        raise ValueError(f"no data rows in {path}")
    return records


def read_agg_csv(path, sigma2: float) -> CellTable:
    """Read aggregated-schema CSV (row,col,count,mean) into a CellTable."""
    row_ix, col_ix = {}, {}
    entries = []
    with open(path, newline="", encoding="utf-8") as fh:
        reader = csv.reader(fh)
        header = next(reader, None)
        expected = ["row", "col", "count", "mean"]
        if header is None or [h.strip().lower() for h in header] != expected:
            raise ValueError("agg schema requires header 'row,col,count,mean'")
        for line in reader:
            if not line:
                continue
            row, col, count, mean = line
            i = row_ix.setdefault(row.strip(), len(row_ix))
            j = col_ix.setdefault(col.strip(), len(col_ix))
            entries.append((i, j, int(count), float(mean)))
    if not entries:
        raise ValueError(f"no data rows in {path}")
    r, c = len(row_ix), len(col_ix)
    counts = np.zeros((r, c), dtype=np.int64)
    means = np.full((r, c), np.nan)
    seen = set()
    for i, j, k, m in entries:
        if (i, j) in seen:
            raise ValueError(f"duplicate cell ({i}, {j}) in aggregated input")
        seen.add((i, j))
        counts[i, j] = k
        if k > 0:
            means[i, j] = m
    return CellTable(
        counts, means, sigma2,
        row_labels=tuple(row_ix), col_labels=tuple(col_ix),
    )


def load_table(path, schema: str, sigma2: float | None = None) -> CellTable:
    """Load a CellTable from CSV under the given schema ('raw' or 'agg')."""
    if schema == "raw":
        return ingest_observations(read_raw_csv(path), sigma2=sigma2)
    if schema == "agg":
        if sigma2 is None:
            raise ValueError("aggregated schema carries no replicates; sigma2 required")
        return read_agg_csv(path, sigma2)
    raise ValueError(f"unknown schema {schema!r}")
