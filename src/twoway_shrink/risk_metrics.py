"""Loss functions, the missing-cell loss matrix, and assumption diagnostics.

When cells are missing, the normalized sum-of-squares loss over all r*c
(estimable) cell means equals a quadratic form in the observed-cell error
with the PSD matrix ``Q = (Zc Z^+)^T (Zc Z^+)``.  This module builds that
matrix (the one place the dense design is formed), computes its top
eigenvalue, and exposes the design-regularity diagnostic and the
balanced-design decoupling check.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from math import log

import numpy as np
import scipy.linalg as sla

from .linear_core import SigmaContext, shrink_apply
from .tables import CellTable, DesignSet, HyperParams, build_design, imbalance_ratio

__all__ = [
    "QLoss",
    "loss_ss",
    "loss_weighted",
    "q_matrix",
    "lambda1_q",
    "a2_statistic",
    "balanced_decoupling_check",
]

# Above this many observed cells the top eigenvalue switches from a dense
# symmetric eigensolver to power iteration.
DENSE_EIG_LIMIT = 2000


@dataclass(frozen=True, eq=False)
class QLoss:
    """Loss matrix for observed-cell errors, with its largest eigenvalue.

    ``mode`` is "identity" for the fully-observed sum-of-squares loss,
    "weighted" for the count-weighted loss and "qmatrix" for the completed
    (missing-cell) loss.  The two diagonal losses are kept as the weight
    vector ``w`` (ones, or the counts K) with ``Q`` None; the completed
    loss is the dense ``Q``.  ``lambda1`` is computed on first access;
    fitting never needs it.
    """

    Q: np.ndarray | None
    mode: str
    w: np.ndarray | None = None

    @cached_property
    def lambda1(self) -> float:
        return _top_eigenvalue(self.Q) if self.w is None else float(np.max(self.w))

    @classmethod
    def identity(cls, design: DesignSet) -> "QLoss":
        return cls(Q=None, mode="identity", w=np.ones(design.n_obs))

    @classmethod
    def weighted(cls, design: DesignSet) -> "QLoss":
        return cls(Q=None, mode="weighted", w=design.k_obs.astype(float))

    def apply(self, v: np.ndarray) -> np.ndarray:
        """Q v."""
        return self.Q @ v if self.w is None else self.w * v

    def quad(self, g: np.ndarray) -> float:
        """g^T Q g."""
        return float(g @ self.Q @ g) if self.w is None else float(g @ (self.w * g))

    def trace_qm(self, m_diag: np.ndarray) -> float:
        """tr(QM) for the diagonal M given by ``m_diag``."""
        if self.w is None:
            return float(m_diag @ np.diag(self.Q))
        return float(np.sum(self.w * m_diag))

    def effects_gram(self, design: DesignSet) -> np.ndarray:
        """[Za Zb]^T Q [Za Zb]."""
        if self.w is not None:
            return design.gram_weighted if self.mode == "weighted" else design.gram_plain
        n = design.n_obs
        za_zb = np.zeros((n, design.q))
        za_zb[np.arange(n), design.row_index] = 1.0
        za_zb[np.arange(n), design.r + design.col_index] = 1.0
        return za_zb.T @ self.Q @ za_zb


def loss_ss(eta_hat: np.ndarray, eta: np.ndarray) -> float:
    """Normalized sum-of-squares loss ||eta_hat - eta||^2 / len."""
    eta_hat = np.asarray(eta_hat, dtype=float)
    eta = np.asarray(eta, dtype=float)
    if eta_hat.shape != eta.shape or eta_hat.ndim != 1:
        raise ValueError("loss_ss expects two vectors of equal length")
    d = eta_hat - eta
    return float(d @ d) / eta.size


def loss_weighted(eta_hat: np.ndarray, eta: np.ndarray, table: CellTable) -> float:
    """Count-weighted ("prediction") loss on observed cells, normalized by rc."""
    eta_hat = np.asarray(eta_hat, dtype=float)
    eta = np.asarray(eta, dtype=float)
    k = table.k_observed
    if eta_hat.shape != eta.shape or eta_hat.shape != k.shape:
        raise ValueError("weighted loss expects observed-cell vectors")
    d = eta_hat - eta
    return float(np.sum(k * d * d)) / (table.r * table.c)


def _top_eigenvalue(Q: np.ndarray) -> float:
    n = Q.shape[0]
    if n <= DENSE_EIG_LIMIT:
        return float(sla.eigh(Q, eigvals_only=True, subset_by_index=(n - 1, n - 1))[0])
    # Power iteration for very large problems.
    rng = np.random.default_rng(0)
    v = rng.standard_normal(n)
    v /= np.linalg.norm(v)
    lam = 0.0
    for _ in range(10_000):
        w = Q @ v
        lam_new = float(v @ w)
        nw = np.linalg.norm(w)
        if nw == 0.0:
            return 0.0
        v = w / nw
        if abs(lam_new - lam) <= 1e-9 * max(1.0, abs(lam_new)):
            return lam_new
        lam = lam_new
    return lam


def q_matrix(design: DesignSet) -> QLoss:
    """Build Q = (Zc Z^+)^T (Zc Z^+) converting observed error to full loss.

    For a fully observed design Q is the orthogonal projector onto the
    column space of Z; with missing cells its top eigenvalue exceeds 1.
    """
    T = design.completion_map
    Q = T.T @ T
    Q = 0.5 * (Q + Q.T)
    return QLoss(Q=Q, mode="qmatrix")


def lambda1_q(design: DesignSet) -> float:
    """Largest eigenvalue of the completed-loss matrix Q (always >= 1)."""
    return q_matrix(design).lambda1


def a2_statistic(
    table: CellTable, design: DesignSet | None = None, lambda1: float | None = None
) -> float:
    """(rc)^{-1/8} (log rc)^2 * imbalance * lambda1(Q), the design diagnostic.

    Small values indicate the regime in which the asymptotic optimality
    guarantees of URE tuning are expected to bite; the raw value is
    reported without a threshold.  ``lambda1`` is lambda1(Q) when the
    caller already has it; otherwise Q is built to compute it.
    """
    if lambda1 is None:
        lambda1 = lambda1_q(design if design is not None else build_design(table))
    rc = table.r * table.c
    nu = imbalance_ratio(table)
    return float(rc ** (-1.0 / 8.0) * log(rc) ** 2 * nu * lambda1)


def balanced_decoupling_check(
    table: CellTable, hp: HyperParams, true_eta: np.ndarray
) -> float:
    """Discrepancy of the balanced-design loss decomposition.

    On a complete balanced table (all counts equal) the shrinkage estimator
    located at the grand mean decouples: its loss splits exactly into a
    grand-mean term plus independently shrunk row- and column-effect terms,

        ||eta_hat - eta||^2 / rc
            = (m_hat - m)^2
              + (1/r) sum_i (c_a a_hat_i - a_i)^2
              + (1/c) sum_j (c_b b_hat_j - b_j)^2,

    with c_a = la*c*K0 / (la*c*K0 + 1) and c_b = lb*r*K0 / (lb*r*K0 + 1).
    The left side is evaluated through the generic covariance machinery,
    the right side through these closed forms; the absolute difference is
    returned.  ``true_eta`` must be an additive rc-vector of cell means.
    """
    if not table.is_complete:
        raise ValueError("decoupling check requires a complete table")
    k = table.k_observed
    if k.min() != k.max():
        raise ValueError("decoupling check requires a balanced table (equal counts)")
    k0 = float(k[0])
    r, c = table.r, table.c
    eta = np.asarray(true_eta, dtype=float).reshape(r, c)
    m = eta.mean()
    a = eta.mean(axis=1) - m
    b = eta.mean(axis=0) - m
    recon = m + a[:, None] + b[None, :]
    if np.max(np.abs(eta - recon)) > 1e-8 * max(1.0, np.max(np.abs(eta))):
        raise ValueError("true means must be additive (no interaction)")

    y = table.means
    m_hat = y.mean()
    a_hat = y.mean(axis=1) - m_hat
    b_hat = y.mean(axis=0) - m_hat

    design = build_design(table)
    ctx = SigmaContext(design, hp, mode="fast")
    eta_hat = table.y_observed - shrink_apply(ctx, table.y_observed - m_hat)
    lhs = loss_ss(eta_hat, eta.ravel())

    la, lb = ctx.lam_a, ctx.lam_b
    c_a = la * c * k0 / (la * c * k0 + 1.0)
    c_b = lb * r * k0 / (lb * r * k0 + 1.0)
    rhs = (
        (m_hat - m) ** 2
        + np.sum((c_a * a_hat - a) ** 2) / r
        + np.sum((c_b * b_hat - b) ** 2) / c
    )
    return float(abs(lhs - rhs))

