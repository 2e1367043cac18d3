"""Loss functions, the missing-cell loss matrix, and assumption diagnostics.

When cells are missing, the normalized sum-of-squares loss over all r*c
(estimable) cell means equals a quadratic form in the observed-cell error
with the PSD matrix ``Q = (Zc Z^+)^T (Zc Z^+)``.  This module builds that
matrix (the one place the dense design is formed) for the criteria that
read it, and computes its top eigenvalue without it, from the
(r+c+1)-order grams.  It also exposes the design-regularity diagnostic
and the balanced-design decoupling check.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import log

import numpy as np
import scipy.linalg as sla

from .linear_core import SigmaContext, shrink_apply
from .tables import (
    CellTable,
    DesignSet,
    HyperParams,
    build_design,
    imbalance_ratio,
)

__all__ = [
    "QLoss",
    "loss_ss",
    "loss_weighted",
    "q_matrix",
    "lambda1_q",
    "a2_statistic",
    "balanced_decoupling_check",
]


@dataclass(frozen=True, eq=False)
class QLoss:
    """Loss matrix for observed-cell errors.

    ``mode`` is "identity" for the fully-observed sum-of-squares loss,
    "weighted" for the count-weighted loss and "qmatrix" for the completed
    (missing-cell) loss.  The two diagonal losses are kept as the weight
    vector ``w`` (ones, or the counts K) with ``Q`` None; the completed
    loss is the dense ``Q``, built by :func:`q_matrix` for one design.
    Its top eigenvalue is :func:`lambda1_q`, computed from the design
    without ``Q``.  The completed loss's effects gram is kept after its
    first :meth:`effects_gram` call, so a fit engine and the risk estimate
    share one.
    """

    Q: np.ndarray | None
    mode: str
    w: np.ndarray | None = None

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
        """[Za Zb]^T Q [Za Zb], built once for the design of the last call."""
        if self.w is not None:
            return design.gram_weighted if self.mode == "weighted" else design.gram_plain
        memo = self.__dict__.get("_effects_gram")
        if memo is None or memo[0] is not design:
            n = design.n_obs
            za_zb = np.zeros((n, design.q))
            za_zb[np.arange(n), design.row_index] = 1.0
            za_zb[np.arange(n), design.r + design.col_index] = 1.0
            memo = (design, za_zb.T @ self.Q @ za_zb)
            self.__dict__["_effects_gram"] = memo  # as cached_property stores
        return memo[1]


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
    """Largest eigenvalue of the completed-loss matrix Q (always >= 1).

    On a complete design Q is the projector onto col(Z), so the value is
    exactly 1.  Otherwise it is the top eigenvalue of the symmetric-definite
    pencil (Zc^T Zc, Z^T Z), whose eigenvalues are the nonzero ones of
    (Zc^T Zc)(Z^T Z)^+ and so of Q.  Both grams vanish on the null space
    {(-a-b, a 1_r, b 1_c)}; dropping the last row and column effects leaves
    both positive definite at order r+c-1.
    """
    r, c = design.r, design.c
    if design.n_obs == r * c:
        return 1.0
    complete = np.block([[c * np.eye(r), np.ones((r, c))],
                         [np.ones((c, r)), r * np.eye(c)]])
    keep = np.r_[0:r, r + 1:r + c]  # intercept, rows 1..r-1, columns 1..c-1
    g, gc = (_bordered(gram, r)[np.ix_(keep, keep)]
             for gram in (design.gram_plain, complete))
    k = r + c - 2
    return float(sla.eigh(gc, g, eigvals_only=True, subset_by_index=(k, k))[0])


def _bordered(gram: np.ndarray, r: int) -> np.ndarray:
    """The (r+c+1)-order gram of [1 Za Zb] from the effects gram [Za Zb]^T [Za Zb]."""
    d = np.diag(gram)  # cells per row, then per column
    return np.block([[d[:r].sum(), d], [d[:, None], gram]])


def a2_statistic(table: CellTable, *, lambda1: float | None = None) -> float:
    """(rc)^{-1/8} (log rc)^2 * imbalance * lambda1(Q), the design diagnostic.

    Small values indicate the regime in which the asymptotic optimality
    guarantees of URE tuning are expected to bite; the raw value is
    reported without a threshold.  ``lambda1`` is lambda1(Q) when the
    caller already has it; otherwise :func:`lambda1_q` computes it.
    """
    if lambda1 is None:
        lambda1 = lambda1_q(build_design(table))
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

