"""Loss functions, the missing-cell loss matrix, and assumption diagnostics.

When cells are missing, the normalized sum-of-squares loss over all r*c
(estimable) cell means equals a quadratic form in the observed-cell error
with the PSD matrix ``Q = (Zc Z^+)^T (Zc Z^+)``.  This module is the one
place that decides a fit's loss (:func:`loss_mode`) and builds it
(:class:`QLoss`); only the completed loss forms ``Q`` (the one place the
dense design is formed), from the rc x n completion map, which is built
once per ``Q`` and not kept.  Its top eigenvalue comes without ``Q``,
from the (r+c)-order effects grams.  It also exposes the
design-regularity diagnostic.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from math import log

import numpy as np

from .tables import CellTable, DesignSet, build_design, imbalance_ratio

__all__ = [
    "QLoss",
    "loss_mode",
    "loss_ss",
    "loss_weighted",
    "q_matrix",
    "lambda1_q",
    "a2_statistic",
]


LOSS_MODES = ("identity", "weighted", "qmatrix")


def loss_mode(design: DesignSet, qmode: str = "auto") -> str:
    """The loss ``qmode`` names on ``design``; raises if it is not valid there.

    "auto" is the sum-of-squares loss on a fully observed table and the
    completed loss otherwise.  The count-weighted loss needs every cell.
    """
    complete = design.n_obs == design.r * design.c
    if qmode == "auto":
        return "identity" if complete else "qmatrix"
    if qmode == "weighted" and not complete:
        raise ValueError("the count-weighted loss requires a fully observed table")
    if qmode not in LOSS_MODES:
        raise ValueError(f"unknown qmode {qmode!r}")
    return qmode


@dataclass(frozen=True, eq=False)
class QLoss:
    """Loss matrix for observed-cell errors on one design.

    ``mode`` is "identity" for the fully-observed sum-of-squares loss,
    "weighted" for the count-weighted loss and "qmatrix" for the completed
    (missing-cell) loss.  The two diagonal losses are kept as the weight
    vector ``w`` (ones, or the counts K) with ``Q`` None; the completed
    loss is the dense ``Q``, built by :func:`q_matrix`.  Its top
    eigenvalue is :func:`lambda1_q`, computed from the design without
    ``Q``.  :meth:`of` resolves a ``qmode`` through :func:`loss_mode` and
    builds the loss; ``w``, ``trace_qm`` and ``effects_gram`` are built
    once per loss.
    """

    design: DesignSet
    mode: str
    Q: np.ndarray | None = None

    def __post_init__(self):
        has_q = self.Q is not None
        if self.mode not in LOSS_MODES or has_q != (self.mode == "qmatrix"):
            raise ValueError(f"no {self.mode!r} loss {'with' if has_q else 'without'} Q")

    @classmethod
    def of(cls, design: DesignSet, qmode: str = "auto") -> "QLoss":
        """The loss ``qmode`` names on ``design`` (see :func:`loss_mode`)."""
        mode = loss_mode(design, qmode)
        return q_matrix(design) if mode == "qmatrix" else cls(design, mode)

    @cached_property
    def w(self) -> np.ndarray | None:
        """Diagonal of a diagonal loss (ones or the counts K); None with ``Q``."""
        if self.Q is not None:
            return None
        d = self.design
        return d.k_obs.astype(float) if self.mode == "weighted" else np.ones(d.n_obs)

    def apply(self, v: np.ndarray) -> np.ndarray:
        """Q v."""
        return self.Q @ v if self.w is None else self.w * v

    def quad(self, g: np.ndarray) -> float:
        """g^T Q g."""
        return float(g @ self.Q @ g) if self.w is None else float(g @ (self.w * g))

    @cached_property
    def trace_qm(self) -> float:
        """tr(QM) for the design's diagonal M."""
        m_diag = self.design.m_diag
        if self.w is None:
            return float(m_diag @ np.diag(self.Q))
        return float(np.sum(self.w * m_diag))

    @cached_property
    def effects_gram(self) -> np.ndarray:
        """[Za Zb]^T Q [Za Zb]."""
        design = self.design
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


def q_matrix(design: DesignSet) -> QLoss:
    """Build Q = (Zc Z^+)^T (Zc Z^+) converting observed error to full loss.

    For a fully observed design Q is the orthogonal projector onto the
    column space of Z; with missing cells its top eigenvalue exceeds 1.
    The rc x n map Zc Z^+ is built for this product and dropped with it.
    numpy forms a matrix times its own transpose with BLAS ``syrk``, which
    computes one triangle and mirrors it, so Q is exactly symmetric.
    """
    T = design.completion_map()
    return QLoss(design, "qmatrix", T.T @ T)


def lambda1_q(design: DesignSet) -> float:
    """Largest eigenvalue of the completed-loss matrix Q (always >= 1).

    On a complete design Q is the projector onto col(Z), so the value is
    exactly 1.  Otherwise it is the top eigenvalue of the symmetric-definite
    pencil (Zc^T Zc, Z^T Z) of the (r+c)-order effects grams, whose
    eigenvalues are the nonzero ones of (Zc^T Zc)(Z^T Z)^+ and so of Q.
    Both grams vanish only on v = (1_r, -1_c); dropping the last column
    effect leaves both positive definite at order r+c-1.  With g = L L^T,
    the value is the top eigenvalue of L^{-1} gc L^{-T}; numpy's
    ``LinAlgError`` reports a failed factorization or eigensolve.
    """
    r, c = design.r, design.c
    if design.n_obs == r * c:
        return 1.0
    complete = np.block([[c * np.eye(r), np.ones((r, c))],
                         [np.ones((c, r)), r * np.eye(c)]])
    g, gc = design.gram_plain[:-1, :-1], complete[:-1, :-1]
    f = np.linalg.cholesky(g)
    a = np.linalg.solve(f, np.linalg.solve(f, gc).T)
    return float(np.linalg.eigvalsh(a)[-1])


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
