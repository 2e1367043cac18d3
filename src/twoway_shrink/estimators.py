"""The shrinkage estimator family and its fitting procedures.

The family indexed by (mu, lambda_a, lambda_b) is

    eta_hat(mu, la, lb) = y - M Sigma^{-1} (y - mu 1),

with mu restricted to a data-driven quantile interval and the relative
variance components nonnegative.  Hyper-parameters are chosen by one of

* ``fit_ure``  -- minimize an unbiased estimate of the (possibly
  missing-cell) quadratic risk;
* ``fit_ml``   -- maximize the marginal likelihood (empirical BLUP);
* ``oracle_fit`` -- minimize the realized loss given the true means
  (simulation benchmark only).

All three share one optimizer contract: the scale parameters are searched
over the bounded square lambda_tilde = (1+lambda)^{-1/2} in [0,1]^2 by a
33 x 33 grid followed by Nelder-Mead refinement, with mu profiled in
closed form and clamped to its interval at every candidate.

The lambda_tilde = (0, 0) corner of the search box denotes the unshrunken
estimator eta_hat = y, whose risk estimate is exactly sigma^2 tr(QM)/(rc);
the weighted-least-squares limit is covered by a separate near-boundary
candidate.

The grid is evaluated in absorbed form: the larger factor's block of
Z^T M^{-1} Z is diagonal, so it is eliminated in closed form and each
engine eigendecomposes one min(r, c)-order Schur complement per grid value
of that factor's lambda (:class:`_AbsorbedGrid`).  Only which grid point
wins (and, where refinement does not improve on it, its profiled mu)
reaches a fit.  Every other candidate (the near-boundary one, the
Nelder-Mead points, extra candidates) is scored one point at a time by
the engine's single-point scorer (``FitEngine._score_point``, public as
:meth:`FitEngine.objective_at`): one (r+c)-order capacitance Cholesky
factorization and explicit inverse through LAPACK directly, then the same
criterion formulas as the grid (``FitEngine._score``).  The batch form of
that path, many points through explicit inverses at once, lives in the
tests as the oracle the grid and the scorer are checked against.  The
returned fit is re-evaluated through :func:`ure_value` or
:func:`marginal_loglik`; ``diagnostics["score_gap"]`` is the relative gap
between that value and the scorer's, and a gap above ``SCORE_GAP_WARN``
is logged as a warning on the ``twoway_shrink`` logger.

Everything after the pick works in the (r+c)-dimensional effect space,
as every estimate in the family is additive: the completion to all r*c
cells (:func:`complete_means`) and the WLS baseline (:func:`wls_fit`)
are one (r+c)-order solve each, and the first-order terms are traces of
(r+c)-order matrices.  No design matrix is formed outside the completed
loss Q.

Every criterion is written for a loss matrix Q on the observed cells
(:class:`~twoway_shrink.risk_metrics.QLoss`): the sum-of-squares loss
(Q = I), the count-weighted loss (Q = diag(K)) and the completed
missing-cell loss.  The two diagonal losses are kept as weight vectors,
so only the completed loss forms an n x n matrix.  A :class:`FitEngine`
builds it (through :func:`~twoway_shrink.risk_metrics.q_matrix`) on its
first URE or ORACLE evaluation; a likelihood fit never reads the loss and
builds none.  The count-weighted loss needs no optimizer of its own:
scaling by sqrt(K) turns it into the plain loss of a homoscedastic
problem whose shrinkage family is the same y - M Sigma^{-1} (y - mu 1),
so :class:`FitEngine` fits it with Q = diag(K).
"""

from __future__ import annotations

import logging
from dataclasses import dataclass
from functools import cached_property
from math import isfinite, isinf, log, pi

import numpy as np
from scipy.optimize import minimize

from .linear_core import (
    LAMBDA_TILDE_EPS,
    NumericError,
    SigmaContext,
    _capacitance_cholesky,
    _cholesky_solve,
    _single_threaded_lapack,
    lam_from_tilde,
    logdet_sigma,
    shrink_apply,
    sigma_solve,
)
from .risk_metrics import QLoss, q_matrix
from .tables import (
    CellTable,
    DesignSet,
    HyperParams,
    build_design,
    quantile_bounds,
)

__all__ = [
    "ShrinkageFit",
    "wls_fit",
    "wls_fit_full",
    "bayes_estimate",
    "complete_means",
    "ure_value",
    "marginal_loglik",
    "fit_ure",
    "fit_ml",
    "oracle_fit",
    "estimating_eq_residuals",
    "weighted_transform",
    "WeightedProblem",
    "FitEngine",
]

GRID_POINTS = 33
NM_MAX_FEVALS = 500
NM_FATOL = 1e-10
GRID_TIE_TOL = 1e-12
# A fit warns when the single-point scorer's value of its pick and the
# exact re-evaluation differ by more than this, relative to max(1, |exact|).
# Over 808 fits on the benchmark's seed-0 inputs the gaps were at most
# 2.9e-13, except six ORACLE picks at the WLS limit (lambda_tilde ~ 1e-6)
# at 1.5e-3 to 3.5e-3, where the scorer's expanded quadratics undershoot.
SCORE_GAP_WARN = 1e-8

_log = logging.getLogger("twoway_shrink")


@dataclass(frozen=True, eq=False)
class ShrinkageFit:
    """Result of a fitting procedure.

    ``eta_obs`` is the estimate on observed cells, ``eta_complete`` its
    completion to all r*c cells; ``objective`` is the achieved criterion
    (risk estimate, marginal log-likelihood, realized loss, or weighted
    residual sum of squares for WLS), re-evaluated through the public
    evaluation path at the returned hyper-parameters.
    """

    method: str
    hp: HyperParams
    eta_obs: np.ndarray
    eta_complete: np.ndarray
    objective: float
    mu_clamped: bool
    tau: float
    bounds: tuple
    qmode: str
    diagnostics: dict


# ---------------------------------------------------------------------------
# Baseline estimators
# ---------------------------------------------------------------------------

def wls_fit(design: DesignSet, y: np.ndarray) -> np.ndarray:
    """Weighted least squares fit of the observed cell means.

    Minimizes (y - Z th)^T M^{-1} (y - Z th).  The intercept's column is
    the sum of the row effects' columns, so th is taken in effect
    coordinates: the solution of the weighted normal equations
    G_w th = [Za Zb]^T M^{-1} y with v^T th = 0
    (:meth:`~twoway_shrink.tables.DesignSet.effects_solve`).  The fitted
    mean vector is unique even though th is not, and the residual is
    orthogonal to the column space of Z in the M^{-1} inner product.
    """
    y = np.asarray(y, dtype=float)
    rhs = design.effects_rmatvec(design.k_obs * y)
    return design.effects_matvec(design.effects_solve(rhs, weighted=True))


def wls_fit_full(table: CellTable, tau: float = 0.05) -> ShrinkageFit:
    """WLS baseline packaged as a :class:`ShrinkageFit`."""
    design = build_design(table)
    y = table.y_observed
    eta_obs = wls_fit(design, y)
    k = design.k_obs.astype(float)
    mu_w = float(np.sum(k * y) / np.sum(k))
    resid = y - eta_obs
    return ShrinkageFit(
        method="WLS",
        hp=HyperParams(mu=mu_w, lambda_a=np.inf, lambda_b=np.inf),
        eta_obs=eta_obs,
        eta_complete=complete_means(design, eta_obs),
        objective=float(np.sum(k * resid * resid)),
        mu_clamped=False,
        tau=tau,
        bounds=quantile_bounds(table, tau),
        qmode="identity" if table.is_complete else "qmatrix",
        diagnostics={},
    )


def bayes_estimate(ctx: SigmaContext, y: np.ndarray, mu: float) -> np.ndarray:
    """Posterior-mean estimate y - M Sigma^{-1} (y - mu 1) at fixed hp.

    The doubly infinite pair (lambda_a, lambda_b) = (inf, inf) denotes the
    unshrunken corner of the family and returns y itself; large finite
    lambdas approach the WLS projection instead.
    """
    y = np.asarray(y, dtype=float)
    if isinf(ctx.hp.lambda_a) and isinf(ctx.hp.lambda_b):
        return y.copy()
    return y - shrink_apply(ctx, y - mu)


def complete_means(design: DesignSet, eta_obs: np.ndarray) -> np.ndarray:
    """Extend an observed-cell estimate to all r*c cells, Zc Z^+ eta_obs.

    The effects theta of the least-squares fit of eta_obs (minimum norm,
    through the plain gram: eta_obs need not be additive, as at the
    unshrunken corner) give every cell theta_a[i] + theta_b[j], which is
    Zc Z^+ eta_obs without forming either matrix.
    """
    rhs = design.effects_rmatvec(np.asarray(eta_obs, dtype=float))
    theta = design.effects_solve(rhs)
    return (theta[: design.r, None] + theta[None, design.r :]).ravel()


# ---------------------------------------------------------------------------
# Criteria
# ---------------------------------------------------------------------------

def _resolve_sigma2(ctx: SigmaContext, sigma2):
    if sigma2 is not None:
        return float(sigma2)
    if ctx.sigma2 is None:
        raise ValueError("sigma2 must be supplied on the context or the call")
    return float(ctx.sigma2)


def _resolve_qmode(design: DesignSet, qmode: str) -> str:
    """The loss ``qmode`` names on ``design``; raises if it is not valid there."""
    complete = design.n_obs == design.r * design.c
    if qmode == "auto":
        return "identity" if complete else "qmatrix"
    if qmode == "weighted" and not complete:
        raise ValueError("the count-weighted loss requires a fully observed table")
    if qmode not in ("identity", "weighted", "qmatrix"):
        raise ValueError(f"unknown qmode {qmode!r}")
    return qmode


def _resolve_qloss(design: DesignSet, qmode: str, qloss):
    """(qmode, QLoss); ``qloss`` is reused for the completed loss only."""
    qmode = _resolve_qmode(design, qmode)
    if qmode == "identity":
        return qmode, QLoss.identity(design)
    if qmode == "weighted":
        return qmode, QLoss.weighted(design)
    return qmode, qloss if qloss is not None else q_matrix(design)


def ure_value(
    ctx: SigmaContext,
    y: np.ndarray,
    mu: float,
    sigma2: float | None = None,
    qmode: str = "auto",
    qloss: QLoss | None = None,
) -> float:
    """Unbiased estimate of the risk of eta_hat(mu, lambda_a, lambda_b).

    Normalized by rc.  Evaluates the capacitance form

        {-s2 tr(QM) + 2 s2 tr[C^{-1} Lam^T Z^T Q Z Lam] + g^T Q g} / rc,

    g = M Sigma^{-1} (y - mu 1).  At the doubly infinite corner the value
    is the exact risk estimate of the unshrunken estimator, s2 tr(QM) / rc.
    """
    design = ctx.design
    s2 = _resolve_sigma2(ctx, sigma2)
    qmode, qloss = _resolve_qloss(design, qmode, qloss)
    rc = design.r * design.c
    tr_qm = qloss.trace_qm(design.m_diag)
    if isinf(ctx.hp.lambda_a) and isinf(ctx.hp.lambda_b):
        return s2 * tr_qm / rc
    g = shrink_apply(ctx, np.asarray(y, dtype=float) - mu)
    s = ctx.scale
    b = s[:, None] * qloss.effects_gram(design) * s[None, :]
    tr_red = float(np.sum(ctx.cap_inverse * b))
    return (-s2 * tr_qm + 2.0 * s2 * tr_red + qloss.quad(g)) / rc


def marginal_loglik(
    ctx: SigmaContext, y: np.ndarray, mu: float, sigma2: float | None = None
) -> float:
    """Exact log-density of y ~ N(mu 1, sigma^2 Sigma).

    log|Sigma| is assembled as log|M| + log|capacitance| (the determinant
    companion of the matrix-inverse identity).  Diverges to -inf at the
    doubly infinite corner.
    """
    if isinf(ctx.hp.lambda_a) and isinf(ctx.hp.lambda_b):
        return -np.inf
    s2 = _resolve_sigma2(ctx, sigma2)
    y = np.asarray(y, dtype=float)
    n = y.size
    xi = y - mu
    quad = float(xi @ sigma_solve(ctx, xi))
    return -0.5 * n * log(2.0 * pi * s2) - 0.5 * logdet_sigma(ctx) - quad / (2.0 * s2)


def _first_order_terms(
    ctx: SigmaContext, qloss: QLoss | None, y: np.ndarray, mu: float, method: str
) -> dict:
    """Estimating-equation left-hand sides and their trace scales.

    ``ctx`` carries the design, the hyper-parameters and sigma^2; a fit
    passes the context its pick was evaluated with, so the capacitance
    matrix is factored once.  ``qloss`` is the loss of the risk estimate
    (URE), whose effects gram B = [Za Zb]^T Q [Za Zb] enters the traces;
    the likelihood equations (EBMLE) do not use it.  The traces are read off
    (r+c)-order matrices: with G = [Za Zb]^T M^{-1} [Za Zb] and
    H = Lam C^{-1} Lam,

        [Za Zb]^T Sigma^{-1} [Za Zb] = G - G H G,
        M Sigma^{-1} [Za Zb] = [Za Zb] (I - H G),

    so the EBMLE traces are diagonal blocks of G - G H G and the URE
    traces those of (I - G H) B (I - H G).
    """
    d, s2 = ctx.design, _resolve_sigma2(ctx, None)
    m = d.m_diag
    xi = y - mu
    v = sigma_solve(ctx, xi)
    za_v = np.bincount(d.row_index, weights=v, minlength=d.r)
    zb_v = np.bincount(d.col_index, weights=v, minlength=d.c)
    g, s = d.gram_weighted, ctx.scale
    hg = s[:, None] * ctx.cap_solve(s[:, None] * g)
    one = np.ones(d.n_obs)
    if method == "EBMLE":
        diag = np.diag(g) - np.einsum("ij,ji->i", g, hg)
        w, za_w, zb_w = v, za_v, zb_v
        scale_mu = float(np.sum(sigma_solve(ctx, one)))
    else:
        p = np.eye(d.q) - hg
        b = qloss.effects_gram(d)
        diag = np.einsum("ij,ij->j", p, b @ p)
        w = sigma_solve(ctx, m * qloss.apply(m * v))
        za_w = np.bincount(d.row_index, weights=w, minlength=d.r)
        zb_w = np.bincount(d.col_index, weights=w, minlength=d.c)
        g1 = shrink_apply(ctx, one)
        scale_mu = float(g1 @ qloss.apply(g1))
    tr_a, tr_b = float(np.sum(diag[: d.r])), float(np.sum(diag[d.r :]))
    res_mu = float(np.sum(w))
    res_a = tr_a - float(za_v @ za_w) / s2
    res_b = tr_b - float(zb_v @ zb_w) / s2
    return {
        "res_mu": res_mu,
        "res_a": res_a,
        "res_b": res_b,
        "scale_mu": abs(scale_mu),
        "scale_a": abs(tr_a),
        "scale_b": abs(tr_b),
    }


# ---------------------------------------------------------------------------
# Fit engine: shared grid + refinement optimizer over lambda_tilde in [0,1]^2
# ---------------------------------------------------------------------------

class _AbsorbedGrid:
    """The lambda grid with the larger factor absorbed in closed form.

    In A/B order, A the larger factor (rows when r >= c), the block D_A of
    G_w = Z^T M^{-1} Z is diagonal (Searle, Casella and McCulloch,
    *Variance Components*, 1992, ch. 7).  Eliminating A leaves, per
    lambda_A, the min(r, c)-order Schur complement

        P = D_B - X^T diag(h) X,   h = lambda_A / (1 + lambda_A D_A),

    kept as P = V diag(ev) V^T, with X the cross block of G_w.  Then
    u = Lam C^{-1} Lam t splits as

        u_B = V z,   z = f * V^T (t_B - X^T (h t_A)),
        u_A = h t_A - (hX) u_B,      f = lambda_B / (1 + lambda_B ev),

    log|C| = sum log1p(lambda_A D_A) + sum log1p(lambda_B ev), and every
    per-point quantity lives in B's space.  Written in lambda, the grid's
    lambda = 0 and lambda = 1e12 lines need no special case.  Arrays are
    indexed [lambda_A, lambda_B, ...]; ``order`` maps the flattened square
    onto the grid points ``lt``, whose ``logdet`` and ``tr_red`` are stored
    flat.

    The constructor builds the parts that depend on lambda alone, all that
    EBMLE reads.  The loss terms ``Wv`` and ``tr_red``, read by URE and
    ORACLE only, stay None until :meth:`add_loss` builds them.
    """

    __slots__ = (
        "lt", "a", "b", "order", "h", "hX", "V", "f", "Wv", "logdet", "tr_red"
    )

    def __init__(self, design: DesignSet, lt_axis, lt_pairs):
        r, q = design.r, design.q
        rows, cols = np.arange(r), np.arange(r, q)
        self.a, self.b = (rows, cols) if r >= design.c else (cols, rows)
        a, b = self.a, self.b
        idx = {t: i for i, t in enumerate(lt_axis)}
        ia = [idx[p[0]] for p in lt_pairs]
        ib = [idx[p[1]] for p in lt_pairs]
        if r < design.c:
            ia, ib = ib, ia
        self.lt = lt_pairs
        self.order = np.ravel_multi_index((ia, ib), (len(lt_axis), len(lt_axis)))
        lam = np.array([lam_from_tilde(float(t)) for t in lt_axis])
        g = design.gram_weighted
        d_a = np.diag(g)[a]
        x = g[np.ix_(a, b)]
        self.h = lam[:, None] / (1.0 + lam[:, None] * d_a)
        self.hX = self.h[:, :, None] * x
        ev, self.V = np.linalg.eigh(g[np.ix_(b, b)] - x.T @ self.hX)
        ev = np.maximum(ev, 0.0)  # P is positive semidefinite
        lam_ev = lam[None, :, None] * ev[:, None, :]
        self.f = lam[None, :, None] / (1.0 + lam_ev)
        logdet = np.sum(np.log1p(lam[:, None] * d_a), axis=1)[:, None] + np.sum(
            np.log1p(lam_ev), axis=2
        )
        self.logdet = self._flat(logdet)
        self.Wv = self.tr_red = None

    def add_loss(self, zqz: np.ndarray):
        """Build ``Wv`` and ``tr_red`` for the loss gram B = ``zqz``."""
        a, b = self.a, self.b
        # tr(Lam C^{-1} Lam B) = tr(diag(h) B_AA) + tr(V^T W V diag(f)) with
        # W = L^T B L, L = [-hX; I] (u = [h t_A; 0] + L u_B).
        b_aa, b_ab = zqz[np.ix_(a, a)], zqz[np.ix_(a, b)]
        hxt = self.hX.swapaxes(1, 2)
        w = hxt @ (b_aa @ self.hX) - hxt @ b_ab - b_ab.T @ self.hX
        w += zqz[np.ix_(b, b)]
        self.Wv = self.V.swapaxes(1, 2) @ w @ self.V
        tr_red = (self.h @ np.diag(b_aa))[:, None] + np.einsum(
            "ijk,ik->ij", self.f, np.diagonal(self.Wv, axis1=1, axis2=2)
        )
        self.tr_red = self._flat(tr_red)

    def _flat(self, square: np.ndarray) -> np.ndarray:
        return square.reshape(-1)[self.order]

    def _coords(self, v: np.ndarray) -> np.ndarray:
        """V^T (v_B - (hX)^T v_A) per lambda_A, for v of shape (q,) or (g, q)."""
        v_a, v_b = v[..., self.a], v[..., self.b]
        v_b = v_b - (v_a[..., None, :] @ self.hX)[:, 0]
        return np.einsum("ijk,ij->ik", self.V, v_b)

    def solve(self, t: np.ndarray, zqz: np.ndarray | None = None) -> tuple:
        """u = Lam C^{-1} Lam t at every grid point, as (h t_A, z, ...).

        With ``zqz`` (B) the result also carries what :meth:`quad` needs:
        B_AA (h t_A) and the coordinates of B [h t_A; 0].
        """
        a0 = self.h * t[self.a]
        z = self.f * self._coords(t)[:, None, :]
        if zqz is None:
            return a0, z
        # Rows of a0 @ B[A] are B[:, A] a0 (B is symmetric); einsum keeps
        # this small product off the BLAS thread pool.
        ba = np.einsum("ia,aj->ij", a0, zqz[self.a])
        return a0, z, ba[:, self.a], self._coords(ba)

    def dot(self, sol: tuple, s: np.ndarray) -> np.ndarray:
        """s . u per grid point, for u given by :meth:`solve`."""
        a0, z = sol[:2]
        return self._flat(
            (a0 @ s[self.a])[:, None] + np.einsum("ijk,ik->ij", z, self._coords(s))
        )

    def quad(self, sol1: tuple, sol2: tuple) -> np.ndarray:
        """u1^T B u2 per grid point, for u1 and u2 from :meth:`solve` with B."""
        _, z1, ba1, g1 = sol1
        a2, z2, _, g2 = sol2
        total = (
            np.sum(ba1 * a2, axis=1)[:, None]
            + np.einsum("ijk,ik->ij", z2, g1)
            + np.einsum("ijk,ik->ij", z1, g2)
            + np.sum((z1 @ self.Wv) * z2, axis=2)
        )
        return self._flat(total)


class FitEngine:
    """Per-table precomputation shared across repeated fits.

    Building the engine once and calling :meth:`fit` with fresh data
    vectors is how the simulation harness amortizes the design-level work
    (the absorbed grid, loss-matrix grams) over replicates.

    The constructor validates ``qmode`` and builds what every criterion
    reads: the design, the quantile bounds and the lambda-only part of the
    absorbed grid.  The loss and everything derived from it (``qloss``,
    ``tr_qm``, ``zqz``, ``q_1``, ``zq_1`` and the grid's loss terms) are
    built on first use by URE or ORACLE, once per engine.  EBMLE never
    reads the loss, so a likelihood fit on a table with missing cells
    builds neither the completion map nor the dense n x n ``Q``.
    """

    @_single_threaded_lapack
    def __init__(self, table: CellTable, tau: float = 0.05, qmode: str = "auto"):
        self.design = build_design(table)
        self.tau = float(tau)
        self.bounds = quantile_bounds(table, tau)
        self.qmode = _resolve_qmode(self.design, qmode)
        self.sigma2 = table.sigma2
        d = self.design
        self.rc = d.r * d.c
        self.n = d.n_obs
        self.k = d.k_obs.astype(float)
        self.sum_log_m = float(np.sum(np.log(d.m_diag)))
        self.one = np.ones(self.n)
        # Location-profile piece for the constant one-vector.
        self.t_1 = d.effects_rmatvec(self.k)
        lt_axis = np.linspace(0.0, 1.0, GRID_POINTS)
        pairs = np.array([(a, b) for a in lt_axis for b in lt_axis])
        corner = (pairs[:, 0] == 0.0) & (pairs[:, 1] == 0.0)
        self._grid_bundle = _AbsorbedGrid(d, lt_axis, pairs[~corner])
        self._wls_pair = np.array([LAMBDA_TILDE_EPS, LAMBDA_TILDE_EPS])
        self._mid = 0.5 * (self.bounds[0] + self.bounds[1])
        self._eye = np.eye(d.q)

    # -- the loss, built on first use by URE and ORACLE ---------------------

    @cached_property
    def qloss(self) -> QLoss:
        return _resolve_qloss(self.design, self.qmode, None)[1]

    @cached_property
    def tr_qm(self) -> float:
        return self.qloss.trace_qm(self.design.m_diag)

    @cached_property
    def zqz(self) -> np.ndarray:
        return self.qloss.effects_gram(self.design)

    @cached_property
    def q_1(self) -> np.ndarray:
        return self.qloss.apply(self.one)

    @cached_property
    def zq_1(self) -> np.ndarray:
        return self.design.effects_rmatvec(self.q_1)

    def _loss_grid(self) -> _AbsorbedGrid:
        """The absorbed grid with its loss terms, which are built once."""
        grid = self._grid_bundle
        if grid.Wv is None:
            grid.add_loss(self.zqz)
        return grid

    # -- candidate machinery ------------------------------------------------

    def _data_pieces(self, y: np.ndarray, eta: np.ndarray | None, loss: bool = True):
        """Data terms of the criteria; ``loss=False`` leaves out the Q ones."""
        d = self.design
        p = {
            "y": y,
            "t_y": d.effects_rmatvec(self.k * y),
            "yKy": float(y @ (self.k * y)),
            "yK1": float(y @ self.k),
            "K11": float(np.sum(self.k)),
        }
        if loss:
            p["q_y"] = self.qloss.apply(y)
            p["zq_y"] = d.effects_rmatvec(p["q_y"])
            p["yy"] = float(y @ p["q_y"])
            p["y1"] = float(self.q_1 @ y)
            p["one1"] = float(self.q_1 @ self.one)
        if eta is not None:
            q_eta = self.qloss.apply(eta)
            p["eta"] = eta
            p["q_eta"] = q_eta
            p["zq_eta"] = d.effects_rmatvec(q_eta)
            p["ee"] = float(eta @ q_eta)
            p["e1"] = float(self.q_1 @ eta)
            p["ey"] = float(q_eta @ y)
        return p

    @_single_threaded_lapack
    def objective_at(
        self,
        lt_pair,
        y: np.ndarray,
        method: str,
        true_eta_obs: np.ndarray | None = None,
        mu: float | None = None,
    ) -> tuple:
        """Criterion of ``method`` at one lambda_tilde pair for data ``y``.

        Returns (objective, mu, clamped) with the objective as :meth:`fit`
        minimizes it (the risk estimate, the realized loss or the negative
        marginal log-likelihood).  mu is profiled and clamped to the
        quantile interval, or used as given when ``mu`` is supplied.  The
        exact (0, 0) pair is the unshrunken corner.
        """
        method = self._check_method(method, true_eta_obs)
        eta = None if true_eta_obs is None else np.asarray(true_eta_obs, dtype=float)
        pieces = self._data_pieces(
            np.asarray(y, dtype=float), eta, loss=method != "EBMLE"
        )
        return self._score_point(lt_pair, pieces, method, mu)

    def _score_point(self, lt_pair, pieces: dict, method: str, mu_fixed=None):
        """(objective, mu, clamped) at one lambda_tilde pair.

        Every refinement-stage evaluation comes here: one capacitance
        factorization and explicit inverse, then the solve terms, scored
        as scalars by :meth:`_score`.  The terms are formed with
        batch-shaped operands (a batch of one point, C-ordered inverse), as
        the tests' batch oracle forms them, so that both round alike.
        ``mu_fixed`` pins the location instead of profiling it.
        """
        lta, ltb = float(lt_pair[0]), float(lt_pair[1])
        if lta == 0.0 and ltb == 0.0:
            mu = self._mid if mu_fixed is None else mu_fixed
            return self._corner_value(pieces, method), mu, False
        d = self.design
        q = d.q
        s = np.empty(q)
        s[: d.r] = np.sqrt(lam_from_tilde(lta))
        s[d.r :] = np.sqrt(lam_from_tilde(ltb))
        cap = s[:, None] * d.gram_weighted
        cap *= s
        cap.reshape(-1)[:: q + 1] += 1.0
        f = _capacitance_cholesky(cap)
        inv = _cholesky_solve(f, self._eye)
        S, Cinv = s[None, :], np.ascontiguousarray(inv)[None]
        t_y = pieces["t_y"]
        p_y, p_1 = S * t_y[None, :], S * self.t_1[None, :]
        w_y = np.einsum("gij,gj->gi", Cinv, p_y)
        w_1 = np.einsum("gij,gj->gi", Cinv, p_1)
        logdet = tr_red = None
        if method == "EBMLE":
            logdet = 2.0 * float(np.sum(np.log(np.diag(f))))
            terms = {
                "tu_yy": np.einsum("gi,gi->g", p_y, w_y),
                "tu_1y": np.einsum("gi,gi->g", p_1, w_y),
                "tu_11": np.einsum("gi,gi->g", p_1, w_1),
            }
        else:
            # URE and ORACLE share the shrinkage-direction solves.
            if method == "URE":
                b = s[:, None] * self.zqz
                b *= s
                b *= inv
                tr_red = float(np.sum(b))
            u_y, u_1 = S * w_y, S * w_1
            zqz = self.zqz
            terms = {
                "uy_zq_y": u_y @ pieces["zq_y"],
                "uy_zq_1": u_y @ self.zq_1,
                "u1_zq_y": u_1 @ pieces["zq_y"],
                "u1_zq_1": u_1 @ self.zq_1,
                "uy_B_uy": np.einsum("gi,ij,gj->g", u_y, zqz, u_y),
                "uy_B_u1": np.einsum("gi,ij,gj->g", u_y, zqz, u_1),
                "u1_B_u1": np.einsum("gi,ij,gj->g", u_1, zqz, u_1),
            }
            if method == "ORACLE":
                terms["uy_zq_eta"] = u_y @ pieces["zq_eta"]
                terms["u1_zq_eta"] = u_1 @ pieces["zq_eta"]
        terms = {k: v[0] for k, v in terms.items()}
        obj, mu, clamped = self._score(terms, logdet, tr_red, pieces, method, mu_fixed)
        return float(obj), float(mu), bool(clamped)

    def _evaluate_grid(self, pieces: dict, method: str):
        """Objective, mu and clamp flags over the grid, in the absorbed form.

        With u = Lam C^{-1} Lam t, the terms are t.u for EBMLE and, for
        URE and ORACLE, the products of u with Z^T Q vectors and B = zqz.
        """
        t_y = pieces["t_y"]
        if method == "EBMLE":
            grid = self._grid_bundle
            sol_y, sol_1 = grid.solve(t_y), grid.solve(self.t_1)
            terms = {
                "tu_yy": grid.dot(sol_y, t_y),
                "tu_1y": grid.dot(sol_y, self.t_1),
                "tu_11": grid.dot(sol_1, self.t_1),
            }
            return self._score(terms, grid.logdet, None, pieces, method)
        grid = self._loss_grid()
        sol_y, sol_1 = grid.solve(t_y, self.zqz), grid.solve(self.t_1, self.zqz)
        terms = {
            "uy_zq_y": grid.dot(sol_y, pieces["zq_y"]),
            "uy_zq_1": grid.dot(sol_y, self.zq_1),
            "u1_zq_y": grid.dot(sol_1, pieces["zq_y"]),
            "u1_zq_1": grid.dot(sol_1, self.zq_1),
            "uy_B_uy": grid.quad(sol_y, sol_y),
            "uy_B_u1": grid.quad(sol_y, sol_1),
            "u1_B_u1": grid.quad(sol_1, sol_1),
        }
        if method == "ORACLE":
            terms["uy_zq_eta"] = grid.dot(sol_y, pieces["zq_eta"])
            terms["u1_zq_eta"] = grid.dot(sol_1, pieces["zq_eta"])
        return self._score(terms, grid.logdet, grid.tr_red, pieces, method)

    def _score(
        self, terms: dict, logdet, tr_red, pieces: dict, method: str, mu_fixed=None
    ):
        """Objective, mu and clamp flags from the per-point solve terms.

        The one statement of the three criteria, with mu profiled in closed
        form and clamped to the quantile interval (or pinned to
        ``mu_fixed``).  ``logdet`` is log|C| (EBMLE) and ``tr_red`` is
        tr(C^{-1} Lam^T Z^T Q Z Lam) (URE), per point.  The terms are arrays
        over points or, from :meth:`_score_point`, scalars.
        """
        s2 = self.sigma2

        def pick_mu(mu_raw, den):
            if mu_fixed is not None:
                mu = np.full_like(mu_raw, mu_fixed)
                return mu, np.zeros(mu.shape, dtype=bool)
            mu_raw = np.where(den > 1e-300, mu_raw, self._mid)
            mu = np.clip(mu_raw, *self.bounds)
            return mu, mu != mu_raw

        if method == "EBMLE":
            qs_yy = pieces["yKy"] - terms["tu_yy"]
            qs_y1 = pieces["yK1"] - terms["tu_1y"]
            qs_11 = pieces["K11"] - terms["tu_11"]
            with np.errstate(divide="ignore", invalid="ignore"):
                mu, clamped = pick_mu(qs_y1 / np.maximum(qs_11, 1e-300), qs_11)
            quad = qs_yy - 2.0 * mu * qs_y1 + mu * mu * qs_11
            loglik = (
                -0.5 * self.n * log(2.0 * pi * s2)
                - 0.5 * (self.sum_log_m + logdet)
                - quad / (2.0 * s2)
            )
            return -loglik, mu, clamped
        if method == "URE":
            c_yy = pieces["yy"] - 2.0 * terms["uy_zq_y"] + terms["uy_B_uy"]
            c_y1 = (
                pieces["y1"] - terms["u1_zq_y"] - terms["uy_zq_1"] + terms["uy_B_u1"]
            )
            c_11 = pieces["one1"] - 2.0 * terms["u1_zq_1"] + terms["u1_B_u1"]
            with np.errstate(divide="ignore", invalid="ignore"):
                mu, clamped = pick_mu(c_y1 / np.maximum(c_11, 1e-300), c_11)
            quad = c_yy - 2.0 * mu * c_y1 + mu * mu * c_11
            obj = (-s2 * self.tr_qm + 2.0 * s2 * tr_red + quad) / self.rc
            return obj, mu, clamped
        if method == "ORACLE":
            # delta = A + mu * B with A = Z u_y - eta, B = 1 - Z u_1.
            aqa = terms["uy_B_uy"] - 2.0 * terms["uy_zq_eta"] + pieces["ee"]
            aqb = (
                terms["uy_zq_1"] - terms["uy_B_u1"] - pieces["e1"] + terms["u1_zq_eta"]
            )
            bqb = pieces["one1"] - 2.0 * terms["u1_zq_1"] + terms["u1_B_u1"]
            with np.errstate(divide="ignore", invalid="ignore"):
                mu, clamped = pick_mu(-aqb / np.maximum(bqb, 1e-300), bqb)
            obj = (aqa + 2.0 * mu * aqb + mu * mu * bqb) / self.rc
            return obj, mu, clamped
        raise ValueError(f"unknown method {method!r}")

    def _corner_value(self, pieces: dict, method: str):
        if method == "URE":
            return self.sigma2 * self.tr_qm / self.rc
        if method == "ORACLE":
            # loss of the unshrunken estimator: (y-eta)^T Q (y-eta) / rc
            return (
                pieces["yy"] - 2.0 * pieces["ey"] + pieces["ee"]
            ) / self.rc
        return np.inf  # -loglik diverges at the corner

    # -- main fit loop -------------------------------------------------------

    @staticmethod
    def _check_method(method: str, true_eta_obs) -> str:
        method = method.upper()
        if method not in ("URE", "EBMLE", "ORACLE"):
            raise ValueError(f"unknown fit method {method!r}")
        if method == "ORACLE" and true_eta_obs is None:
            raise ValueError("oracle fit requires the true observed-cell means")
        return method

    @_single_threaded_lapack
    def fit(
        self,
        y: np.ndarray,
        method: str,
        true_eta_obs: np.ndarray | None = None,
        extra_candidates=None,
    ) -> ShrinkageFit:
        method = self._check_method(method, true_eta_obs)
        y = np.asarray(y, dtype=float)
        eta = None if true_eta_obs is None else np.asarray(true_eta_obs, dtype=float)
        pieces = self._data_pieces(y, eta, loss=method != "EBMLE")

        obj, mu, clamped = self._evaluate_grid(pieces, method)
        grid_pairs = self._grid_bundle.lt
        corner_obj, corner_mu, corner_clamped = self._score_point(
            (0.0, 0.0), pieces, method
        )
        all_pairs = np.vstack([grid_pairs, [[0.0, 0.0]]])
        all_obj = np.concatenate([obj, [corner_obj]])
        all_mu = np.concatenate([mu, [corner_mu]])
        all_clamped = np.concatenate([clamped, [corner_clamped]])

        # WLS-limit candidate, kept outside the tie-break pool so that exact
        # ties keep preferring stronger shrinkage.
        wls_obj, wls_mu, wls_cl = self._score_point(self._wls_pair, pieces, method)

        finite = np.isfinite(all_obj)
        if not np.any(finite):
            raise NumericError("all candidate objectives are non-finite")
        best_val = np.min(all_obj[finite])
        tie_tol = GRID_TIE_TOL * max(1.0, abs(best_val))
        tie_idx = np.nonzero(finite & (all_obj <= best_val + tie_tol))[0]
        lam_pairs = np.array(
            [
                (lam_from_tilde(a) if a > 0 or b > 0 else np.inf,
                 lam_from_tilde(b) if a > 0 or b > 0 else np.inf)
                for a, b in all_pairs[tie_idx]
            ]
        )
        order = np.lexsort((lam_pairs[:, 1], lam_pairs[:, 0]))
        pick = tie_idx[order[0]]
        grid_ties = [tuple(all_pairs[i]) for i in tie_idx] if len(tie_idx) > 1 else []

        best = {
            "lt": tuple(all_pairs[pick]),
            "obj": float(all_obj[pick]),
            "mu": float(all_mu[pick]),
            "clamped": bool(all_clamped[pick]),
        }
        if np.isfinite(wls_obj) and wls_obj < best["obj"]:
            best = {
                "lt": tuple(self._wls_pair),
                "obj": wls_obj,
                "mu": wls_mu,
                "clamped": wls_cl,
            }

        def nm_objective(lt):
            lt = np.clip(lt, 0.0, 1.0)
            val, _, _ = self._score_point(lt, pieces, method)
            return val

        nm = minimize(
            nm_objective,
            x0=np.asarray(best["lt"], dtype=float),
            method="Nelder-Mead",
            bounds=[(0.0, 1.0), (0.0, 1.0)],
            options={
                "maxfev": NM_MAX_FEVALS,
                "fatol": NM_FATOL,
                "xatol": 1e-9,
            },
        )
        if np.isfinite(nm.fun) and nm.fun < best["obj"]:
            lt = tuple(np.clip(nm.x, 0.0, 1.0))
            val, mu_v, cl = self._score_point(lt, pieces, method)
            best = {"lt": lt, "obj": val, "mu": mu_v, "clamped": cl}

        cand_points = []
        for cand in extra_candidates or ():
            lt_pair = (cand.lambda_tilde_a, cand.lambda_tilde_b)
            if isinf(cand.lambda_a) and isinf(cand.lambda_b):
                lt_pair = (0.0, 0.0)
            mu_c = float(np.clip(cand.mu, *self.bounds))
            val_at, _, _ = self._score_point(lt_pair, pieces, method, mu_c)
            point = {"lt": lt_pair, "obj": val_at, "mu": mu_c, "clamped": mu_c != cand.mu}
            cand_points.append(point)
            if np.isfinite(val_at) and val_at < best["obj"]:
                best = point
            val, mu_p, cl = self._score_point(lt_pair, pieces, method)
            if np.isfinite(val) and val < best["obj"]:
                best = {"lt": lt_pair, "obj": val, "mu": mu_p, "clamped": cl}

        fit = self._build_fit(best, y, eta, method, grid_ties)
        if method == "ORACLE":
            # The expanded objective works from explicit capacitance inverses
            # and can undershoot near lambda = inf, so the pick is checked
            # against each extra candidate by the exact realized loss.
            for point in cand_points:
                alt = self._build_fit(point, y, eta, method, grid_ties)
                if alt.objective < fit.objective:
                    fit = alt
        return fit

    def _build_fit(self, best, y, eta, method, grid_ties) -> ShrinkageFit:
        d = self.design
        lt_a, lt_b = best["lt"]
        at_corner = lt_a == 0.0 and lt_b == 0.0
        if at_corner:
            hp = HyperParams(mu=best["mu"], lambda_a=np.inf, lambda_b=np.inf)
            eta_obs = y.copy()
        else:
            hp = HyperParams(
                mu=best["mu"],
                lambda_a=lam_from_tilde(lt_a),
                lambda_b=lam_from_tilde(lt_b),
            )
        ctx = SigmaContext(d, hp, sigma2=self.sigma2)
        if not at_corner:
            eta_obs = bayes_estimate(ctx, y, hp.mu)
        eta_complete = complete_means(d, eta_obs)
        if method == "URE":
            objective = ure_value(ctx, y, hp.mu, qmode=self.qmode, qloss=self.qloss)
        elif method == "EBMLE":
            objective = marginal_loglik(ctx, y, hp.mu)
        else:
            delta = eta_obs - eta
            objective = float(delta @ self.qloss.apply(delta)) / self.rc
        scored = -best["obj"] if method == "EBMLE" else best["obj"]
        score_gap = abs(scored - objective) / max(1.0, abs(objective))
        if score_gap > SCORE_GAP_WARN:
            _log.warning(
                "%s fit at lambda_tilde (%.6g, %.6g): the scorer valued the pick "
                "at %.17g, its exact re-evaluation is %.17g (relative gap %.3g)",
                method, lt_a, lt_b, scored, objective, score_gap,
            )
        diagnostics = {
            "grid_ties": grid_ties,
            "lambda_tilde": (lt_a, lt_b),
            "qmode": self.qmode,
            "score_gap": float(score_gap),
        }
        if method in ("URE", "EBMLE") and isfinite(hp.lambda_a) and isfinite(hp.lambda_b):
            qloss = None if method == "EBMLE" else self.qloss
            fo = _first_order_terms(ctx, qloss, y, hp.mu, method)
            diagnostics["estimating_eq"] = (fo["res_mu"], fo["res_a"], fo["res_b"])
            diagnostics["residual_scales"] = (
                fo["scale_mu"],
                fo["scale_a"],
                fo["scale_b"],
            )
        return ShrinkageFit(
            method=method,
            hp=hp,
            eta_obs=eta_obs,
            eta_complete=eta_complete,
            objective=float(objective),
            mu_clamped=best["clamped"],
            tau=self.tau,
            bounds=self.bounds,
            qmode=self.qmode,
            diagnostics=diagnostics,
        )


# ---------------------------------------------------------------------------
# Public fitting entry points
# ---------------------------------------------------------------------------

def fit_ure(table: CellTable, tau: float = 0.05, qmode: str = "auto") -> ShrinkageFit:
    """Choose hyper-parameters by minimizing the unbiased risk estimate."""
    return FitEngine(table, tau=tau, qmode=qmode).fit(table.y_observed, "URE")


def fit_ml(table: CellTable, tau: float = 0.05) -> ShrinkageFit:
    """Empirical Bayes via maximum marginal likelihood (empirical BLUP).

    Same optimizer contract as :func:`fit_ure`, maximizing the marginal
    log-likelihood; the nonnegativity adjustment of the variance components
    is realized by the box constraint of the search.
    """
    return FitEngine(table, tau=tau, qmode="auto").fit(table.y_observed, "EBMLE")


def oracle_fit(
    table: CellTable,
    tau: float = 0.05,
    qmode: str = "auto",
    true_eta: np.ndarray | None = None,
    extra_candidates=None,
) -> ShrinkageFit:
    """Minimize the realized loss given the true observed-cell means.

    Not a legal estimator -- a simulation benchmark.  ``extra_candidates``
    may carry hyper-parameters returned by other fits; including them makes
    the per-realization dominance of the oracle hold by construction.
    """
    if true_eta is None:
        raise ValueError("oracle_fit requires true_eta")
    return FitEngine(table, tau=tau, qmode=qmode).fit(
        table.y_observed, "ORACLE", true_eta_obs=true_eta,
        extra_candidates=extra_candidates,
    )


def estimating_eq_residuals(fit: ShrinkageFit, table: CellTable):
    """Left-hand sides of the estimating equations at the fitted parameters.

    Returns raw (res_mu, res_a, res_b) for the equations matching the fit
    criterion (marginal likelihood or risk estimate).  At an interior
    optimum all three vanish up to optimizer tolerance; at a boundary
    lambda = 0 the corresponding residual is nonnegative (KKT direction).
    NaNs are returned for fits pinned at the unshrunken corner.
    """
    if fit.method not in ("URE", "EBMLE"):
        raise ValueError("residuals are defined for URE and EBMLE fits only")
    if not (isfinite(fit.hp.lambda_a) and isfinite(fit.hp.lambda_b)):
        return (float("nan"),) * 3
    design = build_design(table)
    qloss = _resolve_qloss(design, fit.qmode, None)[1] if fit.method == "URE" else None
    ctx = SigmaContext(design, fit.hp, sigma2=table.sigma2)
    fo = _first_order_terms(ctx, qloss, table.y_observed, fit.hp.mu, fit.method)
    return fo["res_mu"], fo["res_a"], fo["res_b"]


# ---------------------------------------------------------------------------
# Weighted (prediction) loss via the homoscedastic transform
# ---------------------------------------------------------------------------

@dataclass(frozen=True, eq=False)
class WeightedProblem:
    """Homoscedastic reformulation of a fully observed weighted-loss problem.

    Scaling by M^{-1/2} turns the count-weighted loss into a plain
    sum-of-squares loss for y_tilde ~ N(eta_tilde, sigma^2 I); the
    shrinkage matrix of the transformed Bayes rule is symmetric.
    """

    table: CellTable
    y_tilde: np.ndarray
    one_tilde: np.ndarray
    sqrt_k: np.ndarray

    def shrinkage_matrix(self, lambda_a: float, lambda_b: float) -> np.ndarray:
        """Dense symmetric V_tilde^{-1} applied to transformed residuals.

        V_tilde = K^{1/2} (lambda_a Za Za^T + lambda_b Zb Zb^T) K^{1/2} + I,
        where (Za Za^T)_kl is 1 when cells k and l share a row and
        (Zb Zb^T)_kl is 1 when they share a column.
        """
        rows, cols = np.nonzero(self.table.counts)
        v = lambda_a * (rows[:, None] == rows) + lambda_b * (cols[:, None] == cols)
        v *= np.outer(self.sqrt_k, self.sqrt_k)
        v[np.diag_indices_from(v)] += 1.0
        return np.linalg.inv(v)

    def fit_ure(self, tau: float = 0.05):
        """URE fit under the count-weighted loss.

        The transformed problem's plain loss is the count-weighted loss
        Q = diag(K) on the original scale, so this is :class:`FitEngine`
        with ``qmode="weighted"``.  Returns (hp, eta_hat_original_scale,
        objective).
        """
        fit = FitEngine(self.table, tau=tau, qmode="weighted").fit(
            self.table.y_observed, "URE"
        )
        return fit.hp, fit.eta_complete, fit.objective


def weighted_transform(table: CellTable) -> WeightedProblem:
    """Reduce the weighted-loss problem to a homoscedastic one.

    Only defined when every cell is observed.  The count-weighted loss of
    any estimate on the original scale equals the plain normalized
    sum-of-squares loss of its transform, so URE fitting on the transformed
    problem yields the weighted-loss tuned estimator.
    """
    if not table.is_complete:
        raise ValueError("weighted transform requires a fully observed table")
    sqrt_k = np.sqrt(table.k_observed.astype(float))
    return WeightedProblem(
        table=table,
        y_tilde=sqrt_k * table.y_observed,
        one_tilde=sqrt_k.copy(),
        sqrt_k=sqrt_k,
    )
