"""The shrinkage estimator family and its fitting procedures.

The family indexed by (mu, lambda_a, lambda_b) is

    eta_hat(mu, la, lb) = y - M Sigma^{-1} (y - mu 1),

with mu restricted to a data-driven quantile interval and the relative
variance components nonnegative.  :meth:`FitEngine.fit` chooses the
hyper-parameters by one of three criteria:

* ``"URE"``    -- minimize an unbiased estimate of the (possibly
  missing-cell) quadratic risk (:func:`fit_ure`);
* ``"EBMLE"``  -- maximize the marginal likelihood, the empirical BLUP
  (:func:`fit_ml`);
* ``"ORACLE"`` -- minimize the realized loss given the true observed-cell
  means; not an estimator but the studies' benchmark, which records the
  smallest loss among the family members it fits on a replicate
  (:func:`~twoway_shrink.simulation.compare_estimators`).

All three share one optimizer contract: the scale parameters are searched
over the bounded square lambda_tilde = (1+lambda)^{-1/2} in [0,1]^2 by a
33 x 33 grid followed by Nelder-Mead refinement, with mu profiled in
closed form and clamped to its interval at every candidate.  Candidates
come in a fixed order (the best grid point, the WLS limit, Nelder-Mead's
result); one replaces the best only when its objective is finite and
strictly lower.  Nelder-Mead is :func:`minimize`, an
in-package copy of scipy's bounded variant that the tests check against
scipy bit for bit; importing this module loads no ``scipy.optimize``.

The lambda_tilde = (0, 0) corner of the search box denotes the unshrunken
estimator eta_hat = y, whose risk estimate is exactly sigma^2 tr(QM)/(rc);
the weighted-least-squares limit is covered by a separate near-boundary
candidate.

The grid is evaluated in absorbed form, on the design's split of
Z^T M^{-1} Z at its larger factor: each engine eigendecomposes one
min(r, c)-order Schur complement per grid value of that factor's lambda
(:class:`_AbsorbedGrid`), and EBMLE's grid forms no (r+c)-order matrix.
Only which grid point wins (and, where refinement does not improve on it,
its profiled mu) reaches a fit.  Every other candidate (the near-boundary
one and the Nelder-Mead points) is scored one point at a time
(``FitEngine._score_point``, public as :meth:`FitEngine.objective_at`) by
a :class:`_CapacitancePoint`, a view of the point's
:class:`~twoway_shrink.linear_core.SigmaContext`, whose (r+c)-order
capacitance factor and explicit inverse the evaluators read too.  A
candidate it cannot factor (C is not positive definite in floating point,
as at the WLS limit with counts in the thousands) scores +inf and is
skipped with one warning and ``diagnostics["skipped_candidates"]``.  The
grid and the point answer one solver interface, and ``FitEngine._score``
is the one statement of the three criteria over either, with mu always
profiled; fixed hyper-parameters are evaluated by :func:`ure_value`,
:func:`marginal_loglik` and :func:`bayes_estimate`.  The batch form of the
point lives in the tests as the oracle of the grid and the scorer.  The
returned fit is re-evaluated through :func:`ure_value` or
:func:`marginal_loglik`; ``diagnostics["score_gap"]`` is the relative gap
between that value and the scorer's, and a gap above ``SCORE_GAP_WARN`` is
logged as a warning on the ``twoway_shrink`` logger.

Everything after the pick works in the (r+c)-dimensional effect space,
as every estimate in the family is additive: the completion to all r*c
cells (:func:`complete_means`) and the WLS baseline (:func:`wls_fit`)
are one effects solve each, at order min(r, c) - 1 on the design's split
(:func:`wls_fit_full` on a complete 5000 x 10 table: 0.01 s and 5 MB), and
the first-order terms are traces of (r+c)-order matrices.  No design
matrix is formed outside the completed loss Q.

Every criterion is written for a loss matrix Q on the observed cells
(:class:`~twoway_shrink.risk_metrics.QLoss`): the sum-of-squares loss
(Q = I), the count-weighted loss (Q = diag(K)) and the completed
missing-cell loss.  :mod:`~twoway_shrink.risk_metrics` decides which one
a ``qmode`` names (:func:`~twoway_shrink.risk_metrics.loss_mode`) and
builds it; only the completed loss forms an n x n matrix.  A
:class:`FitEngine` builds its loss on its first URE or ORACLE evaluation;
a likelihood fit never reads the loss and builds none.  The count-weighted
loss needs no optimizer of its own:
scaling by sqrt(K) turns it into the plain loss of a homoscedastic
problem whose shrinkage family is the same y - M Sigma^{-1} (y - mu 1),
so :class:`FitEngine` fits it with Q = diag(K).
"""

from __future__ import annotations

import logging
from dataclasses import dataclass
from functools import cached_property
from math import isfinite, isinf, log, pi
from typing import NamedTuple

import numpy as np

from .linear_core import (
    LAMBDA_TILDE_EPS,
    NumericError,
    SigmaContext,
    _single_threaded_lapack,
    lam_from_tilde,
    logdet_sigma,
    shrink_apply,
    sigma_solve,
)
from .risk_metrics import QLoss, loss_mode
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
    "weighted_transform",
    "WeightedProblem",
    "FitEngine",
]

GRID_POINTS = 33
NM_MAX_FEVALS = 500
NM_FATOL = 1e-10
NM_XATOL = 1e-9
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
    """WLS baseline packaged as a :class:`ShrinkageFit`.

    Its lambda = (inf, inf) means the WLS limit, but the evaluators read it
    as the unshrunken corner: :func:`bayes_estimate` at ``hp`` returns y.
    """
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
        qmode=loss_mode(design),
        diagnostics={},
    )


def hp_from_tilde(mu: float, lt_pair) -> HyperParams:
    """HyperParams at ``mu`` and a lambda_tilde pair; (0, 0) is (inf, inf)."""
    lt_a, lt_b = lt_pair
    if lt_a == lt_b == 0.0:
        return HyperParams(mu, np.inf, np.inf)
    return HyperParams(mu, lam_from_tilde(lt_a), lam_from_tilde(lt_b))


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

def _sigma2(ctx: SigmaContext) -> float:
    if ctx.sigma2 is None:
        raise ValueError("sigma2 must be supplied on the context")
    return float(ctx.sigma2)


def ure_value(
    ctx: SigmaContext,
    y: np.ndarray,
    mu: float,
    qmode: str = "auto",
    qloss: QLoss | None = None,
) -> float:
    """Unbiased estimate of the risk of eta_hat(mu, lambda_a, lambda_b).

    Normalized by rc.  Evaluates the capacitance form

        {-s2 tr(QM) + 2 s2 tr[C^{-1} Lam^T Z^T Q Z Lam] + g^T Q g} / rc,

    g = M Sigma^{-1} (y - mu 1).  At the doubly infinite corner the value
    is the exact risk estimate of the unshrunken estimator, s2 tr(QM) / rc.
    ``qloss`` is the loss when given; otherwise ``qmode`` names it
    (:meth:`~twoway_shrink.risk_metrics.QLoss.of`).
    """
    design = ctx.design
    s2 = _sigma2(ctx)
    if qloss is None:
        qloss = QLoss.of(design, qmode)
    rc = design.r * design.c
    tr_qm = qloss.trace_qm
    if isinf(ctx.hp.lambda_a) and isinf(ctx.hp.lambda_b):
        return s2 * tr_qm / rc
    g = shrink_apply(ctx, np.asarray(y, dtype=float) - mu)
    tr_red = ctx.reduced_trace(qloss.effects_gram)
    return (-s2 * tr_qm + 2.0 * s2 * tr_red + qloss.quad(g)) / rc


def marginal_loglik(ctx: SigmaContext, y: np.ndarray, mu: float) -> float:
    """Exact log-density of y ~ N(mu 1, sigma^2 Sigma).

    log|Sigma| is assembled as log|M| + log|capacitance| (the determinant
    companion of the matrix-inverse identity).  Diverges to -inf at the
    doubly infinite corner.
    """
    if isinf(ctx.hp.lambda_a) and isinf(ctx.hp.lambda_b):
        return -np.inf
    s2 = _sigma2(ctx)
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
    d, s2 = ctx.design, _sigma2(ctx)
    m = d.m_diag
    xi = y - mu
    v = sigma_solve(ctx, xi)
    zv = d.effects_rmatvec(v)
    g, s = d.gram_weighted, ctx.scale
    hg = s[:, None] * ctx.cap_solve(s[:, None] * g)
    one = np.ones(d.n_obs)
    if method == "EBMLE":
        diag = np.diag(g) - np.einsum("ij,ji->i", g, hg)
        w, zw = v, zv
        scale_mu = float(np.sum(sigma_solve(ctx, one)))
    else:
        p = np.eye(d.q) - hg
        b = qloss.effects_gram
        diag = np.einsum("ij,ij->j", p, b @ p)
        w = sigma_solve(ctx, m * qloss.apply(m * v))
        zw = d.effects_rmatvec(w)
        g1 = shrink_apply(ctx, one)
        scale_mu = float(g1 @ qloss.apply(g1))
    tr_a, tr_b = float(np.sum(diag[: d.r])), float(np.sum(diag[d.r :]))
    res_mu = float(np.sum(w))
    res_a = tr_a - float(zv[: d.r] @ zw[: d.r]) / s2
    res_b = tr_b - float(zv[d.r :] @ zw[d.r :]) / s2
    return {
        "res_mu": res_mu,
        "res_a": res_a,
        "res_b": res_b,
        "scale_mu": abs(scale_mu),
        "scale_a": abs(tr_a),
        "scale_b": abs(tr_b),
    }


# ---------------------------------------------------------------------------
# Refinement: bounded Nelder-Mead on the lambda_tilde square
# ---------------------------------------------------------------------------

class NelderMeadResult(NamedTuple):
    """The best vertex ``x`` and the number of evaluations ``nfev``."""

    x: np.ndarray
    nfev: int


class _FevalCap(Exception):
    """Raised in place of an evaluation beyond ``NM_MAX_FEVALS``."""


def _clip01(v: float) -> float:
    """``v`` clipped to [0, 1] as numpy clips: NaN stays NaN, -0.0 becomes 0.0."""
    return v if v != v else min(v if v > 0.0 else 0.0, 1.0)


def minimize(fun, x0) -> NelderMeadResult:
    """Minimize ``fun`` over [0, 1]^2 by Nelder-Mead (Nelder and Mead, 1965).

    Step for step the arithmetic of scipy 1.17's bounded variant,
    ``minimize(method="Nelder-Mead", bounds=[(0, 1)] * 2)`` with options
    ``maxfev``, ``fatol`` and ``xatol`` set to ``NM_MAX_FEVALS``,
    ``NM_FATOL`` and ``NM_XATOL``, in Python floats on 2-tuples; the tests
    check it against scipy bit for bit.  Every vertex and trial point is
    clipped to the box, and the simplex is kept in a stable order by value,
    NaN last.  No evaluation is made beyond the cap: the step stops where
    it is and the simplex is sorted once more.  ``fun`` receives a 2-tuple;
    ``x`` is the best vertex.
    """
    nfev = 0

    def f(p):
        nonlocal nfev
        if nfev >= NM_MAX_FEVALS:
            raise _FevalCap
        nfev += 1
        return float(fun(p))

    def start(u):
        """A coordinate of x0 stepped by 5% (0 to 0.00025), reflected below 1."""
        u = (1 + 0.05) * u if u != 0 else 0.00025
        return _clip01(2.0 - u if u > 1.0 else u)

    def along(s, t):
        """s xbar - t w, clipped, for w the worst vertex."""
        return tuple(_clip01(s * a - t * w) for a, w in zip(xbar, sim[2]))

    def ordered():
        idx = sorted(range(3), key=lambda i: (fsim[i] != fsim[i], fsim[i]))
        return [sim[i] for i in idx], [fsim[i] for i in idx]

    a, b = (_clip01(float(v)) for v in x0)
    sim = [(a, b), (start(a), b), (a, start(b))]
    fsim = [f(p) if nfev < NM_MAX_FEVALS else np.inf for p in sim]
    sim, fsim = ordered()
    while nfev < NM_MAX_FEVALS:
        if all(abs(fsim[0] - g) <= NM_FATOL for g in fsim[1:]) and all(
            abs(v - u) <= NM_XATOL for p in sim[1:] for v, u in zip(p, sim[0])
        ):
            break
        xbar = tuple((u + v) / 2 for u, v in zip(sim[0], sim[1]))
        try:
            xr = along(2, 1)  # reflection
            fxr = f(xr)
            if fxr < fsim[0]:
                xe = along(3, 2)  # expansion
                fxe = f(xe)
                sim[2], fsim[2] = (xe, fxe) if fxe < fxr else (xr, fxr)
            elif fxr < fsim[1]:
                sim[2], fsim[2] = xr, fxr
            else:
                # Contraction outside (1.5 xbar - 0.5 w) or inside
                # (0.5 xbar + 0.5 w), else a shrink towards the best vertex.
                outside = fxr < fsim[2]
                xc = along(1.5, 0.5) if outside else along(0.5, -0.5)
                fxc = f(xc)
                if fxc <= fxr if outside else fxc < fsim[2]:
                    sim[2], fsim[2] = xc, fxc
                else:
                    for j in (1, 2):
                        sim[j] = tuple(_clip01(u + 0.5 * (v - u))
                                       for v, u in zip(sim[j], sim[0]))
                        fsim[j] = f(sim[j])
        except _FevalCap:
            pass
        sim, fsim = ordered()
    return NelderMeadResult(x=np.array(sim[0]), nfev=nfev)


# ---------------------------------------------------------------------------
# Fit engine: shared grid + refinement optimizer over lambda_tilde in [0,1]^2
# ---------------------------------------------------------------------------

class _AbsorbedGrid:
    """The lambda grid with the larger factor absorbed in closed form.

    A, D_A, X and D_B are those of the design's split of G_w = Z^T M^{-1} Z
    (``DesignSet.split_weighted``).  Eliminating A leaves, per lambda_A,
    the min(r, c)-order Schur complement

        P = D_B - X^T diag(h) X,   h = lambda_A / (1 + lambda_A D_A),

    kept as P = V diag(ev) V^T.  Then u = Lam C^{-1} Lam t splits as

        u_B = V z,   z = f * V^T (t_B - X^T (h t_A)),
        u_A = h t_A - (hX) u_B,      f = lambda_B / (1 + lambda_B ev),

    log|C| = sum log1p(lambda_A D_A) + sum log1p(lambda_B ev), and every
    per-point quantity lives in B's space.  Written in lambda, the grid's
    lambda = 0 and lambda = 1e12 lines need no special case.  The points
    ``lt`` are ``axis`` x ``axis`` in row-major (lambda_tilde_a,
    lambda_tilde_b) order without the first, the (0, 0) corner that
    :class:`FitEngine` scores apart.  Arrays are indexed [lambda_A,
    lambda_B, ...]; ``logdet`` and ``tr_red`` are stored in ``lt`` order.

    The constructor builds the parts that depend on lambda alone, all that
    EBMLE reads.  The loss terms ``Wv`` and ``tr_red``, read by URE and
    ORACLE only, stay None until :meth:`add_loss` builds them.
    """

    __slots__ = ("lt", "a", "b", "h", "hX", "V", "f", "Wv", "logdet", "tr_red")

    def __init__(self, design: DesignSet, axis: np.ndarray):
        sp = design.split_weighted
        self.a, self.b = sp.a, sp.b
        square = np.meshgrid(axis, axis, indexing="ij")
        self.lt = np.stack(square, axis=-1).reshape(-1, 2)[1:]
        lam = np.array([lam_from_tilde(float(t)) for t in axis])
        x = np.ascontiguousarray(sp.x)
        self.h = lam[:, None] / (1.0 + lam[:, None] * sp.d_a)
        self.hX = self.h[:, :, None] * x
        ev, self.V = np.linalg.eigh(np.diag(sp.d_b) - x.T @ self.hX)
        ev = np.maximum(ev, 0.0)  # P is positive semidefinite
        lam_ev = lam[None, :, None] * ev[:, None, :]
        self.f = lam[None, :, None] / (1.0 + lam_ev)
        logdet_a = np.sum(np.log1p(lam[:, None] * sp.d_a), axis=1)
        self.logdet = self._flat(logdet_a[:, None] + np.sum(np.log1p(lam_ev), axis=2))
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
        """A [lambda_A, lambda_B] square in ``lt`` order; A is rows iff a[0] == 0."""
        return (square if self.a[0] == 0 else square.T).reshape(-1)[1:]

    def _coords(self, v: np.ndarray) -> np.ndarray:
        """V^T (v_B - (hX)^T v_A) per lambda_A, for v of shape (q,) or (g, q)."""
        v_a, v_b = v[..., self.a], v[..., self.b]
        v_b = v_b - (v_a[..., None, :] @ self.hX)[:, 0]
        return np.einsum("ijk,ij->ik", self.V, v_b)

    def solve(self, t: np.ndarray, zqz: np.ndarray | None = None) -> tuple:
        """u = Lam C^{-1} Lam t at every grid point, as (t, h t_A, z, ...).

        With ``zqz`` (B) the result also carries what :meth:`quad` needs:
        B_AA (h t_A) and the coordinates of B [h t_A; 0].
        """
        a0 = self.h * t[self.a]
        z = self.f * self._coords(t)[:, None, :]
        if zqz is None:
            return t, a0, z
        # Rows of a0 @ B[A] are B[:, A] a0 (B is symmetric); einsum keeps
        # this small product off the BLAS thread pool.
        ba = np.einsum("ia,aj->ij", a0, zqz[self.a])
        return t, a0, z, ba[:, self.a], self._coords(ba)

    def tu(self, sol_s: tuple, sol_t: tuple) -> np.ndarray:
        """t_s . u_t per grid point, for solutions from :meth:`solve`."""
        return self.dot(sol_t, sol_s[0])

    def dot(self, sol: tuple, s: np.ndarray) -> np.ndarray:
        """s . u per grid point, for u given by :meth:`solve`."""
        a0, z = sol[1:3]
        return self._flat(
            (a0 @ s[self.a])[:, None] + np.einsum("ijk,ik->ij", z, self._coords(s))
        )

    def quad(self, sol1: tuple, sol2: tuple) -> np.ndarray:
        """u1^T B u2 per grid point, for u1 and u2 from :meth:`solve` with B."""
        _, _, z1, ba1, g1 = sol1
        _, a2, z2, _, g2 = sol2
        total = (
            np.sum(ba1 * a2, axis=1)[:, None]
            + np.einsum("ijk,ik->ij", z2, g1)
            + np.einsum("ijk,ik->ij", z1, g2)
            + np.sum((z1 @ self.Wv) * z2, axis=2)
        )
        return self._flat(total)


class _CapacitancePoint:
    """One :class:`SigmaContext` behind :class:`_AbsorbedGrid`'s interface.

    S = Lam, C^{-1}, ``logdet`` and ``tr_red`` (for the loss gram ``zqz``)
    are the context's; u = S C^{-1} S t.  Operands are shaped as a batch of
    one, as the tests' batch oracle forms them, so both round alike.
    """

    __slots__ = ("ctx", "S", "Cinv", "zqz")

    def __init__(self, ctx: SigmaContext, zqz=None):
        self.ctx, self.zqz = ctx, zqz
        self.S, self.Cinv = ctx.scale[None, :], ctx.cap_inverse[None]

    logdet = property(lambda self: self.ctx.logdet_capacitance)
    tr_red = property(lambda self: self.ctx.reduced_trace(self.zqz))

    def solve(self, t: np.ndarray, zqz: np.ndarray | None = None) -> tuple:
        """(S t, C^{-1} S t, u), with u = S C^{-1} S t only given ``zqz``."""
        p = self.S * t[None, :]
        w = np.einsum("gij,gj->gi", self.Cinv, p)
        return p, w, None if zqz is None else self.S * w

    def tu(self, sol_s: tuple, sol_t: tuple):
        return np.einsum("gi,gi->g", sol_s[0], sol_t[1])[0]

    def dot(self, sol: tuple, v: np.ndarray):
        return (sol[2] @ v)[0]

    def quad(self, sol1: tuple, sol2: tuple):
        return np.einsum("gi,ij,gj->g", sol1[2], self.zqz, sol2[2])[0]


class FitEngine:
    """Per-table precomputation shared across repeated fits.

    Building the engine once and calling :meth:`fit` with fresh data
    vectors is how the simulation harness amortizes the design-level work
    (the absorbed grid, loss-matrix grams) over replicates.

    The constructor resolves ``qmode`` (``loss_mode``) and builds what
    every criterion reads: the design, the quantile bounds and the
    lambda-only part of the absorbed grid.  The loss and everything derived
    from it (``qloss`` with its ``trace_qm`` and ``effects_gram``, ``q_1``,
    ``zq_1`` and the grid's loss terms) are built on first use by URE or
    ORACLE, once per engine.  EBMLE never reads the loss, so a likelihood
    fit on a table with missing cells builds neither the completion map nor
    the dense n x n ``Q``.
    """

    def __init__(self, table: CellTable, tau: float = 0.05, qmode: str = "auto"):
        self.design = build_design(table)
        self.tau = float(tau)
        self.bounds = quantile_bounds(table, tau)
        self.qmode = loss_mode(self.design, qmode)
        self.sigma2 = table.sigma2
        d = self.design
        self.rc = d.r * d.c
        self.n = d.n_obs
        self.k = d.k_obs.astype(float)
        self.sum_log_m = float(np.sum(np.log(d.m_diag)))
        self.one = np.ones(self.n)
        # Location-profile piece for the constant one-vector.
        self.t_1 = d.effects_rmatvec(self.k)
        self._grid_bundle = _AbsorbedGrid(d, np.linspace(0.0, 1.0, GRID_POINTS))
        self._mid = 0.5 * (self.bounds[0] + self.bounds[1])

    # -- the loss, built on first use by URE and ORACLE ---------------------

    @cached_property
    def qloss(self) -> QLoss:
        return QLoss.of(self.design, self.qmode)

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
            grid.add_loss(self.qloss.effects_gram)
        return grid

    # -- candidate machinery ------------------------------------------------

    def _data_pieces(self, y: np.ndarray, eta: np.ndarray | None, loss: bool = True):
        """Data terms of the criteria; ``loss=False`` leaves out the Q ones."""
        d = self.design
        p = {
            "t_y": d.effects_rmatvec(self.k * y),
            "yKy": float(y @ (self.k * y)),
            "yK1": float(y @ self.k),
            "K11": float(np.sum(self.k)),
        }
        if loss:
            q_y = self.qloss.apply(y)
            p["zq_y"] = d.effects_rmatvec(q_y)
            p["yy"] = float(y @ q_y)
            p["y1"] = float(self.q_1 @ y)
            p["one1"] = float(self.q_1 @ self.one)
        if eta is not None:
            q_eta = self.qloss.apply(eta)
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
    ) -> tuple:
        """Criterion of ``method`` at one lambda_tilde pair for data ``y``.

        Returns (objective, mu, clamped) with the objective as :meth:`fit`
        minimizes it (the risk estimate, the realized loss or the negative
        marginal log-likelihood) and mu profiled and clamped to the
        quantile interval, as the search scores its candidates.  The exact
        (0, 0) pair is the unshrunken corner.  Raises
        :class:`~twoway_shrink.linear_core.NumericError` where the
        capacitance matrix cannot be factored.
        """
        method = self._check_method(method, true_eta_obs)
        eta = None if true_eta_obs is None else np.asarray(true_eta_obs, dtype=float)
        pieces = self._data_pieces(
            np.asarray(y, dtype=float), eta, loss=method != "EBMLE"
        )
        return self._score_point(lt_pair, pieces, method)

    def _score_point(self, lt_pair, pieces: dict, method: str):
        """(objective, mu, clamped) at one lambda_tilde pair.

        Every refinement-stage evaluation comes here.  The exact (0, 0)
        pair is the unshrunken corner; any other pair is scored by
        :meth:`_score`, which profiles mu (the context's is unused), through
        a :class:`_CapacitancePoint` on the pair's context.
        """
        lta, ltb = float(lt_pair[0]), float(lt_pair[1])
        if lta == 0.0 and ltb == 0.0:
            return self._corner_value(pieces, method), self._mid, False
        ctx = SigmaContext(self.design, hp_from_tilde(0.0, (lta, ltb)))
        zqz = None if method == "EBMLE" else self.qloss.effects_gram
        obj, mu, clamped = self._score(_CapacitancePoint(ctx, zqz), pieces, method)
        return float(obj), float(mu), bool(clamped)

    def _score(self, solver, pieces: dict, method: str):
        """Objective, mu and clamp flags at the points of ``solver``.

        The one statement of the three criteria, over the absorbed grid or
        one :class:`_CapacitancePoint`, with mu profiled in closed form and
        clamped to the quantile interval.  With u = Lam C^{-1} Lam t, EBMLE
        reads t . u and log|C|; URE and ORACLE read u's products with Z^T Q
        vectors and B = zqz, and URE tr(C^{-1} Lam^T Z^T Q Z Lam).  Values
        are arrays over the grid's points or scalars at one point.
        """
        s2 = self.sigma2

        def pick_mu(mu_raw, den):
            mu_raw = np.where(den > 1e-300, mu_raw, self._mid)
            mu = np.clip(mu_raw, *self.bounds)
            return mu, mu != mu_raw

        zqz = None if method == "EBMLE" else self.qloss.effects_gram
        sol_y = solver.solve(pieces["t_y"], zqz)
        sol_1 = solver.solve(self.t_1, zqz)
        if method == "EBMLE":
            qs_yy = pieces["yKy"] - solver.tu(sol_y, sol_y)
            qs_y1 = pieces["yK1"] - solver.tu(sol_1, sol_y)
            qs_11 = pieces["K11"] - solver.tu(sol_1, sol_1)
            with np.errstate(divide="ignore", invalid="ignore"):
                mu, clamped = pick_mu(qs_y1 / np.maximum(qs_11, 1e-300), qs_11)
            quad = qs_yy - 2.0 * mu * qs_y1 + mu * mu * qs_11
            loglik = (
                -0.5 * self.n * log(2.0 * pi * s2)
                - 0.5 * (self.sum_log_m + solver.logdet)
                - quad / (2.0 * s2)
            )
            return -loglik, mu, clamped
        uy_zq_1, u1_zq_1 = solver.dot(sol_y, self.zq_1), solver.dot(sol_1, self.zq_1)
        uy_B_uy = solver.quad(sol_y, sol_y)
        uy_B_u1 = solver.quad(sol_y, sol_1)
        c_11 = pieces["one1"] - 2.0 * u1_zq_1 + solver.quad(sol_1, sol_1)
        if method == "URE":
            zq_y = pieces["zq_y"]
            c_yy = pieces["yy"] - 2.0 * solver.dot(sol_y, zq_y) + uy_B_uy
            c_y1 = pieces["y1"] - solver.dot(sol_1, zq_y) - uy_zq_1 + uy_B_u1
            with np.errstate(divide="ignore", invalid="ignore"):
                mu, clamped = pick_mu(c_y1 / np.maximum(c_11, 1e-300), c_11)
            quad = c_yy - 2.0 * mu * c_y1 + mu * mu * c_11
            obj = (
                -s2 * self.qloss.trace_qm + 2.0 * s2 * solver.tr_red + quad
            ) / self.rc
            return obj, mu, clamped
        if method == "ORACLE":
            # delta = A + mu * B with A = Z u_y - eta, B = 1 - Z u_1, so
            # B^T Q B is c_11.
            zq_eta = pieces["zq_eta"]
            aqa = uy_B_uy - 2.0 * solver.dot(sol_y, zq_eta) + pieces["ee"]
            aqb = uy_zq_1 - uy_B_u1 - pieces["e1"] + solver.dot(sol_1, zq_eta)
            with np.errstate(divide="ignore", invalid="ignore"):
                mu, clamped = pick_mu(-aqb / np.maximum(c_11, 1e-300), c_11)
            obj = (aqa + 2.0 * mu * aqb + mu * mu * c_11) / self.rc
            return obj, mu, clamped
        raise ValueError(f"unknown method {method!r}")

    def _corner_value(self, pieces: dict, method: str):
        if method == "URE":
            return self.sigma2 * self.qloss.trace_qm / self.rc
        if method == "ORACLE":
            # loss of the unshrunken estimator: (y-eta)^T Q (y-eta) / rc
            return (
                pieces["yy"] - 2.0 * pieces["ey"] + pieces["ee"]
            ) / self.rc
        return np.inf  # -loglik diverges at the corner

    # -- main fit loop -------------------------------------------------------

    def _grid_pick(self, pieces: dict, method: str) -> tuple:
        """(candidate, ties): the best grid point, the corner included.

        Points within ``GRID_TIE_TOL`` of the minimum tie.  Ties go to the
        largest lambda_tilde_a, then the largest lambda_tilde_b, so to the
        stronger shrinkage; the corner (0, 0) comes last.  ``ties`` lists
        the tied points in grid order, or nothing when the pick is unique.
        """
        grid = self._grid_bundle if method == "EBMLE" else self._loss_grid()
        scores = self._score(grid, pieces, method)
        corner = self._score_point((0.0, 0.0), pieces, method)
        obj, mu, clamped = (np.append(g, c) for g, c in zip(scores, corner))
        pairs = np.vstack([self._grid_bundle.lt, [[0.0, 0.0]]])
        finite = np.isfinite(obj)
        if not np.any(finite):
            raise NumericError("all candidate objectives are non-finite")
        best_val = np.min(obj[finite])
        tie_tol = GRID_TIE_TOL * max(1.0, abs(best_val))
        tie_idx = np.nonzero(finite & (obj <= best_val + tie_tol))[0]
        tied = pairs[tie_idx]
        pick = tie_idx[np.lexsort((-tied[:, 1], -tied[:, 0]))[0]]
        ties = [tuple(pairs[i]) for i in tie_idx] if len(tie_idx) > 1 else []
        point = {"lt": tuple(pairs[pick]), "obj": float(obj[pick]),
                 "mu": float(mu[pick]), "clamped": bool(clamped[pick])}
        return point, ties

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
    ) -> ShrinkageFit:
        method = self._check_method(method, true_eta_obs)
        y = np.asarray(y, dtype=float)
        eta = None if true_eta_obs is None else np.asarray(true_eta_obs, dtype=float)
        pieces = self._data_pieces(y, eta, loss=method != "EBMLE")
        skipped = []

        def point(lt):
            """A candidate at ``lt``; +inf when its capacitance cannot be factored."""
            try:
                obj, mu, clamped = self._score_point(lt, pieces, method)
            except NumericError:
                skipped.append(lt)
                return {"lt": lt, "obj": np.inf}
            return {"lt": lt, "obj": obj, "mu": mu, "clamped": clamped}

        # Candidates in a fixed order: the grid pick, the WLS limit (outside
        # the grid's tie-break, so exact ties keep the stronger shrinkage),
        # then Nelder-Mead from the best so far.  A candidate replaces the
        # best only when its objective is finite and strictly lower; one
        # that cannot be factored scores +inf.
        best, grid_ties = self._grid_pick(pieces, method)

        def consider(p):
            nonlocal best
            if np.isfinite(p["obj"]) and p["obj"] < best["obj"]:
                best = p

        consider(point((LAMBDA_TILDE_EPS, LAMBDA_TILDE_EPS)))
        nm = minimize(lambda lt: point(lt)["obj"], np.asarray(best["lt"], dtype=float))
        consider(point(tuple(nm.x)))

        fit = self._build_fit(best, y, eta, method, grid_ties)
        if skipped:
            fit.diagnostics["skipped_candidates"] = len(skipped)
            _log.warning(
                "%s fit: %d candidate(s) skipped, their capacitance matrix could "
                "not be factored; the first at lambda_tilde (%r, %r)",
                method, len(skipped), *map(float, skipped[0]),
            )
        score_gap = fit.diagnostics["score_gap"]
        if score_gap > SCORE_GAP_WARN:
            scored = -best["obj"] if method == "EBMLE" else best["obj"]
            _log.warning(
                "%s fit at lambda_tilde (%.6g, %.6g): the scorer valued the pick "
                "at %.17g, its exact re-evaluation is %.17g (relative gap %.3g)",
                method, *best["lt"], scored, fit.objective, score_gap,
            )
        return fit

    def _build_fit(self, best, y, eta, method, grid_ties) -> ShrinkageFit:
        d = self.design
        lt_a, lt_b = best["lt"]
        hp = hp_from_tilde(best["mu"], best["lt"])
        ctx = SigmaContext(d, hp, sigma2=self.sigma2)
        eta_obs = bayes_estimate(ctx, y, hp.mu)
        eta_complete = complete_means(d, eta_obs)
        if method == "URE":
            objective = ure_value(ctx, y, hp.mu, qloss=self.qloss)
        elif method == "EBMLE":
            objective = marginal_loglik(ctx, y, hp.mu)
        else:
            delta = eta_obs - eta
            objective = float(delta @ self.qloss.apply(delta)) / self.rc
        scored = -best["obj"] if method == "EBMLE" else best["obj"]
        score_gap = abs(scored - objective) / max(1.0, abs(objective))
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


# ---------------------------------------------------------------------------
# Weighted (prediction) loss via the homoscedastic transform
# ---------------------------------------------------------------------------

@dataclass(frozen=True, eq=False)
class WeightedProblem:
    """Homoscedastic reformulation of a fully observed weighted-loss problem.

    Scaling by M^{-1/2}, the counts' square roots ``sqrt_k``, turns the
    count-weighted loss into a plain sum-of-squares loss for
    y_tilde = sqrt_k y ~ N(eta_tilde, sigma^2 I); the shrinkage matrix of
    the transformed Bayes rule is symmetric.
    """

    table: CellTable
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
    return WeightedProblem(table=table, sqrt_k=np.sqrt(table.k_observed.astype(float)))
