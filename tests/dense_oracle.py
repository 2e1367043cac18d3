"""Reference implementations the library's fast paths are checked against.

The dense ones form Sigma = lambda_a Za Za^T + lambda_b Zb Zb^T + M, or the
weighted problem's transformed shrinkage matrix, explicitly: O(n^3) work
and O(n^2) memory, for small test problems only.  The batch capacitance
path (``CapacitanceBundle``, ``evaluate_bundle``) scores many
lambda_tilde pairs at once through scipy's ``cho_factor``/``cho_solve``
and explicit (r+c)-order inverses; the engine's absorbed grid and its
single-point scorer are checked against it.  ``lbfgs_polish`` is a
derivative-based local search from a fit's lambda_tilde; interior fits
are checked to leave it nothing to gain.
"""

import numpy as np
import scipy.linalg as sla
from scipy.optimize import minimize

from twoway_shrink.estimators import _first_order_terms
from twoway_shrink.linear_core import LAMBDA_TILDE_EPS, lam_from_tilde
from twoway_shrink.tables import HyperParams, quantile_bounds


def dense_sigma(ctx):
    """Sigma of a :class:`SigmaContext`, formed explicitly."""
    d = ctx.design
    za, zb = d.Za, d.Zb
    sig = ctx.lam_a * (za @ za.T) + ctx.lam_b * (zb @ zb.T)
    sig[np.diag_indices_from(sig)] += d.m_diag
    return sig


def dense_solve(ctx, v):
    """Sigma^{-1} v for a vector or a matrix of columns."""
    return sla.solve(dense_sigma(ctx), v, assume_a="pos")


def dense_logdet(ctx):
    sign, val = np.linalg.slogdet(dense_sigma(ctx))
    assert sign > 0, "dense Sigma is not positive definite"
    return float(val)


def dense_loglik(ctx, y, mu, sigma2):
    """Log-density of y ~ N(mu 1, sigma2 Sigma) with a full slogdet."""
    xi = np.asarray(y, dtype=float) - mu
    quad = float(xi @ dense_solve(ctx, xi))
    n = xi.size
    return (
        -0.5 * n * np.log(2.0 * np.pi * sigma2)
        - 0.5 * dense_logdet(ctx)
        - quad / (2.0 * sigma2)
    )


def dense_ure(ctx, y, mu, Q=None, sigma2=None):
    """Risk estimate with Sigma^{-1} M Q M Sigma^{-1} formed explicitly.

    ``Q`` is the dense loss matrix (the identity when None); ``sigma2``
    defaults to the context's.
    """
    d = ctx.design
    s2 = ctx.sigma2 if sigma2 is None else sigma2
    m = d.m_diag
    xi = np.asarray(y, dtype=float) - mu
    sig_inv = np.linalg.inv(dense_sigma(ctx))
    q = np.diag(m * m) if Q is None else m[:, None] * Q * m[None, :]
    mid = sig_inv @ q @ sig_inv
    tr_qm = float(np.sum(m)) if Q is None else float(m @ np.diag(Q))
    tr_mid = float(np.sum(sig_inv * q.T))
    return (s2 * tr_qm - 2.0 * s2 * tr_mid + float(xi @ mid @ xi)) / (d.r * d.c)


# -- the count-weighted loss through the homoscedastic transform -------------

def weighted_bayes_estimate(wp, mu, lambda_a, lambda_b):
    """Transformed-scale estimate and its original-scale counterpart."""
    a = wp.shrinkage_matrix(lambda_a, lambda_b)
    eta_t = wp.y_tilde - a @ (wp.y_tilde - mu * wp.one_tilde)
    return eta_t, eta_t / wp.sqrt_k


def weighted_ure(wp, mu, lambda_a, lambda_b):
    """Plain-loss risk estimate of the transformed rule (normalized by rc)."""
    return _weighted_ure(wp, wp.shrinkage_matrix(lambda_a, lambda_b), mu)


def _weighted_ure(wp, a, mu):
    s2 = wp.table.sigma2
    n = wp.y_tilde.size
    resid = a @ (wp.y_tilde - mu * wp.one_tilde)
    rc = wp.table.r * wp.table.c
    return (s2 * n - 2.0 * s2 * float(np.trace(a)) + float(resid @ resid)) / rc


def weighted_grid_min(wp, tau=0.05, points=33):
    """Minimum of the mu-profiled transformed URE over the lambda_tilde grid.

    mu is the unconstrained profile clamped to the quantile interval, as in
    the fits.  The lambda_tilde = 0 lines (lambda = 1e12) are left out: there
    the dense inverse has condition number about 1e12 K_max, and its risk
    estimate is off by up to a few percent.
    """
    lo, hi = quantile_bounds(wp.table, tau)
    axis = np.linspace(0.0, 1.0, points)[1:]
    best = np.inf
    for a_t in axis:
        for b_t in axis:
            a = wp.shrinkage_matrix(lam_from_tilde(a_t), lam_from_tilde(b_t))
            ay, aw = a @ wp.y_tilde, a @ wp.one_tilde
            mu = float(np.clip(float(ay @ aw) / float(aw @ aw), lo, hi))
            best = min(best, _weighted_ure(wp, a, mu))
    return best


# -- the capacitance path in batch form --------------------------------------

class CapacitanceBundle:
    """Explicit capacitance inverses and traces for a batch of lambda_tilde pairs."""

    def __init__(self, engine, lt_pairs):
        d = engine.design
        q = d.q
        g = len(lt_pairs)
        self.lt = lt_pairs
        self.S = np.empty((g, q))
        self.Cinv = np.empty((g, q, q))
        self.logdet = np.empty(g)
        self.tr_red = np.empty(g)
        eye = np.eye(q)
        for i, (lta, ltb) in enumerate(lt_pairs):
            la = lam_from_tilde(float(lta))
            lb = lam_from_tilde(float(ltb))
            s = np.concatenate([np.full(d.r, np.sqrt(la)), np.full(d.c, np.sqrt(lb))])
            C = s[:, None] * d.gram_weighted * s[None, :]
            C.flat[:: q + 1] += 1.0
            cf = sla.cho_factor(C, lower=True)
            inv = sla.cho_solve(cf, eye)
            self.S[i] = s
            self.Cinv[i] = inv
            self.logdet[i] = 2.0 * float(np.sum(np.log(np.diag(cf[0]))))
            self.tr_red[i] = float(np.sum(inv * (s[:, None] * engine.zqz * s[None, :])))


def evaluate_bundle(engine, bundle, pieces, method, mu_fixed=None):
    """Objective, mu and clamp flags per bundle point, scored by the engine."""

    def solve(t_vec):
        p = bundle.S * t_vec[None, :]
        return p, np.einsum("gij,gj->gi", bundle.Cinv, p)

    if method == "EBMLE":
        p_y, cw_y = solve(pieces["t_y"])
        p_1, cw_1 = solve(engine.t_1)
        terms = {
            "tu_yy": np.einsum("gi,gi->g", p_y, cw_y),
            "tu_1y": np.einsum("gi,gi->g", p_1, cw_y),
            "tu_11": np.einsum("gi,gi->g", p_1, cw_1),
        }
    else:
        u_y = bundle.S * solve(pieces["t_y"])[1]
        u_1 = bundle.S * solve(engine.t_1)[1]
        zqz = engine.zqz
        terms = {
            "uy_zq_y": u_y @ pieces["zq_y"],
            "uy_zq_1": u_y @ engine.zq_1,
            "u1_zq_y": u_1 @ pieces["zq_y"],
            "u1_zq_1": u_1 @ engine.zq_1,
            "uy_B_uy": np.einsum("gi,ij,gj->g", u_y, zqz, u_y),
            "uy_B_u1": np.einsum("gi,ij,gj->g", u_y, zqz, u_1),
            "u1_B_u1": np.einsum("gi,ij,gj->g", u_1, zqz, u_1),
        }
        if method == "ORACLE":
            terms["uy_zq_eta"] = u_y @ pieces["zq_eta"]
            terms["u1_zq_eta"] = u_1 @ pieces["zq_eta"]
    return engine._score(
        terms, bundle.logdet, bundle.tr_red, pieces, method, mu_fixed
    )


# -- a derivative-based local search -----------------------------------------

def lbfgs_polish(engine, lt0, y, method):
    """L-BFGS-B from ``lt0`` on the engine's URE or EBMLE objective.

    The gradient in lambda_tilde is the analytic one: the estimating
    equations of ``_first_order_terms`` at the profiled mu, times
    d lambda / d lambda_tilde = -2 lambda_tilde^{-3}.  The box is
    [LAMBDA_TILDE_EPS, 1]^2.  Returns (lambda_tilde, objective), the
    objective as the engine minimizes it.
    """
    y = np.asarray(y, dtype=float)
    pieces = engine._data_pieces(y, None)
    lo = LAMBDA_TILDE_EPS

    def fun_grad(lt):
        lt = np.clip(lt, lo, 1.0)
        obj, mu, _ = engine._score_point(lt, pieces, method)
        la, lb = lam_from_tilde(float(lt[0])), lam_from_tilde(float(lt[1]))
        hp = HyperParams(mu=mu, lambda_a=la, lambda_b=lb)
        fo = _first_order_terms(
            engine.design, engine.qloss, engine.sigma2, hp, y, mu, method
        )
        if method == "URE":
            d_la = 2.0 * engine.sigma2 / engine.rc * fo["res_a"]
            d_lb = 2.0 * engine.sigma2 / engine.rc * fo["res_b"]
        else:  # minimizing -loglik
            d_la = 0.5 * fo["res_a"]
            d_lb = 0.5 * fo["res_b"]
        grad = np.array([d_la * (-2.0 / lt[0] ** 3), d_lb * (-2.0 / lt[1] ** 3)])
        return obj, grad

    res = minimize(
        fun_grad,
        x0=np.clip(np.asarray(lt0, dtype=float), lo, 1.0),
        method="L-BFGS-B",
        jac=True,
        bounds=[(lo, 1.0), (lo, 1.0)],
        options={"maxiter": 60, "ftol": 1e-15, "gtol": 1e-11},
    )
    return np.clip(res.x, lo, 1.0), float(res.fun)
