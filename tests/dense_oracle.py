"""Reference implementations the library's fast paths are checked against.

``dense_design`` rebuilds the design matrices Zc, Z, Za, Zb and M that the
library never forms.  The dense references form Sigma = lambda_a Za Za^T
+ lambda_b Zb Zb^T + M, or the weighted problem's transformed shrinkage
matrix, explicitly: O(n^3) work and O(n^2) memory, for small test
problems only.  So do the cross-checks of the completed-loss machinery
(``lambda1_q_from_grams``, ``ure_variance_zero_mu``,
``quad_form_moments``) and ``first_order_terms_dense``, the column-solve
form of the estimating equations.  ``profile_mu_ure`` and
``profile_mu_gls`` are the location profiles as regressions of observed
vectors, the oracles of the engine's closed-form mu.  The batch capacitance
path (``CapacitanceBundle``, ``evaluate_bundle``) scores many
lambda_tilde pairs at once through scipy's ``cho_factor``/``cho_solve``
and explicit (r+c)-order inverses; the engine's absorbed grid and its
single-point scorer are checked against it.  ``lbfgs_polish`` is a
derivative-based local search from a fit's lambda_tilde; interior fits
are checked to leave it nothing to gain.
"""

from types import SimpleNamespace

import numpy as np
import scipy.linalg as sla
from scipy.optimize import minimize

from twoway_shrink.estimators import _first_order_terms, _resolve_qloss
from twoway_shrink.linear_core import (
    LAMBDA_TILDE_EPS,
    NumericError,
    SigmaContext,
    lam_from_tilde,
    shrink_apply,
    sigma_solve,
)
from twoway_shrink.tables import HyperParams, quantile_bounds


def dense_design(d):
    """The dense design matrices of a :class:`DesignSet`.

    ``Zc`` is the rc x (r+c+1) complete design [1 | I_r (x) 1_c | 1_r (x) I_c],
    ``Z`` its rows of the observed cells (lexicographic order), ``Za`` and
    ``Zb`` the row- and column-effect blocks of ``Z`` and ``M`` the diagonal
    matrix of inverse counts.
    """
    r, c = d.r, d.c
    rows = np.repeat(np.arange(r), c)
    cols = np.tile(np.arange(c), r)
    Zc = np.zeros((r * c, r + c + 1))
    Zc[:, 0] = 1.0
    Zc[np.arange(r * c), 1 + rows] = 1.0
    Zc[np.arange(r * c), 1 + r + cols] = 1.0
    Z = Zc[d.row_index * c + d.col_index]
    return SimpleNamespace(
        Zc=Zc, Z=Z, Za=Z[:, 1 : 1 + r], Zb=Z[:, 1 + r :], M=np.diag(d.m_diag)
    )


def dense_sigma(ctx):
    """Sigma of a :class:`SigmaContext`, formed explicitly."""
    d = ctx.design
    dd = dense_design(d)
    za, zb = dd.Za, dd.Zb
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


# -- location profiles ---------------------------------------------------------

def profile_mu_ure(ctx, y, qmode="auto", qloss=None):
    """Unconstrained minimizer of the risk estimate over mu at fixed lambdas.

    Computed by regressing M Sigma^{-1} y on M Sigma^{-1} 1 in the Q inner
    product; clamping to the quantile interval is the caller's job.
    """
    design = ctx.design
    _, qloss = _resolve_qloss(design, qmode, qloss)
    y = np.asarray(y, dtype=float)
    g_y = shrink_apply(ctx, y)
    g_1 = shrink_apply(ctx, np.ones(design.n_obs))
    qg1 = qloss.apply(g_1)
    num, den = float(qg1 @ g_y), float(qg1 @ g_1)
    if not np.isfinite(den) or den <= 0.0 or den < 1e-300:
        raise NumericError(
            "profile denominator underflowed (lambda too close to the "
            "no-shrinkage limit for a meaningful location profile)"
        )
    return num / den


def profile_mu_gls(ctx, y):
    """Generalized least squares location, (1' Sigma^{-1} y)/(1' Sigma^{-1} 1)."""
    y = np.asarray(y, dtype=float)
    v_y = sigma_solve(ctx, y)
    v_1 = sigma_solve(ctx, np.ones(y.size))
    den = float(np.sum(v_1))
    if not np.isfinite(den) or den <= 0.0:
        raise NumericError("GLS denominator is not positive")
    return float(np.sum(v_y)) / den


# -- the completed-loss machinery ---------------------------------------------

def lambda1_q_from_grams(design):
    """lambda1(Q) via the gram identity lambda1((Zc^T Zc)(Z^T Z)^+)."""
    dd = dense_design(design)
    gc = dd.Zc.T @ dd.Zc
    g = dd.Z.T @ dd.Z
    prod = gc @ np.linalg.pinv(g, rcond=1e-10)
    ev = np.linalg.eigvals(prod)
    return float(np.max(ev.real))


def quad_form_moments(A, V, eta):
    """Mean and variance of y^T A y for y ~ N(eta, V).

    mean = tr(A V) + eta^T A eta
    var  = 2 tr((A V)^2) + 4 eta^T A V A eta
    """
    A = np.asarray(A, dtype=float)
    V = np.asarray(V, dtype=float)
    eta = np.asarray(eta, dtype=float)
    n = eta.size
    if A.shape != (n, n) or V.shape != (n, n):
        raise ValueError("dimension mismatch between A, V and eta")
    av = A @ V
    a_eta = A @ eta
    mean = float(np.trace(av)) + float(eta @ a_eta)
    var = 2.0 * float(np.sum(av * av.T)) + 4.0 * float(a_eta @ V @ a_eta)
    return mean, var


def ure_variance_zero_mu(design, hp, eta_obs, sigma2, qloss):
    """Analytic variance of the risk estimate at location zero.

    With H = Sigma^{-1} M Q M Sigma^{-1} built densely, the variance of the
    unbiased risk estimate at mu = 0 equals
    (rc)^{-2} Var(y^T H y) = (rc)^{-2} {2 s^4 tr(HMHM) + 4 s^2 eta^T HMH eta}.
    """
    sig_inv = np.linalg.inv(dense_sigma(SigmaContext(design, hp)))
    m = design.m_diag
    H = sig_inv @ (m[:, None] * qloss.Q * m[None, :]) @ sig_inv
    V = sigma2 * np.diag(m)
    _, var = quad_form_moments(H, V, np.asarray(eta_obs, dtype=float))
    rc = design.r * design.c
    return var / rc**2


# -- the estimating equations in column-solve form ---------------------------

def first_order_terms_dense(d, qloss, s2, hp, y, mu, method):
    """``_first_order_terms`` with Sigma^{-1} Za and Sigma^{-1} Zb solved
    column by column against the dense Sigma, and Q applied densely."""
    ctx = SigmaContext(d, hp, sigma2=s2)
    dd = dense_design(d)
    m = d.m_diag
    v = sigma_solve(ctx, y - mu)
    za_v, zb_v = dd.Za.T @ v, dd.Zb.T @ v
    x_a, x_b = dense_solve(ctx, dd.Za), dense_solve(ctx, dd.Zb)
    one = np.ones(d.n_obs)
    if method == "EBMLE":
        tr_a = float(np.sum(dd.Za * x_a))
        tr_b = float(np.sum(dd.Zb * x_b))
        res_mu = float(np.sum(v))
        res_a = tr_a - float(za_v @ za_v) / s2
        res_b = tr_b - float(zb_v @ zb_v) / s2
        scale_mu = float(np.sum(sigma_solve(ctx, one)))
    else:
        Q = np.diag(qloss.w) if qloss.Q is None else qloss.Q
        mx_a = m[:, None] * x_a
        mx_b = m[:, None] * x_b
        tr_a = float(np.sum(mx_a * (Q @ mx_a)))
        tr_b = float(np.sum(mx_b * (Q @ mx_b)))
        w = sigma_solve(ctx, m * (Q @ (m * v)))
        res_mu = float(np.sum(w))
        res_a = tr_a - float(za_v @ (dd.Za.T @ w)) / s2
        res_b = tr_b - float(zb_v @ (dd.Zb.T @ w)) / s2
        g1 = shrink_apply(ctx, one)
        scale_mu = float(g1 @ Q @ g1)
    return {
        "res_mu": res_mu,
        "res_a": res_a,
        "res_b": res_b,
        "scale_mu": abs(scale_mu),
        "scale_a": abs(tr_a),
        "scale_b": abs(tr_b),
    }


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
        ctx = SigmaContext(engine.design, hp, sigma2=engine.sigma2)
        fo = _first_order_terms(ctx, engine.qloss, y, mu, method)
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
