"""Reference implementations the library's fast paths are checked against.

``dense_design`` rebuilds the design matrices Zc, Z, Za, Zb and M that the
library never forms.  The dense references form Sigma = lambda_a Za Za^T
+ lambda_b Zb Zb^T + M, or the weighted problem's transformed shrinkage
matrix, explicitly: O(n^3) work and O(n^2) memory, for small test
problems only.  So do the cross-checks of the completed-loss machinery
(``lambda1_q_from_grams``, ``ure_variance_zero_mu``,
``quad_form_moments``) and ``first_order_terms_dense``, the column-solve
form of the estimating equations; ``estimating_eq_at`` evaluates the
library's own form at fixed hyper-parameters.  ``balanced_decoupling_check``
compares the loss of a fit on a balanced table with its closed-form
decomposition, and ``balanced_objective`` and ``balanced_minimum`` give
every criterion on a balanced table, and its exact minimum, in closed
form.  ``effects_solve_augmented`` is the (r+c)-order augmented Cholesky
effects solve that ``DesignSet.effects_solve`` replaced.  ``profile_mu_ure`` and
``profile_mu_gls`` are the location profiles as regressions of observed
vectors, the oracles of the engine's closed-form mu.  The batch capacitance
path (``CapacitanceBundle``, ``evaluate_bundle``) scores many
lambda_tilde pairs at once through scipy's ``cho_factor``/``cho_solve``
and explicit (r+c)-order inverses; the engine's absorbed grid and its
single-point scorer are checked against it.  ``lbfgs_polish`` is a
derivative-based local search from a fit's lambda_tilde; interior fits
are checked to leave it nothing to gain.
"""

from math import log, pi
from types import SimpleNamespace

import numpy as np
import scipy.linalg as sla
from scipy.optimize import minimize

from twoway_shrink.estimators import _first_order_terms
from twoway_shrink.linear_core import (
    LAMBDA_TILDE_EPS,
    NumericError,
    SigmaContext,
    _cholesky,
    _cholesky_solve,
    lam_from_tilde,
    shrink_apply,
    sigma_solve,
)
from twoway_shrink.risk_metrics import QLoss, loss_ss
from twoway_shrink.tables import HyperParams, build_design, quantile_bounds


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


# -- the augmented effects solve ----------------------------------------------

def effects_solve_augmented(design, rhs, weighted=False):
    """The theta with v^T theta = 0 that solves G theta = rhs, v = (1_r, -1_c).

    The dense form ``DesignSet.effects_solve`` replaced: one (r+c)-order
    Cholesky factorization of G + v v^T, G the weighted or plain gram,
    through LAPACK's potrf and potrs.
    """
    gram = design.gram_weighted if weighted else design.gram_plain
    v = np.concatenate([np.ones(design.r), -np.ones(design.c)])
    return _cholesky_solve(_cholesky(gram + np.outer(v, v)), rhs)


def wls_fit_augmented(design, y):
    """``wls_fit`` through :func:`effects_solve_augmented`."""
    rhs = design.effects_rmatvec(design.k_obs * np.asarray(y, dtype=float))
    return design.effects_matvec(effects_solve_augmented(design, rhs, weighted=True))


def complete_means_augmented(design, eta_obs):
    """``complete_means`` through :func:`effects_solve_augmented`."""
    rhs = design.effects_rmatvec(np.asarray(eta_obs, dtype=float))
    theta = effects_solve_augmented(design, rhs)
    return (theta[: design.r, None] + theta[None, design.r :]).ravel()


# -- location profiles ---------------------------------------------------------

def profile_mu_ure(ctx, y, qmode="auto", qloss=None):
    """Unconstrained minimizer of the risk estimate over mu at fixed lambdas.

    Computed by regressing M Sigma^{-1} y on M Sigma^{-1} 1 in the Q inner
    product; clamping to the quantile interval is the caller's job.
    """
    design = ctx.design
    if qloss is None:
        qloss = QLoss.of(design, qmode)
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


# -- the estimating equations ------------------------------------------------

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


def estimating_eq_at(table, hp, method, qmode="auto"):
    """(res_mu, res_a, res_b) of ``_first_order_terms`` at fixed ``hp``.

    These are the terms a URE or EBMLE fit reports in
    ``diagnostics["estimating_eq"]``, at any finite lambdas.
    """
    design = build_design(table)
    qloss = QLoss.of(design, qmode) if method == "URE" else None
    ctx = SigmaContext(design, hp, sigma2=table.sigma2)
    fo = _first_order_terms(ctx, qloss, table.y_observed, hp.mu, method)
    return fo["res_mu"], fo["res_a"], fo["res_b"]


# -- the balanced-design loss decomposition ----------------------------------

def balanced_decoupling_check(table, hp, true_eta):
    """Discrepancy of the balanced-design loss decomposition.

    On a complete balanced table (all counts equal) the shrinkage estimator
    located at the grand mean decouples: its loss splits exactly into a
    grand-mean term plus independently shrunk row- and column-effect terms,

        ||eta_hat - eta||^2 / rc
            = (m_hat - m)^2
              + (1/r) sum_i (c_a a_hat_i - a_i)^2
              + (1/c) sum_j (c_b b_hat_j - b_j)^2,

    with c_a = la*c*K0 / (la*c*K0 + 1) and c_b = lb*r*K0 / (lb*r*K0 + 1).
    The left side is evaluated through the library's covariance machinery,
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

    ctx = SigmaContext(build_design(table), hp)
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


# -- the closed form on balanced designs --------------------------------------

def _anova(x):
    """(grand mean, row effects, column effects, interaction) of an r x c array."""
    m = x.mean()
    a = x.mean(axis=1) - m
    b = x.mean(axis=0) - m
    return m, a, b, x - m - a[:, None] - b[None, :]


def balanced_objective(table, lt_a, lt_b, method, eta=None, tau=0.05):
    """The engine's criterion on a complete balanced table, in closed form.

    With one count k in every cell, Sigma's eigenspaces are the ANOVA
    split (Johnstone 2011, sec. 2.9): row contrasts (dimension r-1,
    eigenvalue e_A = m + c lambda_a), column contrasts (c-1,
    e_B = m + r lambda_b), the grand mean (1, e_G = m + c lambda_a
    + r lambda_b) and the interaction ((r-1)(c-1), m), m = 1/k.  The
    shrinkage factor of a space is b = m / e, and with v = sigma^2 m and
    S the sum of squares of y's projection,

        URE rc     = sum over spaces of b^2 S + p v - 2 p v b,
        -loglik    = (rc/2) log 2 pi sigma^2 + sum of p log(e) / 2 + S / (2 sigma^2 e),
        ORACLE rc  = sum over spaces of |(1-b) P y + b mu P 1 - P eta|^2.

    ``lt_a`` and ``lt_b`` are arrays of lambda_tilde, mapped to lambda as
    the engine maps them (``lam_from_tilde``); the exact (0, 0) pair is
    the unshrunken corner.  mu is profiled and clamped to the quantile
    interval, as the engine scores a candidate.  Returns (objective, mu,
    clamped) arrays, the objective as :meth:`FitEngine.fit` minimizes it.
    """
    k = table.counts.ravel()
    if not table.is_complete or k.min() != k.max():
        raise ValueError("the closed form needs a complete table with equal counts")
    r, c, rc, s2 = table.r, table.c, table.r * table.c, table.sigma2
    lt_a, lt_b = np.broadcast_arrays(np.asarray(lt_a, float), np.asarray(lt_b, float))
    corner = (lt_a == 0.0) & (lt_b == 0.0)
    # lam_from_tilde's arithmetic, elementwise
    la, lb = (1.0 / (t * t) - 1.0 for t in np.maximum((lt_a, lt_b), LAMBDA_TILDE_EPS))
    m = 1.0 / float(k[0])
    v = s2 * m
    e_a, e_b, e_g = m + c * la, m + r * lb, m + c * la + r * lb
    b_a, b_b, b_g = m / e_a, m / e_b, m / e_g
    ybar, ya, yb, yi = _anova(table.means)
    s_a, s_b, s_i = c * ya @ ya, r * yb @ yb, float(np.sum(yi * yi))
    p_a, p_b, p_i = r - 1, c - 1, (r - 1) * (c - 1)
    lo, hi = quantile_bounds(table, tau)
    if method == "ORACLE":
        ebar, ea, eb, ei = _anova(np.asarray(eta, float).reshape(r, c))
        mu_raw = (ebar - (1.0 - b_g) * ybar) / b_g
    else:
        mu_raw = np.full(lt_a.shape, ybar)
    mu = np.clip(mu_raw, lo, hi)
    mu = np.where(corner, 0.5 * (lo + hi), mu)
    clamped = ~corner & (mu != mu_raw)
    s_g = rc * (ybar - mu) ** 2
    if method == "URE":
        obj = sum(b * b * s_ + p * v - 2.0 * p * v * b for b, s_, p in (
            (b_a, s_a, p_a), (b_b, s_b, p_b), (b_g, s_g, 1))) + s_i - p_i * v
        obj = np.where(corner, v * rc, obj) / rc
    elif method == "EBMLE":
        logdet = p_a * np.log(e_a) + p_b * np.log(e_b) + np.log(e_g) + p_i * log(m)
        obj = (0.5 * rc * log(2.0 * pi * s2) + 0.5 * logdet
               + (s_a / e_a + s_b / e_b + s_g / e_g + s_i / m) / (2.0 * s2))
        obj = np.where(corner, np.inf, obj)
    elif method == "ORACLE":
        loss = (c * np.sum(((1.0 - b_a)[..., None] * ya - ea) ** 2, axis=-1)
                + r * np.sum(((1.0 - b_b)[..., None] * yb - eb) ** 2, axis=-1)
                + rc * ((1.0 - b_g) * ybar + b_g * mu - ebar) ** 2
                + float(np.sum(ei * ei)))
        d = table.means - np.asarray(eta, float).reshape(r, c)
        obj = np.where(corner, float(np.sum(d * d)), loss) / rc
    else:
        raise ValueError(f"unknown method {method!r}")
    return obj, mu, clamped


def balanced_minimum(table, method, eta=None, tau=0.05):
    """(objective, lambda_tilde pair) at the minimum of :func:`balanced_objective`.

    Over the engine's search box: [0, 1]^2 with lambda_tilde below
    ``LAMBDA_TILDE_EPS`` read as that value, plus the exact (0, 0) corner.
    A 201 x 201 evaluation picks the four best points; around each, a
    21 x 21 stencil is refined tenfold per level down to a spacing of
    1e-13 in lambda_tilde.
    """
    def f(a, b):
        return balanced_objective(table, a, b, method, eta, tau)[0]

    axis = np.linspace(0.0, 1.0, 201)
    ga, gb = np.meshgrid(axis, axis, indexing="ij")
    values = f(ga, gb)
    values[0, 0] = np.inf  # the corner, scored below
    best = (float(f(0.0, 0.0)), (0.0, 0.0))
    offsets = np.linspace(-2.0, 2.0, 21)
    for flat in np.argsort(values, axis=None)[:4]:
        x = np.array([axis[flat // axis.size], axis[flat % axis.size]])
        h = axis[1] - axis[0]
        while h > 1e-13:
            pa = np.clip(x[0] + h * offsets, 0.0, 1.0)
            pb = np.clip(x[1] + h * offsets, 0.0, 1.0)
            sa, sb = np.meshgrid(pa, pb, indexing="ij")
            vals = f(sa, sb)
            vals[(sa == 0.0) & (sb == 0.0)] = np.inf
            i = np.unravel_index(np.argmin(vals), vals.shape)
            x = np.array([sa[i], sb[i]])
            h /= 10.0
        value = float(f(*x))
        if value < best[0]:
            best = (value, (float(x[0]), float(x[1])))
    return best


# -- the count-weighted loss through the homoscedastic transform -------------

def _y_tilde(wp):
    """The transformed data sqrt(K) y; sqrt(K) is the transformed one-vector."""
    return wp.sqrt_k * wp.table.y_observed


def weighted_bayes_estimate(wp, mu, lambda_a, lambda_b):
    """Transformed-scale estimate and its original-scale counterpart."""
    a = wp.shrinkage_matrix(lambda_a, lambda_b)
    y_t = _y_tilde(wp)
    eta_t = y_t - a @ (y_t - mu * wp.sqrt_k)
    return eta_t, eta_t / wp.sqrt_k


def weighted_ure(wp, mu, lambda_a, lambda_b):
    """Plain-loss risk estimate of the transformed rule (normalized by rc)."""
    return _weighted_ure(wp, wp.shrinkage_matrix(lambda_a, lambda_b), mu)


def _weighted_ure(wp, a, mu):
    s2 = wp.table.sigma2
    n = wp.sqrt_k.size
    resid = a @ (_y_tilde(wp) - mu * wp.sqrt_k)
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
            ay, aw = a @ _y_tilde(wp), a @ wp.sqrt_k
            mu = float(np.clip(float(ay @ aw) / float(aw @ aw), lo, hi))
            best = min(best, _weighted_ure(wp, a, mu))
    return best


# -- the capacitance path in batch form --------------------------------------

class CapacitanceBundle:
    """Explicit capacitance inverses and traces for a batch of lambda_tilde pairs.

    It has the engine's solver interface (``solve``, ``tu``, ``dot``,
    ``quad``, ``logdet``, ``tr_red``), so ``FitEngine._score`` scores it.
    """

    def __init__(self, engine, lt_pairs):
        d = engine.design
        q = d.q
        g = len(lt_pairs)
        self.lt = lt_pairs
        self.zqz = engine.qloss.effects_gram
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
            b = s[:, None] * self.zqz * s[None, :]
            self.tr_red[i] = float(np.sum(inv * b))

    def solve(self, t, zqz=None):
        """(S t, C^{-1} S t, u) per point, u = S C^{-1} S t."""
        p = self.S * t[None, :]
        w = np.einsum("gij,gj->gi", self.Cinv, p)
        return p, w, self.S * w

    def tu(self, sol_s, sol_t):
        return np.einsum("gi,gi->g", sol_s[0], sol_t[1])

    def dot(self, sol, v):
        return sol[2] @ v

    def quad(self, sol1, sol2):
        return np.einsum("gi,ij,gj->g", sol1[2], self.zqz, sol2[2])


def evaluate_bundle(engine, bundle, pieces, method):
    """Objective, mu and clamp flags per bundle point, scored by the engine."""
    return engine._score(bundle, pieces, method)


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
