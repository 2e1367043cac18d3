"""Linear algebra for the marginal covariance of a two-way shrinkage model.

Everything here revolves around the |E| x |E| matrix

    Sigma = lambda_a * Za Za^T + lambda_b * Zb Zb^T + M,

where M is the diagonal matrix of inverse cell counts.  Sigma is "diagonal
plus low rank", so solves and traces are routed through the small
(r+c) x (r+c) capacitance matrix

    C = Lam^T Z^T M^{-1} Z Lam + I,      Lam = diag(sqrt(la) I_r, sqrt(lb) I_c)

via the matrix-inverse (Woodbury) identity

    Sigma^{-1} = M^{-1} - M^{-1} Z Lam C^{-1} Lam^T Z^T M^{-1}.

This is the library's only path, and it forms no n x n matrix of its
own.  The tests keep a dense oracle that forms Sigma explicitly and check
this path against it.

LAPACK: the capacitance matrix is factored by ``potrf`` and solved by
``potrs``, resolved once from scipy's LAPACK and called directly
(:func:`_capacitance_cholesky`, :func:`_cholesky_solve`).  These are the
routines scipy's Cholesky helpers wrap, called without the helpers'
per-call input checks; a factorization that is not finite or not positive
definite raises :class:`NumericError` instead.

Threads: the refinement stage of a fit (Nelder-Mead and the final
evaluation) makes hundreds of these calls at order r+c, where OpenBLAS
threading costs more than it gains.  ``_single_threaded_lapack`` runs
scipy's OpenBLAS on one thread for the length of a fit, an engine build or
a study chunk, and restores the previous count afterwards.  numpy's BLAS
is left alone: its thread count changes the rounding of dense products,
and with it fitted values.  Factorizations and solves of this size give
the same bits on one thread as on several.
"""

from __future__ import annotations

import ctypes
import threading
from contextlib import ContextDecorator
from dataclasses import dataclass, field
from functools import cache, cached_property
from math import isfinite

import numpy as np
import scipy.linalg as sla

from .tables import DesignSet, HyperParams

__all__ = [
    "SigmaContext",
    "NumericError",
    "sigma_solve",
    "shrink_apply",
    "logdet_sigma",
    "LAMBDA_TILDE_EPS",
    "lam_from_tilde",
]

# lambda = +inf is approximated, where a numeric Sigma is needed, by the
# value corresponding to lambda_tilde = (1+lambda)^{-1/2} = 1e-6.
LAMBDA_TILDE_EPS = 1e-6


class NumericError(RuntimeError):
    """A factorization or solve failed beyond recovery."""


_potrf, _potrs = sla.get_lapack_funcs(("potrf", "potrs"), dtype=np.float64)


def _capacitance_cholesky(c: np.ndarray) -> np.ndarray:
    """Lower Cholesky factor of a capacitance matrix, by LAPACK ``potrf``.

    Retries once with 1e-12 added to the diagonal, then raises
    :class:`NumericError`; a factor with a non-finite diagonal (from a
    non-finite ``c``) raises at once.
    """
    f, info = _potrf(c, lower=True, clean=False)
    if info > 0:
        f, info = _potrf(c + 1e-12 * np.eye(c.shape[0]), lower=True, clean=False)
    if info != 0:
        raise NumericError("capacitance factorization failed")
    if not isfinite(f.trace()):
        raise NumericError("capacitance matrix is not finite")
    return f


def _cholesky_solve(f: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Solve (f f^T) x = b for a lower factor f from :func:`_capacitance_cholesky`."""
    x, info = _potrs(f, b, lower=True)
    if info != 0:
        raise NumericError(f"potrs rejected argument {-info}")
    return x


@cache
def _scipy_openblas_threads():
    """(get, set) thread-count functions of scipy's OpenBLAS, or None.

    Resolved through the library scipy's LAPACK wrappers are linked
    against; None when that LAPACK is not OpenBLAS.
    """
    try:
        from scipy.linalg import _flapack

        lib = ctypes.CDLL(_flapack.__file__)
    except (ImportError, OSError, AttributeError):
        return None
    for prefix in ("scipy_openblas", "openblas"):
        try:
            get = getattr(lib, f"{prefix}_get_num_threads")
            set_ = getattr(lib, f"{prefix}_set_num_threads")
        except AttributeError:
            continue
        get.argtypes, get.restype = [], ctypes.c_int
        set_.argtypes, set_.restype = [ctypes.c_int], None
        return get, set_
    return None


class _SingleThreadedLapack(ContextDecorator):
    """Run scipy's OpenBLAS on one thread; usable as ``with`` or decorator.

    Nested and concurrent scopes share one count: the first entry saves
    the previous thread count and the last exit restores it, exceptions
    included.  A no-op when scipy's LAPACK is not OpenBLAS.
    """

    def __init__(self):
        self._lock = threading.Lock()
        self._depth = 0
        self._restore = None

    def __enter__(self):
        with self._lock:
            if self._depth == 0:
                api = _scipy_openblas_threads()
                if api is not None:
                    get, set_ = api
                    previous = get()
                    set_(1)
                    self._restore = lambda: set_(previous)
            self._depth += 1
        return self

    def __exit__(self, *exc):
        with self._lock:
            self._depth -= 1
            if self._depth == 0 and self._restore is not None:
                self._restore()
                self._restore = None
        return False


_single_threaded_lapack = _SingleThreadedLapack()


def lam_from_tilde(lt: float) -> float:
    """Map the bounded parameter lambda_tilde in [0, 1] to lambda in [0, inf].

    lambda_tilde = 0 maps to the numeric stand-in for +inf.
    """
    if not 0.0 <= lt <= 1.0:
        raise ValueError("lambda_tilde must lie in [0, 1]")
    lt = max(lt, LAMBDA_TILDE_EPS)
    return 1.0 / (lt * lt) - 1.0


def _numeric_lambda(lam: float) -> float:
    if np.isinf(lam):
        return lam_from_tilde(0.0)
    return float(lam)


@dataclass(frozen=True, eq=False)
class SigmaContext:
    """Design + hyper-parameters, with the capacitance factor precomputed.

    ``mode`` is "fast" (Woodbury/capacitance), the only path.  Infinite
    lambdas are replaced by the numeric stand-in documented in
    :func:`lam_from_tilde`.
    """

    design: DesignSet
    hp: HyperParams
    mode: str = "fast"
    sigma2: float | None = None
    lam_a: float = field(init=False)
    lam_b: float = field(init=False)

    def __post_init__(self):
        if self.mode != "fast":
            raise ValueError(f"unknown mode {self.mode!r}")
        object.__setattr__(self, "lam_a", _numeric_lambda(self.hp.lambda_a))
        object.__setattr__(self, "lam_b", _numeric_lambda(self.hp.lambda_b))

    @cached_property
    def scale(self) -> np.ndarray:
        """Diagonal of Lam: sqrt(lambda_a) on rows, sqrt(lambda_b) on columns."""
        d = self.design
        return np.concatenate([
            np.full(d.r, np.sqrt(self.lam_a)),
            np.full(d.c, np.sqrt(self.lam_b)),
        ])

    @cached_property
    def capacitance(self) -> np.ndarray:
        s = self.scale
        c = s[:, None] * self.design.gram_weighted * s[None, :]
        c[np.diag_indices_from(c)] += 1.0
        return c

    @cached_property
    def capacitance_factor(self):
        """Lower Cholesky factor of the capacitance matrix (one jitter retry)."""
        return _capacitance_cholesky(self.capacitance)

    def cap_solve(self, b: np.ndarray) -> np.ndarray:
        return _cholesky_solve(self.capacitance_factor, b)

    @cached_property
    def cap_inverse(self) -> np.ndarray:
        return self.cap_solve(np.eye(self.design.q))

    @cached_property
    def logdet_capacitance(self) -> float:
        f = self.capacitance_factor
        return float(2.0 * np.sum(np.log(np.diag(f))))


def _check_len(v: np.ndarray, n: int):
    if v.shape[0] != n:
        raise ValueError(f"vector length {v.shape[0]} does not match |E| = {n}")


def sigma_solve(ctx: SigmaContext, v: np.ndarray) -> np.ndarray:
    """Apply Sigma^{-1} to a vector.

    Evaluated as M^{-1} v - M^{-1} Z Lam C^{-1} Lam^T Z^T M^{-1} v, one
    capacitance solve per call.
    """
    v = np.asarray(v, dtype=float)
    d = ctx.design
    _check_len(v, d.n_obs)
    if v.ndim != 1:
        raise ValueError("sigma_solve expects a vector")
    kinv = d.k_obs.astype(float)
    minv_v = kinv * v
    s = ctx.scale
    t = d.effects_rmatvec(minv_v)
    w = ctx.cap_solve(s * t)
    return minv_v - kinv * d.effects_matvec(s * w)


def shrink_apply(ctx: SigmaContext, x: np.ndarray) -> np.ndarray:
    """Apply the shrinkage matrix M Sigma^{-1} to a vector.

    Evaluated right to left as x - Z Lam C^{-1} Lam^T Z^T (M^{-1} x), so the
    cost is O(|E| + (r+c)^2) per call after factorization; no matrix-matrix
    product is formed.
    """
    x = np.asarray(x, dtype=float)
    d = ctx.design
    _check_len(x, d.n_obs)
    if x.ndim != 1:
        raise ValueError("shrink_apply expects a vector")
    t = d.effects_rmatvec(d.k_obs * x)
    s = ctx.scale
    w = ctx.cap_solve(s * t)
    return x - d.effects_matvec(s * w)


def logdet_sigma(ctx: SigmaContext) -> float:
    """log |Sigma| via the determinant companion of the Woodbury identity."""
    return float(np.sum(np.log(ctx.design.m_diag))) + ctx.logdet_capacitance
