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

LAPACK: scipy's LAPACK serves the capacitance matrix alone, and no scipy
Python module is imported.  scipy's compiled f2py wrappers, the extension
``scipy/linalg/_flapack``, are loaded on their own by
:func:`_load_flapack`, under the name ``scipy.linalg._flapack``; they are
the very function objects ``scipy.linalg.lapack`` hands out, so a later
``import scipy.linalg`` shares them.  The capacitance matrix of
:func:`_capacitance_factor` is factored by :func:`_cholesky` (``dpotrf``)
and solved with its factor by :func:`_cholesky_solve` (``dpotrs``).  A
matrix that is not positive definite or not finite raises
:class:`NumericError`; nothing is retried.  numpy's LAPACK serves every
other factorization: ``DesignSet.effects_solve``, the absorbed grid's
``eigh``, ``risk_metrics.lambda1_q``'s pencil and the completion map's
``pinv``.

Threads: the refinement stage of a fit (Nelder-Mead and the final
evaluation) makes hundreds of these calls at order r+c, where OpenBLAS
threading costs more than it gains.  ``_single_threaded_lapack`` runs
scipy's OpenBLAS on one thread in ``FitEngine.fit`` and ``objective_at``,
where nearly all of them run, and restores the previous count.  numpy's BLAS
is left alone: its thread count changes the rounding of dense products,
and with it fitted values.  Factorizations and solves of this size give
the same bits on one thread as on several.
"""

from __future__ import annotations

import ctypes
import importlib.util
import sys
import threading
from contextlib import ContextDecorator
from dataclasses import dataclass, field
from functools import cache, cached_property
from importlib.machinery import EXTENSION_SUFFIXES
from math import isfinite
from pathlib import Path
from typing import TYPE_CHECKING

import numpy as np

if TYPE_CHECKING:
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


def _load_flapack():
    """scipy's compiled LAPACK wrappers, without running scipy's package.

    scipy's folder is found by ``find_spec``, which imports nothing; the
    extension ``linalg/_flapack`` in it is loaded under its own name and
    registered in ``sys.modules``, so an ``import scipy.linalg`` before
    or after this one shares the module.  Raises ImportError naming the
    folder searched when the extension is not there.
    """
    name = "scipy.linalg._flapack"
    if name in sys.modules:
        return sys.modules[name]
    scipy = importlib.util.find_spec("scipy")
    if scipy is None or not scipy.submodule_search_locations:
        raise ImportError("scipy is not installed; its LAPACK wrappers are needed")
    folder = Path(scipy.submodule_search_locations[0]) / "linalg"
    paths = [folder / f"_flapack{suffix}" for suffix in EXTENSION_SUFFIXES]
    path = next((p for p in paths if p.is_file()), None)
    if path is None:
        raise ImportError(f"scipy's LAPACK wrappers (_flapack) not found in {folder}")
    spec = importlib.util.spec_from_file_location(name, path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    sys.modules[name] = module
    return module


_flapack = _load_flapack()
_potrf, _potrs = _flapack.dpotrf, _flapack.dpotrs


def _cholesky(a: np.ndarray) -> np.ndarray:
    """Lower Cholesky factor of a symmetric matrix, by LAPACK ``potrf``.

    Only the lower triangle of the result is the factor.  Raises
    :class:`NumericError` when ``a`` is not positive definite or the factor
    is not finite (from a non-finite ``a``).
    """
    f, info = _potrf(a, lower=True, clean=False)
    if info != 0:
        raise NumericError(f"Cholesky factorization failed (potrf info {info})")
    if not isfinite(f.trace()):
        raise NumericError("Cholesky factorization of a non-finite matrix")
    return f


def _capacitance_factor(design: DesignSet, s: np.ndarray) -> np.ndarray:
    """Lower Cholesky factor of C = I + S G_w S, S = diag(s), built in place."""
    c = s[:, None] * design.gram_weighted
    c *= s
    c.reshape(-1)[:: s.size + 1] += 1.0
    return _cholesky(c)


def _cholesky_solve(f: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Solve (f f^T) x = b for a lower factor f from :func:`_cholesky`."""
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
        lib = ctypes.CDLL(_flapack.__file__)
    except OSError:
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
    def capacitance_factor(self):
        """Lower Cholesky factor of the capacitance matrix."""
        return _capacitance_factor(self.design, self.scale)

    def cap_solve(self, b: np.ndarray) -> np.ndarray:
        return _cholesky_solve(self.capacitance_factor, b)

    @cached_property
    def cap_inverse(self) -> np.ndarray:
        return self.cap_solve(np.eye(self.design.q))

    @cached_property
    def logdet_capacitance(self) -> float:
        f = self.capacitance_factor
        return float(2.0 * np.sum(np.log(np.diag(f))))


def _observed_vector(ctx: SigmaContext, x, name: str) -> np.ndarray:
    """``x`` as a float vector with one entry per observed cell."""
    x = np.asarray(x, dtype=float)
    n = ctx.design.n_obs
    if x.shape != (n,):
        raise ValueError(f"{name} expects a vector of length |E| = {n}, not {x.shape}")
    return x


def sigma_solve(ctx: SigmaContext, v: np.ndarray) -> np.ndarray:
    """Apply Sigma^{-1} to a vector.

    Evaluated as M^{-1} v - M^{-1} Z Lam C^{-1} Lam^T Z^T M^{-1} v, one
    capacitance solve per call.
    """
    v = _observed_vector(ctx, v, "sigma_solve")
    d = ctx.design
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
    x = _observed_vector(ctx, x, "shrink_apply")
    d = ctx.design
    t = d.effects_rmatvec(d.k_obs * x)
    s = ctx.scale
    w = ctx.cap_solve(s * t)
    return x - d.effects_matvec(s * w)


def logdet_sigma(ctx: SigmaContext) -> float:
    """log |Sigma| via the determinant companion of the Woodbury identity."""
    return float(np.sum(np.log(ctx.design.m_diag))) + ctx.logdet_capacitance
