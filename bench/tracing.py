"""Span tracing around the public callables of each twoway_shrink module.

The tracer patches module attributes and class members from outside the
package, so nothing under ``src/`` is instrumented.  Every callable is
wrapped under each name other modules imported it as (``estimators.
build_design``, ``cli.lambda1_q``, ...), because a call made through an
imported name does not pass through the defining module's attribute.

A span records name, start, end, parent span and operation id.  Spans stay
in memory; the harness writes them out when the run ends.  A name missing
from the program (a later refactor deleted or renamed it) is recorded as
absent, and the per-layer metrics that depend on it are reported absent
instead of failing the run.
"""

from __future__ import annotations

import functools
import importlib
import time
from collections import defaultdict

import scipy.linalg as sla

# (defining module, attribute, span name, other modules importing the name)
FUNCTIONS = (
    ("tables", "build_design", "tables.build_design",
     ("estimators", "cli", "risk_metrics")),
    ("tables", "load_table", "tables.load_table", ("cli",)),
    ("risk_metrics", "q_matrix", "risk_metrics.q_matrix", ("estimators",)),
    ("risk_metrics", "lambda1_q", "risk_metrics.lambda1_q", ("cli",)),
    ("risk_metrics", "a2_statistic", "risk_metrics.a2_statistic", ("cli",)),
    ("linear_core", "sigma_solve", "linear_core.sigma_solve", ("estimators",)),
    ("linear_core", "shrink_apply", "linear_core.shrink_apply",
     ("estimators", "risk_metrics")),
    ("estimators", "fit_ure", "estimators.fit_ure", ()),
    ("estimators", "fit_ml", "estimators.fit_ml", ()),
    ("estimators", "ure_value", "estimators.ure_value", ()),
    ("estimators", "marginal_loglik", "estimators.marginal_loglik", ()),
    ("estimators", "bayes_estimate", "estimators.bayes_estimate", ()),
    ("estimators", "wls_fit", "estimators.wls_fit", ("simulation",)),
    ("simulation", "gen_scenario", "simulation.gen_scenario", ()),
    ("simulation", "compare_estimators", "simulation.compare_estimators", ()),
    ("cli", "main", "cli.main", ()),
    ("cli", "write_report", "cli.write_report", ()),
)

# (module, class, method, span name); the method may be a cached_property.
METHODS = (
    ("estimators", "FitEngine", "__init__", "estimators.engine_init"),
    ("estimators", "FitEngine", "fit", "estimators.fit"),
    ("estimators", "WeightedProblem", "fit_ure", "estimators.weighted_fit"),
    ("tables", "DesignSet", "completion_map", "tables.completion_map"),
)

# Spans that make up a fit's final evaluation at the chosen hyper-parameters.
FINAL_EVAL = ("estimators.ure_value", "estimators.marginal_loglik",
              "estimators.bayes_estimate")


class Tracer:
    """In-memory span recorder with per-name counters."""

    def __init__(self):
        self.spans = []      # [name, start, end, parent index, op id]
        self.counters = defaultdict(float)
        self.maxima = defaultdict(float)
        self.absent = set()
        self.op_id = None
        self._stack = []

    def begin(self, name: str) -> int:
        parent = self._stack[-1] if self._stack else None
        self.spans.append([name, time.perf_counter(), None, parent, self.op_id])
        idx = len(self.spans) - 1
        self._stack.append(idx)
        return idx

    def end(self, idx: int):
        self.spans[idx][2] = time.perf_counter()
        self._stack.pop()

    def inside(self, name: str) -> bool:
        return any(self.spans[i][0] == name for i in self._stack)

    def count(self, name: str, amount: float = 1.0):
        self.counters[name] += amount

    def record_max(self, name: str, value: float):
        self.maxima[name] = max(self.maxima[name], value)

    def spanned(self, name, fn, after=None):
        """Wrap ``fn`` so that each call records a span ``name``.

        ``after(args, result)`` runs inside the span and may add counters.
        """

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if self.op_id is None:  # outside a measured operation
                return fn(*args, **kwargs)
            idx = self.begin(name)
            try:
                out = fn(*args, **kwargs)
                if after is not None:
                    after(args, out)
                return out
            finally:
                self.end(idx)

        return wrapper

    # -- reading ------------------------------------------------------------

    def totals(self):
        """Per span name: [calls, inclusive seconds, self seconds]."""
        child_time = defaultdict(float)
        for name, t0, t1, parent, op in self.spans:
            if parent is not None:
                child_time[parent] += t1 - t0
        out = defaultdict(lambda: [0, 0.0, 0.0])
        for i, (name, t0, t1, parent, op) in enumerate(self.spans):
            row = out[name]
            row[0] += 1
            row[1] += t1 - t0
            row[2] += (t1 - t0) - child_time[i]
        return out

    def records(self):
        for i, (name, t0, t1, parent, op) in enumerate(self.spans):
            yield {"id": i, "name": name, "start": t0, "end": t1,
                   "parent": parent, "op": op}


def _module(name):
    return importlib.import_module(f"twoway_shrink.{name}")


def install(tracer: Tracer):
    """Patch the program; returns a function that undoes every patch."""
    undo = []

    def patch(owner, attr, value):
        undo.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, value)

    after = {
        "risk_metrics.q_matrix": lambda args, out: tracer.count(
            "q_bytes", 8.0 * out.Q.shape[0] ** 2),
        "linear_core.sigma_solve": lambda args, out: tracer.count(
            "sigma_solve_cols", 1 if out.ndim == 1 else out.shape[1]),
    }
    for mod_name, attr, span, importers in FUNCTIONS:
        mod = _module(mod_name)
        if attr not in mod.__dict__:
            tracer.absent.add(span)
            continue
        original = mod.__dict__[attr]
        wrapped = tracer.spanned(span, original, after.get(span))
        patch(mod, attr, wrapped)
        for other in importers:
            other_mod = _module(other)
            if other_mod.__dict__.get(attr) is original:
                patch(other_mod, attr, wrapped)

    def engine_bytes(args, out):
        engine = args[0]
        cache = sum(
            arr.nbytes
            for key, bundle in vars(engine).items() if "bundle" in key
            for arr in (getattr(bundle, s, None) for s in getattr(bundle, "__slots__", ()))
            if hasattr(arr, "nbytes")
        )
        tracer.record_max("grid_cache_bytes", cache)

    def completion_bytes(args, out):
        tracer.count("completion_map_bytes", 8.0 * out.size)

    method_after = {
        "estimators.engine_init": engine_bytes,
        "tables.completion_map": completion_bytes,
    }
    for mod_name, cls_name, attr, span in METHODS:
        cls = _module(mod_name).__dict__.get(cls_name)
        member = None if cls is None else cls.__dict__.get(attr)
        if member is None:
            tracer.absent.add(span)
            continue
        if isinstance(member, functools.cached_property):
            new = functools.cached_property(
                tracer.spanned(span, member.func, method_after.get(span)))
            new.__set_name__(cls, attr)
        else:
            new = tracer.spanned(span, member, method_after.get(span))
        patch(cls, attr, new)

    _install_counters(tracer, patch)

    def restore():
        for owner, attr, old in reversed(undo):
            setattr(owner, attr, old)

    return restore


def _install_counters(tracer: Tracer, patch):
    """The optimizer boundary, dense weighted inverses, Cholesky counts."""
    est = _module("estimators")
    minimize = est.__dict__.get("minimize")
    if minimize is None:
        tracer.absent.update(("estimators.nelder_mead", "estimators.polish"))
    else:
        @functools.wraps(minimize)
        def traced_minimize(*args, **kwargs):
            if tracer.op_id is None:
                return minimize(*args, **kwargs)
            method = kwargs.get("method", "")
            if tracer.inside("estimators.weighted_fit"):
                name = "estimators.weighted_minimize"
            elif method == "L-BFGS-B":
                name = "estimators.polish"
            else:
                name = "estimators.nelder_mead"
            idx = tracer.begin(name)
            try:
                res = minimize(*args, **kwargs)
                if name == "estimators.nelder_mead":
                    tracer.count("nelder_mead_nfev", res.nfev)
                elif name == "estimators.polish":
                    tracer.count("polish_nit", res.nit)
                return res
            finally:
                tracer.end(idx)

        patch(est, "minimize", traced_minimize)

    wp = est.__dict__.get("WeightedProblem")
    inverse = None if wp is None else wp.__dict__.get("shrinkage_matrix")
    if inverse is None:
        tracer.absent.add("estimators.weighted_inverse")
    else:
        @functools.wraps(inverse)
        def counted_inverse(*args, **kwargs):
            if tracer.op_id is not None:
                tracer.count("weighted_inverse_calls")
            return inverse(*args, **kwargs)

        patch(wp, "shrinkage_matrix", counted_inverse)

    cho_factor = sla.cho_factor

    @functools.wraps(cho_factor)
    def counted_cho_factor(a, *args, **kwargs):
        if tracer.op_id is not None:
            tracer.count("cap_factorizations")
            tracer.record_max("cap_order_max", a.shape[0])
        return cho_factor(a, *args, **kwargs)

    patch(sla, "cho_factor", counted_cho_factor)
