"""The in-package Nelder-Mead, component labelling and LAPACK calls against scipy.

``estimators.minimize`` and ``tables._component_labels`` replace
``scipy.optimize.minimize(method="Nelder-Mead")`` and
``scipy.sparse.csgraph.connected_components``, and ``linear_core`` calls
scipy's compiled LAPACK wrappers without ``scipy.linalg``, so that
importing the CLI runs no scipy Python module.  Each must give exactly
what scipy gives: the same x bit for bit and the same evaluation count,
the same fits, the same component count and labels, the same factors
and solutions.  scipy is imported here only.
"""

import os
import subprocess
import sys
from math import floor, sin
from pathlib import Path

import numpy as np
import pytest
from scipy.linalg.lapack import dpotrf, dpotrs
from scipy.optimize import minimize as scipy_minimize
from scipy.sparse import coo_matrix
from scipy.sparse.csgraph import connected_components

from twoway_shrink import FitEngine, build_design, estimators
from twoway_shrink.linear_core import _capacitance_factor, _cholesky, _cholesky_solve
from twoway_shrink.tables import _component_labels
from conftest import make_random_table

ROOT = Path(__file__).resolve().parent.parent


def scipy_adapter(fun, x0):
    """scipy's bounded Nelder-Mead with the engine's options."""
    return scipy_minimize(
        fun,
        x0=x0,
        method="Nelder-Mead",
        bounds=[(0.0, 1.0), (0.0, 1.0)],
        options={
            "maxfev": estimators.NM_MAX_FEVALS,
            "fatol": estimators.NM_FATOL,
            "xatol": estimators.NM_XATOL,
        },
    )


def _objective(kind, c, s):
    """A synthetic objective on [0, 1]^2 of one of six kinds."""
    if kind == 0:  # quadratic, minimum possibly outside the box
        return lambda x: (
            s[0] * (x[0] - c[0]) ** 2 + s[1] * (x[1] - c[1]) ** 2
            + 0.3 * (x[0] - c[0]) * (x[1] - c[1])
        )
    if kind == 1:  # multimodal
        return lambda x: (
            sin(7 * s[0] * x[0]) * sin(5 * s[1] * x[1] + 1.0) + (x[0] - c[0]) ** 2
        )
    if kind == 2:  # plateaus
        return lambda x: floor(4 * abs(x[0] - c[0])) + floor(3 * abs(x[1] - c[1]))
    if kind == 3:  # NaN on part of the box
        return lambda x: (
            np.nan if x[0] + x[1] > 1.2 + 0.1 * c[0]
            else (x[0] - c[0]) ** 2 + (x[1] - 0.3) ** 2
        )
    if kind == 4:  # kink, and +inf on a strip
        return lambda x: (
            abs(x[0] - c[0]) + abs(x[1] - c[1]) ** 0.5 if x[0] < 0.9 else np.inf
        )
    return lambda x: 100 * (x[1] - x[0] ** 2) ** 2 + s[0] * (1 - x[0]) ** 2


def _synthetic_cases():
    rng = np.random.default_rng(20)
    starts = [None, (0.0, None), (None, 1.0), (1.0, 0.0), (0.98, 0.999)]
    for i in range(400):
        c, s = rng.uniform(-0.3, 1.3, 2), rng.uniform(0.2, 5.0, 2)
        x0 = rng.uniform(0.0, 1.0, 2)
        for k, v in enumerate(starts[i % 5] or ()):
            if v is not None:
                x0[k] = v
        yield _objective(i % 6, c, s), x0, (2, 8, 37, 500)[i % 4]


def _same_result(fun, x0):
    ref, got = scipy_adapter(fun, x0), estimators.minimize(fun, x0=x0)
    assert isinstance(got.x, np.ndarray)
    assert got.x.tobytes() == ref.x.tobytes(), (got.x, ref.x)
    assert got.nfev == ref.nfev
    return got


class TestNelderMead:
    def test_matches_scipy_on_synthetic_objectives(self, monkeypatch):
        capped = 0
        for fun, x0, cap in _synthetic_cases():
            monkeypatch.setattr(estimators, "NM_MAX_FEVALS", cap)
            capped += _same_result(fun, x0).nfev == cap
        assert 100 < capped < 400  # both the cap and convergence are exercised

    def test_stops_at_the_cap_on_an_objective_that_never_converges(self):
        # Falls without bound towards x0 = 0.5 from above, so the simplex
        # values never come within fatol of each other.
        def pole(x):
            d = x[0] - 0.5
            return -1.0 / d if d > 0 else 1e300

        got = _same_result(pole, np.array([0.6, 0.5]))
        assert got.nfev == estimators.NM_MAX_FEVALS == 500

    def test_fits_match_fits_through_scipy(self, rng, monkeypatch):
        def fits(table, qmode, eta_obs):
            engine = FitEngine(table, qmode=qmode)
            y = table.y_observed
            out = [engine.fit(y, method) for method in ("URE", "EBMLE")]
            out.append(engine.fit(y, "ORACLE", true_eta_obs=eta_obs))
            return out

        for i in range(20):
            r, c = (int(k) for k in rng.integers(3, 9, 2))
            qmode = ("identity", "weighted", "qmatrix", "auto")[i % 4]
            n_missing = (r * c) // 5 if i % 4 == 3 else 0
            table, eta = make_random_table(rng, r, c, k_max=8, n_missing=n_missing)
            eta_obs = eta[(table.counts > 0).ravel()]
            ours = fits(table, qmode, eta_obs)
            with monkeypatch.context() as m:
                m.setattr(estimators, "minimize", scipy_adapter)
                theirs = fits(table, qmode, eta_obs)
            for a, b in zip(ours, theirs):
                assert a.hp == b.hp
                assert a.objective == b.objective
                assert a.mu_clamped == b.mu_clamped
                assert repr(a.diagnostics) == repr(b.diagnostics)
                assert a.eta_obs.tobytes() == b.eta_obs.tobytes()
                assert a.eta_complete.tobytes() == b.eta_complete.tobytes()


def scipy_labels(counts):
    r, c = counts.shape
    rows, cols = np.nonzero(counts)
    adj = coo_matrix((np.ones(rows.size), (rows, r + cols)), shape=(r + c, r + c))
    return connected_components(adj, directed=False)


class TestComponentLabels:
    def _check(self, counts):
        n_ref, labels_ref = scipy_labels(counts)
        n, labels = _component_labels(counts)
        assert n == n_ref
        np.testing.assert_array_equal(labels, labels_ref)

    def test_matches_scipy_on_random_counts(self):
        rng = np.random.default_rng(7)
        for i in range(500):
            r, c = (int(k) for k in rng.integers(1, 30, 2))
            if i % 10 == 0:
                r = 1
            elif i % 10 == 1:
                c = 1
            density = rng.uniform(0.0, 0.4)
            counts = (rng.random((r, c)) < density) * rng.integers(1, 5, (r, c))
            if i % 7 == 0:  # empty rows and columns
                counts[rng.random(r) < 0.3] = 0
                counts[:, rng.random(c) < 0.3] = 0
            self._check(counts)

    @pytest.mark.parametrize("flip", [False, True])
    def test_matches_scipy_on_a_staircase(self, flip):
        # One path through all 800 nodes, the longest a 400x400 table has.
        counts = np.zeros((400, 400), dtype=np.int64)
        i = np.arange(400)
        counts[i, i] = 1
        counts[i[:-1], i[1:]] = 2
        self._check(counts[::-1] if flip else counts)


def _random_spd(rng, n):
    x = rng.normal(size=(n, n + 2))
    return x @ x.T + 1e-3 * np.eye(n)


def _same_bits(a, b):
    a, b = np.asarray(a), np.asarray(b)
    assert a.shape == b.shape and a.dtype == b.dtype
    assert a.tobytes() == b.tobytes()


def _capacitance(design, s):
    """C = I + S G_w S, built as ``_capacitance_factor`` builds it."""
    c = s[:, None] * design.gram_weighted
    c *= s
    c.reshape(-1)[:: s.size + 1] += 1.0
    return c


class TestLapackCalls:
    """``_cholesky`` and ``_cholesky_solve`` give scipy's bits: ``dpotrf``
    and ``dpotrs``."""

    def test_cholesky_matches_dpotrf(self):
        rng = np.random.default_rng(31)
        for n in list(range(1, 61)) * 2:
            a = _random_spd(rng, n)
            _same_bits(_cholesky(a), dpotrf(a, lower=True, clean=False)[0])

    def test_capacitance_factor_matches_dpotrf(self):
        rng = np.random.default_rng(32)
        asymmetric = 0
        for i in range(60):
            r, c = (int(k) for k in rng.integers(2, 30, 2))
            table, _ = make_random_table(rng, r, c, k_max=50,
                                         n_missing=(r * c) // 4 if i % 2 else 0)
            design = build_design(table)
            la, lb = np.exp(rng.uniform(-6, 6, 2))
            s = np.concatenate([np.full(r, np.sqrt(la)), np.full(c, np.sqrt(lb))])
            cap = _capacitance(design, s)
            asymmetric += not np.array_equal(cap, cap.T)
            ref, info = dpotrf(cap, lower=True, clean=False)
            assert info == 0
            _same_bits(_capacitance_factor(design, s), ref)
        assert asymmetric > 0  # the last-bit asymmetry is exercised

    def test_cholesky_solve_matches_dpotrs(self):
        rng = np.random.default_rng(33)
        for n in range(1, 61):
            f = _cholesky(_random_spd(rng, n))
            for b in (rng.normal(size=n), rng.normal(size=(n, 1)),
                      rng.normal(size=(n, 7)), np.eye(n)):
                _same_bits(_cholesky_solve(f, b), dpotrs(f, b, lower=True)[0])

    @pytest.mark.parametrize("scipy_first", [False, True])
    def test_one_set_of_wrappers(self, scipy_first):
        imports = ["import twoway_shrink.linear_core as lc",
                   "import scipy.linalg.lapack as lapack"]
        if scipy_first:
            imports.reverse()
        code = "\n".join(imports + [
            "import scipy.linalg",
            "assert lc._potrf is lapack.dpotrf is scipy.linalg.lapack.dpotrf",
            "assert lc._potrs is lapack.dpotrs",
            "print('ok')",
        ])
        assert _run_child(code) == "ok"


def _run_child(code: str) -> str:
    """Run ``code`` in a fresh interpreter that imports the package from
    ``src``; return its stripped standard output."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(ROOT / "src")] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else [])
    )
    proc = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                          text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    return proc.stdout.strip()


def test_cli_import_and_fits_load_only_the_lapack_extension():
    code = (
        "import sys\n"
        "import numpy as np\n"
        "import twoway_shrink.cli\n"
        "from twoway_shrink import CellTable, build_design, fit_ml, fit_ure\n"
        "from twoway_shrink.risk_metrics import lambda1_q\n"
        "rng = np.random.default_rng(0)\n"
        "counts = rng.integers(1, 5, (6, 5))\n"
        "counts[0, 0] = counts[2, 3] = counts[5, 1] = 0\n"
        "means = np.where(counts > 0, rng.normal(size=(6, 5)), np.nan)\n"
        "table = CellTable(counts, means, 1.0)\n"
        "fit_ure(table)\n"
        "fit_ml(table)\n"
        "assert lambda1_q(build_design(table)) > 1.0\n"
        "print(sorted(m for m in sys.modules if m.startswith('scipy')))\n"
    )
    assert _run_child(code) == "['scipy.linalg._flapack']"


def test_cli_fit_and_diagnose_load_no_study_stack(tmp_path):
    # fit and diagnose load the fit modules alone: not the Monte-Carlo
    # studies, their process pool, or numpy.ma (which np.quantile imports).
    # The package still exports the study names, loading them on first access.
    rows = ["row,col,count,mean"] + [
        f"r{i},c{j},{1 + i * j % 4},{(i - j) * 0.37 + i * j * 0.05}"
        for i in range(5) for j in range(4) if (i + j) % 4
    ]
    (tmp_path / "missing.csv").write_text("\n".join(rows) + "\n")
    (tmp_path / "cfg.txt").write_text("r=4\nc=4\nn_reps=2\nestimators=wls,ure\n")
    code = f"""
import contextlib, io, sys
from twoway_shrink.cli import main
io_args = ["--input", {str(tmp_path / "missing.csv")!r}, "--schema", "agg",
           "--sigma2", "1"]
with contextlib.redirect_stdout(io.StringIO()):
    assert main(["fit", *io_args, "--loss", "auto"]) == 0
    assert main(["diagnose", *io_args]) == 0
    loaded = [m for m in ("twoway_shrink.simulation", "concurrent.futures",
                          "multiprocessing", "numpy.ma") if m in sys.modules]
    assert main(["simulate", "--study", "compare",
                 "--config", {str(tmp_path / "cfg.txt")!r}]) == 0
import twoway_shrink
from twoway_shrink import simulation
names = sorted(twoway_shrink._SIMULATION_EXPORTS)
assert len(names) == 12
assert all(getattr(twoway_shrink, n) is getattr(simulation, n) for n in names)
print(loaded)
"""
    assert _run_child(code) == "[]"
