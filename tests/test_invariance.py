"""Symmetries of the model as gates with no reference value.

Permuting the rows and columns of a table permutes the observed cells and
leaves every criterion unchanged.  Transposing it swaps the two factors,
so the criteria at (lambda_tilde_a, lambda_tilde_b) on the table equal
those at (lambda_tilde_b, lambda_tilde_a) on its transpose.  Both follow
from eta_hat = y - M Sigma^{-1} (y - mu 1) and the criteria as written
(metamorphic testing: Chen et al., ACM Computing Surveys 51 (2018),
article 4).  Objectives are compared relative to max(1, |objective|).
"""

import numpy as np
import pytest

from twoway_shrink import CellTable, FitEngine
from conftest import make_random_table

RTOL = 1e-12
METHODS = ("URE", "EBMLE", "ORACLE")


def _designs():
    """10 random tables with their true means, r < c, r > c and r = c;
    every other one has a fifth of its cells missing."""
    rng = np.random.default_rng(2024)
    out = []
    for i in range(10):
        r, c = (int(k) for k in rng.integers(3, 12, 2))
        n_missing = (r * c) // 5 if i % 2 else 0
        table, eta = make_random_table(rng, r, c, k_max=10, n_missing=n_missing)
        rows, cols = rng.permutation(r), rng.permutation(c)
        out.append((table, eta.reshape(r, c), rows, cols))
    return out


DESIGNS = _designs()


def _objective(table, eta, lt, method):
    eta_obs = eta[table.counts > 0] if method == "ORACLE" else None
    return FitEngine(table).objective_at(lt, table.y_observed, method, eta_obs)[0]


def _relabelled(table, eta, rows, cols):
    relabel = CellTable(table.counts[rows][:, cols], table.means[rows][:, cols],
                        table.sigma2)
    return relabel, eta[rows][:, cols]


def _transposed(table, eta):
    return CellTable(table.counts.T, table.means.T, table.sigma2), eta.T


def _gaps(lt, method, transform):
    """Relative gap of the objective under ``transform`` on every design."""
    gaps = []
    for table, eta, rows, cols in DESIGNS:
        want = _objective(table, eta, lt, method)
        if transform == "permute":
            got = _objective(*_relabelled(table, eta, rows, cols), lt, method)
        else:
            got = _objective(*_transposed(table, eta), lt[::-1], method)
        gaps.append(abs(got - want) / max(1.0, abs(want)))
    return gaps


@pytest.mark.parametrize("transform", ["permute", "transpose"])
@pytest.mark.parametrize("method", METHODS)
@pytest.mark.parametrize(
    "lt", [(0.3, 0.8), (0.7, 0.25), (0.5, 0.5), (1e-6, 0.9), (0.0, 1.0), (1.0, 1.0)]
)
def test_objective_is_invariant(lt, method, transform):
    assert max(_gaps(lt, method, transform)) <= RTOL


@pytest.mark.xfail(
    strict=True,
    reason="the single-point scorer's explicit inverse is inexact at the WLS "
    "limit; ROADMAP items 3 (stencil refinement, no point scorer) and 4 "
    "(exact lambda = inf) mend it",
)
@pytest.mark.parametrize("transform", ["permute", "transpose"])
@pytest.mark.parametrize("method", METHODS)
def test_objective_is_invariant_at_the_wls_limit(method, transform):
    assert max(_gaps((1e-6, 1e-6), method, transform)) <= RTOL
