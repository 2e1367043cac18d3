"""Estimating the means of cells that were never observed.

With empty cells, the additive structure still identifies every cell mean
as long as the row-column incidence graph is connected.  The estimator is
fit on the observed cells under the completed quadratic loss (via the
matrix Q) and then extended to the full grid.
"""

import numpy as np

from twoway_shrink import (
    CellTable,
    a2_statistic,
    build_design,
    complete_means,
    fit_ure,
    imbalance_ratio,
    is_connected,
    lambda1_q,
    wls_fit,
)

rng = np.random.default_rng(7)
r, c = 8, 6
alpha = rng.normal(0, 0.8, r)
beta = rng.normal(0, 0.5, c)
truth = 5.0 + alpha[:, None] + beta[None, :]

counts = rng.integers(1, 7, size=(r, c))
for ij in [(0, 0), (1, 3), (2, 5), (4, 2), (5, 5), (6, 1), (7, 4)]:
    counts[ij] = 0

y = np.where(counts > 0, truth + rng.normal(0, 1, (r, c)) / np.sqrt(np.maximum(counts, 1)), np.nan)
table = CellTable(counts, y, sigma2=1.0)

print(f"observed {table.n_observed} of {r * c} cells; connected: {is_connected(table)}")
design = build_design(table)
print("design diagnostics:")
print(f"  imbalance ratio     nu = {imbalance_ratio(table):.2f}")
lambda1 = lambda1_q(design)
print(f"  loss-matrix top eig    = {lambda1:.4f}  (1 exactly when complete)")
print(f"  regularity statistic   = {a2_statistic(table, lambda1=lambda1):.2f}")

fit = fit_ure(table)
print(f"\nURE fit: lambda = ({fit.hp.lambda_a:.3f}, {fit.hp.lambda_b:.3f}), "
      f"objective = {fit.objective:.5f}  [{fit.qmode} loss]")

grid = fit.eta_complete.reshape(r, c)
wls_grid = complete_means(design, wls_fit(design, table.y_observed)).reshape(r, c)
empty = counts == 0
print("\nempty-cell estimates vs truth (URE | WLS | truth):")
for i, j in zip(*np.nonzero(empty)):
    print(f"  cell ({i},{j}):  {grid[i, j]:7.3f} | {wls_grid[i, j]:7.3f} | {truth[i, j]:7.3f}")

rmse_ure = np.sqrt(np.mean((grid[empty] - truth[empty]) ** 2))
rmse_wls = np.sqrt(np.mean((wls_grid[empty] - truth[empty]) ** 2))
print(f"\nrmse on never-observed cells: URE {rmse_ure:.4f} vs WLS {rmse_wls:.4f}")
