"""Workloads, operations and output checks of the twoway-shrink benchmark.

Each workload is a closed loop run from one process: a cycle runs its
operations one after another (engine set-up, public ``fit_ure`` and
``fit_ml`` on each of the cycle's tables, the ``twoway-shrink fit`` CLI on
the first table, the CLI with ``--loss weighted`` on a small complete
table, and a serial ``compare_estimators`` study), and the next cycle
starts when the previous one ends.  At most one CLI child runs at a time and no thread or BLAS
setting is touched, so the program runs as a user would run it.

Inputs come from this file's own seeded generator; the program only
receives the generated tables, CSV files and scenario specs.  Every
operation's output is checked, and a wrong output counts as a failure.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import math
import os
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np
from scipy.sparse import coo_matrix
from scipy.sparse.csgraph import connected_components

import tracing

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"

TAU = 0.05
SIGMA2 = 1.0
MIN_CYCLES = 2
# Closed-form identities re-evaluated by the public API must agree to this
# relative precision; stored reference summaries to the looser ones.
REEVAL_RTOL = 1e-9
REF_RTOL = 1e-7
REF_HP_RTOL = 1e-4
END_TO_END_UNITS = {
    "setup_s": "s", "fit_ure_s": "s", "fit_ml_s": "s", "cli_fit_s": "s",
    "cli_weighted_s": "s", "study_reps_per_s": "1/s", "peak_rss_mb": "MB",
}
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS",
               "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS", "GOTO_NUM_THREADS",
               "NUMEXPR_NUM_THREADS")


# ---------------------------------------------------------------------------
# Workload definitions
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class TableLaw:
    """Law of a benchmark-generated table: counts, missing cells, effects."""

    r: int
    c: int
    counts: tuple             # ("uniform", lo, hi) | ("twopoint", lo, hi, frac) | ("constant", k)
    missing_frac: float = 0.0
    effect_sd: float = 1.0


@dataclass(frozen=True)
class StudyLaw:
    """A ``compare_estimators`` scenario; ``kind`` picks the spec family."""

    kind: str                 # "ladder" | "tall-missing" | "stress"
    r: int
    c: int
    reps: int


@dataclass(frozen=True)
class Workload:
    name: str
    table: TableLaw           # set-up, fit_ure, fit_ml and CLI fit
    weighted: TableLaw        # CLI --loss weighted (complete tables only)
    studies: tuple            # StudyLaw, run in order as one study operation
    tables: int = 1           # tables per cycle for set-up and the fits; the
                              # CLI fits the first.  More inputs per run make
                              # the median less dependent on one table.


WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            "fit-tall-missing",
            table=TableLaw(100, 8, ("twopoint", 1, 20, 0.3), missing_frac=0.3),
            weighted=TableLaw(10, 4, ("twopoint", 1, 20, 0.3)),
            studies=(StudyLaw("tall-missing", 30, 5, 10),),
            tables=2,
        ),
        Workload(
            "study-serial",
            table=TableLaw(20, 20, ("constant", 1), effect_sd=0.5),
            weighted=TableLaw(8, 8, ("constant", 1), effect_sd=0.5),
            studies=(StudyLaw("ladder", 20, 20, 5), StudyLaw("stress", 50, 6, 5)),
            tables=3,
        ),
    )
}


# ---------------------------------------------------------------------------
# Input generation (the benchmark's own, independent of the program)
# ---------------------------------------------------------------------------

def _connected(counts: np.ndarray) -> bool:
    r, c = counts.shape
    rows, cols = np.nonzero(counts)
    adj = coo_matrix((np.ones(rows.size), (rows, r + cols)), shape=(r + c, r + c))
    return connected_components(adj, directed=False)[0] == 1


def draw_counts(law: TableLaw, rng) -> np.ndarray:
    kind, *p = law.counts
    shape = (law.r, law.c)
    if kind == "uniform":
        return rng.integers(p[0], p[1] + 1, size=shape)
    if kind == "twopoint":
        return np.where(rng.random(shape) < p[2], p[1], p[0])
    if kind == "constant":
        return np.full(shape, p[0])
    raise ValueError(f"unknown count law {kind!r}")


def draw_table(law: TableLaw, rng):
    """(counts, means) with missing cells redrawn until the design is connected."""
    n_missing = int(round(law.missing_frac * law.r * law.c))
    for _ in range(1000):
        counts = draw_counts(law, rng).astype(np.int64)
        if n_missing:
            counts.ravel()[rng.choice(counts.size, n_missing, replace=False)] = 0
        if _connected(counts):
            break
    else:
        raise RuntimeError("no connected design in 1000 draws")
    alpha = rng.normal(0.0, law.effect_sd, law.r)
    beta = rng.normal(0.0, law.effect_sd, law.c)
    noise = rng.standard_normal(counts.shape) * np.sqrt(SIGMA2 / np.maximum(counts, 1))
    means = np.where(counts > 0, alpha[:, None] + beta[None, :] + noise, np.nan)
    return counts, means


def study_spec(ts, law: StudyLaw, seed: int):
    """Scenario spec built from the program's public law classes."""
    sim = ts.simulation
    common = dict(r=law.r, c=law.c, seed=seed, sigma2=SIGMA2, mu_true=0.0)
    if law.kind == "ladder":
        return sim.ScenarioSpec(count_law=sim.Constant(1),
                                effect_law_a=sim.NormalEffects(0.5),
                                effect_law_b=sim.NormalEffects(0.5),
                                name="ladder", **common)
    if law.kind == "tall-missing":
        return sim.ScenarioSpec(count_law=sim.TwoPoint(1, 20, 0.3), missing_frac=0.3,
                                name="tall-missing", **common)
    if law.kind == "stress":  # parameters of the acceptance suite's stress scenario
        return sim.ScenarioSpec(
            count_law=sim.TwoPoint(k_lo=1, k_hi=20, frac_hi=0.9, anti_effect=True),
            effect_law_a=sim.TwoGroup(low=0.0, high=5.0, frac_high=0.1),
            effect_law_b=sim.PointMass(0.0), name="ebmle-stress", **common)
    raise ValueError(f"unknown study kind {law.kind!r}")


def write_agg_csv(path: Path, counts, means):
    """Every cell row-major, empty ones as count 0; labels r<i> / c<j>.

    Listing empty cells keeps the CLI's first-appearance label order equal
    to the generator's, so the CLI fits the same table, not a permutation
    of it that would differ from the library fit in the last digits.
    """
    lines = ["row,col,count,mean"]
    for (i, j), k in np.ndenumerate(counts):
        lines.append(f"r{i},c{j},{int(k)},{float(means[i, j])!r}")
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")


@dataclass
class Inputs:
    """One cycle's main tables (CellTables), the first one's CSV, the study specs."""

    tables: list
    table_csv: Path
    specs: list


def cycle_rng(seed: int, cycle: int, stream: int, index: int = 0):
    return np.random.default_rng([seed, cycle, stream, index])


def make_inputs(ts, workload: Workload, seed: int, cycle: int, work: Path) -> Inputs:
    """The main tables and the study seeds change every cycle."""
    drawn = [draw_table(workload.table, cycle_rng(seed, cycle, 0, k))
             for k in range(workload.tables)]
    tables = [ts.tables.CellTable(counts, means, SIGMA2) for counts, means in drawn]
    table_csv = work / f"table-{cycle}.csv"
    write_agg_csv(table_csv, *drawn[0])
    spec_seeds = cycle_rng(seed, cycle, 1).integers(0, 2**31 - 1, len(workload.studies))
    specs = [study_spec(ts, law, int(s)) for law, s in zip(workload.studies, spec_seeds)]
    return Inputs(tables, table_csv, specs)


# ---------------------------------------------------------------------------
# Output checks
# ---------------------------------------------------------------------------

def _rel_close(a: float, b: float, rtol: float) -> bool:
    return math.isfinite(a) and math.isfinite(b) and abs(a - b) <= rtol * max(1.0, abs(b))


class CheckContext:
    """Per-table design and loss matrix for re-evaluation, built once."""

    def __init__(self, ts, table):
        self.ts = ts
        self.table = table
        self.design = ts.tables.build_design(table)
        self.qloss = None if table.is_complete else ts.risk_metrics.q_matrix(self.design)


def check_fit(chk: CheckContext, fit, method: str) -> list:
    ts, table = chk.ts, chk.table
    problems = []
    hp = fit.hp
    if not math.isfinite(fit.objective):
        return ["objective is not finite"]
    ctx = ts.linear_core.SigmaContext(chk.design, hp, mode="fast", sigma2=table.sigma2)
    y = table.y_observed
    if method == "URE":
        qmode = "identity" if chk.qloss is None else "qmatrix"
        ref = ts.estimators.ure_value(ctx, y, hp.mu, qmode=qmode, qloss=chk.qloss)
    else:
        ref = ts.estimators.marginal_loglik(ctx, y, hp.mu)
    if not _rel_close(fit.objective, ref, REEVAL_RTOL):
        problems.append(f"objective {fit.objective!r} != re-evaluated {ref!r}")
    lo, hi = fit.bounds
    if not lo <= hp.mu <= hi:
        problems.append(f"mu {hp.mu!r} outside bounds {fit.bounds}")
    eta = np.asarray(fit.eta_complete, dtype=float)
    if eta.shape != (table.r * table.c,) or not np.all(np.isfinite(eta)):
        problems.append("eta_complete is not a finite r*c vector")
    elif math.isfinite(hp.lambda_a) or math.isfinite(hp.lambda_b):
        observed = (table.counts > 0).ravel()
        scale = max(1.0, float(np.max(np.abs(fit.eta_obs))))
        err = float(np.max(np.abs(eta[observed] - fit.eta_obs)))
        if err > 1e-8 * scale:
            problems.append(f"eta_complete misses eta_obs by {err:.3g}")
    return problems


def report_eta(report: dict, r: int, c: int) -> np.ndarray:
    """eta_complete of a CLI report, put back in the generator's row/column order."""
    eta = np.asarray(report["eta_complete"], dtype=float)
    rows = [int(lab[1:]) for lab in report["row_labels"]]
    cols = [int(lab[1:]) for lab in report["col_labels"]]
    out = np.full((r, c), np.nan)
    out[np.ix_(rows, cols)] = eta
    return out.ravel()


def check_report(text: str, table, expected_eta, bounds) -> tuple:
    try:
        report = json.loads(text)
        eta = report_eta(report, table.r, table.c)
        mu, objective = report["hp"]["mu"], report["objective"]
    except (ValueError, KeyError, TypeError, IndexError) as exc:
        return None, [f"report does not parse: {exc}"]
    problems = []
    if objective is None or not math.isfinite(objective):
        problems.append("report objective is not finite")
    if not bounds[0] <= mu <= bounds[1]:
        problems.append(f"report mu {mu!r} outside bounds {bounds}")
    if not np.all(np.isfinite(eta)):
        problems.append("report eta_complete is not finite")
    elif not np.allclose(eta, expected_eta, rtol=REEVAL_RTOL, atol=1e-12):
        err = float(np.max(np.abs(eta - expected_eta)))
        problems.append(f"report eta_complete differs from the library fit by {err:.3g}")
    return report, problems


def check_study(rt, n_reps: int) -> list:
    """One problem per failed replicate: dropped, non-finite or oracle-beaten losses."""
    problems = ["replicate dropped (RiskTable.n_failed)"] * (n_reps - rt.n_reps)
    losses = rt.losses
    for i in range(rt.n_reps):
        row = {est: float(v[i]) for est, v in losses.items()}
        if not all(map(math.isfinite, row.values())):
            problems.append(f"replicate {i}: non-finite loss {row}")
            continue
        beaten = [est for est in ("ure", "ebmle")
                  if row["oracle"] > row[est] + 1e-8 * max(1.0, abs(row[est]))]
        if beaten:
            problems.append(f"replicate {i}: oracle loss {row['oracle']!r} exceeds "
                            + ", ".join(f"{e} loss {row[e]!r}" for e in beaten))
    return problems


def summarize_fit(hp, objective, eta) -> dict:
    eta = np.asarray(eta, dtype=float)
    return {"mu": hp[0], "lt_a": hp[1], "lt_b": hp[2], "objective": objective,
            "eta_sum": float(eta.sum()), "eta_sumsq": float(eta @ eta)}


def compare_summary(got: dict, ref: dict) -> list:
    problems = []
    for key, want in ref.items():
        rtol = REF_HP_RTOL if key in ("mu", "lt_a", "lt_b") else REF_RTOL
        value = got.get(key)
        if isinstance(want, dict):
            problems += compare_summary(value or {}, want)
        elif value is None or not _rel_close(float(value), float(want), rtol):
            problems.append(f"{key} = {value!r}, reference {want!r}")
    return problems


def digest(*parts) -> str:
    h = hashlib.sha256()
    for p in parts:
        h.update(p if isinstance(p, bytes) else repr(p).encode())
    return h.hexdigest()


# ---------------------------------------------------------------------------
# Running
# ---------------------------------------------------------------------------

@dataclass
class Run:
    """Samples, failures, output digests and summaries of one benchmark run."""

    samples: dict = field(default_factory=lambda: {
        k: [] for k in END_TO_END_UNITS if k != "peak_rss_mb"})
    attempted: int = 0
    failed: int = 0
    problems: list = field(default_factory=list)
    digests: dict = field(default_factory=dict)
    summaries: dict = field(default_factory=dict)
    cycle_wall: list = field(default_factory=list)

    def fail(self, where: str, problems, count: int = 1):
        self.failed += count
        self.problems.extend(f"{where}: {p}" for p in problems)


class Runner:
    """Executes cycles of one workload; CLI in a child process or in-process."""

    def __init__(self, ts, workload: Workload, seed: int, work: Path,
                 in_process_cli: bool, references: dict):
        self.ts = ts
        self.workload = workload
        self.seed = seed
        self.work = work
        self.in_process_cli = in_process_cli
        self.references = references
        self.tracer = None
        # The weighted table is drawn once per run, so its library reference
        # fit (seconds of dense algebra) is computed once.
        counts, means = draw_table(workload.weighted, cycle_rng(seed, 0, 2))
        self.weighted = ts.tables.CellTable(counts, means, SIGMA2)
        self.weighted_csv = work / "weighted.csv"
        write_agg_csv(self.weighted_csv, counts, means)
        hp, eta, _ = ts.estimators.weighted_transform(self.weighted).fit_ure(tau=TAU)
        self.weighted_eta = np.asarray(eta, dtype=float)
        self.weighted_bounds = ts.tables.quantile_bounds(self.weighted, TAU)

    # -- operations ---------------------------------------------------------

    def stop_tracing(self):
        """End the traced part of an operation; its output checks run untraced."""
        if self.tracer is not None:
            self.tracer.op_id = None

    @contextlib.contextmanager
    def op(self, run: Run, key: str, cycle: int):
        run.attempted += 1
        if self.tracer is not None:
            self.tracer.op_id = f"{cycle}:{key}"
        try:
            yield
        except Exception as exc:  # a failed operation is counted, not fatal
            run.fail(f"cycle {cycle} {key}", [f"{type(exc).__name__}: {exc}"])
        finally:
            self.stop_tracing()

    def run_cli(self, argv, out: Path) -> tuple:
        """(seconds, exit code, report text)."""
        if self.in_process_cli:
            sink = io.StringIO()
            t0 = time.perf_counter()
            with contextlib.redirect_stdout(sink), contextlib.redirect_stderr(sink):
                code = self.ts.cli.main(argv)
            elapsed = time.perf_counter() - t0
        else:
            env = dict(os.environ)
            env["PYTHONPATH"] = os.pathsep.join(
                [str(SRC)] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else []))
            t0 = time.perf_counter()
            proc = subprocess.run([sys.executable, "-m", "twoway_shrink.cli", *argv],
                                  env=env, cwd=self.work, stdout=subprocess.DEVNULL,
                                  stderr=subprocess.PIPE, timeout=170)
            elapsed = time.perf_counter() - t0
            code = proc.returncode
        text = out.read_text(encoding="utf-8") if code == 0 and out.exists() else ""
        return elapsed, code, text

    def cli_argv(self, csv: Path, out: Path, sigma2: float, loss: str):
        return ["fit", "--input", str(csv), "--schema", "agg", "--sigma2", repr(sigma2),
                "--method", "ure", "--loss", loss, "--out", str(out)]

    def record_digest(self, run: Run, cycle: int, key: str, value: str):
        """Outputs for the same inputs must be bit-identical (cycle 0 of a
        traced run runs untraced, traced and untraced again)."""
        seen = run.digests.setdefault(cycle, {}).setdefault(key, value)
        if seen != value:
            run.fail(f"cycle {cycle} {key}", ["output differs from an earlier run of the same inputs"])

    def expect(self, run: Run, cycle: int, key: str, summary: dict):
        run.summaries.setdefault(str(cycle), {})[key] = summary
        ref = self.references.get(str(cycle), {}).get(key)
        if ref is not None:
            problems = compare_summary(summary, ref)
            if problems:
                run.fail(f"cycle {cycle} {key} vs reference", problems)

    def cycle(self, run: Run, cycle: int):
        ts, E = self.ts, self.ts.estimators
        inp = make_inputs(ts, self.workload, self.seed, cycle, self.work)
        t_cycle = time.perf_counter()

        for table in inp.tables:
            with self.op(run, "setup", cycle):
                t0 = time.perf_counter()
                engine = E.FitEngine(table, tau=TAU)
                run.samples["setup_s"].append(time.perf_counter() - t0)
                del engine

        ure = None  # fit_ure of the first table, the CLI's reference
        for k, table in enumerate(inp.tables):
            chk = None
            for key, method in (("fit_ure", "URE"), ("fit_ml", "EBMLE")):
                with self.op(run, key, cycle):
                    t0 = time.perf_counter()
                    fit = getattr(E, key)(table, tau=TAU)
                    elapsed = time.perf_counter() - t0
                    self.stop_tracing()
                    hp = (fit.hp.mu, fit.hp.lambda_tilde_a, fit.hp.lambda_tilde_b)
                    self.record_digest(run, cycle, f"{key}-{k}",
                                       digest(hp, fit.objective, fit.eta_complete.tobytes()))
                    chk = chk or CheckContext(ts, table)
                    problems = check_fit(chk, fit, method)
                    if problems:
                        run.fail(f"cycle {cycle} {key} table {k}", problems)
                    else:
                        run.samples[f"{key}_s"].append(elapsed)
                        if k == 0 and key == "fit_ure":
                            ure = fit
                    self.expect(run, cycle, f"{key}-{k}",
                                summarize_fit(hp, fit.objective, fit.eta_complete))
        table = inp.tables[0]

        cli_cases = (
            ("cli_fit", inp.table_csv, table, "auto",
             None if ure is None else (ure.eta_complete, ure.bounds)),
            ("cli_weighted", self.weighted_csv, self.weighted, "weighted",
             (self.weighted_eta, self.weighted_bounds)),
        )
        for key, csv, tab, loss, expected in cli_cases:
            with self.op(run, key, cycle):
                out = self.work / f"{key}-{cycle}.json"
                out.unlink(missing_ok=True)
                elapsed, code, text = self.run_cli(
                    self.cli_argv(csv, out, tab.sigma2, loss), out)
                self.stop_tracing()
                if code != 0:
                    raise RuntimeError(f"CLI exit code {code}")
                if expected is None:
                    raise RuntimeError("no library fit to compare the CLI report with")
                self.record_digest(run, cycle, key, digest(text))
                report, problems = check_report(text, tab, *expected)
                if problems:
                    run.fail(f"cycle {cycle} {key}", problems)
                else:
                    run.samples[f"{key}_s"].append(elapsed)
                    hp = report["hp"]
                    self.expect(run, cycle, key, summarize_fit(
                        (hp["mu"], hp["lambda_tilde_a"], hp["lambda_tilde_b"]),
                        report["objective"], report_eta(report, tab.r, tab.c)))

        total_reps, wall, bad, losses = 0, 0.0, 0, {}
        for spec, law in zip(inp.specs, self.workload.studies):
            run.attempted += law.reps
            if self.tracer is not None:
                self.tracer.op_id = f"{cycle}:study"
            try:
                t0 = time.perf_counter()
                rt = ts.simulation.compare_estimators(spec, law.reps, n_jobs=1, tau=TAU)
                wall += time.perf_counter() - t0
            except Exception as exc:  # compare_estimators aborts on >1% failures
                run.fail(f"cycle {cycle} study {law.kind}",
                         [f"{type(exc).__name__}: {exc}"], count=law.reps)
                bad += law.reps
                continue
            finally:
                self.stop_tracing()
            problems = check_study(rt, law.reps)
            if problems:
                run.fail(f"cycle {cycle} study {law.kind}", problems, count=len(problems))
                bad += len(problems)
            total_reps += law.reps
            losses[law.kind] = {k: float(np.mean(v)) for k, v in rt.losses.items()}
            self.record_digest(run, cycle, f"study-{law.kind}", digest(
                *(rt.losses[k].tobytes() for k in sorted(rt.losses))))
        if not bad and wall > 0:
            run.samples["study_reps_per_s"].append(total_reps / wall)
            self.expect(run, cycle, "study", {"mean_loss": losses})
        run.cycle_wall.append(time.perf_counter() - t_cycle)



# ---------------------------------------------------------------------------
# Metrics
# ---------------------------------------------------------------------------

def peak_rss_mb() -> float:
    self_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    child_kb = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return max(self_kb, child_kb) / 1024.0


def cpu_seconds() -> float:
    s = resource.getrusage(resource.RUSAGE_SELF)
    c = resource.getrusage(resource.RUSAGE_CHILDREN)
    return s.ru_utime + s.ru_stime + c.ru_utime + c.ru_stime


def describe(values) -> dict:
    return {"median": statistics.median(values), "min": min(values),
            "max": max(values), "n": len(values)}


# (metric, unit, kind, source): kind "incl"/"self"/"calls" reads span totals,
# "counter"/"max" read tracer counters; sources are span or counter names.
LAYER_METRICS = (
    ("tables.build_design_s", "s", "incl", ("tables.build_design",)),
    ("tables.build_design_calls", "count", "calls", ("tables.build_design",)),
    ("tables.load_table_s", "s", "incl", ("tables.load_table",)),
    ("tables.completion_map_s", "s", "incl", ("tables.completion_map",)),
    ("tables.completion_map_bytes", "bytes", "counter", ("completion_map_bytes",)),
    ("risk_metrics.q_matrix_s", "s", "incl", ("risk_metrics.q_matrix",)),
    ("risk_metrics.q_matrix_calls", "count", "calls", ("risk_metrics.q_matrix",)),
    ("risk_metrics.q_bytes", "bytes", "counter", ("q_bytes",)),
    ("risk_metrics.lambda1_q_s", "s", "incl", ("risk_metrics.lambda1_q",)),
    ("risk_metrics.a2_statistic_s", "s", "incl", ("risk_metrics.a2_statistic",)),
    ("linear_core.sigma_solve_s", "s", "incl", ("linear_core.sigma_solve",)),
    ("linear_core.sigma_solve_calls", "count", "calls", ("linear_core.sigma_solve",)),
    ("linear_core.sigma_solve_cols", "count", "counter", ("sigma_solve_cols",)),
    ("linear_core.shrink_apply_s", "s", "incl", ("linear_core.shrink_apply",)),
    ("linear_core.shrink_apply_calls", "count", "calls", ("linear_core.shrink_apply",)),
    ("estimators.engine_init_self_s", "s", "self", ("estimators.engine_init",)),
    ("estimators.cap_factorizations", "count", "counter", ("cap_factorizations",)),
    ("estimators.cap_order_max", "count", "max", ("cap_order_max",)),
    ("estimators.grid_cache_bytes", "bytes", "max", ("grid_cache_bytes",)),
    ("estimators.fit_self_s", "s", "self", ("estimators.fit",)),
    ("estimators.nelder_mead_s", "s", "incl", ("estimators.nelder_mead",)),
    ("estimators.nelder_mead_nfev", "count", "counter", ("nelder_mead_nfev",)),
    ("estimators.polish_s", "s", "incl", ("estimators.polish",)),
    ("estimators.polish_nit", "count", "counter", ("polish_nit",)),
    ("estimators.final_eval_s", "s", "incl", tracing.FINAL_EVAL),
    ("estimators.weighted_fit_s", "s", "incl", ("estimators.weighted_fit",)),
    ("estimators.weighted_inverse_calls", "count", "counter", ("weighted_inverse_calls",)),
    ("estimators.wls_fit_s", "s", "incl", ("estimators.wls_fit",)),
    ("simulation.gen_scenario_s", "s", "incl", ("simulation.gen_scenario",)),
    ("simulation.gen_scenario_calls", "count", "calls", ("simulation.gen_scenario",)),
    ("cli.main_s", "s", "incl", ("cli.main",)),
    ("cli.write_report_s", "s", "incl", ("cli.write_report",)),
)

# Per-layer metrics measured by the harness itself rather than read from spans.
EXTRA_LAYER_UNITS = {
    "simulation.cpu_per_wall": "ratio", "cli.import_s": "s", "trace.spans": "count",
    "trace.untraced_cycle_s": "s", "trace.overhead_s": "s", "trace.overhead_frac": "ratio",
}

# Counter names whose value depends on a wrapped span existing.
_COUNTER_SOURCE = {
    "completion_map_bytes": "tables.completion_map",
    "q_bytes": "risk_metrics.q_matrix",
    "sigma_solve_cols": "linear_core.sigma_solve",
    "grid_cache_bytes": "estimators.engine_init",
    "nelder_mead_nfev": "estimators.nelder_mead",
    "polish_nit": "estimators.polish",
    "weighted_inverse_calls": "estimators.weighted_inverse",
}


def layer_metrics(tracer: tracing.Tracer, n_cycles: int) -> tuple:
    """Per-layer values per traced cycle, and the names reported absent."""
    totals = tracer.totals()
    values, absent = {}, []
    for name, unit, kind, sources in LAYER_METRICS:
        if all(_COUNTER_SOURCE.get(s, s) in tracer.absent for s in sources):
            absent.append(name)
            continue
        if kind == "max":
            value = tracer.maxima.get(sources[0], 0.0)
        elif kind == "counter":
            value = tracer.counters.get(sources[0], 0.0) / n_cycles
        else:
            col = {"calls": 0, "incl": 1, "self": 2}[kind]
            value = sum(totals[s][col] for s in sources if s in totals) / n_cycles
        values[name] = (value, unit)
    return values, absent


# ---------------------------------------------------------------------------
# Environment and entry
# ---------------------------------------------------------------------------

def environment() -> dict:
    import platform

    import scipy

    try:
        top = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "--show-toplevel", "HEAD"],
                             capture_output=True, text=True, timeout=10)
        lines = top.stdout.split()
        git_sha = lines[1] if top.returncode == 0 and Path(lines[0]) == ROOT else None
    except (OSError, subprocess.SubprocessError, IndexError):
        git_sha = None
    h = hashlib.sha256()
    for path in sorted((SRC / "twoway_shrink").rglob("*.py")):
        h.update(path.relative_to(SRC).as_posix().encode() + b"\0" + path.read_bytes())
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = {k: blas.get(k) for k in ("name", "version", "openblas configuration")}
    except (TypeError, KeyError, ValueError):
        blas = None
    return {
        "git_sha": git_sha,
        "src_sha256": h.hexdigest(),
        "nproc": os.cpu_count(),
        "affinity_cpus": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas": blas,
        "thread_env": {k: os.environ.get(k) for k in THREAD_VARS},
    }


def warm_up(ts):
    """Load lazily imported modules and start BLAS threads before timing."""
    counts, means = draw_table(TableLaw(6, 5, ("uniform", 1, 3)), np.random.default_rng(0))
    table = ts.tables.CellTable(counts, means, SIGMA2)
    ts.estimators.fit_ure(table, tau=TAU)
    ts.estimators.fit_ml(table, tau=TAU)


def import_seconds() -> float:
    """Fresh interpreter until ``import twoway_shrink.cli`` returns."""
    env = dict(os.environ, PYTHONPATH=str(SRC))
    t0 = time.perf_counter()
    subprocess.run([sys.executable, "-c", "import twoway_shrink.cli"], env=env,
                   check=True, timeout=120)
    return time.perf_counter() - t0


def run_workload(ts, workload: Workload, seed: int, seconds: float, trace: bool,
                 out_dir: Path, references: dict | None = None) -> dict:
    """Run one workload; returns the full result record (see run.py)."""
    out_dir.mkdir(parents=True, exist_ok=True)
    work = Path(tempfile.mkdtemp(prefix="work-", dir=out_dir))
    try:
        return _run(ts, workload, seed, seconds, trace, work, references or {})
    finally:
        shutil.rmtree(work, ignore_errors=True)


def _run(ts, workload, seed, seconds, trace, work, references) -> dict:
    warm_up(ts)
    runner = Runner(ts, workload, seed, work, in_process_cli=trace, references=references)
    run = Run()
    t_start = time.perf_counter()
    cpu_start = cpu_seconds()
    record = {"workload": workload.name, "seed": seed, "trace": int(trace)}
    if not trace:
        cycle = 0
        while True:
            runner.cycle(run, cycle)
            cycle += 1
            elapsed = time.perf_counter() - t_start
            if cycle >= MIN_CYCLES and elapsed + 0.5 * run.cycle_wall[-1] > seconds:
                break
        wall = time.perf_counter() - t_start
        metrics = {}
        for name, values in run.samples.items():
            if values:
                metrics[name] = describe(values)
        metrics["peak_rss_mb"] = {"median": peak_rss_mb(), "n": 1}
        record["cpu_per_wall"] = (cpu_seconds() - cpu_start) / wall
    else:
        # Cycle 0 untraced (this also warms the process up), cycle 0 traced,
        # cycle 0 untraced again: all three must give bit-identical outputs,
        # and the traced minus the second untraced wall time is the tracing
        # overhead.  Further traced cycles run while time remains.
        runner.cycle(run, 0)
        tracer = tracing.Tracer()
        cycle, import_s, cpu_traced, wall_traced = 0, [], 0.0, 0.0
        while True:
            restore = tracing.install(tracer)
            runner.tracer = tracer
            try:
                c0, w0 = cpu_seconds(), time.perf_counter()
                runner.cycle(run, cycle)
                cpu_traced += cpu_seconds() - c0
                wall_traced += time.perf_counter() - w0
            finally:
                runner.tracer = None
                restore()
            import_s.append(import_seconds())
            cycle += 1
            if cycle == 1:
                runner.cycle(run, 0)
            elapsed = time.perf_counter() - t_start
            if (cycle + 2 >= MIN_CYCLES
                    and elapsed + 0.5 * run.cycle_wall[-1] > seconds):
                break
        values, absent = layer_metrics(tracer, cycle)
        untraced_s = run.cycle_wall[2]
        overhead = run.cycle_wall[1] - untraced_s
        extra = {
            "simulation.cpu_per_wall": cpu_traced / wall_traced,
            "cli.import_s": statistics.median(import_s),
            "trace.spans": len(tracer.spans) / cycle,
            "trace.untraced_cycle_s": untraced_s,
            "trace.overhead_s": overhead,
            "trace.overhead_frac": overhead / untraced_s,
        }
        values.update({k: (v, EXTRA_LAYER_UNITS[k]) for k, v in extra.items()})
        metrics = values
        record["absent"] = absent
        record["spans"] = list(tracer.records())
        record["counters"] = dict(tracer.counters)
    record.update(
        attempted=run.attempted,
        failed=run.failed,
        problems=run.problems,
        metrics=metrics,
        cycles=len(run.cycle_wall),
        cycle_wall_s=run.cycle_wall,
        wall_s=time.perf_counter() - t_start,
        summaries=run.summaries,
    )
    return record
