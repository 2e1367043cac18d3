"""sha256 digests of every fit, study loss and CLI output on the benchmark's inputs.

    python3 tools/fit_digest.py --seeds 0 --cycles 12
    python3 tools/fit_digest.py --workloads study-serial --seeds 3,7,11 --cycles 5

A change that should leave every fitted value as it was, bit for bit,
prints the same digests before and after it.  The program is imported
from ``src/`` of the checkout this file sits in, as ``bench/run.py``
imports it.  The inputs are drawn by the benchmark's own generator,
``bench/harness.make_inputs``, into a temporary directory, so nothing
under ``bench/`` is written.  For each workload, seed and cycle it
digests:

* picks: ``fit_ure`` and ``fit_ml`` of each of the cycle's tables -- hp,
  objective, ``mu_clamped`` and diagnostics, all that the search decides;
* completions: the same fits' ``eta_complete``, apart, so that a change
  to the completion alone leaves the picks' digest as it was;
* studies: every estimator's losses in each of the cycle's
  ``compare_estimators`` studies;
* cli: in-process ``fit`` (ure, ml and wls under ``--loss`` auto, ss,
  weighted and q, where valid) and ``diagnose`` on the cycle's first table
  and on the seed's weighted table -- stdout, stderr, exit code and report
  bytes.  On a complete table only ``--loss q`` builds ``Q`` through the
  completion map.

Floats are digested by their hex form, so only a changed value, not a
changed type, changes a digest.  It prints one sha256 per workload and
part, then one over all of them.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import sys
import tempfile
from pathlib import Path

import numpy as np

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "bench"))
sys.dont_write_bytecode = True  # leave bench/ as it is

import harness  # noqa: E402
import run  # noqa: E402

PARTS = ("picks", "completions", "studies", "cli")
CLI_FITS = [(method, loss) for method in ("ure", "ml", "wls")
            for loss in ("auto", "ss", "weighted", "q")]


def canon(x):
    """``x`` as nested tuples of str and bytes: floats by hex, arrays by bytes."""
    if isinstance(x, dict):
        return tuple((str(k), canon(v)) for k, v in x.items())
    if isinstance(x, (list, tuple)):
        return tuple(canon(v) for v in x)
    if isinstance(x, np.ndarray):
        return (str(x.dtype), x.shape, x.tobytes())
    if isinstance(x, (bool, np.bool_)):
        return str(bool(x))
    if isinstance(x, (int, np.integer)):
        return str(int(x))
    if isinstance(x, (float, np.floating)):
        return float(x).hex()
    return repr(x)


def pick_record(fit) -> tuple:
    hp = fit.hp
    return canon((fit.method, (hp.mu, hp.lambda_a, hp.lambda_b), fit.objective,
                  fit.mu_clamped, fit.diagnostics))


def cli_record(ts, argv, work: Path) -> tuple:
    """stdout, stderr, exit code and report bytes of one in-process CLI run."""
    out = work / "report.json"
    out.unlink(missing_ok=True)
    stdout, stderr = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
        code = ts.cli.main(argv + (["--out", str(out)] if argv[0] == "fit" else []))
    report = out.read_bytes() if out.exists() else b""
    # Paths name the temporary directory, which differs between runs.
    texts = (s.getvalue().replace(str(work), "<work>") for s in (stdout, stderr))
    return canon((argv[0], *texts, code, report))


def cli_records(ts, csv: Path, table, work: Path):
    io_args = ["--input", str(csv), "--schema", "agg", "--sigma2", repr(table.sigma2)]
    for method, loss in CLI_FITS:
        if loss == "weighted" and (method != "ure" or not table.is_complete):
            continue
        argv = ["fit", *io_args, "--method", method, "--loss", loss]
        yield cli_record(ts, argv, work)
    yield cli_record(ts, ["diagnose", *io_args], work)


def digest_workload(ts, workload, seeds, cycles, work: Path) -> dict:
    hashes = {part: hashlib.sha256() for part in PARTS}

    def add(part, record):
        hashes[part].update(repr(record).encode())

    for seed in seeds:
        weighted = harness.draw_table(workload.weighted, harness.cycle_rng(seed, 0, 2))
        weighted_csv = work / "weighted.csv"
        harness.write_agg_csv(weighted_csv, *weighted)
        for record in cli_records(ts, weighted_csv,
                                  ts.tables.CellTable(*weighted, harness.SIGMA2), work):
            add("cli", record)
        for cycle in range(cycles):
            inp = harness.make_inputs(ts, workload, seed, cycle, work)
            for table in inp.tables:
                for fit in (ts.estimators.fit_ure(table, tau=harness.TAU),
                            ts.estimators.fit_ml(table, tau=harness.TAU)):
                    add("picks", pick_record(fit))
                    add("completions", canon((fit.method, fit.eta_complete)))
            for spec, law in zip(inp.specs, workload.studies):
                rt = ts.simulation.compare_estimators(spec, law.reps, n_jobs=1,
                                                      tau=harness.TAU)
                add("studies", canon((law.kind, rt.n_failed, rt.losses)))
            for record in cli_records(ts, inp.table_csv, inp.tables[0], work):
                add("cli", record)
    return {part: h.hexdigest() for part, h in hashes.items()}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workloads", default=",".join(harness.WORKLOADS),
                        help="comma-separated workload names (default: all)")
    parser.add_argument("--seeds", default="0", help="comma-separated seeds")
    parser.add_argument("--cycles", type=int, default=12,
                        help="cycles 0 .. CYCLES-1 of each seed")
    args = parser.parse_args(argv)
    names = args.workloads.split(",")
    unknown = sorted(set(names) - set(harness.WORKLOADS))
    if unknown:
        parser.error(f"unknown workloads {unknown}; choose from {sorted(harness.WORKLOADS)}")
    seeds = [int(s) for s in args.seeds.split(",")]
    ts = run.load_program()
    total = hashlib.sha256()
    with tempfile.TemporaryDirectory(prefix="fit-digest-") as tmp:
        for name in names:
            digests = digest_workload(ts, harness.WORKLOADS[name], seeds, args.cycles,
                                      Path(tmp))
            for part, value in digests.items():
                print(f"{name} {part} {value}")
                total.update(value.encode())
    print(f"total {total.hexdigest()}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
