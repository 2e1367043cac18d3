"""Run one twoway-shrink benchmark workload and print its metrics.

    python3 bench/run.py --workload fit-tall-missing --seed 0 --seconds 56 --trace 0

With ``--trace 0`` the end-to-end metrics are measured with tracing off;
with ``--trace 1`` the program is traced and the per-layer metrics are
reported instead.  Human-readable lines (each metric with its unit and
sample count, the environment, any failures) come first; the last line of
standard output is one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``.  The full record, including
samples, per-operation output summaries and, when traced, every span, is
written to ``bench/out/``.

The program is imported from ``src/`` of the checkout this file sits in;
without it the run exits with code 2 and prints no result.
"""

from __future__ import annotations

import argparse
import importlib
import json
import sys
from pathlib import Path
from types import SimpleNamespace

BENCH_DIR = Path(__file__).resolve().parent
SRC = BENCH_DIR.parent / "src"
MODULES = ("tables", "linear_core", "risk_metrics", "estimators", "simulation", "cli")


def load_program() -> SimpleNamespace:
    """The twoway_shrink modules from this checkout's ``src/``."""
    if not (SRC / "twoway_shrink" / "__init__.py").is_file():
        raise ImportError(f"no twoway_shrink package under {SRC}")
    sys.path.insert(0, str(SRC))
    modules = {m: importlib.import_module(f"twoway_shrink.{m}") for m in MODULES}
    if Path(modules["tables"].__file__).resolve().parent != SRC / "twoway_shrink":
        raise ImportError("twoway_shrink was imported from outside this checkout")
    return SimpleNamespace(**modules)


def print_human(record: dict, env: dict):
    print(f"workload {record['workload']}  seed {record['seed']}  "
          f"trace {record['trace']}  cycles {record['cycles']}  wall {record['wall_s']:.2f} s")
    failed_frac = record["failed"] / record["attempted"]
    print(f"  failed_frac {failed_frac:.6g} ratio  "
          f"({record['failed']} of {record['attempted']} operations)")
    if record["trace"]:
        for name, (value, unit) in sorted(record["metrics"].items()):
            print(f"  {name:38s} {value:14.6g} {unit}")
        if record["absent"]:
            print(f"  absent: {', '.join(record['absent'])}")
    else:
        units = record["units"]
        for name, d in record["metrics"].items():
            extra = (f"  min {d['min']:.6g}  max {d['max']:.6g}" if "min" in d else "")
            print(f"  {name:18s} median {d['median']:12.6g} {units[name]:4s} n={d['n']}{extra}")
        print(f"  cpu_per_wall {record['cpu_per_wall']:.3f} ratio")
    for problem in record["problems"]:
        print(f"  FAILED {problem}")
    print(json.dumps({"environment": env}, sort_keys=True))


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=56.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    try:
        ts = load_program()
    except ImportError as exc:
        print(f"error: cannot load the program: {exc}", file=sys.stderr)
        return 2

    import harness

    if args.workload not in harness.WORKLOADS:
        print(f"error: unknown workload {args.workload!r}; "
              f"choose from {sorted(harness.WORKLOADS)}", file=sys.stderr)
        return 2
    references = json.loads((BENCH_DIR / "references.json").read_text())
    refs = references.get(args.workload, {}).get(str(args.seed), {})
    env = harness.environment()
    record = harness.run_workload(ts, harness.WORKLOADS[args.workload], args.seed,
                                  args.seconds, bool(args.trace), BENCH_DIR / "out", refs)
    record["environment"] = env
    if args.trace:
        metrics = {k: {"value": v, "unit": u} for k, (v, u) in record["metrics"].items()}
    else:
        missing = sorted(set(harness.END_TO_END_UNITS) - set(record["metrics"]))
        if missing:
            print_human({**record, "units": harness.END_TO_END_UNITS}, env)
            print(f"error: no successful sample of {missing}", file=sys.stderr)
            return 1
        record["units"] = harness.END_TO_END_UNITS
        metrics = {k: {"value": d["median"], "unit": harness.END_TO_END_UNITS[k]}
                   for k, d in record["metrics"].items()}
    out = BENCH_DIR / "out" / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    out.write_text(json.dumps(record, indent=1, sort_keys=True, default=float) + "\n")
    print_human({**record, "units": harness.END_TO_END_UNITS}, env)
    print(json.dumps({"correct": record["failed"] == 0, "attempted": record["attempted"],
                      "failed": record["failed"], "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
