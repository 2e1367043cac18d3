"""Smoke test of the benchmark itself, at tiny sizes (seconds per workload).

    python3 -m pytest bench/test_smoke.py -q

For every workload it checks that the untraced run reports each
end-to-end metric and the traced run each per-layer metric with its unit,
that no operation failed, and that traced and untraced fits agree bit for
bit (the harness compares their output digests and counts a mismatch as a
failure).  It also runs ``run.py`` where the program is missing, which
must exit non-zero without printing a result.
"""

import json
import shutil
import subprocess
import sys
from dataclasses import replace
from pathlib import Path

import pytest

import run
import harness

TS = run.load_program()

TINY_SIZES = {  # main table, weighted table, one size per study scenario
    "fit-tall-missing": ((30, 4), (6, 3), ((12, 3),)),
    "study-serial": ((6, 6), (4, 4), ((6, 6), (12, 3))),
}


def tiny(workload):
    """The same workload at smoke-test size, two replicates per study."""
    (tr, tc), (wr, wc), study_sizes = TINY_SIZES[workload.name]
    return replace(
        workload,
        table=replace(workload.table, r=tr, c=tc),
        weighted=replace(workload.weighted, r=wr, c=wc),
        studies=tuple(replace(s, r=r, c=c, reps=2)
                      for s, (r, c) in zip(workload.studies, study_sizes)),
    )


@pytest.mark.parametrize("name", sorted(harness.WORKLOADS))
def test_workload_at_tiny_size(name, tmp_path):
    workload = tiny(harness.WORKLOADS[name])
    plain = harness.run_workload(TS, workload, 3, 0.0, False, tmp_path)
    assert plain["failed"] == 0, plain["problems"]
    assert set(plain["metrics"]) == set(harness.END_TO_END_UNITS)
    assert all(plain["metrics"][k]["n"] >= 1 for k in harness.END_TO_END_UNITS)

    traced = harness.run_workload(TS, workload, 3, 0.0, True, tmp_path)
    assert traced["failed"] == 0, traced["problems"]
    assert traced["absent"] == []
    expected = {m[0]: m[1] for m in harness.LAYER_METRICS}
    expected.update(harness.EXTRA_LAYER_UNITS)
    assert {k: u for k, (v, u) in traced["metrics"].items()} == expected
    # The same seed and cycle give the same inputs, so the traced run's
    # cycle-0 summaries equal the untraced run's.
    assert traced["summaries"]["0"] == plain["summaries"]["0"]


def test_benchmark_json_lists_the_reported_metrics():
    spec = json.loads((Path(__file__).parent.parent / "BENCHMARK.json").read_text())
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == harness.END_TO_END_UNITS
    layer = {m[0]: m[1] for m in harness.LAYER_METRICS}
    layer.update(harness.EXTRA_LAYER_UNITS)
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == layer
    assert [w["name"] for w in spec["workloads"]] == list(harness.WORKLOADS)


def test_runs_without_program_fail_cleanly(tmp_path):
    shutil.copytree(Path(__file__).parent, tmp_path / "bench",
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    proc = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", "study-serial", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120)
    assert proc.returncode != 0
    assert "correct" not in proc.stdout


def test_missing_name_is_reported_absent(monkeypatch):
    monkeypatch.delattr(TS.risk_metrics, "q_matrix")
    tracer = harness.tracing.Tracer()
    restore = harness.tracing.install(tracer)
    restore()
    values, absent = harness.layer_metrics(tracer, 1)
    assert {"risk_metrics.q_matrix_s", "risk_metrics.q_bytes"} <= set(absent)
    assert "tables.build_design_s" in values
    json.dumps(values)
