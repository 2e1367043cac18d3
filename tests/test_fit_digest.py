"""Smoke test of ``tools/fit_digest.py``, the bit-identity check of fits.

A change meant to leave every fitted value as it was prints the same
digests before and after it, so the tool must run and be deterministic.
"""

import re
import subprocess
import sys
from pathlib import Path

TOOL = Path(__file__).resolve().parent.parent / "tools" / "fit_digest.py"
ARGS = ["--workloads", "study-serial", "--seeds", "0", "--cycles", "1"]


def run_digest() -> str:
    done = subprocess.run([sys.executable, str(TOOL), *ARGS],
                          capture_output=True, text=True, timeout=300)
    assert done.returncode == 0, done.stderr
    return done.stdout


def test_one_cycle_prints_the_same_digests_twice():
    first = run_digest()
    lines = first.splitlines()
    assert [line.rsplit(" ", 1)[0] for line in lines] == [
        "study-serial picks", "study-serial completions", "study-serial studies",
        "study-serial cli", "total",
    ]
    assert all(re.fullmatch(r"[0-9a-f]{64}", line.rsplit(" ", 1)[1]) for line in lines)
    assert run_digest() == first
