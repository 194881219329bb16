"""The work counter that perf changes are judged by still runs."""

import json
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def test_pair_work_counts_pke_short():
    proc = subprocess.run(
        [sys.executable, str(ROOT / "tools" / "pair_work.py"), "--workload", "pke-short",
         "--seed", "1"],
        capture_output=True, text=True, timeout=300,
    )
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.splitlines()
    assert len(lines) == 1
    counts = json.loads(lines[0])
    for key in ("pair_calls_per_op", "loop_crossings_per_op", "meets_per_op",
                "meet_crossings_per_op"):
        assert key in counts
    assert counts["pair_calls_per_op"] > 0
    assert counts["meets_per_op"] == 0  # B_16 is below braid.MEET_FROM


def test_pair_work_counts_kex_b32_meets():
    proc = subprocess.run(
        [sys.executable, str(ROOT / "tools" / "pair_work.py"), "--workload", "kex-b32",
         "--seed", "1"],
        capture_output=True, text=True, timeout=300,
    )
    assert proc.returncode == 0, proc.stderr
    counts = json.loads(proc.stdout)
    assert counts["pair_calls_per_op"] > 0
    assert counts["meets_per_op"] > 0  # B_32 is at or above braid.MEET_FROM
