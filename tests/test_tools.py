"""The work counter that perf changes are judged by still runs, and the
engine still does exactly the work recorded for seed 1.  A change that
moves these counts re-pins them and says why."""

import json
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def pair_work(workload: str) -> dict:
    proc = subprocess.run(
        [sys.executable, str(ROOT / "tools" / "pair_work.py"), "--workload", workload,
         "--seed", "1"],
        capture_output=True, text=True, timeout=300,
    )
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.splitlines()
    assert len(lines) == 1
    return json.loads(lines[0])


def test_pair_work_counts_pke_short():
    counts = pair_work("pke-short")
    for key in ("pair_calls_per_op", "loop_crossings_per_op", "meets_per_op",
                "meet_crossings_per_op", "normal_form_pair_calls_per_op",
                "normal_form_crossings_per_op"):
        assert key in counts
    assert counts["pair_calls_per_op"] == 222.40625
    assert counts["meets_per_op"] == 0  # B_16 is below braid.MEET_FROM
    assert counts["normal_form_pair_calls_per_op"] == 13.16796875
    assert counts["normal_form_crossings_per_op"] == 519.671875


def test_pair_work_counts_pke_bulk():
    counts = pair_work("pke-bulk")
    assert counts["pair_calls_per_op"] == 172.5625
    assert counts["meets_per_op"] == 0
    assert counts["normal_form_pair_calls_per_op"] == 12.875
    assert counts["normal_form_crossings_per_op"] == 549.0625


def test_pair_work_counts_kex_b32_meets():
    counts = pair_work("kex-b32")
    assert counts["pair_calls_per_op"] == 599.84375
    assert counts["meets_per_op"] == 217.96875  # B_32 is at or above braid.MEET_FROM
    assert counts["normal_form_pair_calls_per_op"] == 94.5
    assert counts["normal_form_crossings_per_op"] == 14846.8125


def test_pair_work_counts_reduce_b16():
    counts = pair_work("reduce-b16")
    assert counts["pair_calls_per_op"] == 374.03125
    assert counts["loop_crossings_per_op"] == 15280.99609375
    assert counts["meets_per_op"] == 0
    assert counts["normal_form_pair_calls_per_op"] == 73.83203125
    assert counts["normal_form_crossings_per_op"] == 2919.73046875
