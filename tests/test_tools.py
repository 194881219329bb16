"""The work counter that perf changes are judged by still runs, and the
engine still does exactly the work recorded for seed 1.  A change that
moves these counts re-pins them and says why.  The A/B pair tool's
summary is checked on fixed runs."""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

from conftest import load_tool

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
    assert counts["d_right_pair_calls_per_op"] == 0.0
    assert counts["loop_crossings_per_op"] == 9245.4140625
    assert counts["meets_per_op"] == 0  # B_16 is below braid.MEET_FROM
    assert counts["normal_form_pair_calls_per_op"] == 13.16796875
    assert counts["normal_form_crossings_per_op"] == 519.671875


def test_pair_work_counts_pke_bulk():
    counts = pair_work("pke-bulk")
    assert counts["pair_calls_per_op"] == 172.5625
    assert counts["d_right_pair_calls_per_op"] == 0.0
    assert counts["loop_crossings_per_op"] == 6281.0625
    assert counts["meets_per_op"] == 0
    assert counts["normal_form_pair_calls_per_op"] == 12.875
    assert counts["normal_form_crossings_per_op"] == 549.0625


def test_pair_work_counts_kex_b32_meets():
    counts = pair_work("kex-b32")
    assert counts["pair_calls_per_op"] == 599.84375
    assert counts["d_right_pair_calls_per_op"] == 0.0
    assert counts["loop_crossings_per_op"] == 9671.875
    assert counts["meets_per_op"] == 217.96875  # B_32 is at or above braid.MEET_FROM
    assert counts["meet_crossings_per_op"] == 88009.125
    assert counts["normal_form_pair_calls_per_op"] == 94.5
    assert counts["normal_form_crossings_per_op"] == 14846.8125


def test_pair_work_counts_reduce_b16():
    counts = pair_work("reduce-b16")
    assert counts["pair_calls_per_op"] == 358.56640625
    assert counts["d_right_pair_calls_per_op"] == 0.0
    assert counts["loop_crossings_per_op"] == 14835.296875
    assert counts["meets_per_op"] == 0
    assert counts["normal_form_pair_calls_per_op"] == 73.83203125
    assert counts["normal_form_crossings_per_op"] == 2919.73046875


def test_pair_work_refuses_a_kernel_that_returns_a_bool(tmp_path):
    """A kernel that says only whether it moved anything cannot feed the
    crossing counts, so a checkout with one is refused, not miscounted."""
    shutil.copytree(ROOT / "src", tmp_path / "src", ignore=shutil.ignore_patterns("__pycache__"))
    braid = tmp_path / "src" / "twincsp" / "braid.py"
    text = braid.read_text()
    assert text.count("    return moved\n") == 1
    braid.write_text(text.replace("    return moved\n", "    return bool(moved)\n"))
    proc = subprocess.run(
        [sys.executable, str(ROOT / "tools" / "pair_work.py"), "--checkout", str(tmp_path),
         "--workload", "pke-bulk", "--seed", "1"],
        capture_output=True, text=True, timeout=300,
    )
    assert proc.returncode != 0 and proc.stdout == ""
    assert "returns a bool" in proc.stderr


def result_line(**values) -> dict:
    return {"correct": True, "attempted": 100, "failed": 0,
            "metrics": {name: {"value": v, "unit": "u"} for name, v in values.items()}}


def test_ab_pairs_summary_on_fixed_runs():
    ab = load_tool("ab_pairs")
    runs = {
        "parent": [result_line(ops_per_s=p, setup_s=s)
                   for p, s in [(10, 0.020), (11, 0.021), (12, 0.022), (13, 0.023), (14, 0.024)]],
        "change": [result_line(ops_per_s=p, setup_s=s)
                   for p, s in [(12, 0.015), (11, 0.016), (13, 0.021), (12, 0.017), (15, 0.024)]],
    }
    runs["change"][1]["failed"] = 2
    out = ab.summarize(runs, {"ops_per_s": "higher", "setup_s": "lower"})
    assert out["pairs"] == 5 and out["correct"]
    assert out["failed"] == {"parent": 0, "change": 2}
    assert out["attempted"] == {"parent": 500, "change": 500}
    ops = out["metrics"]["ops_per_s"]
    assert ops["parent"] == {"median": 12, "q1": 10.5, "q3": 13.5}
    assert ops["change"] == {"median": 12, "q1": 11.5, "q3": 14.0}
    assert ops["change_over_parent"] == 1.0
    assert ops["change_won"] == 3  # pair 2 is a tie, pair 4 a loss
    setup = out["metrics"]["setup_s"]
    assert setup["change_won"] == 4  # pair 5 is a tie; lower is better
    assert setup["change"]["median"] == 0.017
    assert setup["change_over_parent"] == 0.017 / 0.022


def test_ab_pairs_summary_needs_matched_pairs():
    ab = load_tool("ab_pairs")
    one = {"parent": [result_line(ops_per_s=1)], "change": [result_line(ops_per_s=1)]}
    with pytest.raises(ValueError):
        ab.summarize(one, {"ops_per_s": "higher"})
    uneven = {"parent": [result_line(ops_per_s=1)] * 3, "change": [result_line(ops_per_s=1)] * 2}
    with pytest.raises(ValueError):
        ab.summarize(uneven, {"ops_per_s": "higher"})
