"""The work counter that perf changes are judged by still runs, and the
engine still does exactly the work recorded for seed 1, complement words
computed included (a form keeps its steps, so a recurring tail operand
computes none).  A change that moves these counts re-pins them and says
why.  The A/B pair tool's summary and its verdicts are checked on fixed
runs; it refuses a checkout with a bytecode cache, and stops at a run
that reports incorrect outputs."""

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
    for key in ("pair_calls_per_op", "loop_crossings_per_op", "near_d_divisions_per_op",
                "complement_words_per_op", "factors_crossed_per_op", "letters_moved_per_op",
                "crossings_per_op", "normal_form_pair_calls_per_op",
                "normal_form_crossings_per_op"):
        assert key in counts
    assert counts["pair_calls_per_op"] == 118.171875
    assert counts["d_right_pair_calls_per_op"] == 0.0
    assert counts["loop_crossings_per_op"] == 2210.84375
    assert counts["near_d_divisions_per_op"] == 22.59375
    assert counts["complement_words_per_op"] == 4.32421875
    assert counts["factors_crossed_per_op"] == 106.8125
    assert counts["letters_moved_per_op"] == 677.9609375
    assert counts["crossings_per_op"] == 2888.8046875  # loop crossings + letters moved
    assert counts["normal_form_pair_calls_per_op"] == 5.953125
    assert counts["normal_form_crossings_per_op"] == 24.98828125


def test_pair_work_counts_pke_bulk():
    counts = pair_work("pke-bulk")
    assert counts["pair_calls_per_op"] == 88.25
    assert counts["d_right_pair_calls_per_op"] == 0.0
    assert counts["loop_crossings_per_op"] == 1038.0
    assert counts["near_d_divisions_per_op"] == 21.0625
    assert counts["complement_words_per_op"] == 4.125
    assert counts["factors_crossed_per_op"] == 86.375
    assert counts["letters_moved_per_op"] == 472.0
    assert counts["crossings_per_op"] == 1510.0
    assert counts["normal_form_pair_calls_per_op"] == 5.1875
    assert counts["normal_form_crossings_per_op"] == 23.0625


def test_pair_work_counts_kex_b32():
    counts = pair_work("kex-b32")
    assert counts["pair_calls_per_op"] == 291.34375
    assert counts["d_right_pair_calls_per_op"] == 0.0
    assert counts["loop_crossings_per_op"] == 1962.9375
    assert counts["near_d_divisions_per_op"] == 75.75
    assert counts["complement_words_per_op"] == 21.03125
    assert counts["factors_crossed_per_op"] == 319.96875
    assert counts["letters_moved_per_op"] == 3857.875
    assert counts["crossings_per_op"] == 5820.8125
    assert counts["normal_form_pair_calls_per_op"] == 42.5625
    assert counts["normal_form_crossings_per_op"] == 273.75


def test_pair_work_counts_reduce_b16():
    counts = pair_work("reduce-b16")
    assert counts["pair_calls_per_op"] == 227.6796875
    assert counts["d_right_pair_calls_per_op"] == 0.0
    assert counts["loop_crossings_per_op"] == 4390.6953125
    assert counts["near_d_divisions_per_op"] == 31.74609375
    assert counts["complement_words_per_op"] == 7.2578125
    assert counts["factors_crossed_per_op"] == 147.7109375
    assert counts["letters_moved_per_op"] == 1025.5078125
    assert counts["crossings_per_op"] == 5416.203125
    assert counts["normal_form_pair_calls_per_op"] == 32.88671875
    assert counts["normal_form_crossings_per_op"] == 254.51953125


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


@pytest.mark.parametrize("first_import", ["before", "inside"])
def test_engine_work_counts_a_submodule_first_imported_inside_a_block(first_import):
    """The trapdoor normalizes its random elements with normal_form, imported
    by name, and the package loads it on first use.  Whether it is imported
    before the first block or inside it, every block counts one
    trapdoor_stats call the same."""
    script = (
        "import json, sys\n"
        f"sys.path[:0] = [{str(ROOT / 'src')!r}, {str(ROOT / 'tools')!r}]\n"
        "import twincsp\n"
        "from pair_work import engine_work\n"
        "from twincsp import braid\n"
        "from twincsp.sampling import SeededRng\n"
        f"if {first_import == 'before'}:\n"
        "    import twincsp.trapdoor\n"
        "counts = []\n"
        "for _ in range(2):\n"
        "    with engine_work(braid) as work:\n"
        "        twincsp.trapdoor_stats(braid.default_params(), 2, SeededRng(bytes(32)))\n"
        "    counts.append(vars(work))\n"
        "print(json.dumps(counts))\n"
    )
    proc = subprocess.run([sys.executable, "-B", "-c", script],
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    first, second = json.loads(proc.stdout)
    assert first["nf_pair_calls"] > 0
    assert second == first


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


PARENT = [100 + i for i in range(10)]  # median 104.5, quartiles 101.75 and 107.25
WIDE = [50, 150] * 5  # median 100, quartiles 50 and 150: wider than 0.25 x 100


@pytest.mark.parametrize("better, parent, change, expected", [
    ("higher", PARENT, [p + 20 for p in PARENT], "better"),
    ("higher", PARENT, [99] + [p + 20 for p in PARENT[1:]], "better"),  # 9 of 10 pairs
    ("higher", PARENT, [99, 100] + [p + 20 for p in PARENT[2:]], "same"),  # 8 of 10
    ("higher", PARENT, [p + 1 for p in PARENT], "same"),  # 10 of 10, inside the IQR
    ("higher", PARENT, [p - 27 for p in PARENT], "worse"),  # 27 > 0.25 x 104.5
    ("higher", PARENT, [p - 26 for p in PARENT], "same"),
    ("lower", PARENT, [p + 27 for p in PARENT], "worse"),
    ("lower", PARENT, [p - 20 for p in PARENT], "better"),
    ("higher", WIDE, WIDE, "unresolved"),
    ("higher", WIDE, [p - 60 for p in WIDE], "unresolved"),  # before "worse"
    ("higher", WIDE, [151] * 10, "same"),  # beats every parent run, by less than the IQR
], ids=["better", "better-9-of-10", "same-8-of-10", "same-inside-iqr", "worse",
        "same-at-bound", "worse-lower", "better-lower", "unresolved", "unresolved-not-worse",
        "same-beats-every-run"])
def test_ab_pairs_verdict_on_fixed_runs(better, parent, change, expected):
    ab = load_tool("ab_pairs")
    runs = {"parent": [result_line(m=v, layer=v) for v in parent],
            "change": [result_line(m=v, layer=v) for v in change]}
    out = ab.summarize(runs, {"m": better, "layer": better}, {"m": 0.25})
    assert out["metrics"]["m"]["verdict"] == expected
    assert "verdict" not in out["metrics"]["layer"]  # a per-layer metric has no bound


def test_ab_pairs_bounds_are_the_end_to_end_metrics():
    ab = load_tool("ab_pairs")
    better, bounds = ab.metric_rules(ROOT)
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert bounds == {m["name"]: m["bound"] for m in spec["end_to_end"]}
    assert len(better) == len(spec["end_to_end"]) + len(spec["per_layer"])


def test_ab_pairs_refuses_a_checkout_with_a_bytecode_cache(tmp_path):
    """A side that imports from a bytecode cache sets up faster whatever the
    change does, so the tool stops before starting any benchmark run."""
    marker = tmp_path / "ran"
    for side in ("parent", "change"):
        (tmp_path / side / "src" / "twincsp").mkdir(parents=True)
        (tmp_path / side / "perfbench").mkdir()
        (tmp_path / side / "perfbench" / "run.py").write_text(
            f"open({str(marker)!r}, 'w').close()\n")
    cache = tmp_path / "change" / "src" / "twincsp" / "__pycache__"
    cache.mkdir()
    proc = subprocess.run(
        [sys.executable, str(ROOT / "tools" / "ab_pairs.py"), "--parent", str(tmp_path / "parent"),
         "--change", str(tmp_path / "change"), "--workload", "pke-short", "--seed", "7",
         "--pairs", "2", "--seconds", "1"],
        capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0 and proc.stdout == ""
    assert str(cache.resolve()) in proc.stderr
    assert not marker.exists()


def test_ab_pairs_stops_at_a_run_with_incorrect_outputs(tmp_path):
    """A run whose outputs are wrong is refused, whatever its metrics read,
    so the tool prints no summary and names the checkout and workload."""
    for side, correct in (("parent", True), ("change", False)):
        (tmp_path / side / "perfbench").mkdir(parents=True)
        line = json.dumps({"correct": correct, "attempted": 1, "failed": 0,
                           "metrics": {"ops_per_s": {"value": 1.0, "unit": "1/s"}}})
        (tmp_path / side / "perfbench" / "run.py").write_text(f"print({line!r})\n")
        shutil.copy(ROOT / "BENCHMARK.json", tmp_path / side)
    proc = subprocess.run(
        [sys.executable, str(ROOT / "tools" / "ab_pairs.py"), "--parent", str(tmp_path / "parent"),
         "--change", str(tmp_path / "change"), "--workload", "pke-short", "--seed", "7",
         "--pairs", "2", "--seconds", "1"],
        capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0 and proc.stdout == ""
    assert str((tmp_path / "change").resolve()) in proc.stderr
    assert str((tmp_path / "parent").resolve()) not in proc.stderr
    assert "pke-short" in proc.stderr and "incorrect outputs" in proc.stderr


def test_readme_performance_table_is_current():
    """README "Performance" holds the table that tools/bench_table.py
    renders from the newest BENCH_<n>.json, one row per benchmark
    workload; only files are read, no benchmark runs."""
    table = load_tool("bench_table")
    readme = (ROOT / "README.md").read_text()
    rendered = table.render(table.newest(ROOT))
    assert table.splice(readme, rendered) == readme
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert all(f"\n| {w['name']} |" in rendered for w in spec["workloads"])
