"""Render the newest committed benchmark record into README "Performance".

    python3 tools/bench_table.py

Reads the ``BENCH_<n>.json`` with the highest n at the root of the repo
and writes one markdown table between the two marker comments of
README.md: per workload, the change-side medians of the six end-to-end
metrics (``end_to_end``, from ``tools/ab_pairs.py``) and the change-side
counts of ``tools/pair_work.py`` (``counted_work``), under a line that
names the file.  Nothing is measured; a test re-renders the table and
compares it with the README, so a table older than the newest record
fails.
"""

from __future__ import annotations

import json
import re
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
BEGIN, END = "<!-- bench-table: begin -->", "<!-- bench-table: end -->"
METRICS = (("ops_per_s", "ops/s"), ("lat_p50_ms", "p50 ms"), ("lat_p90_ms", "p90 ms"),
           ("setup_s", "setup s"), ("peak_rss_mib", "peak RSS MiB"),
           ("wire_bytes_per_op", "wire bytes/op"))
COUNTS = (("pair_calls_per_op", "pair calls"), ("crossings_per_op", "crossings"),
          ("near_d_divisions_per_op", "near-D divisions"),
          ("complement_words_per_op", "complement words"))


def newest(root: Path = ROOT) -> Path:
    """The BENCH_<n>.json at root with the highest n."""
    return max(root.glob("BENCH_*.json"), key=lambda p: int(re.fullmatch(
        r"BENCH_(\d+)\.json", p.name).group(1)))


def number(v: float) -> str:
    return f"{v:,.0f}" if abs(v) >= 1000 else f"{v:.4g}"


def render(path: Path) -> str:
    """The table of path's change-side medians and counts, as markdown."""
    bench = json.loads(path.read_text())
    runs, counts = bench["end_to_end"], bench["counted_work"]["change"]
    workloads = [w for w in runs if w != "how"]
    lines = [
        f"Change-side medians from `{path.name}` (`tools/ab_pairs.py`, seed "
        f"{runs[workloads[0]]['seed']}) and counted work per op (`tools/pair_work.py`, "
        "seed 1):",
        "",
        "| workload | " + " | ".join(label for _, label in METRICS + COUNTS) + " |",
        "|---" * (1 + len(METRICS) + len(COUNTS)) + "|",
    ]
    for workload in workloads:
        cells = [number(runs[workload]["metrics"][name]["change"]["median"])
                 for name, _ in METRICS]
        cells += [number(counts[workload][name]) for name, _ in COUNTS]
        lines.append(f"| {workload} | " + " | ".join(cells) + " |")
    return "\n".join(lines) + "\n"


def splice(readme: str, table: str) -> str:
    """readme with table between the markers, in place of what was there."""
    head, rest = readme.split(BEGIN + "\n", 1)
    _, tail = rest.split(END, 1)
    return head + BEGIN + "\n" + table + END + tail


def main() -> int:
    readme = ROOT / "README.md"
    readme.write_text(splice(readme.read_text(), render(newest())))
    return 0


if __name__ == "__main__":
    sys.exit(main())
