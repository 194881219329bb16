"""Alternating A/B pairs of benchmark runs: a parent checkout against a change.

    python3 tools/ab_pairs.py --parent DIR --change DIR --workload kex-b32 \\
        --seed 7 --pairs 10 [--seconds 20] [--trace 0|1]

Runs ``perfbench/run.py`` from the root of each checkout, one run per side
per pair; the side that runs first alternates from pair to pair, so that a
drift of the machine's speed does not favour one side.  Prints one JSON
line: for each metric the runs report (the end-to-end metrics, or with
``--trace 1`` the per-layer ones), each side's median and quartiles over
its runs, change median over parent median, and the number of pairs in
which the change read better, by the direction ``BENCHMARK.json`` gives.
Each metric with a ``bound`` there (the end-to-end ones) also gets a
``verdict``: better, unresolved, worse or same (see ``verdict``).
A run that exits non-zero, prints no result or reports incorrect outputs
(``"correct": false``) stops the tool, naming its checkout and workload.

A checkout whose ``src/`` or ``perfbench/`` holds a ``__pycache__`` is
refused before any run: every set-up re-imports the package, and a side
with a bytecode cache imports it several times faster, which shows in its
``setup_s`` whatever the change does.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

SIDES = ("parent", "change")


def metric_rules(checkout: Path) -> tuple[dict[str, str], dict[str, float]]:
    """From the checkout's BENCHMARK.json: metric name -> "higher" or
    "lower" for every metric, and name -> bound for the end-to-end ones."""
    spec = json.loads((checkout / "BENCHMARK.json").read_text())
    better = {m["name"]: m["better"] for m in spec["end_to_end"] + spec["per_layer"]}
    return better, {m["name"]: m["bound"] for m in spec["end_to_end"]}


def refuse_bytecode_cache(checkout: Path) -> None:
    caches = sorted(str(p) for sub in ("src", "perfbench")
                    for p in (checkout / sub).rglob("__pycache__"))
    if caches:
        raise SystemExit(f"bytecode cache in {', '.join(caches)}; remove it so that "
                         "both sides import from source")


def run_once(checkout: Path, workload: str, seed: int, seconds: float, trace: int) -> dict:
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", str(trace)],
        cwd=checkout, capture_output=True, text=True,
    )
    lines = proc.stdout.splitlines()
    if proc.returncode != 0 or not lines:
        raise SystemExit(f"{workload} run in {checkout} failed "
                         f"(exit {proc.returncode}):\n{proc.stderr}")
    result = json.loads(lines[-1])
    if not result["correct"]:
        raise SystemExit(f"{workload} run in {checkout} reported incorrect outputs:\n{lines[-1]}")
    return result


def quartiles(values: list[float]) -> dict[str, float]:
    q1, median, q3 = statistics.quantiles(values, n=4)
    return {"median": median, "q1": q1, "q3": q3}


def verdict(values: dict[str, list[float]], summary: dict, sign: int, bound: float) -> str:
    """The acceptance rules for one end-to-end metric, applied in order
    (sign is 1 when higher is better, -1 when lower is):
    - "better": the change won at least 9 of every 10 pairs, and its median
      beats the parent's by more than the parent's interquartile range;
    - "unresolved": that range exceeds bound x the parent median, unless
      every change run beats every parent run;
    - "worse": the change median is worse than the parent's by more than
      bound x the parent median;
    - "same": otherwise."""
    parent, change = summary["parent"], summary["change"]
    gain = sign * (change["median"] - parent["median"])
    spread = parent["q3"] - parent["q1"]
    limit = bound * abs(parent["median"])
    if 10 * summary["change_won"] >= 9 * len(values["parent"]) and gain > spread:
        return "better"
    if spread > limit and not all(sign * (c - p) > 0
                                  for c in values["change"] for p in values["parent"]):
        return "unresolved"
    return "worse" if -gain > limit else "same"


def summarize(runs: dict[str, list[dict]], better: dict[str, str],
              bounds: dict[str, float] | None = None) -> dict:
    """runs["parent"][i] and runs["change"][i] are the result lines of pair i.
    Each metric gets both sides' median and quartiles, the ratio of the
    medians and the pairs the change won (a tie wins nothing); each metric
    in bounds also gets its verdict."""
    parent, change = runs["parent"], runs["change"]
    if len(parent) != len(change) or len(parent) < 2:
        raise ValueError("need at least two pairs, with one run per side in each")
    metrics = {}
    for name in parent[0]["metrics"]:
        values = {side: [r["metrics"][name]["value"] for r in runs[side]] for side in SIDES}
        sign = 1 if better[name] == "higher" else -1
        won = sum(sign * (c - p) > 0 for p, c in zip(values["parent"], values["change"]))
        summary = {side: quartiles(values[side]) for side in SIDES}
        base = summary["parent"]["median"]
        summary["change_over_parent"] = summary["change"]["median"] / base if base else None
        summary["change_won"] = won
        if bounds and name in bounds:
            summary["verdict"] = verdict(values, summary, sign, bounds[name])
        metrics[name] = summary
    return {
        "pairs": len(parent),
        "correct": all(r["correct"] for side in SIDES for r in runs[side]),
        "failed": {side: sum(r["failed"] for r in runs[side]) for side in SIDES},
        "attempted": {side: sum(r["attempted"] for r in runs[side]) for side in SIDES},
        "metrics": metrics,
    }


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--parent", required=True, type=Path)
    ap.add_argument("--change", required=True, type=Path)
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--pairs", type=int, default=10)
    ap.add_argument("--seconds", type=float, default=20)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if args.pairs < 2:
        ap.error("--pairs must be at least 2")

    checkouts = {"parent": args.parent.resolve(), "change": args.change.resolve()}
    for checkout in checkouts.values():
        refuse_bytecode_cache(checkout)
    runs: dict[str, list[dict]] = {side: [] for side in SIDES}
    for i in range(args.pairs):
        for side in SIDES if i % 2 == 0 else reversed(SIDES):
            runs[side].append(run_once(checkouts[side], args.workload, args.seed,
                                       args.seconds, args.trace))
    out = {"workload": args.workload, "seed": args.seed, "seconds": args.seconds,
           "trace": args.trace}
    out.update(summarize(runs, *metric_rules(checkouts["change"])))
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main())
