"""Benchmark for twincsp: one workload per process, one JSON result line.

    python3 perfbench/run.py --workload pke-short --seed 1 --seconds 20 --trace 0

Run from the root of a checkout; the package is imported from ``src/``.
The first set-up's inputs run in a closed loop with one client, in whole
rounds of the same seeded units, until ``--seconds`` of wall time have
passed and at least MIN_OPS ops are done; every unit's output is checked
outside the timed interval.
Set-up (import, parameters, keys, inputs) is repeated SETUP_REPEATS times
in all, spread over the run, and its median reported as ``setup_s``.
``ops_per_s`` is the median over rounds of ops per timed second.

With ``--trace 1`` the first half of the run is untraced and the second
half traced; the result holds the per-layer metrics, the tracing overhead
(median unit latency traced against untraced), and the spans are written
to ``perfbench/out/``.
"""

from __future__ import annotations

import argparse
import gc
import importlib
import json
import os
import resource
import statistics
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
SETUP_REPEATS = 5
MIN_OPS = 100  # so that lat_p90_ms has at least ten samples beyond it

from checks import CheckError  # noqa: E402
from tracing import Tracer, layer_metrics, root_residuals  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

# The machine's speed drifts by tens of percent within seconds, and each of
# its CPUs drifts on its own.  The run stays on one CPU, and every timed
# interval is bracketed by a fixed pure-Python reference computation that
# shares no code with twincsp.  Times are reported at the speed at which the
# reference takes REFERENCE_S: raw time * REFERENCE_S / reference time.
REFERENCE_S = 0.00065
_PERM = tuple((7 * i + 3) % 16 for i in range(16))


def reference() -> float:
    """CPU seconds the reference computation takes right now.  CPU time
    rather than wall time, so that a preempted reference does not read as
    a slow machine."""
    t0 = time.thread_time()
    p, acc = list(range(16)), 0
    for _ in range(400):
        p = [p[v] for v in _PERM]
        acc += sum(1 for i in range(1, 16) if p[i - 1] > p[i])
    return time.thread_time() - t0


def scale(before: float, after: float) -> float:
    """Factor taking a raw time to reference speed."""
    return 2 * REFERENCE_S / (before + after)


def load_package():
    """Import twincsp afresh from the checkout's src/."""
    for name in [k for k in sys.modules if k == "twincsp" or k.startswith("twincsp.")]:
        del sys.modules[name]
    tc = importlib.import_module("twincsp")
    importlib.import_module("twincsp.keyfiles")
    if Path(tc.__file__).resolve().parent != SRC / "twincsp":
        raise ImportError(f"twincsp imported from {tc.__file__}, not from {SRC}")
    return tc


class SetUp:
    """Times repeated set-ups, spread over the run so that the median is
    not taken from a single moment of the machine's drifting speed."""

    def __init__(self, workload_cls, seed: int, repeats: int):
        self.workload_cls, self.seed, self.repeats = workload_cls, seed, repeats
        self.times: list[float] = []
        self.workload = self.once()

    def once(self):
        gc.collect()
        before = reference()
        t0 = time.perf_counter()
        workload = self.workload_cls(load_package(), self.seed)
        raw = time.perf_counter() - t0
        self.times.append(raw * scale(before, reference()))
        return workload

    def spread_over(self, progress: float) -> None:
        """Repeat set-up until the share done matches the run's progress."""
        while len(self.times) < min(self.repeats, 1 + progress * (self.repeats - 1)):
            self.once()

    def median(self) -> float:
        self.spread_over(1.0)
        return statistics.median(self.times)


class Tally:
    def __init__(self):
        self.units = self.ops = self.attempted = self.failed = self.bad = 0
        self.wire = 0
        self.op_latencies: list[float] = []
        self.unit_latencies: list[float] = []
        self.round_rates: list[float] = []
        self.factors: dict[int, float] = {}


def measure(workload, seconds: float, tracer: Tracer | None = None,
            setup: SetUp | None = None) -> Tally:
    """Whole rounds of the workload's units until `seconds` have passed
    and at least MIN_OPS ops are done."""
    tally = Tally()
    start = time.perf_counter()
    while True:
        round_ops, round_timed = 0, 0.0
        for i in range(workload.units):
            op_id = tally.units
            tally.units += 1
            tally.attempted += workload.ops_per_unit
            before = reference()
            try:
                if tracer is None:
                    t0 = time.perf_counter()
                    out = workload.run(i)
                    raw = time.perf_counter() - t0
                else:
                    with tracer.op(op_id) as scope:
                        out = workload.run(i)
                    raw = scope.duration
            except Exception as exc:  # the program failed the op: count it
                tally.failed += workload.ops_per_unit
                print(f"unit {i} failed: {exc!r}", file=sys.stderr)
                continue
            factor = scale(before, reference())
            tally.factors[op_id] = factor
            duration = raw * factor
            round_ops += workload.ops_per_unit
            round_timed += duration
            tally.unit_latencies.append(duration)
            tally.op_latencies.extend(t * factor for t in workload.latencies(out, raw))
            try:
                tally.wire += workload.check(i, out)
            except CheckError as exc:
                tally.bad += 1
                print(f"unit {i} check failed: {exc}", file=sys.stderr)
        tally.ops += round_ops
        if round_timed:
            tally.round_rates.append(round_ops / round_timed)
        progress = (time.perf_counter() - start) / seconds if seconds else 1.0
        if setup is not None:
            setup.spread_over(progress)
        if progress >= 1.0 and tally.ops >= MIN_OPS:
            return tally


def end_to_end(tally: Tally, setup_s: float) -> dict[str, float]:
    lat = tally.op_latencies
    return {
        "ops_per_s": statistics.median(tally.round_rates),
        "lat_p50_ms": 1e3 * statistics.median(lat),
        "lat_p90_ms": 1e3 * statistics.quantiles(lat, n=10)[-1],
        "setup_s": setup_s,
        "peak_rss_mib": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        "wire_bytes_per_op": tally.wire / tally.ops,
    }


def per_layer(workload, seconds: float, name: str, seed: int):
    """Untraced then traced halves; returns (tallies, metrics, residual ok)."""
    plain = measure(workload, seconds / 2)
    tracer = Tracer()
    tracer.install(workload.tc)
    workload.span = lambda: tracer.span("bench.adversary", "bench")
    try:
        traced = measure(workload, seconds / 2, tracer)
    finally:
        tracer.uninstall()
    metrics = layer_metrics(tracer, traced.ops, traced.units, traced.factors)
    metrics["trace.overhead_pct"] = 100 * (
        statistics.median(traced.unit_latencies) / statistics.median(plain.unit_latencies) - 1)
    residuals = root_residuals(tracer.spans, tracer.names.index("bench.op"))
    worst = max(abs(r) for r in residuals)
    ok = len(residuals) == traced.units and worst < 1e-6
    if not ok:
        print(f"self times do not account for {len(residuals)} roots: "
              f"worst residual {worst:.3e} s", file=sys.stderr)
    OUT.mkdir(exist_ok=True)
    tracer.write(OUT / f"trace-{name}-seed{seed}.jsonl")
    return [plain, traced], metrics, ok


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=20)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    if not (SRC / "twincsp" / "__init__.py").is_file():
        print(f"no twincsp package under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    os.sched_setaffinity(0, {max(os.sched_getaffinity(0))})

    setup = SetUp(WORKLOADS[args.workload], args.seed, SETUP_REPEATS)
    workload = setup.workload
    correct = True
    try:
        workload.setup_check()
    except CheckError as exc:
        print(f"set-up check failed: {exc}", file=sys.stderr)
        correct = False

    if args.trace:
        tallies, metrics, ok = per_layer(workload, args.seconds, args.workload, args.seed)
        correct = correct and ok
    else:
        tallies = [measure(workload, args.seconds, setup=setup)]
        metrics = end_to_end(tallies[0], setup.median())

    declared = SPEC["per_layer" if args.trace else "end_to_end"]
    if set(metrics) != {m["name"] for m in declared}:
        raise RuntimeError("metrics differ from those BENCHMARK.json declares")
    correct = correct and all(t.bad == 0 for t in tallies)
    print(json.dumps({
        "correct": correct,
        "attempted": sum(t.attempted for t in tallies),
        "failed": sum(t.failed for t in tallies),
        "metrics": {m["name"]: {"value": metrics[m["name"]], "unit": m["unit"]}
                    for m in declared},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
