"""Counted work of the normal-form engine per benchmark op.

    python3 tools/pair_work.py --checkout . --workload kex-b32 --seed 1
    python3 tools/pair_work.py --workload kex-b32 --replay [--strands 20] [--budgets]

Runs one round of a ``perfbench`` workload against the package in
``CHECKOUT/src`` and prints one JSON line: factor-pair calls (and among
them those whose right factor is the half twist D), crossings moved one at
a time, meets taken and crossings moved by meets, and the pair calls and
crossings (moved either way) made inside ``normal_form``, all per op.
Counts are exact and repeat between runs; nothing is timed.  A checkout
whose engine has no meet reports zero meets.

``--replay`` times the pair kernel instead.  It records the inputs of
every ``_left_weight_pair`` call in the round and replays them through
the checkout's kernel as it is, with the meet taken after n crossings at
every n (``braid.MEET_FROM`` patched to 2) and with the meet turned off
(``MEET_FROM`` patched above n); each figure is the median, over 9
repetitions, of thread CPU microseconds per pair call.
``--budgets`` adds the meet taken after n/2 and 2n crossings, from a copy
of the kernel with its budget line rewritten.  ``--strands N`` runs
kex-b32's exchanges at B_N (l = N // 2) instead, which is how the
``MEET_FROM`` crossover figures are measured at n other than 32.
"""

from __future__ import annotations

import argparse
import gc
import inspect
import json
import statistics
import sys
import textwrap
import threading
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def count_work(braid, workload) -> dict:
    from twincsp.permutations import inversion_count as inversions

    count = {"pair_calls": 0, "d_right": 0, "crossings_moved": 0, "meets": 0, "meet_crossings": 0,
             "nf_pair_calls": 0, "nf_crossings": 0}
    lock = threading.Lock()  # the key exchange runs its responder in a thread
    local = threading.local()  # local.depth: normal_form calls open on this thread
    pair, meet = braid._left_weight_pair, getattr(braid, "_meet", None)
    normal_form = braid.normal_form

    def counted_pair(a, b, n):
        d_right = b == list(range(n - 1, -1, -1))
        before = inversions(a)
        moved = pair(a, b, n)
        after = inversions(a)
        inside = getattr(local, "depth", 0) > 0
        with lock:
            count["pair_calls"] += 1
            count["d_right"] += d_right
            count["crossings_moved"] += after - before
            count["nf_pair_calls"] += inside
            count["nf_crossings"] += (after - before) * inside
        return moved

    def counted_normal_form(word):
        local.depth = getattr(local, "depth", 0) + 1
        try:
            return normal_form(word)
        finally:
            local.depth -= 1

    def counted_meet(a, binv, n):
        m = meet(a, binv, n)
        moved = inversions(m)
        with lock:
            count["meets"] += 1
            count["meet_crossings"] += moved
        return m

    braid._left_weight_pair = counted_pair
    if meet is not None:
        braid._meet = counted_meet
    for mod in [m for name, m in sys.modules.items() if name.split(".")[0] == "twincsp"]:
        if getattr(mod, "normal_form", None) is normal_form:  # also the names imported from braid
            mod.normal_form = counted_normal_form
    run_round(workload)
    ops = workload.units * workload.ops_per_unit
    return {
        "pair_calls_per_op": count["pair_calls"] / ops,
        "d_right_pair_calls_per_op": count["d_right"] / ops,
        "loop_crossings_per_op": (count["crossings_moved"] - count["meet_crossings"]) / ops,
        "meets_per_op": count["meets"] / ops,
        "meet_crossings_per_op": count["meet_crossings"] / ops,
        "normal_form_pair_calls_per_op": count["nf_pair_calls"] / ops,
        "normal_form_crossings_per_op": count["nf_crossings"] / ops,
    }


def run_round(workload) -> None:
    for i in range(workload.units):
        workload.check(i, workload.run(i))


def kernel_meeting_after(braid, budget: str):
    """A copy of the checkout's kernel that takes the meet after `budget`
    crossings (an expression in n) instead of after n."""
    src = textwrap.dedent(inspect.getsource(braid._left_weight_pair))
    line = "budget = n if"
    if src.count(line) != 1:
        raise SystemExit(f"the kernel has no single {line!r} line to rewrite")
    scope: dict = {}
    exec(src.replace(line, f"budget = {budget} if"), vars(braid), scope)
    return scope["_left_weight_pair"]


def replay(braid, workload, budgets: bool, reps: int = 9) -> dict:
    recorded = []
    pair = braid._left_weight_pair

    def recording(a, b, n):
        recorded.append((tuple(a), tuple(b), n))  # list.append is atomic
        return pair(a, b, n)

    braid._left_weight_pair = recording
    run_round(workload)
    braid._left_weight_pair = pair

    meet_from, top = braid.MEET_FROM, max(n for _a, _b, n in recorded)
    variants = {  # name: (kernel, MEET_FROM in force)
        "us_per_call": (pair, meet_from),
        "us_per_call_meet_after_n": (pair, 2),
        "us_per_call_no_meet": (pair, top + 1),
    }
    if budgets:
        variants["us_per_call_meet_after_n/2"] = (kernel_meeting_after(braid, "n // 2"), 2)
        variants["us_per_call_meet_after_2n"] = (kernel_meeting_after(braid, "2 * n"), 2)
    # The machine's speed drifts within a second, so the variants take
    # turns on chunks of 500 pairs, in rotating order.
    chunks = [recorded[k:k + 500] for k in range(0, len(recorded), 500)]
    names = list(variants)
    times: dict = {name: [] for name in names}
    gc.disable()  # the replay makes no cycles; a collection would land in one variant
    for _ in range(reps):
        total = dict.fromkeys(names, 0)
        for c, chunk in enumerate(chunks):
            for name in names[c % len(names):] + names[:c % len(names)]:
                kernel, braid.MEET_FROM = variants[name]
                args = [(list(a), list(b), n) for a, b, n in chunk]
                t0 = time.thread_time_ns()
                for a, b, n in args:
                    kernel(a, b, n)
                total[name] += time.thread_time_ns() - t0
        for name in names:
            times[name].append(total[name] / 1e3 / len(recorded))
    gc.enable()
    braid.MEET_FROM = meet_from
    out = {"pairs": len(recorded), "reps": reps, "meet_from": meet_from}
    out.update((name, statistics.median(t)) for name, t in times.items())
    out["meet_over_no_meet"] = out["us_per_call_meet_after_n"] / out["us_per_call_no_meet"]
    return out


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--checkout", type=Path, default=ROOT)
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--replay", action="store_true", help="time the pair kernel on the round's pairs")
    ap.add_argument("--budgets", action="store_true", help="replay also with the meet after n/2 and 2n")
    ap.add_argument("--strands", type=int, help="kex-b32 only: run the exchanges at B_N")
    args = ap.parse_args(argv)
    if args.strands and args.workload != "kex-b32":
        ap.error("--strands applies to kex-b32 only")
    sys.path[:0] = [str(args.checkout.resolve() / "src"), str(ROOT / "perfbench")]
    import twincsp
    import twincsp.keyfiles  # noqa: F401  (workloads reach it as tc.keyfiles)
    from checks import word_invariants
    from twincsp import braid
    from workloads import WORKLOADS

    workload = WORKLOADS[args.workload](twincsp, args.seed)
    head = {"workload": args.workload, "seed": args.seed}
    if args.strands:
        n = args.strands
        workload.params = braid.default_params(n // 2, n - n // 2, 32)
        workload.ref = word_invariants(n, workload.params.g.letters)
        head["strands"] = n
    if args.replay:
        head.update(replay(braid, workload, args.budgets))
    else:
        head.update(count_work(braid, workload))
    print(json.dumps(head))
    return 0


if __name__ == "__main__":
    sys.exit(main())
