"""Counted work of the normal-form engine per benchmark op.

    python3 tools/pair_work.py --checkout . --workload kex-b32 --seed 1

Runs one round of a ``perfbench`` workload against the package in
``CHECKOUT/src`` and prints one JSON line: factor-pair calls (and among
them those whose right factor is the half twist D), crossings moved one at
a time, meets taken and crossings moved by meets, all per op.
Counts are exact and repeat between runs; nothing is timed.  A checkout
whose engine has no meet reports zero meets.
"""

from __future__ import annotations

import argparse
import json
import sys
import threading
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--checkout", type=Path, default=ROOT)
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, default=1)
    args = ap.parse_args(argv)
    sys.path[:0] = [str(args.checkout.resolve() / "src"), str(ROOT / "perfbench")]
    import twincsp
    import twincsp.keyfiles  # noqa: F401  (workloads reach it as tc.keyfiles)
    from twincsp import braid
    from twincsp.permutations import inversion_count as inversions
    from workloads import WORKLOADS

    count = {"pair_calls": 0, "d_right": 0, "crossings_moved": 0, "meets": 0, "meet_crossings": 0}
    lock = threading.Lock()  # the key exchange runs its responder in a thread
    pair, meet = braid._left_weight_pair, getattr(braid, "_meet", None)

    def counted_pair(a, b, n):
        d_right = b == list(range(n - 1, -1, -1))
        before = inversions(a)
        moved = pair(a, b, n)
        after = inversions(a)
        with lock:
            count["pair_calls"] += 1
            count["d_right"] += d_right
            count["crossings_moved"] += after - before
        return moved

    def counted_meet(a, binv, n):
        m = meet(a, binv, n)
        moved = inversions(m)
        with lock:
            count["meets"] += 1
            count["meet_crossings"] += moved
        return m

    workload = WORKLOADS[args.workload](twincsp, args.seed)
    braid._left_weight_pair = counted_pair
    if meet is not None:
        braid._meet = counted_meet
    for i in range(workload.units):
        workload.check(i, workload.run(i))
    ops = workload.units * workload.ops_per_unit
    print(json.dumps({
        "workload": args.workload,
        "seed": args.seed,
        "pair_calls_per_op": count["pair_calls"] / ops,
        "d_right_pair_calls_per_op": count["d_right"] / ops,
        "loop_crossings_per_op": (count["crossings_moved"] - count["meet_crossings"]) / ops,
        "meets_per_op": count["meets"] / ops,
        "meet_crossings_per_op": count["meet_crossings"] / ops,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
