"""Counted work of the normal-form engine per benchmark op.

    python3 tools/pair_work.py --checkout . --workload kex-b32 --seed 1

Runs one round of a ``perfbench`` workload against the package in
``CHECKOUT/src`` and prints one JSON line of counts per op, all taken by
``engine_work``: factor-pair calls, and among them those whose right
factor is the half twist D; crossings moved one at a time, which
``_left_weight_pair`` returns; near-D factors divided out of a prefix
instead of percolated, the factors that division crossed and the letters
it moved across them; the crossings of the whole engine, the pair
kernel's plus the division's; the pair calls and crossings made inside
``normal_form``; and the complement words computed, which a form's kept
steps spare when it is a tail operand again.  Counts are exact and
repeat between runs; nothing is timed.  A checkout whose pair kernel
returns a bool instead of its crossings is refused.

``engine_work`` is also the one engine counter of the test suite, which
loads this file by path.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import sys
import threading
from pathlib import Path
from types import SimpleNamespace

ROOT = Path(__file__).resolve().parent.parent


@contextlib.contextmanager
def engine_work(braid):
    """Count the engine's work while the block runs, on every thread.

    Wraps ``braid._left_weight_pair``, ``braid._complement_word``,
    ``braid._divide_out``, ``braid._divide`` and ``normal_form`` in every
    ``twincsp`` module that imported it, yields the counts and puts the
    originals back on exit:

    - ``pair_calls``; ``d_right``, the pairs whose right factor is D on
      entry; ``d_made``, the pairs whose left factor is D on exit;
    - ``loop_crossings``, the sum of the kernel's return values;
    - ``near_d``, the tail factors divided out of a prefix instead of
      percolated, one ``_divide_out`` call each; ``complement_words``,
      the ``_complement_word`` calls; ``crossed``, the ``_divide`` calls,
      one per factor a word crossed; ``letters``, the letters of those words; and
      ``divide_crossings``, the crossings of their braids by
      ``permutations.inversion_count``, equal to ``letters`` exactly when
      every word is reduced;
    - ``nf_pair_calls`` and ``nf_crossings`` (the kernel's and the
      division's), made inside ``normal_form``.
    """
    from twincsp.permutations import inversion_count

    work = SimpleNamespace(pair_calls=0, d_right=0, d_made=0, loop_crossings=0, near_d=0,
                           complement_words=0, crossed=0, letters=0, divide_crossings=0,
                           nf_pair_calls=0, nf_crossings=0)
    lock = threading.Lock()  # the key exchange runs its responder in a thread
    local = threading.local()  # local.depth: normal_form calls open on this thread
    pair, complement, divide = braid._left_weight_pair, braid._complement_word, braid._divide
    divide_out = braid._divide_out
    normal_form = braid.normal_form

    def counted_pair(a, b, n):
        d = list(range(n - 1, -1, -1))
        d_right = b == d
        moved = pair(a, b, n)
        inside = getattr(local, "depth", 0) > 0
        with lock:
            work.pair_calls += 1
            work.d_right += d_right
            work.d_made += a == d
            work.loop_crossings += moved
            work.nf_pair_calls += inside
            work.nf_crossings += moved * inside
        return moved

    def counted_complement(f):
        with lock:
            work.complement_words += 1
        return complement(f)

    def counted_divide_out(facs, word, rev):
        with lock:
            work.near_d += 1
        return divide_out(facs, word, rev)

    def counted_divide(a, word):
        p = list(range(len(a)))  # the word's braid: its last letter is word[0]
        for j in reversed(word):
            p[j - 1], p[j] = p[j], p[j - 1]
        moved = inversion_count(tuple(p))
        inside = getattr(local, "depth", 0) > 0
        with lock:
            work.crossed += 1
            work.letters += len(word)
            work.divide_crossings += moved
            work.nf_crossings += moved * inside
        return divide(a, word)

    def counted_normal_form(word):
        local.depth = getattr(local, "depth", 0) + 1
        try:
            return normal_form(word)
        finally:
            local.depth -= 1

    # A module first imported inside the block would take the counting
    # normal_form by name and keep it after the block, so the submodules
    # the package loads on first use are loaded before the scan.
    import twincsp.kex  # noqa: F401
    import twincsp.reduction  # noqa: F401
    import twincsp.trapdoor  # noqa: F401

    importers = [m for name, m in sys.modules.items()  # braid and every module importing it
                 if name.split(".")[0] == "twincsp"
                 and getattr(m, "normal_form", None) is normal_form]
    braid._left_weight_pair, braid._complement_word, braid._divide = (
        counted_pair, counted_complement, counted_divide)
    braid._divide_out = counted_divide_out
    for mod in importers:
        mod.normal_form = counted_normal_form
    try:
        yield work
    finally:
        braid._left_weight_pair, braid._complement_word, braid._divide = pair, complement, divide
        braid._divide_out = divide_out
        for mod in importers:
            mod.normal_form = normal_form


def count_work(braid, workload) -> dict:
    with engine_work(braid) as work:
        for i in range(workload.units):
            workload.check(i, workload.run(i))
    ops = workload.units * workload.ops_per_unit
    return {
        "pair_calls_per_op": work.pair_calls / ops,
        "d_right_pair_calls_per_op": work.d_right / ops,
        "loop_crossings_per_op": work.loop_crossings / ops,
        "near_d_divisions_per_op": work.near_d / ops,
        "complement_words_per_op": work.complement_words / ops,
        "factors_crossed_per_op": work.crossed / ops,
        "letters_moved_per_op": work.letters / ops,
        "crossings_per_op": (work.loop_crossings + work.divide_crossings) / ops,
        "normal_form_pair_calls_per_op": work.nf_pair_calls / ops,
        "normal_form_crossings_per_op": work.nf_crossings / ops,
    }


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
    from workloads import WORKLOADS

    workload = WORKLOADS[args.workload](twincsp, args.seed)
    head = {"workload": args.workload, "seed": args.seed}
    if isinstance(braid._left_weight_pair([0, 1], [1, 0], 2), bool):
        sys.exit(f"{args.checkout}: _left_weight_pair returns a bool, not the crossings it "
                 "moved, so its crossings cannot be counted")
    head.update(count_work(braid, workload))
    print(json.dumps(head))
    return 0


if __name__ == "__main__":
    sys.exit(main())
