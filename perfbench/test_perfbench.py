"""Tests of the benchmark itself: python3 -m pytest perfbench -q"""

from __future__ import annotations

import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))
sys.path.insert(0, str(HERE.parent / "src"))

import run  # noqa: E402
from checks import (  # noqa: E402
    CheckError,
    check_conjugate_of,
    check_kex_transcript,
    form_invariants,
    form_of,
    parse_ciphertext_file,
    word_invariants,
)
from tracing import Tracer, root_residuals, self_times  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

COUNTS = {m["name"] for m in run.SPEC["per_layer"] if m["unit"] in ("count", "bytes")}


@pytest.fixture(autouse=True)
def one_round(monkeypatch):
    """measure(w, 0) runs exactly one round."""
    monkeypatch.setattr(run, "MIN_OPS", 0)


def fresh(name: str, seed: int = 1, units: int = 4):
    """The workload with a tiny round of `units` units."""
    cls = WORKLOADS[name]
    small = type(cls.__name__, (cls,), {"units": min(units, cls.units)})
    return small(run.load_package(), seed)


@pytest.mark.parametrize("name", sorted(WORKLOADS))
@pytest.mark.parametrize("seed", [1, 977])
def test_workload_passes_its_checks(name, seed):
    w = fresh(name, seed, units=2)
    w.setup_check()
    tally = run.measure(w, 0)  # one round
    assert tally.attempted == w.units * w.ops_per_unit
    assert tally.failed == 0 and tally.bad == 0
    assert tally.wire > 0 or name == "reduce-b16"


def test_g_invariants_agree_between_word_and_form():
    tc = run.load_package()
    for l, r, W in ((8, 8, 16), (16, 16, 32)):
        g = tc.braid.default_params(l, r, W).g
        assert word_invariants(g.n, g.letters) == form_invariants(
            *form_of(tc.braid.normal_form(g)))


def test_form_with_a_factor_swapped_is_rejected():
    w = fresh("pke-short")
    blob, _plain = w.run(0)
    n, delta_exp, perms = parse_ciphertext_file(blob)[0]
    check_conjugate_of(w.ref, (n, delta_exp, perms), "Y")
    swap = list(range(n))
    swap[0], swap[1] = 1, 0
    target = next(k for k, p in enumerate(perms) if form_invariants(n, 0, [p])[0] != 1)
    bad = perms[:target] + [tuple(swap)] + perms[target + 1 :]
    with pytest.raises(CheckError, match="exponent sum"):
        check_conjugate_of(w.ref, (n, delta_exp, bad), "Y")


def test_wrong_plaintext_is_rejected():
    w = fresh("pke-short")
    blob, plain = w.run(0)
    with pytest.raises(CheckError, match="message"):
        w.check(0, (blob, plain[:-1] + bytes([plain[-1] ^ 1])))


def test_kex_frame_with_type_flipped_is_rejected():
    w = fresh("kex-b32")
    a, b = w.run(0)
    check_kex_transcript(a.sent, b.sent, a.key.bytes, w.ref)
    flipped = a.sent[:4] + bytes([a.sent[4] ^ 0x03]) + a.sent[5:]
    with pytest.raises(CheckError, match="frame types"):
        check_kex_transcript(flipped, b.sent, a.key.bytes, w.ref)
    with pytest.raises(CheckError, match="confirmation tag"):
        check_kex_transcript(a.sent, b.sent, bytes(32), w.ref)


def test_wrong_truth_label_is_rejected():
    w = fresh("reduce-b16")
    result, labels, answers, lat = w.run(0)
    assert w.check(0, (result, labels, answers, lat)) > 0
    labels = [not labels[0]] + labels[1:]
    with pytest.raises(CheckError, match="query 0"):
        w.check(0, (result, labels, answers, lat))


# Hand-built spans: (id, parent, op, thread, name index, start, end).
MAIN, OTHER = 1, 2
SPANS = [
    (1, None, 7, MAIN, 0, 0.0, 10.0),   # root op span
    (2, 1, 7, MAIN, 1, 1.0, 4.0),
    (3, 1, 7, MAIN, 1, 5.0, 9.0),
    (4, 3, 7, MAIN, 2, 6.0, 7.0),
    (5, None, 7, OTHER, 3, 2.0, 8.0),   # peer thread, same op, concurrent
    (6, 5, 7, OTHER, 2, 3.0, 5.0),
]


def test_self_times_on_a_hand_built_tree():
    own = self_times(SPANS)
    assert own == {1: 3.0, 2: 3.0, 3: 3.0, 4: 1.0, 5: 4.0, 6: 2.0}
    # Main-thread self times add up to the root; the peer thread's spans
    # overlap the root in time but are not subtracted from it.
    assert sum(own[k] for k in (1, 2, 3, 4)) == 10.0
    assert root_residuals(SPANS, 0) == [0.0]


def test_root_residual_shows_a_child_escaping_its_parent():
    spans = SPANS[:3] + [(4, 3, 7, MAIN, 2, 8.0, 11.0)]
    assert root_residuals(spans, 0) != [0.0]


@pytest.mark.parametrize("name", ["pke-short", "kex-b32"])
def test_traced_counts_repeat_exactly(name):
    results = []
    for _ in range(2):
        w = fresh(name, 5, units=2)
        _tallies, metrics, ok = run.per_layer(w, 0, name, 5)
        assert ok  # self times account for every op's duration
        results.append({k: v for k, v in metrics.items() if k in COUNTS})
    assert results[0] == results[1]
    if name == "pke-short":
        assert results[0]["braid.nf_conjugate.calls_per_op"] == 5.0
        assert results[0]["kex.frames_per_op"] == 0.0
    else:
        assert results[0]["kex.frames_per_op"] == 4.0


def test_tracer_restores_the_package():
    tc = run.load_package()
    before = tc.elgamal.nf_conjugate, tc.braid.nf_conjugate, tc.sampling.SeededRng.rand_below
    tracer = Tracer()
    tracer.install(tc)
    assert tc.elgamal.nf_conjugate is not before[0]
    assert tc.elgamal.nf_conjugate is tc.braid.nf_conjugate
    tracer.uninstall()
    assert (tc.elgamal.nf_conjugate, tc.braid.nf_conjugate,
            tc.sampling.SeededRng.rand_below) == before
