"""The one-pass normal form against a reference: the back-and-forth sweep
the engine used before, which left-weights every adjacent pair of the whole
factor sequence until none moves.  Both share the pair kernel, which
tests/test_pair_transfer.py checks on its own.  Also counts the pair calls
that the one-pass form no longer makes."""

import pytest

from conftest import random_word, rng_from
from twincsp import BraidWord, CanonicalForm, PermutationBraid, braid, nf_invert, nf_multiply, normal_form
from twincsp import permutations as pm

SIZES = (2, 3, 4, 16, 20, 32, 48)


def _collect_deltas(entries: list) -> tuple[int, list[list[int]]]:
    """Push interleaved half-twist powers (ints) to the front of a sequence
    of permutations: D^d A = tau^d(A) D^d, and tau has order two."""
    total = 0
    out: list[list[int]] = []
    for e in reversed(entries):
        if isinstance(e, int):
            total += e
        else:
            out.append(list(pm.flip(tuple(e))) if total % 2 else list(e))
    out.reverse()
    return total, out


def _normalize_factors(factors: list[list[int]], n: int) -> tuple[int, list[tuple]]:
    """Sweep: left-weight pair i, step back after a move, forward otherwise;
    drop identities, then strip half twists from the front."""
    ident = list(range(n))
    facs = [f for f in factors if f != ident]
    i = 0
    while i < len(facs) - 1:
        if braid._left_weight_pair(facs[i], facs[i + 1], n):
            if facs[i + 1] == ident:
                del facs[i + 1]
            i = i - 1 if i > 0 else 0
        else:
            i += 1
    rev = list(range(n - 1, -1, -1))
    dp = 0
    while facs and facs[0] == rev:
        dp += 1
        del facs[0]
    return dp, [tuple(f) for f in facs]


def reference_form(n: int, entries: list) -> CanonicalForm:
    dtot, facs = _collect_deltas(entries)
    dp, tuples = _normalize_factors(facs, n)
    return CanonicalForm(n, dtot + dp, tuple(PermutationBraid(n, p) for p in tuples))


def reference_normal_form(w: BraidWord) -> CanonicalForm:
    n, rev = w.n, pm.half_twist(w.n)
    entries: list = []
    for v in w.letters:
        t = pm.transposition(n, abs(v))
        entries.extend([t] if v > 0 else [-1, pm.compose(rev, t)])
    return reference_form(n, entries)


def reference_multiply(x: CanonicalForm, y: CanonicalForm) -> CanonicalForm:
    return reference_form(x.n, [x.delta_exp, *(f.perm for f in x.factors),
                                y.delta_exp, *(f.perm for f in y.factors)])


def reference_invert(x: CanonicalForm) -> CanonicalForm:
    rev = pm.half_twist(x.n)
    entries: list = []
    for f in reversed(x.factors):
        entries.extend([-1, pm.compose(rev, pm.inverse(f.perm))])
    return reference_form(x.n, entries + [-x.delta_exp])


def cases(n: int, tag: int):
    """Seeded words: uniform ones, and a conjugate t g t^-1 with t from the
    left half, the shape that makes heavy pairs (and, from B_20, meets)."""
    rng = rng_from(tag)
    for length in (0, 1, 2, n, 3 * n):
        yield random_word(n, length, rng)
    t = random_word(n, 2 * n, rng, indices=range(1, max(2, n // 2)))
    g = random_word(n, n, rng)
    yield BraidWord(n, t.letters + g.letters + tuple(-v for v in reversed(t.letters)))


@pytest.fixture
def pair_calls(monkeypatch):
    calls = []
    pair = braid._left_weight_pair

    def counted(a, b, n):
        calls.append(n)
        return pair(a, b, n)

    monkeypatch.setattr(braid, "_left_weight_pair", counted)
    return calls


@pytest.mark.parametrize("n", SIZES)
def test_engine_equals_reference(n, monkeypatch):
    meets = []
    meet = braid._meet
    monkeypatch.setattr(braid, "_meet", lambda *a: meets.append(1) or meet(*a))
    words = [w for tag in range(3) for w in cases(n, 7000 + 10 * n + tag)]
    forms = [normal_form(w) for w in words]
    for w, x in zip(words, forms):
        assert x == reference_normal_form(w), w
        assert nf_invert(x) == reference_invert(x)
    for x in forms:
        for y in forms[::3]:
            assert nf_multiply(x, y) == reference_multiply(x, y)
            assert nf_multiply(x, nf_invert(y)) == reference_multiply(x, reference_invert(y))
    if n >= braid.MEET_FROM:
        assert meets, "no pair reached the meet"


@pytest.mark.parametrize("n", (4, 16, 32))
def test_invert_makes_no_pair_call(n, pair_calls):
    x = normal_form(random_word(n, 3 * n, rng_from(71 + n)))
    assert len(x.factors) >= 2
    pair_calls.clear()
    inv = nf_invert(x)
    assert pair_calls == []
    assert nf_multiply(x, inv).is_identity()


@pytest.mark.parametrize("dexp", (0, 1, -3))
@pytest.mark.parametrize("n", (4, 16, 32))
def test_multiply_by_half_twist_power_makes_no_pair_call(n, dexp, pair_calls):
    x = normal_form(random_word(n, 3 * n, rng_from(72 + n)))
    assert len(x.factors) >= 2
    pair_calls.clear()
    product = nf_multiply(x, CanonicalForm(n, dexp, ()))
    assert pair_calls == []
    assert product == reference_multiply(x, CanonicalForm(n, dexp, ()))
