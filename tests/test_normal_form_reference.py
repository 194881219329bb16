"""The one-pass normal form against a reference: the back-and-forth sweep
the engine used before, which left-weights every adjacent pair of the whole
factor sequence until none moves.  Both share the pair kernel, which
tests/test_pair_transfer.py checks on its own.  Also counts the pair calls
that the one-pass form no longer makes, among them every call that would
left-weight a factor against a half twist, and takes each branch of the
run gathering in normal_form against the reference."""

import pytest

from conftest import delta, is_identity, random_word, rng_from, word_of
from twincsp import (
    BraidWord,
    CanonicalForm,
    PermutationBraid,
    SubgroupSide,
    braid,
    default_params,
    loopback_run,
    make_ccs_instance,
    nf_invert,
    nf_multiply,
    normal_form,
    probing_adversary,
    run_reduction,
    sample_subgroup,
    twin_decrypt,
    twin_encrypt,
    twin_keygen,
)
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
    return CanonicalForm(n, dtot + dp, tuple(PermutationBraid(p) for p in tuples))


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
    left half, the shape that makes heavy pairs (and, for n >= MEET_FROM,
    meets)."""
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
    assert is_identity(nf_multiply(x, inv))


@pytest.mark.parametrize("dexp", (0, 1, -3))
@pytest.mark.parametrize("n", (4, 16, 32))
def test_multiply_by_half_twist_power_makes_no_pair_call(n, dexp, pair_calls):
    x = normal_form(random_word(n, 3 * n, rng_from(72 + n)))
    assert len(x.factors) >= 2
    pair_calls.clear()
    product = nf_multiply(x, CanonicalForm(n, dexp, ()))
    assert pair_calls == []
    assert product == reference_multiply(x, CanonicalForm(n, dexp, ()))


@pytest.fixture
def half_twists(monkeypatch):
    """Counts pair calls and, among them, those whose right factor is D on
    entry (``right``) and those whose left factor is D on exit (``made``:
    an inner factor became D mid-percolation)."""
    seen = {"calls": 0, "right": 0, "made": 0}
    pair = braid._left_weight_pair

    def counted(a, b, n):
        rev = list(range(n - 1, -1, -1))
        seen["calls"] += 1
        seen["right"] += b == rev
        moved = pair(a, b, n)
        seen["made"] += a == rev
        return moved

    monkeypatch.setattr(braid, "_left_weight_pair", counted)
    return seen


def _b16_twin_round_trip():
    p = default_params()
    kp = twin_keygen(p, rng_from(7301))
    assert twin_decrypt(kp, twin_encrypt(kp.public, b"m" * 64, rng_from(7302))) == b"m" * 64


def _b16_reduction():
    p = default_params()
    inst = make_ccs_instance(p, rng_from(7303))
    adversary, _ = probing_adversary(p, inst.witness_y, rng_from(7304), n_queries=4)
    assert run_reduction(inst, adversary, rng_from(7305)).succeeded


def _b32_exchange():
    res_i, res_r = loopback_run(default_params(16, 16, 32), rng_from(7306), rng_from(7307))
    assert res_i.key == res_r.key


@pytest.mark.parametrize("run", (_b16_twin_round_trip, _b16_reduction, _b32_exchange))
def test_no_pair_call_meets_a_half_twist(run, half_twists):
    """A factor that is or becomes D leaves for the front at once, so the
    pair (A, D), which would only compute (D, tau A), is never formed."""
    run()
    assert half_twists["calls"] > 100
    assert half_twists["made"] > 0, "no factor became D: the exit was not exercised"
    assert half_twists["right"] == 0


def d_cases(n: int, tag: int):
    """Seeded (x, y) whose product makes factors D: a positive x times
    x^-1 D^k (x's k factors all become D, inner ones mid-percolation),
    alone and followed by a random word."""
    rng = rng_from(tag)
    for length in (n, 3 * n):
        x = normal_form(BraidWord(n, tuple(abs(v) for v in random_word(n, length, rng).letters)))
        k = len(x.factors) or 1
        inv_word = tuple(-v for v in reversed(word_of(x).letters))
        yield x, normal_form(BraidWord(n, inv_word + delta(n).letters * k))
        z = random_word(n, n, rng)
        yield x, normal_form(BraidWord(n, inv_word + delta(n).letters * k + z.letters))


@pytest.mark.parametrize("n", (2, 3, 4, 16, 32))
def test_half_twist_exit_equals_reference(n, half_twists):
    pairs = list(d_cases(n, 7400 + n))
    words = [BraidWord(n, word_of(x).letters + word_of(y).letters) for x, y in pairs]
    words.append(BraidWord(n, (1,) * 5 + tuple(range(1, n)) * 2))
    if n == 3:
        # Runs s1 | s1 s2 s1 | s1 s2: the run D leaves for the front and
        # flips s1 to s2, then the pair (s2, s1 s2) makes D.  Most n = 3
        # words gather D as a run and never make one in a pair.
        words.append(BraidWord(3, (1, 1, 2, 1, 1, 2)))
    half_twists["made"] = 0
    products = [nf_multiply(x, y) for x, y in pairs]
    forms = [normal_form(w) for w in words]
    if n == 2:
        # Every factor is D or the identity: each positive letter is a D
        # tail factor, and no pair ever moves.
        assert forms[-1] == CanonicalForm(2, 7, ())
    else:
        assert half_twists["made"] > 0, "no inner factor became D"
    assert products == [reference_multiply(x, y) for x, y in pairs]
    assert forms == [reference_normal_form(w) for w in words]


def run_words(n: int) -> list[BraidWord]:
    """Words that take each branch of normal_form's run gathering, with f
    the generator farthest from 1 and 2; each word is also taken with
    every letter i mapped to n - i, which puts the runs at the other end."""
    f = n - 1
    shapes = [
        (),                           # the empty word
        (1,), (-1,),                  # one run; D and D^-1 at n = 2
        (1, 1), (-1, -1, -1),         # a descent at i starts a new run
        (1, 2), (2, 1, 3, 2),         # a positive run grows
        (-1, -2), (-2, -1, -3, -2),   # a negative run grows
        (1, 2, 1), (-2, -1, -2),      # runs that are D or D^-1 at n = 3
        (1, 2, 1, 1, 2, 1),
        (2, -f, 1), (-2, f, -1),      # pass back over an opposite run and join
        (2, -f, -f, 1, 3),            # pass back over two runs
        (-f, 1), (f, f, -1, 2),       # pass back to the start, new run
        (1, -2, 3), (3, -2, 1),       # blocked by a run holding i-1, i+1
        (3, -2, -1, 2), (1, -1, 1),   # blocked by a run holding i
        (2, 1, -2), (2, 1, -2, -2),   # one, two negative runs after a run
        (2, 1, -2, 3, -2, -2, 1, -1, -1),
        (1, -f, 2, -f, 3, -f),        # alternating signs, mostly commuting
    ]
    words = []
    for shape in shapes:
        if all(1 <= abs(v) < n for v in shape):
            words.append(BraidWord(n, shape))
            words.append(BraidWord(n, tuple(n - v if v > 0 else -(n + v) for v in shape)))
    return words


@pytest.mark.parametrize("n", (2, 3, 4, 16, 32, 48))
def test_run_gathering_equals_reference(n):
    words = run_words(n)
    rng = rng_from(7500 + n)
    # Concatenations, so that runs of each shape meet runs of the others.
    words += [BraidWord(n, sum((rng.choice(words).letters for _ in range(6)), ()))
              for _ in range(20)]
    for w in words:
        assert normal_form(w) == reference_normal_form(w), w


def test_normal_form_pair_calls_on_b32_secrets(pair_calls):
    """The exact pair calls of normal_form over 32 seeded B_32 subgroup
    secrets (976 letters, 156 factors in their forms): 2,374 when every
    letter was its own factor, 814 with runs."""
    p = default_params(16, 16, 32)
    secrets = [sample_subgroup(p, side, rng_from(7600 + k))
               for k in range(16) for side in SubgroupSide]
    pair_calls.clear()
    forms = [normal_form(w) for w in secrets]
    assert len(pair_calls) == 814
    assert forms == [reference_normal_form(w) for w in secrets]
