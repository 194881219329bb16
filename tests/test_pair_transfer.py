"""The factor-pair kernel against a reference that moves one crossing at a
time, on synthetic pairs on both sides of the crossover at which heavy
pairs finish with a meet and on pairs recorded from the schemes, and where
in the schemes that meet engages."""

import random

import pytest

from conftest import perfect_adversary, rng_from
from twincsp import (
    braid,
    default_params,
    loopback_run,
    make_ccs_instance,
    run_reduction,
    twin_decrypt,
    twin_encrypt,
    twin_keygen,
)


def reference_transfer(a, b):
    """Left-weight (a, b) the textbook way: while some generator i starts b
    (value i sits before value i-1) and does not finish a (a[i-1] < a[i]),
    move it: a gains a final s_i, b loses its leading s_i."""
    n = len(a)
    a, b = list(a), list(b)
    moved = False
    while True:
        pos = {v: p for p, v in enumerate(b)}
        i = next((i for i in range(1, n) if pos[i] < pos[i - 1] and a[i - 1] < a[i]), None)
        if i is None:
            return moved, a, b
        a[i - 1], a[i] = a[i], a[i - 1]
        b[pos[i]], b[pos[i - 1]] = i - 1, i
        moved = True


def near(perm, swaps, rnd):
    """perm with a few random adjacent positions swapped."""
    p = list(perm)
    for _ in range(swaps):
        i = rnd.randrange(1, len(p))
        p[i - 1], p[i] = p[i], p[i - 1]
    return p


def pairs(n, rnd):
    """Uniform pairs, which move few crossings, and the heavy shape that
    conjugation produces: a near-identity factor before a near-half-twist."""
    for _ in range(3):
        yield rnd.sample(range(n), n), rnd.sample(range(n), n)
    for swaps in (0, 1, n // 4, n):
        yield near(range(n), swaps, rnd), near(range(n - 1, -1, -1), swaps, rnd)


@pytest.fixture
def meet_calls(monkeypatch):
    calls = []
    real = braid._meet

    def counted(a, binv, n):
        calls.append(n)
        return real(a, binv, n)

    monkeypatch.setattr(braid, "_meet", counted)
    return calls


def test_kernel_matches_reference(meet_calls):
    rnd = random.Random(5150)
    for n in range(2, 65):
        for a, b in pairs(n, rnd):
            want = reference_transfer(a, b)
            a2, b2 = list(a), list(b)
            got = braid._left_weight_pair(a2, b2, n)
            assert (got, a2, b2) == want, (n, a, b)
    # Below the crossover the loop did all the work; above it, heavy pairs
    # finished with a meet at every n.
    assert sorted(set(meet_calls)) == list(range(braid.MEET_FROM, 65))


def test_meet_engages_at_b32_and_never_at_b16(meet_calls):
    p16 = default_params()
    loopback_run(p16, rng_from(5151), rng_from(5152))
    kp = twin_keygen(p16, rng_from(5153))
    assert twin_decrypt(kp, twin_encrypt(kp.public, b"m", rng_from(5154))) == b"m"
    assert meet_calls == []
    res_i, res_r = loopback_run(default_params(16, 16, 32), rng_from(5155), rng_from(5156))
    assert res_i.key == res_r.key
    assert meet_calls and set(meet_calls) == {32}


def insertion_paths(a, b):
    """The paths that the kernel's insertion pass takes on (a, b) when no
    meet cuts it short: "blocked by a" for an entry whose left neighbour
    lets it pass in b but not in a, "to front" for an entry that travels
    all the way to position 0."""
    n = len(a)
    a, binv = list(a), [0] * n
    for pos, v in enumerate(b):
        binv[v] = pos
    paths = set()
    for i in range(1, n):
        x, y = a[i], binv[i]
        if binv[i - 1] > y and a[i - 1] > x:
            paths.add("blocked by a")
        j = i
        while j and binv[j - 1] > y and a[j - 1] < x:
            j -= 1
        if j == 0:
            paths.add("to front")
        del a[i], binv[i]
        a.insert(j, x)
        binv.insert(j, y)
    return paths


def scheme_pairs(monkeypatch):
    """The kernel's inputs in a seeded B_16 twin_encrypt, its twin_decrypt,
    one run_reduction and one B_32 loopback_run, each source cut to a
    seeded sample of 250 pairs."""
    recorded = []
    real = braid._left_weight_pair

    def record(a, b, n):
        recorded.append((list(a), list(b), n))
        return real(a, b, n)

    monkeypatch.setattr(braid, "_left_weight_pair", record)
    rnd = random.Random(5166)
    out = []

    def take_sample():
        out.extend(rnd.sample(recorded, min(250, len(recorded))))
        recorded.clear()

    p16 = default_params()
    kp = twin_keygen(p16, rng_from(5160))
    inst = make_ccs_instance(p16, rng_from(5161))
    recorded.clear()
    ct = twin_encrypt(kp.public, b"m", rng_from(5162))
    take_sample()
    assert twin_decrypt(kp, ct) == b"m"
    take_sample()
    assert run_reduction(inst, perfect_adversary(inst.witness_y), rng_from(5163)).succeeded
    take_sample()
    loopback_run(default_params(16, 16, 32), rng_from(5164), rng_from(5165))
    take_sample()
    monkeypatch.setattr(braid, "_left_weight_pair", real)
    return out


def test_kernel_matches_reference_on_scheme_pairs(monkeypatch, meet_calls):
    recorded = scheme_pairs(monkeypatch)
    meet_calls.clear()
    paths = set()
    for a, b, n in recorded:
        if n < braid.MEET_FROM:
            paths |= insertion_paths(a, b)
        a2, b2 = list(a), list(b)
        got = braid._left_weight_pair(a2, b2, n)
        assert (got, a2, b2) == reference_transfer(a, b), (n, a, b)
    assert paths == {"blocked by a", "to front"}
    assert 32 in meet_calls
