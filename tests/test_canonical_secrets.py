"""Canonical conjugators: one normalization per secret, ephemeral and base
element, reused by every conjugation, with results equal to the
word-at-a-time path."""

import threading
from collections import Counter

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import rng_from, word_of
from twincsp import (
    BraidWord,
    Conjugator,
    conjugate,
    conjugator,
    loopback_run,
    nf_conjugate,
    nf_multiply,
    normal_form,
    twin_decrypt,
    twin_encrypt,
    twin_keygen,
)
from twincsp import braid, permutations
from twincsp.codec import deserialize_canonical, serialize_canonical
from twincsp.keyfiles import decode_keypair, decode_public_key, encode_keypair, encode_public_key


def words(n: int):
    letter = st.tuples(st.integers(1, n - 1), st.booleans()).map(
        lambda t: t[0] if t[1] else -t[0])
    return st.lists(letter, max_size=20).map(lambda ls: BraidWord(n, tuple(ls)))


pairs = st.sampled_from([4, 16, 32]).flatmap(lambda n: st.tuples(words(n), words(n)))


@settings(max_examples=40, deadline=None)
@given(pairs)
def test_conjugator_path_matches_word_path(pair):
    xw, t = pair
    x = normal_form(xw)
    by_conjugator = nf_conjugate(x, conjugator(t))
    assert by_conjugator == nf_conjugate(x, t)
    assert by_conjugator == normal_form(conjugate(word_of(x), t))


def test_conjugator_holds_an_inverse_pair():
    rng = rng_from(500)
    t = BraidWord(8, tuple(rng.rand_sign() * (1 + rng.rand_below(7)) for _ in range(30)))
    c = conjugator(t)
    assert isinstance(c, Conjugator)
    assert c.form == normal_form(t)
    assert nf_multiply(c.form, c.inverse).is_identity()
    assert conjugator(c) is c


class CallCounter:
    """Counts calls of a wrapped function, per thread."""

    def __init__(self, fn):
        self.fn = fn
        self.by_thread = Counter()

    def __call__(self, *args, **kwargs):
        self.by_thread[threading.get_ident()] += 1
        return self.fn(*args, **kwargs)

    @property
    def total(self) -> int:
        return sum(self.by_thread.values())


@pytest.fixture
def normal_forms(monkeypatch):
    counter = CallCounter(braid.normal_form)
    monkeypatch.setattr(braid, "normal_form", counter)
    return counter


def test_twin_scheme_normalizes_each_conjugator_once(params, normal_forms):
    kp = twin_keygen(params, rng_from(501))
    assert normal_forms.total == 3  # g, x1, x2

    before = normal_forms.total
    ct = twin_encrypt(kp.public, b"count me", rng_from(502))
    assert normal_forms.total - before == 1  # the ephemeral only

    before = normal_forms.total
    assert twin_decrypt(kp, ct) == b"count me"
    assert twin_decrypt(kp, ct) == b"count me"
    assert normal_forms.total == before  # keygen left canonical secrets


def test_key_files_derive_conjugators_on_first_use(params, normal_forms):
    kp = twin_keygen(params, rng_from(503))
    secret_file, public_file = encode_keypair(kp), encode_public_key(kp.public)

    before = normal_forms.total
    loaded, pk = decode_keypair(secret_file), decode_public_key(public_file)
    assert normal_forms.total == before  # decoding does no normal-form work
    assert loaded == kp and loaded.canonical is None

    ct = twin_encrypt(pk, b"from files", rng_from(504))
    assert normal_forms.total - before == 2  # the file's g, then the ephemeral

    before = normal_forms.total
    assert twin_decrypt(loaded, ct) == b"from files"
    assert normal_forms.total - before == 2  # x1 and x2, derived once
    assert loaded.conjugators == kp.conjugators
    assert twin_decrypt(loaded, ct) == b"from files"
    assert normal_forms.total - before == 2


def test_loopback_run_normalizes_two_secrets_per_party(params, normal_forms):
    params.g_nf  # the base element's form is shared by both parties
    normal_forms.by_thread.clear()
    res_i, res_r = loopback_run(params, rng_from(505), rng_from(506))
    assert res_i.key == res_r.key
    # the initiator runs in this thread, the responder in another
    assert sorted(normal_forms.by_thread.values()) == [2, 2]


def test_base_element_normalized_once_per_params(params, normal_forms):
    first = params.g_nf
    assert params.g_nf is first
    assert normal_forms.total == 1
    assert first == normal_form(params.g)


def test_engine_factors_skip_revalidation(monkeypatch):
    counter = CallCounter(permutations.is_permutation)
    monkeypatch.setattr(permutations, "is_permutation", counter)
    rng = rng_from(507)
    cf = normal_form(BraidWord(16, tuple(
        rng.rand_sign() * (1 + rng.rand_below(15)) for _ in range(40))))
    assert cf.factors and counter.total == 0
    assert deserialize_canonical(serialize_canonical(cf)) == cf
    assert counter.total == len(cf.factors)  # decoded factors are still checked
