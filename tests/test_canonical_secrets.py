"""Words keep their normal forms: one normalization per secret, ephemeral
and base element, reused by every conjugation, with results equal to the
word-at-a-time path."""

import sys
import threading

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import CallCounter, is_identity, random_word, rng_from, word_of
from twincsp import (
    BraidWord,
    conjugate,
    invert,
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
    expected = normal_form(conjugate(word_of(x), t))
    assert nf_conjugate(x, t) == expected
    assert nf_conjugate(x, t) == expected  # from the forms t now keeps


def test_conjugator_holds_an_inverse_pair():
    rng = rng_from(500)
    t = BraidWord(8, tuple(rng.rand_sign() * (1 + rng.rand_below(7)) for _ in range(30)))
    assert t.form == normal_form(t)
    assert t.inverse_form == normal_form(invert(t))
    assert is_identity(nf_multiply(t.form, t.inverse_form))
    assert t.form is t.form and t.inverse_form is t.inverse_form


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
    assert normal_forms.total == before  # keygen normalized the secret words


def test_key_files_derive_conjugators_on_first_use(params, normal_forms):
    kp = twin_keygen(params, rng_from(503))
    secret_file, public_file = encode_keypair(kp), encode_public_key(kp.public)

    before = normal_forms.total
    loaded, pk = decode_keypair(secret_file), decode_public_key(public_file)
    assert normal_forms.total == before  # decoding does no normal-form work
    assert loaded == kp

    ct = twin_encrypt(pk, b"from files", rng_from(504))
    assert normal_forms.total - before == 2  # the file's g, then the ephemeral

    before = normal_forms.total
    assert twin_decrypt(loaded, ct) == b"from files"
    assert normal_forms.total - before == 2  # x1 and x2, derived once
    assert [w.form for w in loaded.secrets] == [w.form for w in kp.secrets]
    assert twin_decrypt(loaded, ct) == b"from files"
    assert normal_forms.total - before == 2


def test_loopback_run_normalizes_two_secrets_per_party(params, normal_forms):
    params.g.form  # the base element's form is shared by both parties
    normal_forms.by_thread.clear()
    res_i, res_r = loopback_run(params, rng_from(505), rng_from(506))
    assert res_i.key == res_r.key
    # the initiator runs in this thread, the responder in another
    assert sorted(normal_forms.by_thread.values()) == [2, 2]


def test_base_element_normalized_once_per_params(params, normal_forms):
    first = params.g.form
    assert params.g.form is first
    assert normal_forms.total == 1
    assert first == normal_form(params.g)


def test_a_word_is_normalized_once(monkeypatch, normal_forms):
    inverses = CallCounter(braid.nf_invert)
    monkeypatch.setattr(braid, "nf_invert", inverses)
    rng = rng_from(508)
    X1, X2 = (normal_form(random_word(16, 20, rng)) for _ in range(2))
    w = random_word(16, 20, rng)
    before = normal_forms.total
    nf_conjugate(X1, w)
    nf_conjugate(X2, w)
    assert (normal_forms.total - before, inverses.total) == (1, 1)


def test_threads_share_words_without_deadlock():
    """Threads conjugating by shared words get the word-path results and
    finish: in Python 3.11 each cached property holds one lock for every
    word, and inverse_form takes form's lock while holding its own."""
    rng = rng_from(509)
    ws = [random_word(16, 20, rng) for _ in range(5)]
    x = normal_form(random_word(16, 20, rng))
    expected = [normal_form(conjugate(word_of(x), w)) for w in ws]
    results = []

    def work(k):
        for i in range(len(ws)):
            j = (i + k) % len(ws)
            results.append((j, nf_conjugate(x, ws[j])))

    old = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        threads = [threading.Thread(target=work, args=(k,), daemon=True) for k in range(6)]
        for t in threads:
            t.start()
        for t in threads:
            t.join(60)
    finally:
        sys.setswitchinterval(old)
    assert not any(t.is_alive() for t in threads)
    assert len(results) == 30 and all(r == expected[j] for j, r in results)


def test_engine_factors_skip_revalidation(monkeypatch):
    counter = CallCounter(permutations.is_permutation)
    monkeypatch.setattr(permutations, "is_permutation", counter)
    rng = rng_from(507)
    cf = normal_form(BraidWord(16, tuple(
        rng.rand_sign() * (1 + rng.rand_below(15)) for _ in range(40))))
    assert cf.factors and counter.total == 0
    assert deserialize_canonical(serialize_canonical(cf)) == cf
    assert counter.total == len(cf.factors)  # decoded factors are still checked
