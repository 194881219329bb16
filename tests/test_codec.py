"""Serialization, the element hash, and the symmetric cipher pair."""

import hashlib
import itertools
import struct

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import random_word, rewrite_equivalent, rng_from
from twincsp import permutations as pm
from twincsp import (
    AuthenticationError,
    BraidWord,
    CanonicalForm,
    SealedBox,
    SymKey,
    hash_elements,
    normal_form,
    serialize_canonical,
    sym_decrypt,
    sym_encrypt,
)
from twincsp.codec import (
    KEY_BYTES,
    CodecError,
    Reader,
    _keystream,
    deserialize_canonical,
    read_word,
    serialize_word,
)


class TestSerialization:
    def test_identity_is_sixteen_bytes(self):
        data = serialize_canonical(normal_form(BraidWord(16, ())))
        assert len(data) == 16
        assert data == b"TCSP" + bytes([1, 2]) + (16).to_bytes(2, "big") + b"\x00" * 8

    def test_group_equal_words_serialize_identically(self):
        a = serialize_canonical(normal_form(BraidWord(3, (1, 2, 1))))
        b = serialize_canonical(normal_form(BraidWord(3, (2, 1, 2))))
        assert a == b

    def test_negative_delta_round_trip(self):
        cf = normal_form(BraidWord(5, (-1, -3, 2, -4)))
        assert cf.delta_exp < 0
        assert deserialize_canonical(serialize_canonical(cf)) == cf

    def test_injectivity_smoke(self):
        rng = rng_from(30)
        seen = {}
        for _ in range(10_000):
            cf = normal_form(random_word(6, 14, rng))
            data = serialize_canonical(cf)
            if data in seen:
                assert seen[data] == cf
            seen[data] = cf
        distinct_forms = len(set(seen.values()))
        assert distinct_forms == len(seen)

    def test_word_round_trip(self):
        word = BraidWord(7, (1, -6, 3, 3, -2))
        data = serialize_word(word)
        r = Reader(data)
        assert read_word(r) == word and r.offset == len(data)

    def test_bad_magic_offset(self):
        data = bytearray(serialize_canonical(normal_form(BraidWord(4, (1,)))))
        data[0] ^= 0xFF
        with pytest.raises(CodecError) as exc:
            deserialize_canonical(bytes(data))
        assert exc.value.offset == 0

    def test_unsupported_version(self):
        data = bytearray(serialize_canonical(normal_form(BraidWord(4, (1,)))))
        data[4] = 0x02
        with pytest.raises(CodecError, match="version"):
            deserialize_canonical(bytes(data))

    def test_truncated_factor_table(self):
        data = serialize_canonical(normal_form(BraidWord(4, (1, 2))))
        with pytest.raises(CodecError, match="truncated"):
            deserialize_canonical(data[:-3])

    def test_cut_after_kind_names_the_strand_count(self):
        data = serialize_canonical(normal_form(BraidWord(4, (1, 2))))
        with pytest.raises(CodecError, match="truncated strand count") as exc:
            deserialize_canonical(data[:6])
        assert exc.value.offset == 6

    def test_trailing_bytes_after_form(self):
        data = serialize_canonical(normal_form(BraidWord(4, (1, 2))))
        with pytest.raises(CodecError, match="trailing bytes") as exc:
            deserialize_canonical(data + b"\x00")
        assert exc.value.offset == len(data)

    def test_word_beyond_the_letter_field_is_value_error(self):
        with pytest.raises(ValueError, match=r"\+-32767, so n at most 32768"):
            serialize_word(BraidWord(40000, (39999,)))

    def test_form_beyond_the_strand_field_is_value_error(self):
        with pytest.raises(ValueError, match="n must be at most 65535"):
            serialize_canonical(CanonicalForm(70000, 0, ()))
        with pytest.raises(ValueError, match="n must be at most 65535"):
            hash_elements("cs", [CanonicalForm(70000, 0, ())])

    def test_non_permutation_rejected(self):
        data = bytearray(serialize_canonical(normal_form(BraidWord(4, (1,)))))
        # factor images start after the 16-byte header; duplicate an image
        data[17] = data[19]
        with pytest.raises(CodecError):
            deserialize_canonical(bytes(data))


def encode_factors(n: int, delta_exp: int, perms) -> bytes:
    """A kind-0x02 encoding of an arbitrary factor table, canonical or not."""
    head = b"TCSP" + struct.pack(">BBHiI", 1, 2, n, delta_exp, len(perms))
    return head + b"".join(struct.pack(f">{n}H", *p) for p in perms)


class TestStrictDecode:
    """Only the encodings of normal forms decode, so H is a function of
    group elements and not of their encodings."""

    @pytest.fixture
    def Y(self):
        rng = rng_from(32)
        cf = normal_form(random_word(16, 40, rng))
        assert len(cf.factors) >= 2
        return cf

    def perms(self, cf):
        return [f.perm for f in cf.factors]

    def test_engine_encoding_accepted(self, Y):
        data = encode_factors(16, Y.delta_exp, self.perms(Y))
        assert data == serialize_canonical(Y)
        assert deserialize_canonical(data) == Y

    @pytest.mark.parametrize("bad", [(1, 1, 2, 3), (0, 1, 2, 9)])
    def test_non_permutation_factor_is_rejected(self, bad):
        s1 = (1, 0, 2, 3)
        with pytest.raises(CodecError, match="not a permutation") as exc:
            deserialize_canonical(encode_factors(4, 0, [s1, bad]))
        assert exc.value.offset == 16 + 8

    def test_identity_factor_prepended_is_rejected(self, Y):
        data = encode_factors(16, Y.delta_exp, [tuple(range(16))] + self.perms(Y))
        with pytest.raises(CodecError, match="identity factor") as exc:
            deserialize_canonical(data)
        assert exc.value.offset == 16

    def test_half_twist_factor_is_rejected(self, Y):
        rev = tuple(range(15, -1, -1))
        data = encode_factors(16, Y.delta_exp, self.perms(Y) + [rev])
        with pytest.raises(CodecError, match="half-twist") as exc:
            deserialize_canonical(data)
        assert exc.value.offset == 16 + 32 * len(Y.factors)

    def test_pair_not_left_weighted_is_rejected(self):
        # s_1 then s_2: S(s_2) = {2} is not inside F(s_1) = {1}; the normal
        # form of s_1 s_2 is the single factor it spells.
        s1, s2 = (1, 0, 2, 3), (0, 2, 1, 3)
        with pytest.raises(CodecError, match="left-weighted") as exc:
            deserialize_canonical(encode_factors(4, 0, [s1, s2]))
        assert exc.value.offset == 16 + 8
        assert len(normal_form(BraidWord(4, (1, 2))).factors) == 1
        # s_1 then s_1 is left-weighted: the normal form of s_1^2
        assert deserialize_canonical(encode_factors(4, 0, [s1, s1])) == normal_form(
            BraidWord(4, (1, 1)))

    def test_left_weighted_check_on_every_triple_of_b4_factors(self):
        """Every three-factor table over B_4's 22 proper simple factors: it
        decodes exactly when each adjacent pair (A, B) has S(B), the descents
        of B^-1, inside F(A), the descents of A; otherwise the error names
        the first B that fails."""
        simple = [p for p in itertools.permutations(range(4))
                  if p not in ((0, 1, 2, 3), (3, 2, 1, 0))]

        def left_weighted(a, b):
            return pm.descents(pm.inverse(b)) <= pm.descents(a)

        for table in itertools.product(simple, repeat=3):
            data = encode_factors(4, 0, table)
            bad = [j for j in (1, 2) if not left_weighted(table[j - 1], table[j])]
            if not bad:
                assert [f.perm for f in deserialize_canonical(data).factors] == list(table)
                continue
            with pytest.raises(CodecError, match="left-weighted") as exc:
                deserialize_canonical(data)
            assert exc.value.offset == 16 + 8 * bad[0]

    def test_decode_encode_is_identity_on_engine_outputs(self):
        rng = rng_from(33)
        for n in (3, 4, 8, 16, 32):
            for _ in range(40):
                cf = normal_form(random_word(n, 30, rng))
                data = serialize_canonical(cf)
                assert deserialize_canonical(data) == cf
                assert serialize_canonical(deserialize_canonical(data)) == data


class TestHashElements:
    def test_well_defined_on_group_elements(self):
        rng = rng_from(31)
        for _ in range(100):
            word = random_word(8, 20, rng)
            variant = rewrite_equivalent(word, rng, steps=50)
            a = hash_elements("cs", [normal_form(word)])
            b = hash_elements("cs", [normal_form(variant)])
            assert a == b

    def test_order_sensitive(self):
        x = normal_form(BraidWord(4, (1,)))
        y = normal_form(BraidWord(4, (2,)))
        assert hash_elements("cs", [x, y]) != hash_elements("cs", [y, x])

    def test_label_separates_domains(self):
        x = normal_form(BraidWord(4, (1, 2)))
        assert hash_elements("cs", [x]) != hash_elements("twin", [x])

    def test_deterministic(self):
        x = normal_form(BraidWord(4, (1, 2)))
        assert hash_elements("kex", [x, x]) == hash_elements("kex", [x, x])

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            hash_elements("cs", [])

    def test_key_is_32_bytes(self):
        x = normal_form(BraidWord(4, (1,)))
        assert len(hash_elements("cs", [x]).bytes) == 32


def key_from(tag: int) -> SymKey:
    return SymKey(rng_from(tag).rand_bytes(32))


class TestSymmetricPair:
    def test_round_trip(self):
        key = key_from(1)
        for size in (0, 1, 31, 32, 33, 1000):
            msg = rng_from(size + 2).rand_bytes(size)
            assert sym_decrypt(key, sym_encrypt(key, msg)) == msg

    def test_empty_message_valid_tag(self):
        key = key_from(2)
        box = sym_encrypt(key, b"")
        assert box.ct == b""
        assert sym_decrypt(key, box) == b""

    def test_deterministic(self):
        key = key_from(3)
        assert sym_encrypt(key, b"abc") == sym_encrypt(key, b"abc")

    def test_every_ciphertext_bit_is_authenticated(self):
        key = key_from(4)
        box = sym_encrypt(key, bytes(range(16)))
        for byte_idx in range(16):
            for bit in range(8):
                flipped = bytearray(box.ct)
                flipped[byte_idx] ^= 1 << bit
                with pytest.raises(AuthenticationError):
                    sym_decrypt(key, SealedBox(bytes(flipped), box.tag))

    def test_tag_bits_checked(self):
        key = key_from(5)
        box = sym_encrypt(key, b"payload")
        for byte_idx in range(32):
            flipped = bytearray(box.tag)
            flipped[byte_idx] ^= 0x01
            with pytest.raises(AuthenticationError):
                sym_decrypt(key, SealedBox(box.ct, bytes(flipped)))

    def test_wrong_keys_rejected(self):
        key = key_from(6)
        box = sym_encrypt(key, b"the secret")
        rng = rng_from(7)
        for _ in range(1000):
            other = SymKey(rng.rand_bytes(32))
            if other == key:
                continue
            with pytest.raises(AuthenticationError):
                sym_decrypt(other, box)

    def test_truncated_ciphertext_rejected(self):
        key = key_from(8)
        box = sym_encrypt(key, b"0123456789")
        with pytest.raises(AuthenticationError):
            sym_decrypt(key, SealedBox(box.ct[:-1], box.tag))


class TestKeystream:
    """The keystream is SHAKE-128(key || "ks"), one XOF call per message."""

    def test_known_answer(self):
        key = SymKey(bytes(range(32)))
        assert _keystream(key, 32).hex() == (
            "198c1c5e6435f7edf7ca5d988f320ea8374236f7ee30a0ba188715b0182d2dab"
        )

    # SHAKE-128 absorbs and squeezes 168 bytes per permutation.
    @pytest.mark.parametrize("size", [167, 168, 169, 336, 2**20 + 1])
    def test_round_trip_at_rate_boundaries(self, size):
        key = key_from(10)
        msg = rng_from(size).rand_bytes(size)
        box = sym_encrypt(key, msg)
        assert len(box.ct) == size
        assert sym_decrypt(key, box) == msg

    @settings(max_examples=50, deadline=None)
    @given(st.integers(0, 1000), st.integers(1, 1000), st.integers(0, 2**31))
    def test_shorter_stream_is_a_prefix(self, n, extra, tag):
        key = SymKey(rng_from(tag).rand_bytes(32))
        assert _keystream(key, n + extra)[:n] == _keystream(key, n)


# SHA-256 compression in pure Python, enough to continue a digest from its
# state: the round constants are the first 32 bits of the fractional parts
# of the cube roots of the first 64 primes (FIPS 180-4, 4.2.2).
MASK = 0xFFFFFFFF


def _icbrt(x: int) -> int:
    lo, hi = 0, 1 << (x.bit_length() // 3 + 2)
    while lo < hi:
        mid = (lo + hi + 1) // 2
        lo, hi = (mid, hi) if mid ** 3 <= x else (lo, mid - 1)
    return lo


PRIMES = [p for p in range(2, 312) if all(p % d for d in range(2, p))]
ROUND_K = [_icbrt(p << 96) & MASK for p in PRIMES]


def _rotr(x: int, k: int) -> int:
    return ((x >> k) | (x << (32 - k))) & MASK


def _compress(state, block: bytes):
    w = list(struct.unpack(">16I", block))
    for i in range(16, 64):
        s0 = _rotr(w[i - 15], 7) ^ _rotr(w[i - 15], 18) ^ (w[i - 15] >> 3)
        s1 = _rotr(w[i - 2], 17) ^ _rotr(w[i - 2], 19) ^ (w[i - 2] >> 10)
        w.append((w[i - 16] + s0 + w[i - 7] + s1) & MASK)
    a, b, c, d, e, f, g, h = state
    for i in range(64):
        t1 = h + (_rotr(e, 6) ^ _rotr(e, 11) ^ _rotr(e, 25)) + ((e & f) ^ (~e & g))
        t1 = (t1 + ROUND_K[i] + w[i]) & MASK
        t2 = (_rotr(a, 2) ^ _rotr(a, 13) ^ _rotr(a, 22)) + ((a & b) ^ (a & c) ^ (b & c))
        h, g, f, e, d, c, b, a = g, f, e, (d + t1) & MASK, c, b, a, (t1 + t2) & MASK
    return tuple((x + y) & MASK for x, y in zip(state, (a, b, c, d, e, f, g, h)))


def _md_padding(length: int) -> bytes:
    return b"\x80" + b"\x00" * ((55 - length) % 64) + struct.pack(">Q", 8 * length)


def sha256_extend(digest: bytes, secret_len: int, suffix: bytes) -> tuple[bytes, bytes]:
    """Given SHA256(m) and len(m) but not m, return (glue, SHA256(m || glue || suffix))."""
    glue = _md_padding(secret_len)
    tail = suffix + _md_padding(secret_len + len(glue) + len(suffix))
    state = struct.unpack(">8I", digest)
    for i in range(0, len(tail), 64):
        state = _compress(state, tail[i : i + 64])
    return glue, struct.pack(">8I", *state)


@pytest.mark.parametrize("secret_len", [0, 35, 55, 56, 64, 100])
def test_sha256_extension_is_exact(secret_len):
    secret = bytes(range(secret_len))
    suffix = b"appended by someone without the secret"
    glue, digest = sha256_extend(hashlib.sha256(secret).digest(), secret_len, suffix)
    assert digest == hashlib.sha256(secret + glue + suffix).digest()


def test_length_extension_forgery_is_rejected():
    """A tag SHA256(key || "mac" || ct) would let anyone who saw one box
    append to the ciphertext and compute the matching tag."""
    key = key_from(9)
    box = sym_encrypt(key, b"pay alice 10 coins")
    suffix = b"; and mallory 10000"
    # The attacker knows the tag, the ciphertext and the key length only.
    glue, tag = sha256_extend(box.tag, KEY_BYTES + len(b"mac") + len(box.ct), suffix)
    forged = SealedBox(box.ct + glue + suffix, tag)
    with pytest.raises(AuthenticationError):
        sym_decrypt(key, forged)


@settings(max_examples=50, deadline=None)
@given(st.binary(max_size=4096), st.integers(0, 2**31))
def test_round_trip_property(message, tag):
    key = SymKey(rng_from(tag).rand_bytes(32))
    assert sym_decrypt(key, sym_encrypt(key, message)) == message
