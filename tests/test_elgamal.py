"""The single and twin encryption schemes.

The load-bearing fact for correctness is the shared-conjugate symmetry
x Y x^{-1} == y X y^{-1} for x in the left subgroup and y in the right;
it is asserted directly on every round trip below, alongside the
byte-level behaviour of the hybrids.
"""

import pytest

from conftest import rng_from
from twincsp import (
    AuthenticationError,
    BraidWord,
    Ciphertext,
    SubgroupSide,
    conjugate,
    cs_keygen,
    decrypt,
    encrypt,
    hash_elements,
    multiply,
    nf_conjugate,
    nike_keygen,
    normal_form,
    sample_subgroup,
    serialize_canonical,
    twin_decrypt,
    twin_encrypt,
    twin_keygen,
)
from twincsp.elgamal import SCHEME_CS


class TestCcsShared:
    def test_identity_secret(self, params):
        y = sample_subgroup(params, SubgroupSide.RIGHT, rng_from(40))
        Y = normal_form(conjugate(params.g, y))
        assert nf_conjugate(Y, BraidWord(params.n, ())) == Y

    def test_symmetry(self, params):
        rng = rng_from(41)
        for _ in range(20):
            x = sample_subgroup(params, SubgroupSide.LEFT, rng)
            y = sample_subgroup(params, SubgroupSide.RIGHT, rng)
            X = normal_form(conjugate(params.g, x))
            Y = normal_form(conjugate(params.g, y))
            assert nf_conjugate(Y, x) == nf_conjugate(X, y)

    def test_matches_direct_word_construction(self, params):
        rng = rng_from(42)
        for _ in range(20):
            x = sample_subgroup(params, SubgroupSide.LEFT, rng)
            y = sample_subgroup(params, SubgroupSide.RIGHT, rng)
            Y = normal_form(conjugate(params.g, y))
            direct = normal_form(conjugate(params.g, multiply(x, y)))
            assert nf_conjugate(Y, x) == direct

    def test_strand_mismatch(self, params):
        Y = normal_form(BraidWord(4, (1,)))
        with pytest.raises(ValueError):
            nf_conjugate(Y, BraidWord(params.n, (1,)))


class TestCsScheme:
    def test_keypair_invariant(self, params):
        kp = cs_keygen(params, rng_from(43))
        assert kp.publics[0] == normal_form(conjugate(params.g, kp.secrets[0]))
        assert all(1 <= abs(v) <= params.l - 1 for v in kp.secrets[0].letters)

    def test_keygen_reproducible(self, params):
        assert cs_keygen(params, rng_from(44)) == cs_keygen(params, rng_from(44))

    def test_public_key_moves_off_base(self, params):
        g_nf = normal_form(params.g)
        hits = sum(cs_keygen(params, rng_from(1000 + i)).publics[0] == g_nf for i in range(100))
        assert hits == 0

    def test_round_trips(self, params):
        rng = rng_from(45)
        kp = cs_keygen(params, rng)
        for i in range(20):
            msg = rng.rand_bytes(i * 7)
            assert decrypt(kp, encrypt(kp.public, msg, rng, SCHEME_CS), SCHEME_CS) == msg

    def test_round_trip_asserts_shared_symmetry(self, params):
        # the load-bearing equality behind correctness, asserted per seed
        # for the single key and for both twin keys
        for i in range(100):
            rng = rng_from(4600 + i)
            kp = cs_keygen(params, rng)
            tkp = twin_keygen(params, rng)
            y = sample_subgroup(params, SubgroupSide.RIGHT, rng)
            Y = normal_form(conjugate(params.g, y))
            assert nf_conjugate(Y, kp.secrets[0]) == nf_conjugate(kp.publics[0], y)
            assert nf_conjugate(Y, tkp.secrets[0]) == nf_conjugate(tkp.publics[0], y)
            assert nf_conjugate(Y, tkp.secrets[1]) == nf_conjugate(tkp.publics[1], y)

    def test_empty_message(self, params):
        rng = rng_from(47)
        kp = cs_keygen(params, rng)
        ct = encrypt(kp.public, b"", rng, SCHEME_CS)
        assert ct.box.ct == b"" and decrypt(kp, ct, SCHEME_CS) == b""

    def test_distinct_ephemerals(self, params):
        kp = cs_keygen(params, rng_from(48))
        seen = set()
        for i in range(100):
            ct = encrypt(kp.public, b"same message", rng_from(2000 + i), SCHEME_CS)
            seen.add(serialize_canonical(ct.Y))
        assert len(seen) == 100

    def test_cross_key_rejection(self, params):
        rng = rng_from(49)
        kp_a = cs_keygen(params, rng)
        kp_b = cs_keygen(params, rng)
        ct = encrypt(kp_a.public, b"for A only", rng, SCHEME_CS)
        with pytest.raises(AuthenticationError):
            decrypt(kp_b, ct, SCHEME_CS)

    def test_tampered_header_rejection(self, params):
        rng = rng_from(50)
        kp = cs_keygen(params, rng)
        ct = encrypt(kp.public, b"message", rng, SCHEME_CS)
        y2 = sample_subgroup(params, SubgroupSide.RIGHT, rng)
        forged = Ciphertext(ct.scheme, normal_form(conjugate(params.g, y2)), ct.box)
        with pytest.raises(AuthenticationError):
            decrypt(kp, forged, SCHEME_CS)


class TestTwinScheme:
    def test_keypair_invariants(self, params):
        kp = twin_keygen(params, rng_from(51))
        assert kp.publics[0] == normal_form(conjugate(params.g, kp.secrets[0]))
        assert kp.publics[1] == normal_form(conjugate(params.g, kp.secrets[1]))

    def test_twin_secrets_differ(self, params):
        hits = sum(
            twin_keygen(params, rng_from(3000 + i)).secrets[0]
            == twin_keygen(params, rng_from(3000 + i)).secrets[1]
            for i in range(100)
        )
        assert hits == 0

    def test_reproducible(self, params):
        assert twin_keygen(params, rng_from(52)) == twin_keygen(params, rng_from(52))

    def test_round_trips(self, params):
        rng = rng_from(53)
        kp = twin_keygen(params, rng)
        for i in range(20):
            msg = rng.rand_bytes(11 * i)
            assert twin_decrypt(kp, twin_encrypt(kp.public, msg, rng)) == msg

    def test_swapped_secrets_fail(self, params):
        from twincsp import KeyPair

        rng = rng_from(54)
        kp = twin_keygen(params, rng)
        swapped = KeyPair(params, kp.side, kp.secrets[::-1], kp.publics[::-1])
        ct = twin_encrypt(kp.public, b"order matters", rng)
        with pytest.raises(AuthenticationError):
            twin_decrypt(swapped, ct)

    def test_ciphertext_is_one_element_plus_box(self, params):
        # short-ciphertext shape: same header structure as the single scheme
        rng = rng_from(55)
        kp = twin_keygen(params, rng)
        skp = cs_keygen(params, rng)
        twin_ct = twin_encrypt(kp.public, b"m", rng)
        cs_ct = encrypt(skp.public, b"m", rng, SCHEME_CS)
        assert isinstance(twin_ct.Y, type(cs_ct.Y))
        assert len(twin_ct.box.ct) == len(cs_ct.box.ct) == 1

    def test_cross_key_and_tamper_rejection(self, params):
        rng = rng_from(56)
        kp_a = twin_keygen(params, rng)
        kp_b = twin_keygen(params, rng)
        ct = twin_encrypt(kp_a.public, b"secret", rng)
        with pytest.raises(AuthenticationError):
            twin_decrypt(kp_b, ct)
        y2 = sample_subgroup(params, SubgroupSide.RIGHT, rng)
        forged = Ciphertext(ct.scheme, normal_form(conjugate(params.g, y2)), ct.box)
        with pytest.raises(AuthenticationError):
            twin_decrypt(kp_a, forged)


class TestOneKeyType:
    def test_keys_of_the_wrong_size_or_side_are_refused(self, params):
        rng = rng_from(58)
        cs_kp, twin_kp = cs_keygen(params, rng), twin_keygen(params, rng)
        right = nike_keygen(params, SubgroupSide.RIGHT, rng)
        with pytest.raises(ValueError, match="does not fit"):
            encrypt(twin_kp.public, b"m", rng, SCHEME_CS)
        with pytest.raises(ValueError, match="does not fit"):
            twin_encrypt(cs_kp.public, b"m", rng)
        ct = twin_encrypt(twin_kp.public, b"m", rng)
        with pytest.raises(ValueError, match="does not fit"):
            decrypt(twin_kp, ct, SCHEME_CS)
        with pytest.raises(ValueError, match="left-subgroup"):
            twin_encrypt(right.public, b"m", rng)
        with pytest.raises(ValueError, match="left-subgroup"):
            twin_decrypt(right, ct)

    def test_generic_path_takes_k_from_the_key(self, params):
        rng = rng_from(59)
        for kp in (cs_keygen(params, rng), twin_keygen(params, rng)):
            ct = encrypt(kp.public, b"either scheme", rng)
            assert ct.scheme == kp.k == len(kp.publics)
            assert decrypt(kp, ct) == b"either scheme"


class TestKeySeparation:
    def test_cs_and_twin_keys_differ_on_shared_material(self, params):
        rng = rng_from(57)
        y = sample_subgroup(params, SubgroupSide.RIGHT, rng)
        Y = normal_form(conjugate(params.g, y))
        kp = twin_keygen(params, rng)
        Z1 = nf_conjugate(Y, kp.secrets[0])
        assert hash_elements("cs", [Y, Z1]) != hash_elements("twin", [Y, Z1])
