"""Key and ciphertext file round trips and parse diagnostics."""

import pytest

from conftest import rng_from
from twincsp import cs_encrypt, cs_keygen, twin_encrypt, twin_keygen
from twincsp.keyfiles import (
    KeyFileError,
    decode_ciphertext,
    decode_keypair,
    decode_public_key,
    encode_ciphertext,
    encode_keypair,
    encode_public_key,
)


@pytest.fixture
def cs_material(params):
    rng = rng_from(120)
    kp = cs_keygen(params, rng)
    return kp, cs_encrypt(kp.public, b"cs file payload", rng)


@pytest.fixture
def twin_material(params):
    rng = rng_from(121)
    kp = twin_keygen(params, rng)
    return kp, twin_encrypt(kp.public, b"twin file payload", rng)


class TestRoundTrips:
    def test_cs_keypair(self, cs_material):
        kp, _ = cs_material
        assert decode_keypair(encode_keypair(kp)) == kp
        assert decode_public_key(encode_public_key(kp.public)) == kp.public

    def test_twin_keypair(self, twin_material):
        kp, _ = twin_material
        assert decode_keypair(encode_keypair(kp)) == kp
        assert decode_public_key(encode_public_key(kp.public)) == kp.public

    def test_ciphertexts(self, cs_material, twin_material):
        for _, ct in (cs_material, twin_material):
            assert decode_ciphertext(encode_ciphertext(ct)) == ct

    def test_encoding_is_byte_stable(self, twin_material):
        kp, ct = twin_material
        assert encode_keypair(kp) == encode_keypair(kp)
        assert encode_ciphertext(ct) == encode_ciphertext(ct)


class TestDiagnostics:
    def test_bad_magic_names_offset_zero(self, twin_material):
        kp, _ = twin_material
        data = bytearray(encode_keypair(kp))
        data[0] ^= 0xFF
        with pytest.raises(KeyFileError) as exc:
            decode_keypair(bytes(data))
        assert exc.value.offset == 0

    def test_unsupported_version(self, twin_material):
        kp, _ = twin_material
        data = bytearray(encode_keypair(kp))
        data[7] = 0x02  # version byte follows the 7-byte magic
        with pytest.raises(KeyFileError, match="unsupported version"):
            decode_keypair(bytes(data))

    def test_ciphertext_version_1_refused(self, twin_material):
        _, ct = twin_material
        data = bytearray(encode_ciphertext(ct))
        assert data[6] == 0x02  # version byte follows the 6-byte magic
        data[6] = 0x01
        with pytest.raises(KeyFileError, match="0x01.*length extension") as exc:
            decode_ciphertext(bytes(data))
        assert exc.value.offset == 6

    def test_unknown_scheme(self, twin_material):
        kp, _ = twin_material
        data = bytearray(encode_keypair(kp))
        data[8] = 0x7F
        with pytest.raises(KeyFileError, match="scheme"):
            decode_keypair(bytes(data))

    def test_role_mixups_rejected(self, twin_material):
        kp, _ = twin_material
        with pytest.raises(KeyFileError, match="secret"):
            decode_keypair(encode_public_key(kp.public))
        with pytest.raises(KeyFileError, match="public"):
            decode_public_key(encode_keypair(kp))

    def test_truncation(self, twin_material):
        kp, ct = twin_material
        data = encode_keypair(kp)
        with pytest.raises(KeyFileError, match="truncated"):
            decode_keypair(data[: len(data) // 2])
        cdata = encode_ciphertext(ct)
        with pytest.raises(KeyFileError, match="truncated"):
            decode_ciphertext(cdata[:-5])

    def test_trailing_bytes(self, twin_material):
        kp, _ = twin_material
        with pytest.raises(KeyFileError, match="trailing"):
            decode_keypair(encode_keypair(kp) + b"\x00")

    def test_ciphertext_bad_magic(self, cs_material):
        _, ct = cs_material
        data = bytearray(encode_ciphertext(ct))
        data[0] = 0x00
        with pytest.raises(KeyFileError) as exc:
            decode_ciphertext(bytes(data))
        assert exc.value.offset == 0
