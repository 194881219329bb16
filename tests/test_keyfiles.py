"""Key and ciphertext file round trips and parse diagnostics."""

import hashlib
import re
import struct

import pytest

from conftest import rng_from, shifted_into_version_4, version_3_file
from twincsp import (
    AuthenticationError,
    BraidWord,
    GroupParams,
    KeyPair,
    PublicKey,
    SubgroupSide,
    default_params,
    decrypt,
    encrypt,
    keygen,
    nike_keygen,
    normal_form,
    sample_subgroup,
    twin_decrypt,
    twin_encrypt,
    twin_keygen,
)
from twincsp.cli import EXIT_IO, dispatch
from twincsp.codec import CodecError, blob, serialize_canonical, serialize_word
from twincsp.elgamal import SCHEME_CS
from twincsp.keyfiles import (
    CT_FILE_VERSION,
    CT_MAGIC,
    KEY_MAGIC,
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
    kp = keygen(params, SubgroupSide.LEFT, SCHEME_CS, rng)
    return kp, encrypt(kp.public, b"cs file payload", rng, SCHEME_CS)


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
        with pytest.raises(CodecError) as exc:
            decode_keypair(bytes(data))
        assert exc.value.offset == 0

    def test_unsupported_version(self, twin_material):
        kp, _ = twin_material
        data = bytearray(encode_keypair(kp))
        data[7] = 0x02  # version byte follows the 7-byte magic
        with pytest.raises(CodecError, match="unsupported version"):
            decode_keypair(bytes(data))

    def test_ciphertext_version_1_refused(self, twin_material):
        _, ct = twin_material
        data = bytearray(encode_ciphertext(ct))
        assert data[6] == CT_FILE_VERSION  # version byte follows the 6-byte magic
        data[6] = 0x01
        with pytest.raises(CodecError, match="0x01.*length extension") as exc:
            decode_ciphertext(bytes(data))
        assert exc.value.offset == 6

    def test_ciphertext_version_2_refused(self, twin_material):
        """A 0x02 body was XORed with the SHA-256 counter keystream; its tag
        would still verify, so the version byte is what refuses it."""
        _, ct = twin_material
        data = bytearray(encode_ciphertext(ct))
        assert data[6] == CT_FILE_VERSION == 0x04
        data[6] = 0x02
        with pytest.raises(CodecError, match="0x02.*SHA-256 counter keystream") as exc:
            decode_ciphertext(bytes(data))
        assert exc.value.offset == 6

    def test_ciphertext_version_3_refused(self, twin_material):
        """A 0x03 body was XORed with the SHAKE-256 keystream under a tag that
        did not cover the version byte: the version byte refuses the file,
        and the same bytes relabelled 0x04 fail the tag."""
        kp, ct = twin_material
        old = version_3_file(kp, encode_ciphertext(ct))
        # the file the 0x03 code wrote for this material
        assert hashlib.sha256(old).hexdigest() == (
            "0ebf6c3db2b5f2c75490dd428fe307499b7631d968471e09573a4ee94c6a91e0"
        )
        with pytest.raises(CodecError, match="0x03.*SHAKE-256 keystream") as exc:
            decode_ciphertext(old, kp)
        assert exc.value.offset == 6
        relabelled = decode_ciphertext(old[:6] + bytes([CT_FILE_VERSION]) + old[7:], kp)
        with pytest.raises(AuthenticationError):
            twin_decrypt(kp, relabelled)

    def test_version_3_body_shifted_into_version_4_fails_the_tag(self, twin_material):
        """0x03 tagged "mac" || body under the same K.  A 0x03 body that
        starts with 0x04, moved into the version byte with the body length
        fixed, must not open as 0x04: no 0x04 tag input is an old one."""
        kp, ct = twin_material
        shifted = shifted_into_version_4(version_3_file(kp, encode_ciphertext(ct), lead=0x04))
        with pytest.raises(AuthenticationError):
            twin_decrypt(kp, decode_ciphertext(shifted, kp))

    def test_unknown_scheme(self, twin_material):
        kp, _ = twin_material
        data = bytearray(encode_keypair(kp))
        data[8] = 0x7F
        with pytest.raises(CodecError, match="scheme"):
            decode_keypair(bytes(data))

    def test_unknown_role(self, twin_material):
        kp, _ = twin_material
        data = bytearray(encode_keypair(kp))
        data[9] = 0x7F  # magic(7) | version | scheme | role
        with pytest.raises(CodecError, match="unsupported role 0x7f") as exc:
            decode_keypair(bytes(data))
        assert exc.value.offset == 9

    def test_canonical_form_in_the_base_word_blob(self, params, twin_material):
        kp, _ = twin_material
        data = encode_public_key(kp.public).replace(
            blob(serialize_word(params.g)), blob(serialize_canonical(normal_form(params.g))), 1)
        with pytest.raises(CodecError, match="bad base element: unsupported kind 0x02") as exc:
            decode_public_key(data)
        # g's blob follows magic, version, scheme, role and four 2-byte params;
        # its kind byte follows "TCSP" and the version
        assert exc.value.offset == len(KEY_MAGIC) + 3 + 8 + 4 + 5

    PARAMS_AT = len(KEY_MAGIC) + 3  # magic, version, scheme, role

    @pytest.mark.parametrize("field, value, message", [
        (0, 17, "params say n=17 but l+r=16"),
        (1, 1, "bad params: both subgroups must be nontrivial"),
        (3, 0, "bad params: sample length W must be >= 1"),
    ], ids=["n", "l", "W"])
    def test_bad_params_name_the_params_block(self, twin_material, field, value, message):
        """The n:2 l:2 r:2 W:2 block starts at offset 10; the reader has
        passed g's blob by the time the params are checked."""
        kp, _ = twin_material
        data = bytearray(encode_public_key(kp.public))
        struct.pack_into(">H", data, self.PARAMS_AT + 2 * field, value)
        with pytest.raises(CodecError, match=re.escape(message)) as exc:
            decode_public_key(bytes(data))
        assert exc.value.offset == self.PARAMS_AT == 10

    def test_secret_letter_out_of_range(self, params, twin_material, tmp_path, capsys):
        """A letter outside 1..n-1 is refused at the start of the word's
        letter table, and the CLI exits 2."""
        kp, _ = twin_material
        data = bytearray(encode_keypair(kp))
        table = material_offset(params) + 4 + 12  # blob length, word header
        struct.pack_into(">h", data, table, params.n)
        message = "bad first secret word: letter 16 out of range for 16 strands (at offset 82)"
        with pytest.raises(CodecError, match=re.escape(message)) as exc:
            decode_keypair(bytes(data))
        assert exc.value.offset == table == 82
        path = tmp_path / "bad.sec"
        path.write_bytes(bytes(data))
        assert dispatch(["inspect", "--in", str(path)]) == EXIT_IO
        assert message in capsys.readouterr().err

    def test_short_tag(self, twin_material, tmp_path, capsys):
        """A tag blob of 31 bytes is refused at the tag's first byte, and the
        CLI exits 2."""
        _, ct = twin_material
        data = encode_ciphertext(ct)
        data = data[: -4 - 32] + blob(ct.box.tag[:31])
        with pytest.raises(CodecError, match="tag must be 32 bytes") as exc:
            decode_ciphertext(data)
        assert exc.value.offset == len(data) - 31
        path = tmp_path / "short.ct"
        path.write_bytes(data)
        assert dispatch(["inspect", "--in", str(path)]) == EXIT_IO
        assert f"tag must be 32 bytes (at offset {len(data) - 31})" in capsys.readouterr().err

    def test_role_mixups_rejected(self, twin_material):
        kp, _ = twin_material
        with pytest.raises(CodecError, match="secret"):
            decode_keypair(encode_public_key(kp.public))
        with pytest.raises(CodecError, match="public"):
            decode_public_key(encode_keypair(kp))

    def test_truncation(self, twin_material):
        kp, ct = twin_material
        data = encode_keypair(kp)
        with pytest.raises(CodecError, match="truncated"):
            decode_keypair(data[: len(data) // 2])
        cdata = encode_ciphertext(ct)
        with pytest.raises(CodecError, match="truncated"):
            decode_ciphertext(cdata[:-5])

    def test_trailing_bytes(self, twin_material):
        kp, _ = twin_material
        with pytest.raises(CodecError, match="trailing"):
            decode_keypair(encode_keypair(kp) + b"\x00")

    def test_ciphertext_bad_magic(self, cs_material):
        _, ct = cs_material
        data = bytearray(encode_ciphertext(ct))
        data[0] = 0x00
        with pytest.raises(CodecError) as exc:
            decode_ciphertext(bytes(data))
        assert exc.value.offset == 0


def material_offset(params) -> int:
    """Byte offset of the first key-material blob: magic, version, scheme,
    role, four 2-byte params, then blob(g)."""
    return len(KEY_MAGIC) + 3 + 8 + 4 + len(serialize_word(params.g))


class TestMalformedBlob:
    """An element blob shorter or longer than its element, as in the kex
    payload tests: a CodecError at the byte where the element stops fitting
    (short: its last factor; long: the first byte after it)."""

    @staticmethod
    def relength(data: bytes, at: int, delta: int) -> tuple[bytes, int]:
        (ln,) = struct.unpack_from(">I", data, at)
        out = bytearray(data)
        struct.pack_into(">I", out, at, ln + delta)
        return bytes(out), ln

    def check(self, params, decode, data: bytes, at: int, what: str) -> None:
        short, ln = self.relength(data, at, -2)
        with pytest.raises(CodecError, match=f"bad {what}: truncated factor table") as exc:
            decode(short)
        assert exc.value.offset == at + 4 + ln - 2 * params.n
        long, _ = self.relength(data, at, 2)
        with pytest.raises(CodecError, match=f"trailing bytes in {what}") as exc:
            decode(long)
        assert exc.value.offset == at + 4 + ln

    def test_ciphertext_header_element(self, params, twin_material):
        _, ct = twin_material
        at = len(CT_MAGIC) + 2  # magic, version, scheme
        self.check(params, decode_ciphertext, encode_ciphertext(ct), at, "header element")

    def test_public_key_element(self, params, twin_material):
        kp, _ = twin_material
        self.check(params, decode_public_key, encode_public_key(kp.public),
                   material_offset(params), "first public element")

    def test_element_cut_after_its_kind_byte(self, params, twin_material):
        """The first missing field is named: the strand count, at + 6."""
        kp, _ = twin_material
        at = material_offset(params)
        data = bytearray(encode_public_key(kp.public))
        struct.pack_into(">I", data, at, 6)
        with pytest.raises(CodecError, match="bad first public element: truncated strand count"
                           ) as exc:
            decode_public_key(bytes(data))
        assert exc.value.offset == at + 4 + 6

    def test_element_with_one_strand(self, params, twin_material):
        _, ct = twin_material
        at = len(CT_MAGIC) + 2
        data = bytearray(encode_ciphertext(ct))
        struct.pack_into(">H", data, at + 4 + 6, 1)
        with pytest.raises(CodecError, match="bad header element: bad strand count 1") as exc:
            decode_ciphertext(bytes(data))
        assert exc.value.offset == at + 4 + 6

    def test_nested_failure_names_one_offset(self, params, twin_material):
        """A public key file whose first element lost its last factor: the
        message names the absolute offset once, and it is exc.offset."""
        kp, _ = twin_material
        short, _ = self.relength(encode_public_key(kp.public), material_offset(params), -2)
        with pytest.raises(CodecError) as exc:
            decode_public_key(short)
        assert re.findall(r"\(at offset (\d+)\)", str(exc.value)) == [str(exc.value.offset)]


class TestKeyMaterialAgainstParams:
    """Decoding checks every word and element against the header's params
    without normal-form work, and names the offending byte."""

    def test_public_element_in_wrong_braid_group(self, twin_material):
        kp, _ = twin_material
        small = normal_form(BraidWord(4, (1, 2, -3)))
        data = encode_public_key(PublicKey(kp.params, kp.side, (small, kp.publics[1])))
        with pytest.raises(CodecError, match="first public element lives in B_4") as exc:
            decode_public_key(data)
        # the element starts after its blob length; n follows "TCSP" version kind
        assert exc.value.offset == material_offset(kp.params) + 4
        assert struct.unpack_from(">H", data, exc.value.offset + 6) == (4,)

    def test_secret_word_in_wrong_braid_group(self, cs_material):
        kp, _ = cs_material
        bad = KeyPair(kp.params, kp.side, (BraidWord(4, (1,)),), kp.publics)
        with pytest.raises(CodecError, match="secret word lives in B_4") as exc:
            decode_keypair(encode_keypair(bad))
        assert exc.value.offset == material_offset(kp.params) + 4

    def test_secret_outside_left_subgroup(self, params, twin_material):
        kp, _ = twin_material
        right = sample_subgroup(params, SubgroupSide.RIGHT, rng_from(122))
        bad = KeyPair(params, kp.side, (kp.secrets[0], right), kp.publics)
        data = encode_keypair(bad)
        with pytest.raises(CodecError, match="second secret word letter .* outside the left"
                           ) as exc:
            decode_keypair(data)
        # the second word's first letter: after the first word's blob, then
        # blob length (4) and the word header (12)
        offset = material_offset(params) + 4 + len(serialize_word(kp.secrets[0])) + 4 + 12
        assert exc.value.offset == offset
        (letter,) = struct.unpack_from(">h", data, offset)
        assert letter == right.letters[0] and abs(letter) > params.l

    def test_left_secrets_with_any_letters_of_the_subgroup_load(self, params):
        w = BraidWord(params.n, tuple(range(1, params.l)) + tuple(-v for v in range(1, params.l)))
        kp = KeyPair(params, SubgroupSide.LEFT, (w,), (normal_form(params.g),))
        assert decode_keypair(encode_keypair(kp)) == kp

    def test_right_subgroup_keys_are_not_written(self, params):
        kp = nike_keygen(params, SubgroupSide.RIGHT, rng_from(123))
        with pytest.raises(ValueError, match="left-subgroup"):
            encode_keypair(kp)
        with pytest.raises(ValueError, match="left-subgroup"):
            encode_public_key(kp.public)


class TestParamLimits:
    """GroupParams refuses params that do not fit the key file's 2-byte
    fields, so a library caller gets a ValueError, not a struct.error, and
    a key file declaring such params is refused when read."""

    LIMIT = re.escape("n = l + r <= 32768 and W <= 65535")

    @pytest.mark.parametrize("args", [(16384, 16385), (8, 8, 65536)], ids=["n-32769", "W-65536"])
    def test_default_params_beyond_the_fields(self, args):
        with pytest.raises(ValueError, match=self.LIMIT):
            default_params(*args)

    def test_group_params_beyond_the_fields(self):
        with pytest.raises(ValueError, match=self.LIMIT):
            GroupParams(32800, 32800, BraidWord(65600, (1,)), 1)

    @staticmethod
    def oversized_public_key() -> bytes:
        """A public cs key file whose header declares l = r = 16400."""
        n = 32800
        return (KEY_MAGIC + bytes([0x01, 0x01, 0x01])
                + struct.pack(">HHHH", n, 16400, 16400, 16)
                + blob(serialize_word(BraidWord(n, (1,))))
                + blob(serialize_canonical(normal_form(BraidWord(n, ())))))

    def test_key_file_beyond_the_fields_is_refused(self):
        with pytest.raises(CodecError, match="bad params"):
            decode_public_key(self.oversized_public_key())

    def test_inspect_exits_2(self, tmp_path, capsys):
        path = tmp_path / "big.pub"
        path.write_bytes(self.oversized_public_key())
        assert dispatch(["inspect", "--in", str(path)]) == EXIT_IO
        assert "bad params" in capsys.readouterr().err


class TestBitFlips:
    """Every single-bit flip of a B_16 ciphertext file either fails to decode
    with the key, or decodes to a ciphertext that re-encodes to the flipped
    bytes and does not open."""

    # (bits in the file, flips that decode): those in the body and the tag,
    # and the 32 in Y's half-twist exponent, since D^p A_1..A_k is canonical
    # for every p
    @pytest.mark.parametrize("material, counts", [
        ("twin_material", (2216, 424)),
        ("cs_material", (3736, 408)),
    ], ids=["twin", "cs"])
    def test_no_flip_opens(self, request, material, counts):
        kp, ct = request.getfixturevalue(material)
        data = encode_ciphertext(ct)
        decoded = 0
        for bit in range(8 * len(data)):
            flipped = bytearray(data)
            flipped[bit // 8] ^= 1 << (bit % 8)
            try:
                got = decode_ciphertext(bytes(flipped), kp)
            except CodecError:
                continue
            decoded += 1
            assert encode_ciphertext(got) == flipped
            with pytest.raises(AuthenticationError):
                decrypt(kp, got)
        assert (8 * len(data), decoded) == counts
