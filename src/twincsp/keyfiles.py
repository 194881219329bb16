"""Self-describing key and ciphertext files.

Layouts (all integers big-endian, blob = 4-byte length + payload):

    key file:   "TCSPKEY" | version 0x01 | scheme (0x01 cs / 0x02 twin) |
                role (0x01 public / 0x02 secret) | n:2 l:2 r:2 W:2 |
                blob(raw word g) | key material blobs
    ct file:    "TCSPCT"  | version 0x02 | scheme |
                blob(canonical Y) | blob(ciphertext) | blob(tag)

Ciphertext files of version 0x01 carried a tag SHA256(key || "mac" || ct),
which length extension forges; version 0x02 carries the HMAC tag of the
codec, and 0x01 files are refused.

Key files hold one key type for both schemes: the scheme byte is k, the
number of secrets, and the key material is the k secret words w_1..w_k
(secret files only) followed by the k public elements X_1..X_k.  The
secrets come from the left subgroup.  Words use the codec's kind 0x01
encoding, group elements the canonical kind 0x02 encoding.  Decoding
checks each word and element against the header's params (strand count,
and for secrets every letter in 1..l-1) without normal-form work; every
failure names the offending byte offset.
"""

from __future__ import annotations

import struct

from .braid import BraidWord, CanonicalForm, GroupParams
from .codec import (
    CodecError,
    SealedBox,
    read_canonical,
    read_word,
    serialize_canonical,
    serialize_word,
)
from .elgamal import SCHEME_NAMES, Ciphertext, KeyPair, PublicKey
from .sampling import SubgroupSide

KEY_MAGIC = b"TCSPKEY"
CT_MAGIC = b"TCSPCT"
KEY_FILE_VERSION = 0x01
CT_FILE_VERSION = 0x02
ROLE_PUBLIC = 0x01
ROLE_SECRET = 0x02
ROLE_NAMES = {ROLE_PUBLIC: "public", ROLE_SECRET: "secret"}


class KeyFileError(ValueError):
    """Malformed key or ciphertext file."""

    def __init__(self, message: str, offset: int):
        super().__init__(f"{message} (at offset {offset})")
        self.offset = offset


def _blob(payload: bytes) -> bytes:
    return struct.pack(">I", len(payload)) + payload


class _Reader:
    def __init__(self, data: bytes, offset: int = 0):
        self.data = data
        self.offset = offset

    def take(self, k: int, what: str) -> bytes:
        if self.offset + k > len(self.data):
            raise KeyFileError(f"truncated {what}", self.offset)
        out = self.data[self.offset : self.offset + k]
        self.offset += k
        return out

    def blob(self, what: str) -> bytes:
        (ln,) = struct.unpack(">I", self.take(4, f"{what} length"))
        return self.take(ln, what)

    def word(self, what: str, n: int | None = None) -> BraidWord:
        return self._element(read_word, what, n)

    def canonical(self, what: str, n: int | None = None) -> CanonicalForm:
        return self._element(read_canonical, what, n)

    def secret(self, what: str, params: GroupParams) -> BraidWord:
        """A secret word in B_n whose letters all lie in the left subgroup."""
        w = self.word(what, params.n)
        start = self.offset - 2 * len(w.letters)  # 2-byte letters end the blob
        for i, v in enumerate(w.letters):
            if abs(v) >= params.l:
                raise KeyFileError(
                    f"{what} letter {v} is outside the left subgroup 1..{params.l - 1}",
                    start + 2 * i)
        return w

    def _element(self, reader, what: str, n: int | None):
        base = self.offset + 4
        payload = self.blob(what)
        try:
            value, used = reader(payload, 0)
        except CodecError as exc:
            raise KeyFileError(f"bad {what}: {exc}", base + exc.offset) from exc
        if used != len(payload):
            raise KeyFileError(f"trailing bytes in {what}", base + used)
        if n is not None and value.n != n:
            raise KeyFileError(f"{what} lives in B_{value.n}, params say B_{n}", base)
        return value

    def done(self) -> None:
        if self.offset != len(self.data):
            raise KeyFileError("trailing bytes", self.offset)


def _encode_key(role: int, key: PublicKey | KeyPair, secrets, publics) -> bytes:
    if key.side is not SubgroupSide.LEFT or key.k not in SCHEME_NAMES:
        raise ValueError("key files hold one or two left-subgroup secrets")
    params = key.params
    return (
        KEY_MAGIC
        + bytes([KEY_FILE_VERSION, key.k, role])
        + struct.pack(">HHHH", params.n, params.l, params.r, params.W)
        + _blob(serialize_word(params.g))
        + b"".join(_blob(serialize_word(w)) for w in secrets)
        + b"".join(_blob(serialize_canonical(X)) for X in publics)
    )


def _read_key_header(r: _Reader) -> tuple[int, int, GroupParams]:
    if r.take(len(KEY_MAGIC), "magic") != KEY_MAGIC:
        raise KeyFileError("bad magic", 0)
    (version,) = r.take(1, "version")
    if version != KEY_FILE_VERSION:
        raise KeyFileError(f"unsupported version 0x{version:02x}", r.offset - 1)
    (scheme,) = r.take(1, "scheme byte")
    if scheme not in SCHEME_NAMES:
        raise KeyFileError(f"unknown scheme 0x{scheme:02x}", r.offset - 1)
    (role,) = r.take(1, "role byte")
    if role not in ROLE_NAMES:
        raise KeyFileError(f"unknown role 0x{role:02x}", r.offset - 1)
    n, l, rr, W = struct.unpack(">HHHH", r.take(8, "params"))
    g = r.word("base element")
    try:
        params = GroupParams(l=l, r=rr, g=g, W=W)
    except ValueError as exc:
        raise KeyFileError(f"bad params: {exc}", r.offset) from exc
    if params.n != n:
        raise KeyFileError(f"params say n={n} but l+r={params.n}", r.offset)
    return scheme, role, params


def _decode_key(data: bytes, role: int):
    """(params, secrets, publics): k secret words for a secret key file,
    then k public elements, each checked against the params."""
    r = _Reader(data)
    k, found, params = _read_key_header(r)
    if found != role:
        raise KeyFileError(f"expected a {ROLE_NAMES[role]} key file, "
                           f"found a {ROLE_NAMES[found]} key", 9)
    ordinals = ("",) if k == 1 else ("first ", "second ")
    secrets = ()
    if role == ROLE_SECRET:
        secrets = tuple(r.secret(f"{o}secret word", params) for o in ordinals)
    publics = tuple(r.canonical(f"{o}public element", params.n) for o in ordinals)
    r.done()
    return params, secrets, publics


def encode_public_key(pk: PublicKey) -> bytes:
    return _encode_key(ROLE_PUBLIC, pk, (), pk.elements)


def decode_public_key(data: bytes) -> PublicKey:
    params, _, publics = _decode_key(data, ROLE_PUBLIC)
    return PublicKey(params, SubgroupSide.LEFT, publics)


def encode_keypair(kp: KeyPair) -> bytes:
    return _encode_key(ROLE_SECRET, kp, kp.secrets, kp.publics)


def decode_keypair(data: bytes) -> KeyPair:
    params, secrets, publics = _decode_key(data, ROLE_SECRET)
    return KeyPair(params, SubgroupSide.LEFT, secrets, publics)


def encode_ciphertext(ct: Ciphertext) -> bytes:
    return (
        CT_MAGIC
        + bytes([CT_FILE_VERSION, ct.scheme])
        + _blob(serialize_canonical(ct.Y))
        + _blob(ct.box.ct)
        + _blob(ct.box.tag)
    )


def decode_ciphertext(data: bytes, n: int | None = None) -> Ciphertext:
    """Decode a ciphertext file; given n, also check that the header element
    lives in B_n, as the decrypting key's params say."""
    r = _Reader(data)
    if r.take(len(CT_MAGIC), "magic") != CT_MAGIC:
        raise KeyFileError("bad magic", 0)
    (version,) = r.take(1, "version")
    if version == 0x01:
        raise KeyFileError(
            "unsupported ciphertext file version 0x01: its tag is forgeable by "
            "length extension; encrypt the message again", r.offset - 1)
    if version != CT_FILE_VERSION:
        raise KeyFileError(f"unsupported version 0x{version:02x}", r.offset - 1)
    (scheme,) = r.take(1, "scheme byte")
    if scheme not in SCHEME_NAMES:
        raise KeyFileError(f"unknown scheme 0x{scheme:02x}", r.offset - 1)
    Y = r.canonical("header element", n)
    ct_bytes = r.blob("ciphertext body")
    tag = r.blob("tag")
    if len(tag) != 32:
        raise KeyFileError("tag must be 32 bytes", r.offset - len(tag))
    r.done()
    return Ciphertext(scheme, Y, SealedBox(ct_bytes, tag))
