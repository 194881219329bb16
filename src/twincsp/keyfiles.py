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

Key material: public cs = X; secret cs = x, X; public twin = X1, X2;
secret twin = x1, x2, X1, X2.  Words use the codec's kind 0x01 encoding,
group elements the canonical kind 0x02 encoding.  Parse failures name the
offending byte offset.
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
from .elgamal import (
    Ciphertext,
    CsKeyPair,
    CsPublicKey,
    SCHEME_CS,
    SCHEME_TWIN,
    TwinKeyPair,
    TwinPublicKey,
)

KEY_MAGIC = b"TCSPKEY"
CT_MAGIC = b"TCSPCT"
KEY_FILE_VERSION = 0x01
CT_FILE_VERSION = 0x02
ROLE_PUBLIC = 0x01
ROLE_SECRET = 0x02


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

    def word(self, what: str) -> BraidWord:
        return self._element(read_word, what)

    def canonical(self, what: str) -> CanonicalForm:
        return self._element(read_canonical, what)

    def _element(self, reader, what: str):
        base = self.offset
        payload = self.blob(what)
        try:
            value, used = reader(payload, 0)
        except CodecError as exc:
            raise KeyFileError(f"bad {what}: {exc}", base + 4 + exc.offset) from exc
        if used != len(payload):
            raise KeyFileError(f"trailing bytes in {what}", base + 4 + used)
        return value

    def done(self) -> None:
        if self.offset != len(self.data):
            raise KeyFileError("trailing bytes", self.offset)


def _key_header(scheme: int, role: int, params: GroupParams) -> bytes:
    return (
        KEY_MAGIC
        + bytes([KEY_FILE_VERSION, scheme, role])
        + struct.pack(">HHHH", params.n, params.l, params.r, params.W)
        + _blob(serialize_word(params.g))
    )


def _read_key_header(r: _Reader) -> tuple[int, int, GroupParams]:
    if r.take(len(KEY_MAGIC), "magic") != KEY_MAGIC:
        raise KeyFileError("bad magic", 0)
    (version,) = r.take(1, "version")
    if version != KEY_FILE_VERSION:
        raise KeyFileError(f"unsupported version 0x{version:02x}", r.offset - 1)
    (scheme,) = r.take(1, "scheme byte")
    if scheme not in (SCHEME_CS, SCHEME_TWIN):
        raise KeyFileError(f"unknown scheme 0x{scheme:02x}", r.offset - 1)
    (role,) = r.take(1, "role byte")
    if role not in (ROLE_PUBLIC, ROLE_SECRET):
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


def encode_public_key(pk: CsPublicKey | TwinPublicKey) -> bytes:
    if isinstance(pk, CsPublicKey):
        return _key_header(SCHEME_CS, ROLE_PUBLIC, pk.params) + _blob(
            serialize_canonical(pk.X)
        )
    return (
        _key_header(SCHEME_TWIN, ROLE_PUBLIC, pk.params)
        + _blob(serialize_canonical(pk.X1))
        + _blob(serialize_canonical(pk.X2))
    )


def decode_public_key(data: bytes) -> CsPublicKey | TwinPublicKey:
    r = _Reader(data)
    scheme, role, params = _read_key_header(r)
    if role != ROLE_PUBLIC:
        raise KeyFileError("expected a public key file, found a secret key", 9)
    if scheme == SCHEME_CS:
        pk = CsPublicKey(params, r.canonical("public element"))
    else:
        pk = TwinPublicKey(
            params, r.canonical("first public element"), r.canonical("second public element")
        )
    r.done()
    return pk


def encode_keypair(kp: CsKeyPair | TwinKeyPair) -> bytes:
    if isinstance(kp, CsKeyPair):
        return (
            _key_header(SCHEME_CS, ROLE_SECRET, kp.params)
            + _blob(serialize_word(kp.sk_x))
            + _blob(serialize_canonical(kp.pk_X))
        )
    return (
        _key_header(SCHEME_TWIN, ROLE_SECRET, kp.params)
        + _blob(serialize_word(kp.sk_x1))
        + _blob(serialize_word(kp.sk_x2))
        + _blob(serialize_canonical(kp.pk_X1))
        + _blob(serialize_canonical(kp.pk_X2))
    )


def decode_keypair(data: bytes) -> CsKeyPair | TwinKeyPair:
    r = _Reader(data)
    scheme, role, params = _read_key_header(r)
    if role != ROLE_SECRET:
        raise KeyFileError("expected a secret key file, found a public key", 9)
    if scheme == SCHEME_CS:
        kp = CsKeyPair(params, r.word("secret word"), r.canonical("public element"))
    else:
        kp = TwinKeyPair(
            params,
            r.word("first secret word"),
            r.word("second secret word"),
            r.canonical("first public element"),
            r.canonical("second public element"),
        )
    r.done()
    return kp


def encode_ciphertext(ct: Ciphertext) -> bytes:
    return (
        CT_MAGIC
        + bytes([CT_FILE_VERSION, ct.scheme])
        + _blob(serialize_canonical(ct.Y))
        + _blob(ct.box.ct)
        + _blob(ct.box.tag)
    )


def decode_ciphertext(data: bytes) -> Ciphertext:
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
    if scheme not in (SCHEME_CS, SCHEME_TWIN):
        raise KeyFileError(f"unknown scheme 0x{scheme:02x}", r.offset - 1)
    Y = r.canonical("header element")
    ct_bytes = r.blob("ciphertext body")
    tag = r.blob("tag")
    if len(tag) != 32:
        raise KeyFileError("tag must be 32 bytes", r.offset - len(tag))
    r.done()
    return Ciphertext(scheme, Y, SealedBox(ct_bytes, tag))
