"""Self-describing key and ciphertext files.

Layouts (all integers big-endian; blob is the codec's length-prefixed
field, 4-byte length + payload, read by ``codec.Reader``):

    key file:   "TCSPKEY" | version 0x01 | scheme (0x01 cs / 0x02 twin) |
                role (0x01 public / 0x02 secret) | n:2 l:2 r:2 W:2 |
                blob(raw word g) | key material blobs
    ct file:    "TCSPCT"  | version 0x03 | scheme |
                blob(canonical Y) | blob(ciphertext) | blob(tag)

Version 0x03 carries the codec's SHAKE-256 keystream and HMAC tag; older
versions are refused (``REFUSED_CT_VERSIONS``), since a 0x02 body would pass
the tag, which covers only the ciphertext, and open to garbage.

Key files hold one key type for both schemes: the scheme byte is k, the
number of secrets, and the key material is the k secret words w_1..w_k
(secret files only) followed by the k public elements X_1..X_k.  The
secrets come from the left subgroup.  Words use the codec's kind 0x01
encoding, group elements the canonical kind 0x02 encoding.  ``GroupParams``
checks the header's params ("bad params"; every valid set fits the fields),
then each word and element is checked against them (strand count, and
for secrets every letter in 1..l-1) without normal-form work.  The
role byte is read here only: ``decode_key`` returns whichever key the file
holds.  Given the decrypting key, ``decode_ciphertext`` also checks the
header element's strand count and the scheme byte against it.  Every
failure is a ``codec.CodecError`` naming the offending byte offset.
"""

from __future__ import annotations

import struct

from .braid import BraidWord, GroupParams
from .codec import (
    CodecError,
    Reader,
    SealedBox,
    blob,
    read_canonical,
    read_word,
    serialize_canonical,
    serialize_word,
)
from .elgamal import SCHEME_NAMES, Ciphertext, KeyPair, PublicKey, _label
from .sampling import SubgroupSide

KEY_MAGIC = b"TCSPKEY"
CT_MAGIC = b"TCSPCT"
KEY_FILE_VERSION = 0x01
CT_FILE_VERSION = 0x03
REFUSED_CT_VERSIONS = {
    0x01: "its tag is forgeable by length extension",
    0x02: "its body uses the SHA-256 counter keystream",
}
ROLE_PUBLIC = 0x01
ROLE_SECRET = 0x02
ROLE_NAMES = {ROLE_PUBLIC: "public", ROLE_SECRET: "secret"}


def _read_secret(r: Reader, what: str, params: GroupParams) -> BraidWord:
    """A secret word in B_n whose letters all lie in the left subgroup."""
    w = r.element(read_word, what, params.n)
    start = r.offset - 2 * len(w.letters)  # 2-byte letters end the blob
    for i, v in enumerate(w.letters):
        if abs(v) >= params.l:
            raise CodecError(
                f"{what} letter {v} is outside the left subgroup 1..{params.l - 1}",
                start + 2 * i)
    return w


def _encode_key(role: int, key: PublicKey | KeyPair, secrets, publics) -> bytes:
    _label(key)  # one or two left-subgroup secrets
    params = key.params
    return (
        KEY_MAGIC
        + bytes([KEY_FILE_VERSION, key.k, role])
        + struct.pack(">HHHH", params.n, params.l, params.r, params.W)
        + blob(serialize_word(params.g))
        + b"".join(blob(serialize_word(w)) for w in secrets)
        + b"".join(blob(serialize_canonical(X)) for X in publics)
    )


def decode_key(data: bytes, role: int | None = None) -> PublicKey | KeyPair:
    """A public or a secret key file, as its role byte says (given role, the
    byte must say that): the k secret words of a secret file, then the k
    public elements, each checked against the params."""
    r = Reader(data)
    if r.take(len(KEY_MAGIC), "magic") != KEY_MAGIC:
        raise CodecError("bad magic", 0)
    (version,) = r.take(1, "version")
    if version != KEY_FILE_VERSION:
        raise CodecError(f"unsupported version 0x{version:02x}", r.offset - 1)
    (k,) = r.take(1, "scheme byte")
    if k not in SCHEME_NAMES:
        raise CodecError(f"unknown scheme 0x{k:02x}", r.offset - 1)
    (found,) = r.take(1, "role byte")
    if found not in ROLE_NAMES:
        raise CodecError(f"unknown role 0x{found:02x}", r.offset - 1)
    n, l, rr, W = struct.unpack(">HHHH", r.take(8, "params"))
    g = r.element(read_word, "base element")
    try:
        params = GroupParams(l=l, r=rr, g=g, W=W)
    except ValueError as exc:
        raise CodecError(f"bad params: {exc}", r.offset) from exc
    if params.n != n:
        raise CodecError(f"params say n={n} but l+r={params.n}", r.offset)
    if role not in (None, found):
        raise CodecError(f"expected a {ROLE_NAMES[role]} key file, "
                         f"found a {ROLE_NAMES[found]} key", 9)
    ordinals = ("",) if k == 1 else ("first ", "second ")
    secrets = ()
    if found == ROLE_SECRET:
        secrets = tuple(_read_secret(r, f"{o}secret word", params) for o in ordinals)
    publics = tuple(r.element(read_canonical, f"{o}public element", params.n) for o in ordinals)
    r.done()
    if found == ROLE_PUBLIC:
        return PublicKey(params, SubgroupSide.LEFT, publics)
    return KeyPair(params, SubgroupSide.LEFT, secrets, publics)


def encode_public_key(pk: PublicKey) -> bytes:
    return _encode_key(ROLE_PUBLIC, pk, (), pk.elements)


def decode_public_key(data: bytes) -> PublicKey:
    return decode_key(data, ROLE_PUBLIC)


def encode_keypair(kp: KeyPair) -> bytes:
    return _encode_key(ROLE_SECRET, kp, kp.secrets, kp.publics)


def decode_keypair(data: bytes) -> KeyPair:
    return decode_key(data, ROLE_SECRET)


def encode_ciphertext(ct: Ciphertext) -> bytes:
    return (
        CT_MAGIC
        + bytes([CT_FILE_VERSION, ct.scheme])
        + blob(serialize_canonical(ct.Y))
        + blob(ct.box.ct)
        + blob(ct.box.tag)
    )


def decode_ciphertext(data: bytes, key: KeyPair | None = None) -> Ciphertext:
    """Decode a ciphertext file; given the decrypting key, also check that
    the header element lives in the key's B_n and the scheme byte is its k."""
    r = Reader(data)
    if r.take(len(CT_MAGIC), "magic") != CT_MAGIC:
        raise CodecError("bad magic", 0)
    (version,) = r.take(1, "version")
    if version in REFUSED_CT_VERSIONS:
        raise CodecError(
            f"unsupported ciphertext file version 0x{version:02x}: "
            f"{REFUSED_CT_VERSIONS[version]}; encrypt the message again", r.offset - 1)
    if version != CT_FILE_VERSION:
        raise CodecError(f"unsupported version 0x{version:02x}", r.offset - 1)
    (scheme,) = r.take(1, "scheme byte")
    scheme_at = r.offset - 1
    if scheme not in SCHEME_NAMES:
        raise CodecError(f"unknown scheme 0x{scheme:02x}", scheme_at)
    Y = r.element(read_canonical, "header element", None if key is None else key.params.n)
    ct_bytes = r.blob("ciphertext body")
    tag = r.blob("tag")
    if len(tag) != 32:
        raise CodecError("tag must be 32 bytes", r.offset - len(tag))
    r.done()
    if key is not None and scheme != key.k:
        raise CodecError("ciphertext scheme does not match key", scheme_at)
    return Ciphertext(scheme, Y, SealedBox(ct_bytes, tag))
