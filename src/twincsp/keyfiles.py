"""Self-describing key and ciphertext files.

Layouts (all integers big-endian; blob is the codec's length-prefixed
field, 4-byte length + payload, read by ``codec.Reader``):

    key file:   "TCSPKEY" | version 0x01 | scheme (0x01 cs / 0x02 twin) |
                role (0x01 public / 0x02 secret) | n:2 l:2 r:2 W:2 |
                blob(raw word g) | key material blobs
    ct file:    "TCSPCT"  | version 0x04 | scheme |
                blob(canonical Y) | blob(ciphertext) | blob(tag)

The version byte is the codec's ``CIPHER_VERSION``: version 0x04 carries
the SHAKE-128 keystream and an HMAC tag over "tag" || version || body.
Older versions are refused (``REFUSED_CT_VERSIONS``).  Every header byte
is bound: the decoder checks the magic, the tag the version, the
decrypting key the scheme byte (``elgamal.decrypt``), and Y enters the
box key through H.

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
header element's strand count and the scheme byte against it.  Both
decoders read every byte through one ``codec.Reader`` (magic, one-byte
fields against their tables, elements in their blobs), so every failure
is a ``codec.CodecError`` naming one absolute byte offset into the file.
"""

from __future__ import annotations

import struct

from .braid import BraidWord, GroupParams
from .codec import (
    CIPHER_VERSION,
    Reader,
    SealedBox,
    blob,
    blob_parts,
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
CT_FILE_VERSION = CIPHER_VERSION
REFUSED_CT_VERSIONS = {
    0x01: "its tag is forgeable by length extension",
    0x02: "its body uses the SHA-256 counter keystream",
    0x03: "its body uses the SHAKE-256 keystream",
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
            raise r.error(f"{what} letter {v} is outside the left subgroup "
                          f"1..{params.l - 1}", start + 2 * i)
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
    r.magic(KEY_MAGIC)
    r.byte("version", (KEY_FILE_VERSION,))
    k = r.byte("scheme", SCHEME_NAMES)
    found = r.byte("role", ROLE_NAMES)
    n, l, rr, W = r.unpack(">HHHH", "params")
    g = r.element(read_word, "base element")
    try:
        params = GroupParams(l, rr, g, W)
    except ValueError as exc:
        raise r.error(f"bad params: {exc}", len(KEY_MAGIC) + 3) from exc
    if params.n != n:
        raise r.error(f"params say n={n} but l+r={params.n}", len(KEY_MAGIC) + 3)
    if role not in (None, found):
        raise r.error(f"expected a {ROLE_NAMES[role]} key file, "
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
    # One join over the blobs' parts, so the body is copied once.
    fields = blob_parts(serialize_canonical(ct.Y), ct.box.ct, ct.box.tag)
    return b"".join([CT_MAGIC, bytes([CT_FILE_VERSION, ct.scheme]), *fields])


def decode_ciphertext(data: bytes, key: KeyPair | None = None) -> Ciphertext:
    """Decode a ciphertext file; given the decrypting key, also check that
    the header element lives in the key's B_n and the scheme byte is its k."""
    r = Reader(data)
    r.magic(CT_MAGIC)
    version = r.byte("version", {CT_FILE_VERSION, *REFUSED_CT_VERSIONS})
    if version in REFUSED_CT_VERSIONS:
        raise r.error(f"unsupported ciphertext file version 0x{version:02x}: "
                      f"{REFUSED_CT_VERSIONS[version]}; encrypt the message again", r.offset - 1)
    scheme = r.byte("scheme", SCHEME_NAMES)
    Y = r.element(read_canonical, "header element", None if key is None else key.params.n)
    ct_bytes = r.blob("ciphertext body")
    tag = r.blob("tag")
    if len(tag) != 32:
        raise r.error("tag must be 32 bytes", r.offset - len(tag))
    r.done()
    if key is not None and scheme != key.k:
        raise r.error("ciphertext scheme does not match key", len(CT_MAGIC) + 1)
    return Ciphertext(scheme, Y, SealedBox(ct_bytes, tag))
