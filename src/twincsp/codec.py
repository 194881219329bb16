"""Bit-exact serialization, the hash H into 256-bit keys, and the
symmetric cipher pair.

H must be well-defined on group elements, so only canonical forms are
ever hashed: the encoding below is injective on canonical forms, and two
group-equal words serialize identically after normal_form.  The decoder,
the one check on outside factors, accepts exactly the encodings of
canonical forms (permutations, no identity or half-twist factor, every
adjacent pair left-weighted), so decoding then encoding is the identity
and no second encoding of an element exists.  Domain labels
("cs", "twin", "nike", "kex", "confirm") keep the protocols' key spaces
disjoint.

The cipher is a deterministic hash-counter keystream with an HMAC-SHA-256
tag over "mac" || ciphertext; HMAC, unlike a bare hash of key || data,
cannot be extended to a longer ciphertext without the key.  Keys here are
one-time outputs of H, which is what makes that adequate; this is
deliberately not a general-purpose AEAD.

Wire encoding of a canonical form (all integers big-endian):

    "TCSP" | version 0x01 | kind 0x02 | n:2 | delta_exp: signed 4 |
    factor_count:4 | per factor: n 2-byte permutation images

Raw words (kind 0x01) encode the letter count then signed 2-byte letters.
Hash input: label length (1) | ASCII label | element count (1) |
concatenated serializations.  The hash is SHA-256 throughout.

Key files, ciphertext files and key-exchange frames share one field
layout, blob = 4-byte big-endian length | payload, built by ``blob`` and
read by ``Reader``, whose ``element`` runs the strict decoder above on an
element that must fill its blob.  Every parse failure is a ``CodecError``
naming the byte offset; the CLI maps it to exit 2, kex to ProtocolError.
"""

from __future__ import annotations

import hashlib
import hmac
import struct
from dataclasses import dataclass

from . import permutations as pm
from .braid import BraidWord, CanonicalForm, PermutationBraid

MAGIC = b"TCSP"
VERSION = 0x01
KIND_WORD = 0x01
KIND_CANONICAL = 0x02

KEY_BYTES = 32


class AuthenticationError(Exception):
    """Tag verification failed: forged, truncated, or mis-keyed ciphertext."""


class CodecError(ValueError):
    """Malformed serialized element, field, key file or ciphertext file."""

    def __init__(self, message: str, offset: int):
        super().__init__(f"{message} (at offset {offset})")
        self.offset = offset


@dataclass(frozen=True)
class SymKey:
    """A 256-bit symmetric key."""

    bytes: bytes

    def __post_init__(self):
        if len(self.bytes) != KEY_BYTES:
            raise ValueError("key must be exactly 32 bytes")


@dataclass(frozen=True)
class SealedBox:
    """Keystream ciphertext plus a 32-byte authentication tag."""

    ct: bytes
    tag: bytes

    def __post_init__(self):
        if len(self.tag) != 32:
            raise ValueError("tag must be exactly 32 bytes")


def serialize_canonical(cf: CanonicalForm) -> bytes:
    """Injective byte encoding of a canonical form."""
    parts = [
        MAGIC,
        struct.pack(">BBHiI", VERSION, KIND_CANONICAL, cf.n, cf.delta_exp, len(cf.factors)),
    ]
    for f in cf.factors:
        parts.append(struct.pack(f">{cf.n}H", *f.perm))
    return b"".join(parts)


def deserialize_canonical(data: bytes) -> CanonicalForm:
    cf, used = read_canonical(data, 0)
    if used != len(data):
        raise CodecError("trailing bytes after canonical form", used)
    return cf


def read_canonical(data: bytes, offset: int) -> tuple[CanonicalForm, int]:
    """Parse one canonical form starting at offset; returns (value, next offset).

    Rejects factor tables that are not those of a normal form: a factor
    that is not a permutation, an identity or half-twist factor, or an
    adjacent pair that is not left-weighted."""
    n, offset = _read_common(data, offset, KIND_CANONICAL)
    if offset + 8 > len(data):
        raise CodecError("truncated header", offset)
    delta_exp, count = struct.unpack_from(">iI", data, offset)
    offset += 8
    factors: list[PermutationBraid] = []
    for _ in range(count):
        if offset + 2 * n > len(data):
            raise CodecError("truncated factor table", offset)
        perm = struct.unpack_from(f">{n}H", data, offset)
        if not pm.is_permutation(perm):
            raise CodecError(f"not a permutation of 0..{n - 1}: {perm}", offset)
        if perm == pm.identity(n):
            raise CodecError("identity factor in canonical form", offset)
        if perm == pm.half_twist(n):
            raise CodecError("half-twist factor in canonical form", offset)
        # left-weighted: S(B), the descents of B^-1, lies in F(A), A's descents
        if factors and not pm.descents(pm.inverse(perm)) <= pm.descents(factors[-1].perm):
            raise CodecError("factor pair not left-weighted", offset)
        factors.append(PermutationBraid(n, perm))
        offset += 2 * n
    return CanonicalForm(n, delta_exp, tuple(factors)), offset


def serialize_word(w: BraidWord) -> bytes:
    """Raw-word encoding (kind 0x01): letter count then signed 2-byte letters."""
    head = MAGIC + struct.pack(">BBHI", VERSION, KIND_WORD, w.n, len(w.letters))
    return head + struct.pack(f">{len(w.letters)}h", *w.letters)


def read_word(data: bytes, offset: int) -> tuple[BraidWord, int]:
    n, offset = _read_common(data, offset, KIND_WORD)
    if offset + 4 > len(data):
        raise CodecError("truncated header", offset)
    (count,) = struct.unpack_from(">I", data, offset)
    offset += 4
    if offset + 2 * count > len(data):
        raise CodecError("truncated letter table", offset)
    letters = struct.unpack_from(f">{count}h", data, offset)
    offset += 2 * count
    try:
        return BraidWord(n, letters), offset
    except ValueError as exc:
        raise CodecError(str(exc), offset - 2 * count) from exc


def _read_common(data: bytes, offset: int, expect_kind: int) -> tuple[int, int]:
    if data[offset : offset + 4] != MAGIC:
        raise CodecError("bad magic", offset)
    offset += 4
    if offset + 4 > len(data):
        raise CodecError("truncated header", offset)
    version, kind, n = struct.unpack_from(">BBH", data, offset)
    if version != VERSION:
        raise CodecError(f"unsupported version 0x{version:02x}", offset)
    if kind != expect_kind:
        raise CodecError(f"unexpected kind 0x{kind:02x}", offset + 1)
    if n < 2:
        raise CodecError(f"bad strand count {n}", offset + 2)
    return n, offset + 4


def blob(payload: bytes) -> bytes:
    """A length-prefixed field: 4-byte big-endian length, then the payload."""
    return struct.pack(">I", len(payload)) + payload


class Reader:
    """Reads the fields of data in order; offsets in errors are into data."""

    def __init__(self, data: bytes):
        self.data = data
        self.offset = 0

    def take(self, k: int, what: str) -> bytes:
        if self.offset + k > len(self.data):
            raise CodecError(f"truncated {what}", self.offset)
        out = self.data[self.offset : self.offset + k]
        self.offset += k
        return out

    def blob(self, what: str) -> bytes:
        (ln,) = struct.unpack(">I", self.take(4, f"{what} length"))
        return self.take(ln, what)

    def element(self, read, what: str, n: int | None = None):
        """One element decoded by read (read_canonical or read_word) from
        its own blob, which it must fill; given n, it must live in B_n."""
        base = self.offset + 4
        payload = self.blob(what)
        try:
            value, used = read(payload, 0)
        except CodecError as exc:
            raise CodecError(f"bad {what}: {exc}", base + exc.offset) from exc
        if used != len(payload):
            raise CodecError(f"trailing bytes in {what}", base + used)
        if n is not None and value.n != n:
            raise CodecError(f"{what} lives in B_{value.n}, params say B_{n}", base)
        return value

    def done(self) -> None:
        if self.offset != len(self.data):
            raise CodecError("trailing bytes", self.offset)


def hash_elements(label: str, elems: list[CanonicalForm] | tuple[CanonicalForm, ...]) -> SymKey:
    """256-bit key from a domain label and an ordered tuple of group elements."""
    if not elems:
        raise ValueError("need at least one element to hash")
    encoded = label.encode("ascii")
    if not 1 <= len(encoded) <= 255 or not 1 <= len(elems) <= 255:
        raise ValueError("label and element count must fit in one byte each")
    h = hashlib.sha256()
    h.update(bytes([len(encoded)]))
    h.update(encoded)
    h.update(bytes([len(elems)]))
    for e in elems:
        h.update(serialize_canonical(e))
    return SymKey(h.digest())


def _keystream(key: SymKey, length: int) -> bytes:
    """Block i is SHA256(key || "ks" || i as 8 bytes); the shared prefix is
    hashed once and copied for every block."""
    prefix = hashlib.sha256(key.bytes + b"ks")
    blocks = []
    for i in range((length + 31) // 32):
        h = prefix.copy()
        h.update(i.to_bytes(8, "big"))
        blocks.append(h.digest())
    return b"".join(blocks)[:length]


def _tag(key: SymKey, ct: bytes) -> bytes:
    mac = hmac.new(key.bytes, b"mac", hashlib.sha256)
    mac.update(ct)
    return mac.digest()


def _xor_keystream(key: SymKey, data: bytes) -> bytes:
    stream = _keystream(key, len(data))
    mixed = int.from_bytes(data, "big") ^ int.from_bytes(stream, "big")
    return mixed.to_bytes(len(data), "big")


def sym_encrypt(key: SymKey, message: bytes) -> SealedBox:
    """XOR with the hash-counter keystream, then MAC the ciphertext."""
    ct = _xor_keystream(key, message)
    return SealedBox(ct=ct, tag=_tag(key, ct))


def sym_decrypt(key: SymKey, box: SealedBox) -> bytes:
    """Verify the tag in constant time, then strip the keystream."""
    if not hmac.compare_digest(_tag(key, box.ct), box.tag):
        raise AuthenticationError("authentication tag mismatch")
    return _xor_keystream(key, box.ct)
