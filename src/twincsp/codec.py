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

The cipher XORs the message with SHAKE-128(key || "ks") (the FIPS 202
extendable-output function, one call per message) and appends an
HMAC-SHA-256 tag over "tag" || version || ciphertext, where version is
``CIPHER_VERSION``, the ciphertext file's version byte: a body cannot be
relabelled to another version without failing the tag.  Versions 0x02
and 0x03 tagged "mac" || ciphertext under the same key, so the domain
must not start with "mac": an old body that starts with the new version
byte could then be shifted into the version and keep its tag.  HMAC,
unlike a bare hash of key || data, cannot be extended to a longer
ciphertext without the key.  Keys here are 256-bit one-time outputs of H, which is
what makes that adequate (SHAKE-128's 128-bit strength matches the
SHA-256 collision resistance H relies on); this is deliberately not a
general-purpose AEAD.

Wire encoding of a canonical form (all integers big-endian):

    "TCSP" | version 0x01 | kind 0x02 | n:2 | delta_exp: signed 4 |
    factor_count:4 | per factor: n 2-byte permutation images

Raw words (kind 0x01) encode the letter count then signed 2-byte letters.
Hash input: label length (1) | ASCII label | element count (1) |
concatenated serializations.  H is SHA-256.

Key files, ciphertext files and key-exchange frames share one field
layout, blob = 4-byte big-endian length | payload, built by ``blob_parts``
(``blob`` joins them).
``Reader`` is the one parser of outside bytes, element decoders included:
truncation, magics, one-byte tables and trailing bytes are each checked
by one of its methods, and ``Reader.element`` parses an element from a
reader bounded by its blob.  Every parse failure is a ``CodecError``
built by ``Reader.error``, naming one absolute byte offset; the CLI maps
it to exit 2, kex to ProtocolError.
"""

from __future__ import annotations

import hashlib
import hmac
import struct

from . import permutations as pm
from ._record import record
from .braid import BraidWord, CanonicalForm, PermutationBraid

MAGIC = b"TCSP"
VERSION = 0x01
KIND_WORD = 0x01
KIND_CANONICAL = 0x02

KEY_BYTES = 32
# The version of the symmetric box; a ciphertext file carries it as its
# version byte, and the tag covers it.
CIPHER_VERSION = 0x04


class AuthenticationError(Exception):
    """Tag verification failed: forged, truncated, or mis-keyed ciphertext."""


class CodecError(ValueError):
    """Malformed serialized element, field, key file or ciphertext file."""

    def __init__(self, message: str, offset: int):
        super().__init__(f"{message} (at offset {offset})")
        self.offset = offset


@record
class SymKey:
    """A 256-bit symmetric key."""

    bytes: bytes

    def __post_init__(self):
        if len(self.bytes) != KEY_BYTES:
            raise ValueError("key must be exactly 32 bytes")


@record
class SealedBox:
    """Keystream ciphertext plus a 32-byte authentication tag."""

    ct: bytes
    tag: bytes

    def __post_init__(self):
        if len(self.tag) != 32:
            raise ValueError("tag must be exactly 32 bytes")


def serialize_canonical(cf: CanonicalForm) -> bytes:
    """Injective byte encoding of a canonical form."""
    try:
        head = struct.pack(">BBHiI", VERSION, KIND_CANONICAL, cf.n, cf.delta_exp, len(cf.factors))
    except struct.error as exc:
        raise ValueError(f"B_{cf.n} form does not fit the encoding: n must be at most 65535 "
                         f"and delta_exp fit in 4 signed bytes ({exc})") from exc
    parts = [MAGIC, head]
    for f in cf.factors:
        parts.append(struct.pack(f">{cf.n}H", *f.perm))
    return b"".join(parts)


def deserialize_canonical(data: bytes) -> CanonicalForm:
    r = Reader(data)
    cf = read_canonical(r)
    r.done()
    return cf


def read_canonical(r: Reader) -> CanonicalForm:
    """Parse one canonical form from r.

    Rejects factor tables that are not those of a normal form: a factor
    that is not a permutation, an identity or half-twist factor, or an
    adjacent pair that is not left-weighted."""
    n = _read_common(r, KIND_CANONICAL)
    delta_exp, count = r.unpack(">iI", "header")
    table = struct.Struct(f">{n}H")
    ident, rev = pm.identity(n), pm.half_twist(n)
    inv = [0] * n  # the inverse of each factor in turn
    factors: list[PermutationBraid] = []
    for _ in range(count):
        at = r.offset
        perm = table.unpack(r.take(table.size, "factor table"))
        if not pm.is_permutation(perm):
            raise r.error(f"not a permutation of 0..{n - 1}: {perm}", at)
        if perm == ident:
            raise r.error("identity factor in canonical form", at)
        if perm == rev:
            raise r.error("half-twist factor in canonical form", at)
        # left-weighted: S(B), the descents of B^-1, lies in F(A), the
        # descents of the previous factor A
        if factors:
            prev = factors[-1].perm
            for x, v in enumerate(perm):
                inv[v] = x
            for i in range(1, n):
                if inv[i - 1] > inv[i] and prev[i - 1] < prev[i]:
                    raise r.error("factor pair not left-weighted", at)
        factors.append(PermutationBraid(perm))
    return CanonicalForm(n, delta_exp, tuple(factors))


def serialize_word(w: BraidWord) -> bytes:
    """Raw-word encoding (kind 0x01): letter count then signed 2-byte letters."""
    try:
        head = MAGIC + struct.pack(">BBHI", VERSION, KIND_WORD, w.n, len(w.letters))
        return head + struct.pack(f">{len(w.letters)}h", *w.letters)
    except struct.error as exc:
        raise ValueError(f"B_{w.n} word does not fit the encoding: letters must lie "
                         f"within +-32767, so n at most 32768 ({exc})") from exc


def read_word(r: Reader) -> BraidWord:
    n = _read_common(r, KIND_WORD)
    (count,) = r.unpack(">I", "letter count")
    letters = r.unpack(f">{count}h", "letter table")
    try:
        return BraidWord(n, letters)
    except ValueError as exc:
        raise r.error(str(exc), r.offset - 2 * count) from exc


def _read_common(r: Reader, kind: int) -> int:
    """The magic, version and kind of an element; returns its strand count."""
    r.magic(MAGIC)
    r.byte("version", (VERSION,))
    r.byte("kind", (kind,))
    (n,) = r.unpack(">H", "strand count")
    if n < 2:
        raise r.error(f"bad strand count {n}", r.offset - 2)
    return n


def blob_parts(*payloads: bytes) -> list[bytes]:
    """Length-prefixed fields as parts for one join: for each payload its
    4-byte big-endian length, then the payload itself, uncopied."""
    parts = []
    for payload in payloads:
        parts += (struct.pack(">I", len(payload)), payload)
    return parts


def blob(payload: bytes) -> bytes:
    """A length-prefixed field: 4-byte big-endian length, then the payload."""
    return b"".join(blob_parts(payload))


class Reader:
    """The one parser of outside bytes: reads the fields of data[offset:end]
    in order.  Every CodecError it builds names one absolute offset into
    data, after the prefix that names the element being parsed."""

    def __init__(self, data: bytes, offset: int = 0, end: int | None = None, prefix: str = ""):
        self.data = data
        self.offset = offset
        self.end = len(data) if end is None else end
        self.prefix = prefix

    def error(self, message: str, offset: int | None = None) -> CodecError:
        return CodecError(self.prefix + message, self.offset if offset is None else offset)

    def take(self, k: int, what: str) -> bytes:
        start = self.offset
        if start + k > self.end:
            raise self.error(f"truncated {what}")
        self.offset = start + k
        return self.data[start : start + k]

    def unpack(self, fmt: str, what: str) -> tuple:
        return struct.unpack(fmt, self.take(struct.calcsize(fmt), what))

    def magic(self, m: bytes) -> None:
        if self.take(len(m), "magic") != m:
            raise self.error("bad magic", self.offset - len(m))

    def byte(self, what: str, known) -> int:
        """One byte that must be in known (a table of the supported values)."""
        (b,) = self.take(1, what)
        if b not in known:
            raise self.error(f"unsupported {what} 0x{b:02x}", self.offset - 1)
        return b

    def blob(self, what: str) -> bytes:
        (ln,) = self.unpack(">I", f"{what} length")
        return self.take(ln, what)

    def element(self, read, what: str, n: int | None = None):
        """One element decoded by read (read_canonical or read_word) from
        its own blob, which it must fill; given n, it must live in B_n."""
        start = self.offset + 4
        self.blob(what)
        sub = Reader(self.data, start, self.offset, f"bad {what}: ")
        value = read(sub)
        if sub.offset != sub.end:
            raise self.error(f"trailing bytes in {what}", sub.offset)
        if n is not None and value.n != n:
            raise self.error(f"{what} lives in B_{value.n}, params say B_{n}", start)
        return value

    def done(self) -> None:
        if self.offset != self.end:
            raise self.error("trailing bytes")


def hash_elements(label: str, elems: list[CanonicalForm] | tuple[CanonicalForm, ...]) -> SymKey:
    """256-bit key from a domain label and an ordered tuple of group elements."""
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
    return hashlib.shake_128(key.bytes + b"ks").digest(length)


def _tag(key: SymKey, ct: bytes) -> bytes:
    mac = hmac.new(key.bytes, b"tag" + bytes([CIPHER_VERSION]), hashlib.sha256)
    mac.update(ct)
    return mac.digest()


# XOR as big integers one chunk at a time: converting a whole 1 MiB message,
# its keystream and their XOR to ints raised pke-bulk's peak memory by
# 2.6 MiB (BENCH_31.json).
_XOR_CHUNK = 1 << 16


def _xor_keystream(key: SymKey, data: bytes) -> bytes:
    data, stream = memoryview(data), memoryview(_keystream(key, len(data)))
    out = []
    for k in range(0, len(data), _XOR_CHUNK):
        d, s = data[k:k + _XOR_CHUNK], stream[k:k + _XOR_CHUNK]
        out.append((int.from_bytes(d, "big") ^ int.from_bytes(s, "big")).to_bytes(len(d), "big"))
    return b"".join(out)


def sym_encrypt(key: SymKey, message: bytes) -> SealedBox:
    """XOR with the SHAKE-128 keystream, then MAC the version and ciphertext."""
    ct = _xor_keystream(key, message)
    return SealedBox(ct, _tag(key, ct))


def sym_decrypt(key: SymKey, box: SealedBox) -> bytes:
    """Verify the tag in constant time, then strip the keystream."""
    if not hmac.compare_digest(_tag(key, box.ct), box.tag):
        raise AuthenticationError("authentication tag mismatch")
    return _xor_keystream(key, box.ct)
