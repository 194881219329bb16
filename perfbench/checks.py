"""Output checks that share no code with the twincsp engine.

Everything here reads raw bytes or plain tuples: the canonical-form and
file parsers are written from the format description in the package
README, and the invariants are computed from factor permutations alone.

A conjugate t g t^-1 keeps two invariants of g that are cheap to compute
without normal forms:

- the exponent sum (the image in Z), which for D^p A_1 ... A_k is
  p * n(n-1)/2 plus the inversion counts of the factors;
- the cycle type of the image in the symmetric group.

Each checker raises CheckError with a reason; callers count the failure.
"""

from __future__ import annotations

import hashlib
import hmac
import struct

ELEMENT_MAGIC = b"TCSP"
ELEMENT_VERSION = 0x01
KIND_CANONICAL = 0x02
CT_MAGIC = b"TCSPCT"
KEY_MAGIC = b"TCSPKEY"
SCHEME_TWIN = 0x02
ROLE_PUBLIC = 0x01

MSG_INIT, MSG_RESP, MSG_CONFIRM = 0x01, 0x02, 0x03


class CheckError(Exception):
    """An output failed an independent check."""


# ---------------------------------------------------------------------------
# Invariants
# ---------------------------------------------------------------------------

def inversions(p) -> int:
    n = len(p)
    return sum(1 for i in range(n) for j in range(i + 1, n) if p[i] > p[j])


def cycle_type(p) -> tuple[int, ...]:
    seen = [False] * len(p)
    lengths = []
    for start in range(len(p)):
        if seen[start]:
            continue
        k, x = 0, start
        while not seen[x]:
            seen[x] = True
            x = p[x]
            k += 1
        lengths.append(k)
    return tuple(sorted(lengths))


def _after(p, q):
    """The permutation x -> p[q[x]]."""
    return [p[v] for v in q]


def word_invariants(n: int, letters) -> tuple[int, tuple[int, ...]]:
    """(exponent sum, cycle type) of a signed Artin word."""
    perm = list(range(n))
    for v in letters:
        i = abs(v)
        t = list(range(n))
        t[i - 1], t[i] = t[i], t[i - 1]
        perm = _after(perm, t)
    return sum(1 if v > 0 else -1 for v in letters), cycle_type(perm)


def form_invariants(n: int, delta_exp: int, perms) -> tuple[int, tuple[int, ...]]:
    """(exponent sum, cycle type) of D^delta_exp A_1 ... A_k."""
    rev = list(range(n - 1, -1, -1))
    perm = list(range(n))
    for _ in range(delta_exp % 2):
        perm = _after(perm, rev)
    for p in perms:
        perm = _after(perm, p)
    exp = delta_exp * n * (n - 1) // 2 + sum(inversions(p) for p in perms)
    return exp, cycle_type(perm)


def check_conjugate_of(ref: tuple[int, tuple[int, ...]], form, what: str) -> None:
    """form = (n, delta_exp, perms) must share g's exponent sum and cycle type."""
    n, delta_exp, perms = form
    got = form_invariants(n, delta_exp, perms)
    if got[0] != ref[0]:
        raise CheckError(f"{what}: exponent sum {got[0]}, expected {ref[0]}")
    if got[1] != ref[1]:
        raise CheckError(f"{what}: cycle type {got[1]}, expected {ref[1]}")


def form_of(cf) -> tuple[int, int, list]:
    """Plain (n, delta_exp, perms) view of a CanonicalForm object."""
    return cf.n, cf.delta_exp, [f.perm for f in cf.factors]


# ---------------------------------------------------------------------------
# Byte parsers
# ---------------------------------------------------------------------------

class Reader:
    def __init__(self, data: bytes, offset: int = 0):
        self.data = data
        self.offset = offset

    def take(self, k: int) -> bytes:
        if self.offset + k > len(self.data):
            raise CheckError(f"truncated at offset {self.offset}")
        out = self.data[self.offset : self.offset + k]
        self.offset += k
        return out

    def u8(self) -> int:
        return self.take(1)[0]

    def u32(self) -> int:
        return struct.unpack(">I", self.take(4))[0]

    def blob(self) -> bytes:
        return self.take(self.u32())

    def done(self) -> None:
        if self.offset != len(self.data):
            raise CheckError(f"trailing bytes at offset {self.offset}")


def parse_canonical(blob: bytes) -> tuple[int, int, list]:
    """One serialized canonical form, exactly filling blob."""
    r = Reader(blob)
    if r.take(4) != ELEMENT_MAGIC:
        raise CheckError("bad element magic")
    version, kind, n = struct.unpack(">BBH", r.take(4))
    if version != ELEMENT_VERSION or kind != KIND_CANONICAL:
        raise CheckError(f"bad element header {version:#x}/{kind:#x}")
    delta_exp, count = struct.unpack(">iI", r.take(8))
    perms = []
    for _ in range(count):
        p = struct.unpack(f">{n}H", r.take(2 * n))
        if sorted(p) != list(range(n)):
            raise CheckError("factor is not a permutation")
        perms.append(p)
    r.done()
    return n, delta_exp, perms


def parse_ciphertext_file(data: bytes) -> tuple[tuple[int, int, list], bytes, bytes, int]:
    """(Y, body, tag, offset of body) of a twin ciphertext file."""
    r = Reader(data)
    if r.take(len(CT_MAGIC)) != CT_MAGIC:
        raise CheckError("bad ciphertext magic")
    r.u8()  # file version
    if r.u8() != SCHEME_TWIN:
        raise CheckError("ciphertext is not a twin ciphertext")
    Y = parse_canonical(r.blob())
    body_len = r.u32()
    body_offset = r.offset
    body = r.take(body_len)
    tag = r.blob()
    if len(tag) != 32:
        raise CheckError("tag is not 32 bytes")
    r.done()
    return Y, body, tag, body_offset


def parse_twin_public_key_file(data: bytes) -> list[tuple[int, int, list]]:
    """The two public elements of a twin public key file."""
    r = Reader(data)
    if r.take(len(KEY_MAGIC)) != KEY_MAGIC:
        raise CheckError("bad key magic")
    r.u8()  # file version
    if r.u8() != SCHEME_TWIN or r.u8() != ROLE_PUBLIC:
        raise CheckError("not a twin public key file")
    r.take(8)  # n, l, r, W
    r.blob()  # base element word
    out = [parse_canonical(r.blob()), parse_canonical(r.blob())]
    r.done()
    return out


def parse_frames(stream: bytes) -> list[tuple[int, bytes]]:
    """Split a byte stream into `length:4 | type:1 | payload` frames."""
    r = Reader(stream)
    frames = []
    while r.offset < len(stream):
        length = r.u32()
        if length < 1:
            raise CheckError("empty frame")
        body = r.take(length)
        frames.append((body[0], body[1:]))
    return frames


def parse_element_pair(payload: bytes) -> list[tuple[int, int, list]]:
    r = Reader(payload)
    out = [parse_canonical(r.blob()), parse_canonical(r.blob())]
    r.done()
    return out


def check_kex_transcript(init_sent: bytes, resp_sent: bytes, key: bytes,
                         ref: tuple[int, tuple[int, ...]]) -> None:
    """INIT then CONFIRM from the initiator, RESP then CONFIRM from the
    responder; the four public elements are conjugates of g and both
    confirmation tags are the ones the shared key gives."""
    init_frames = parse_frames(init_sent)
    resp_frames = parse_frames(resp_sent)
    if [t for t, _ in init_frames] != [MSG_INIT, MSG_CONFIRM]:
        raise CheckError(f"initiator frame types {[t for t, _ in init_frames]}")
    if [t for t, _ in resp_frames] != [MSG_RESP, MSG_CONFIRM]:
        raise CheckError(f"responder frame types {[t for t, _ in resp_frames]}")
    for frames, who in ((init_frames, "initiator"), (resp_frames, "responder")):
        for i, form in enumerate(parse_element_pair(frames[0][1])):
            check_conjugate_of(ref, form, f"{who} public element {i + 1}")
    for frames, role in ((init_frames, b"\x01"), (resp_frames, b"\x02")):
        want = hashlib.sha256(key + b"confirm" + role).digest()
        if not hmac.compare_digest(frames[1][1], want):
            raise CheckError("confirmation tag does not match the shared key")
