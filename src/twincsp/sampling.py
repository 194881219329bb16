"""Seeded sampling of secret conjugators from the commuting subgroups.

LB_l is generated by s_1..s_{l-1} and RB_r by s_{l+1}..s_{n-1}; the
coupling generator s_l belongs to neither, so every element of one
subgroup commutes with every element of the other.  That commutation is
the load-bearing fact of the whole construction, and the tests check it
on sampled pairs.

Randomness comes from a counter-mode generator over SHA-256 so that every
fixture is bit-reproducible from a 32-byte seed.  A sampled word's letters
(``SeededRng.rand_letters``) take their sign and index words from one
``rand_bytes`` call and reject as ``rand_below`` does, so the letters and
the stream after them are those of per-letter draws.
"""

from __future__ import annotations

import hashlib
import struct
from enum import Enum

from .braid import BraidWord, GroupParams, free_reduce


class SubgroupSide(Enum):
    LEFT = "left"
    RIGHT = "right"


class SeededRng:
    """Deterministic byte stream: block_i = SHA256(seed || "rng" || i)."""

    def __init__(self, seed: bytes):
        if len(seed) != 32:
            raise ValueError("seed must be exactly 32 bytes")
        self.seed = bytes(seed)
        self._counter = 0
        self._buf = b""

    @classmethod
    def from_hex(cls, hex_seed: str) -> "SeededRng":
        return cls(bytes.fromhex(hex_seed))

    def fork(self, label: str) -> "SeededRng":
        """Independent child stream; safe to hand to a parallel task."""
        return SeededRng(hashlib.sha256(self.seed + b"fork" + label.encode()).digest())

    def rand_bytes(self, k: int) -> bytes:
        while len(self._buf) < k:
            block = hashlib.sha256(
                self.seed + b"rng" + self._counter.to_bytes(8, "big")
            ).digest()
            self._counter += 1
            self._buf += block
        out, self._buf = self._buf[:k], self._buf[k:]
        return out

    def rand_below(self, m: int) -> int:
        """Uniform integer in [0, m), 0 < m <= 2**32, by rejection sampling on
        4-byte draws."""
        if not 0 < m <= 2**32:
            raise ValueError("m must be in 1..2**32")
        limit = (2**32 // m) * m
        while True:
            v = int.from_bytes(self.rand_bytes(4), "big")
            if v < limit:
                return v % m

    def rand_letters(self, idx: range, count: int) -> tuple[int, ...]:
        """count letters +-i, i in idx: per letter the sign of rand_below(2)
        (1 is +) and idx[rand_below(len(idx))], drawn in batches of the
        four-byte words still needed if none were rejected."""
        m = len(idx)
        limit = (2**32 // m) * m
        letters: list[int] = []
        sign = 0  # 0 while the next word is a sign draw
        while len(letters) < count:
            need = 2 * (count - len(letters)) - (sign != 0)
            for v in struct.unpack(f">{need}I", self.rand_bytes(4 * need)):
                if not sign:
                    sign = 1 if v & 1 else -1
                elif v < limit:
                    letters.append(sign * idx[v % m])
                    sign = 0
        return tuple(letters)


def generator_range(params: GroupParams, side: SubgroupSide) -> range:
    """Generator indices available to one subgroup."""
    if side is SubgroupSide.LEFT:
        return range(1, params.l)
    return range(params.l + 1, params.n)


def sample_subgroup(params: GroupParams, side: SubgroupSide, rng: SeededRng) -> BraidWord:
    """W uniform signed letters over the side's generator range, freely reduced."""
    letters = rng.rand_letters(generator_range(params, side), params.W)
    return BraidWord(params.n, free_reduce(letters))
