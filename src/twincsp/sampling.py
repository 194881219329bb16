"""Seeded sampling of secret conjugators from the commuting subgroups.

LB_l is generated by s_1..s_{l-1} and RB_r by s_{l+1}..s_{n-1}; the
coupling generator s_l belongs to neither, so every element of one
subgroup commutes with every element of the other.  That commutation is
the load-bearing fact of the whole construction, and the tests check it
on sampled pairs.

Randomness comes from a counter-mode generator over SHA-256 so that every
fixture is bit-reproducible from a 32-byte seed.
"""

from __future__ import annotations

import hashlib
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
        raw = bytes.fromhex(hex_seed)
        if len(raw) != 32:
            raise ValueError("seed must be 64 hex characters")
        return cls(raw)

    def fork(self, label: bytes | str) -> "SeededRng":
        """Independent child stream; safe to hand to a parallel task."""
        if isinstance(label, str):
            label = label.encode()
        return SeededRng(hashlib.sha256(self.seed + b"fork" + label).digest())

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
        """Uniform integer in [0, m) by rejection sampling on 4-byte draws."""
        if m <= 0:
            raise ValueError("m must be positive")
        limit = (2**32 // m) * m
        while True:
            v = int.from_bytes(self.rand_bytes(4), "big")
            if v < limit:
                return v % m

    def choice(self, seq):
        return seq[self.rand_below(len(seq))]

    def rand_sign(self) -> int:
        return 1 if self.rand_below(2) else -1


def generator_range(params: GroupParams, side: SubgroupSide) -> range:
    """Generator indices available to one subgroup."""
    if side is SubgroupSide.LEFT:
        return range(1, params.l)
    return range(params.l + 1, params.n)


def sample_subgroup(params: GroupParams, side: SubgroupSide, rng: SeededRng) -> BraidWord:
    """W uniform signed letters over the side's generator range, freely reduced."""
    idx = generator_range(params, side)
    if len(idx) == 0:
        raise ValueError(f"{side.value} subgroup has no generators")
    letters = tuple(rng.rand_sign() * rng.choice(idx) for _ in range(params.W))
    return BraidWord(params.n, free_reduce(letters))
