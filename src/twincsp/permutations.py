"""Permutations of {0..n-1} as image tuples, with the descent machinery
used by the Garside normal form.

A permutation p is stored as a tuple where p[x] is the image of x.
``compose(p, q)`` applies q first, so reading a braid word left to right
multiplies permutations left to right: perm(ab) = compose(perm(a), perm(b)).

Descents drive everything: a permutation braid with permutation p can end
with generator i iff i is a descent of p, and can begin with generator i
iff i is a descent of p^{-1}.  Generator indices are 1-based (generator i
swaps positions i-1 and i), matching the Artin indexing of braid words.

Every helper stays even with no caller in the package: perfbench/tracing.py
wraps each one by name to count calls, and ``inversion_count`` is how
tools/pair_work.py counts the crossings of each near-D division's word.
"""

from __future__ import annotations

Perm = tuple[int, ...]


def identity(n: int) -> Perm:
    return tuple(range(n))


def is_permutation(p: tuple[int, ...]) -> bool:
    n = len(p)
    return sorted(p) == list(range(n))


def compose(p: Perm, q: Perm) -> Perm:
    """p after q: (p . q)[x] = p[q[x]]."""
    return tuple(p[v] for v in q)


def inverse(p: Perm) -> Perm:
    out = [0] * len(p)
    for x, v in enumerate(p):
        out[v] = x
    return tuple(out)


def transposition(n: int, i: int) -> Perm:
    """Adjacent transposition for generator i (1-based): swaps i-1 and i."""
    if not 1 <= i <= n - 1:
        raise ValueError(f"generator index {i} out of range for {n} strands")
    t = list(range(n))
    t[i - 1], t[i] = t[i], t[i - 1]
    return tuple(t)


def half_twist(n: int) -> Perm:
    """Permutation of the half twist: full reversal i -> n-1-i."""
    return tuple(range(n - 1, -1, -1))


def flip(p: Perm) -> Perm:
    """Conjugate by the reversal: the half-twist automorphism on permutations."""
    n = len(p)
    return tuple(n - 1 - p[n - 1 - x] for x in range(n))


def descents(p: Perm) -> frozenset[int]:
    """Generator indices i with p[i-1] > p[i]."""
    return frozenset(i for i in range(1, len(p)) if p[i - 1] > p[i])


def inversion_count(p: Perm) -> int:
    """Number of inversions = crossing count of the permutation braid."""
    n = len(p)
    return sum(1 for i in range(n) for j in range(i + 1, n) if p[i] > p[j])
