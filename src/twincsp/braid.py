"""Braid group arithmetic with Garside left-greedy normal forms.

The braid group B_n is generated by s_1 .. s_{n-1} subject to
s_i s_j s_i = s_j s_i s_j for |i-j| = 1 and s_i s_j = s_j s_i for
|i-j| >= 2.  Two representations are used:

- BraidWord: a free word in signed generators; cheap to build, the
  universal input format.  Letter +i means s_i, letter -i means s_i^{-1}.
- CanonicalForm: the left-greedy normal form D^p A_1 ... A_k, where D is
  the half twist and each A_i is a permutation braid (a positive braid in
  which every pair of strands crosses at most once, identified with its
  strand permutation).  The normal form is unique, so it decides equality
  and is the only thing ever hashed or serialized.

Normal forms are computed the classical way.  A factor pair (A, B) is
left-weighted iff S(B) is a subset of F(A), where the starting set S and
finishing set F are the descent sets of the inverse permutation and the
permutation respectively.  Left-weighting a pair moves the meet
M = dA ^ B of B and the right complement dA = A^{-1} D from B to A:
A <- A M, B <- M^{-1} B.  The engine moves M in one of two ways, which end
at the same pair.  One insertion pass moves it crossing by crossing (A
gains a final s_i, B loses a leading s_i), pops and re-inserts each entry
that moves, and never re-checks a neighbour it has passed; most pairs move
a few crossings.  A heavy pair of B_n with n >= MEET_FROM = 27 (typically
a near-empty factor followed by a near-D one, the shape that conjugation
by a subgroup secret produces) switches after n crossings to computing the
rest of M at once from bitsets of inverted value pairs (Epstein et al.,
Word Processing in Groups, ch. 9).  At B_32 the meet finishes over a
third of a key exchange's pair calls and does 90% of their crossings.

A normal form is built by Thurston's right-multiplication algorithm
(Epstein et al., ch. 9): factors are appended one at a time to a sequence
that is already left-weighted, and each new factor percolates leftward,
left-weighting the pair it ends, until a pair does not move; the pairs to
its left are untouched, so they stay left-weighted.  Only the appended
factor can end as the identity (it is dropped).  A factor that is or
becomes D leaves at once for the front: A_1 .. A_j D = D tau(A_1) ..
tau(A_j), so the factors to its left are flipped, the half-twist power
grows by one and the percolation stops, with no pair call (a pair (A, D)
would only compute (D, tau A)).  ``nf_multiply(x, y)`` appends y's factors
to x's, which are never re-checked.  ``normal_form`` first gathers the
letters into runs of one sign, each a simple braid P or the inverse Q^{-1}
of one: a letter joins the latest run of its sign that stays simple with
it, passing back only runs whose letters commute with it, and otherwise
starts a run.  It appends one factor per run: Q^{-1} = D^{-1} (D Q^{-1}),
and D powers move to the front through the flip automorphism
tau(s_i) = s_{n-i}, of order two.  A secret word of B_32 becomes about a
third as many factors as it has letters.
``nf_invert`` left-weights nothing: the inverse of D^p A_1 .. A_k is
D^{-p-k} followed by the complements of A_k .. A_1, flipped alternately,
and that sequence is already a normal form.

Conjugation by t needs the normal forms of both t and t^{-1}.  A
BraidWord keeps both, computed on first use (``form`` and
``inverse_form``), so a secret, an ephemeral or the base element g that
conjugates or is conjugated several times is normalized and inverted only
once; ``nf_conjugate`` takes the word itself.

Factors the engine builds are permutations by construction, and outside
bytes are checked once, where they are read (``codec.read_canonical``),
so a PermutationBraid is a plain record.

All values are immutable; every operation is a pure function.
"""

from __future__ import annotations

from functools import cached_property

from . import permutations as pm
from ._record import _set, record
from .permutations import Perm


class StrandMismatchError(ValueError):
    """Raised when operands live in braid groups with different strand counts."""


def _check_same_strands(a: "BraidWord | CanonicalForm", b: "BraidWord | CanonicalForm") -> None:
    if a.n != b.n:
        raise StrandMismatchError(f"strand counts differ: {a.n} != {b.n}")


@record
class BraidWord:
    """A free word in signed Artin generators of B_n."""

    n: int
    letters: tuple[int, ...] = ()

    def __post_init__(self):
        if self.n < 2:
            raise ValueError("need at least 2 strands")
        object.__setattr__(self, "letters", tuple(self.letters))
        for v in self.letters:
            if not 1 <= abs(v) <= self.n - 1:
                raise ValueError(f"letter {v} out of range for {self.n} strands")

    def __len__(self) -> int:
        return len(self.letters)

    # Cached on first use.  In Python 3.11 one lock guards each property for
    # every instance, so normal_form must never read form or inverse_form.
    @cached_property
    def form(self) -> "CanonicalForm":
        """The word's normal form."""
        return normal_form(self)

    @cached_property
    def inverse_form(self) -> "CanonicalForm":
        """The normal form of the word's inverse."""
        return nf_invert(self.form)


@record
class PermutationBraid:
    """A positive braid in which each strand pair crosses at most once, held
    as its permutation tuple; a plain record that checks nothing itself."""

    perm: Perm

    # The engine builds and compares factors and forms through these, which
    # are faster written out than record's generic ones.
    def __init__(self, perm: Perm):
        _set(self, "perm", perm)

    def __eq__(self, other):
        if other.__class__ is self.__class__:
            return self.perm == other.perm
        return NotImplemented


@record
class CanonicalForm:
    """Left-greedy normal form D^delta_exp A_1 ... A_k.

    Factors exclude the identity and the half twist, and every adjacent
    pair is left-weighted; two group-equal words always yield equal
    CanonicalForm values.
    """

    n: int
    delta_exp: int
    factors: tuple[PermutationBraid, ...] = ()

    def __init__(self, n: int, delta_exp: int, factors: tuple[PermutationBraid, ...] = ()):
        _set(self, "n", n)
        _set(self, "delta_exp", delta_exp)
        _set(self, "factors", factors)

    def __eq__(self, other):
        if other.__class__ is self.__class__:
            return ((self.n, self.delta_exp, self.factors)
                    == (other.n, other.delta_exp, other.factors))
        return NotImplemented


@record
class GroupParams:
    """Public parameters: B_n split as n = l + r, base element g, sample length W.

    The left subgroup uses generator indices 1..l-1, the right subgroup
    l+1..n-1; index l is used by neither side, which is what makes the two
    subgroups commute elementwise.  Every valid GroupParams fits a key file.
    """

    l: int
    r: int
    g: BraidWord
    W: int = 16

    def __post_init__(self):
        if self.l < 2 or self.r < 2:
            raise ValueError("both subgroups must be nontrivial: need l >= 2 and r >= 2")
        if self.W < 1:
            raise ValueError("sample length W must be >= 1")
        # Key files hold n, l, r, W as unsigned and letters (< n) as signed 2-byte fields.
        if self.n > 32768 or self.W > 65535:
            raise ValueError("parameters must fit the key file fields: "
                             "n = l + r <= 32768 and W <= 65535")
        if self.g.n != self.n:
            raise StrandMismatchError(f"base element lives in B_{self.g.n}, params say B_{self.n}")

    @property
    def n(self) -> int:
        return self.l + self.r


# Fixed default base element of B_16: mixes both halves and uses the coupling
# generator s_8, so at l = r = 8 conjugation does not split across the
# subgroups.  Other splits fold these letters into 1..n-1, and when none is
# +-l, g lies in LB_l * RB_r and splits into commuting halves: 253 of the
# 529 splits with l, r in 2..24, among them (16, 16) and (24, 24), where g
# lies in LB_l alone (tests/test_default_params.py).
DEFAULT_G_LETTERS = (1, 9, 8, 3, 12, -8, 5, 14, 8, -2, 11, -7, 4, 13, 8, 6)


def default_params(l: int = 8, r: int = 8, W: int = 16) -> GroupParams:
    """Desk-scale defaults: B_16 with the fixed published base word."""
    n = l + r
    if (l, r) == (8, 8):
        g = BraidWord(n, DEFAULT_G_LETTERS)
    else:
        # Scale the fixed pattern into range for other splits.
        g = BraidWord(n, tuple(
            (abs(v) - 1) % (n - 1) + 1 if v > 0 else -((abs(v) - 1) % (n - 1) + 1)
            for v in DEFAULT_G_LETTERS
        ))
    return GroupParams(l=l, r=r, g=g, W=W)


# ---------------------------------------------------------------------------
# Word-level operations
# ---------------------------------------------------------------------------

def free_reduce(letters: tuple[int, ...]) -> tuple[int, ...]:
    """Cancel adjacent s_i s_i^{-1} pairs until none remain."""
    out: list[int] = []
    for v in letters:
        if out and out[-1] == -v:
            out.pop()
        else:
            out.append(v)
    return tuple(out)


def multiply(a: BraidWord, b: BraidWord) -> BraidWord:
    """Concatenation word for a*b, freely reduced."""
    _check_same_strands(a, b)
    return BraidWord(a.n, free_reduce(a.letters + b.letters))


def invert(a: BraidWord) -> BraidWord:
    """Reversed word with flipped signs, freely reduced."""
    return BraidWord(a.n, free_reduce(tuple(-v for v in reversed(a.letters))))


def conjugate(a: BraidWord, t: BraidWord) -> BraidWord:
    """t * a * t^{-1}."""
    return multiply(multiply(t, a), invert(t))


# ---------------------------------------------------------------------------
# The normal-form engine
# ---------------------------------------------------------------------------

# A pair of B_n with n >= MEET_FROM that has moved n crossings ends with one
# meet.  Insertion + meet over insertion-only time on seed-1 key exchange pairs
# (W = 32; Python 3.11, one core of a 2-CPU x86-64 VM; two runs of
# ``tools/pair_work.py --replay``, 2026-10-19): 1.55-1.58 at n = 16 (1.43-1.49
# on twin encryption pairs), 1.21 at 20, 1.05-1.06 at 24, 1.01-1.04 at 25,
# 0.98-0.99 at 26, 0.94-0.95 at 27, 0.89-0.91 at 28, 0.81-0.83 at 32.  At
# n = 32, a meet after n/2 or 2n crossings instead of n was 4% and 5% slower.
MEET_FROM = 27


def _left_weight_pair(a: list[int], b: list[int], n: int) -> int:
    """Transfer crossings from the head of b to the tail of a (in place)
    until S(b) is a subset of F(a).  Returns the number of crossings the
    insertion pass moved: 0 exactly when the pair was left-weighted, at
    least n when a meet finished it (the meet's crossings not included).

    i is in S(b) iff value i-1 sits after value i in b, i.e. the inverse
    table binv has a descent at i; i is in F(a) iff a[i-1] > a[i].  One
    insertion pass does it: for i = 1 .. n-1 the entry (a[i], binv[i])
    travels left past every neighbour j with binv[j] > binv[i] and
    a[j] < a[i], each step one crossing, and is popped from both lists and
    re-inserted, which builds no temporary list.  The entries left of i
    never hold such a neighbouring pair, so none is checked twice; b is
    rebuilt from binv once at the end.  A heavy pair (n crossings moved,
    n >= MEET_FROM) moves all the rest at once: M = da ^ b from ``_meet``,
    then a <- a.M and b <- M^-1.b.  Both ways end at the same left-weighted
    pair, so the result is the same.
    """
    binv = [0] * n
    for pos, v in enumerate(b):
        binv[v] = pos
    budget = n if n >= MEET_FROM else n * n  # n * n: more than any pair moves
    moved = 0
    for i in range(1, n):
        y = binv[i]
        if binv[i - 1] < y:
            continue
        x = a[i]
        if a[i - 1] > x:
            continue
        j = i - 1
        while j and binv[j - 1] > y and a[j - 1] < x:
            j -= 1
        a.insert(j, a.pop(i))
        binv.insert(j, binv.pop(i))
        moved += i - j
        if moved >= budget:
            m = _meet(a, binv, n)
            a[:] = [a[x] for x in m]
            binv = [binv[x] for x in m]
            break
    if moved:
        for v, pos in enumerate(binv):
            b[pos] = v
    return moved


def _meet(a: list[int], binv: list[int], n: int) -> list[int]:
    """The meet da ^ b of the right complement da = a^-1.D and b, as a
    permutation; b is given by its inverse table binv.

    A simple braid is a prefix of another iff its inverted value pairs are
    a subset of the other's.  The pairs u < v the meet leaves uninverted
    (u before v) are the transitive closure of those uninverted in da or
    in b; u < v is uninverted in da iff a[u] > a[v], and in b iff
    binv[u] < binv[v].  up[u] is the bitset of the closure's v > u, built
    for u = n-1 down to 0: the direct edges, plus up[v] for each edge v
    that no lower edge already reaches.  Among the values >= u, u comes
    after the (n-1-u) - |up[u]| it does not precede, so inserting u at
    that index of the order built so far lays out the meet.
    """
    ainv = [0] * n
    for x, v in enumerate(a):
        ainv[v] = x
    b = [0] * n
    for v, pos in enumerate(binv):
        b[pos] = v
    below = [0] * n  # below[k]: positions of a holding a value < k
    acc = 0
    for k in range(n):
        below[k] = acc
        acc |= 1 << ainv[k]
    later = [0] * n  # later[j]: values of b at positions > j
    acc = 0
    for j in range(n - 1, -1, -1):
        later[j] = acc
        acc |= 1 << b[j]
    up = [0] * n
    order: list[int] = []
    for u in range(n - 1, -1, -1):
        r = todo = (below[a[u]] | later[binv[u]]) & -(2 << u)
        while todo:
            low = todo & -todo
            rv = up[low.bit_length() - 1]
            r |= rv
            todo = (todo & ~rv) ^ low
        up[u] = r
        order.insert(n - 1 - u - r.bit_count(), u)
    return order


def _form(n: int, dexp: int, prefix: list[list[int]], tail) -> CanonicalForm:
    """D^dexp . prefix . tail in normal form.  prefix is left-weighted, with
    no identity or D factor, and is extended in place; each tail factor (a
    list) is appended and percolated leftward until a pair does not move.
    A factor that is or becomes D leaves at once for the front, flipping
    the factors to its left: A_1 .. A_j D = D tau(A_1) .. tau(A_j)."""
    ident, rev, top = list(range(n)), list(range(n - 1, -1, -1)), n - 1
    facs = prefix
    for f in tail:
        facs.append(f)
        i = len(facs) - 1
        while facs[i] != rev and i and _left_weight_pair(facs[i - 1], facs[i], n):
            i -= 1
        if facs[i] == rev:
            facs[:i] = [[top - v for v in reversed(g)] for g in facs[:i]]
            del facs[i]
            dexp += 1
        if facs and facs[-1] == ident:
            facs.pop()
    return CanonicalForm(n, dexp, tuple(PermutationBraid(tuple(f)) for f in facs))


def normal_form(a: BraidWord) -> CanonicalForm:
    """Unique left-greedy normal form of a word; group-equal words agree.

    The letters are first gathered into runs [negative, p, mask]: a simple
    braid P (p = perm(P)) or the inverse Q^-1 of one (p = perm(Q^-1)), and
    the bitset of the generator indices it uses.  A letter +-i joins the
    latest run of its sign with p[i-1] < p[i] (P s_i, or s_i Q, is still
    simple), passing back only runs that use none of i-1, i, i+1, whose
    letters commute with s_i; otherwise it starts a run.  Q^-1 = D^-1 C
    with perm(C) = rev . p, and a run's factor is flipped by tau iff an odd
    number of negative runs, each bringing a D^-1 to the front, follow it.
    """
    n, top = a.n, a.n - 1
    runs: list[list] = []
    for v in a.letters:
        i, negative = abs(v), v < 0
        join = None
        for run in reversed(runs):
            if run[0] == negative and run[1][i - 1] < run[1][i]:
                join = run
                break
            if run[2] >> (i - 1) & 7:
                break
        if join is None:
            join = [negative, list(range(n)), 0]
            runs.append(join)
        p = join[1]
        p[i - 1], p[i] = p[i], p[i - 1]
        join[2] |= 1 << i
    tail: list[list[int]] = []
    neg = 0
    for negative, p, _ in reversed(runs):
        f = [top - v for v in p] if negative else p
        tail.append([top - v for v in reversed(f)] if neg % 2 else f)
        neg += negative
    tail.reverse()
    return _form(n, -neg, [], tail)


def nf_multiply(x: CanonicalForm, y: CanonicalForm) -> CanonicalForm:
    """Product of two canonical forms: y's factors percolate into x's, which
    move past D^q (flipped by tau iff q is odd) and are not re-checked."""
    _check_same_strands(x, y)
    odd = y.delta_exp % 2
    prefix = [list(pm.flip(f.perm) if odd else f.perm) for f in x.factors]
    return _form(x.n, x.delta_exp + y.delta_exp, prefix, [list(f.perm) for f in y.factors])


def nf_invert(x: CanonicalForm) -> CanonicalForm:
    """(D^p A_1 .. A_k)^{-1} = D^{-p-k} C_k' .. C_1', where C_j = rev . A_j^{-1}
    (so A_j^{-1} = D^{-1} C_j) and C_j' is C_j flipped by tau iff p + j - 1
    is odd.  That sequence is already a normal form: no pair is touched."""
    n, p, k = x.n, x.delta_exp, len(x.factors)
    rev = pm.half_twist(n)
    out = []
    for j in range(k, 0, -1):
        c = pm.compose(rev, pm.inverse(x.factors[j - 1].perm))
        out.append(PermutationBraid(pm.flip(c) if (p + j - 1) % 2 else c))
    return CanonicalForm(n, -p - k, tuple(out))


def nf_conjugate(x: CanonicalForm, t: BraidWord) -> CanonicalForm:
    """normal_form(t * x * t^{-1}) computed without leaving canonical forms,
    from the forms of t and t^{-1} that the word keeps."""
    return nf_multiply(nf_multiply(t.form, x), t.inverse_form)
