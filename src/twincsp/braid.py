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
A <- A M, B <- M^{-1} B.  One insertion pass moves it crossing by
crossing (A gains a final s_i, B loses a leading s_i), pops and re-inserts
each entry that moves, and never re-checks a neighbour it has passed.

A normal form is built by Thurston's right-multiplication algorithm
(Epstein et al., ch. 9): factors are appended one at a time to a sequence
that is already left-weighted, and each new factor percolates leftward,
left-weighting the pair it ends, until a pair does not move; the pairs to
its left are untouched, so they stay left-weighted.  Only the appended
factor can end as the identity (it is dropped).  D powers move to the
front through the flip automorphism tau(s_i) = s_{n-i}, of order two:
A D = D tau(A).  The pass keeps its factors flipped by tau when a parity
bit is set instead of flipping them, and flips the result once at the
end.  A factor that is or becomes D leaves at once for the front: the
power grows by one, the parity toggles, only the factors to its right are
flipped and the percolation stops, with no pair call (a pair (A, D)
would only compute (D, tau A)).  A factor f near D, the shape that every
negative letter (s_i^{-1} = D^{-1} (D s_i^{-1})) and every inverse form
brings, is not percolated at all: f = D c^{-1} with c = f^{-1} D small,
so its D goes to the front (toggling the parity) and c^{-1} is divided
out of the prefix from the right, one left lcm per factor, computed
letter by letter on c's reduced word (Dehornoy et al., Foundations of
Garside Theory, EMS 2015).  The first domino rule makes the result
left-weighted, so no pair is checked, and the crossings moved fall from
the near-D factor's to its complement's.

``nf_multiply(x, y, ...)`` takes any number of forms and computes their
product in one pass: x's factors are the prefix, never re-checked, and
every later form's D power toggles the parity before its factors are
appended, so t x t^{-1} builds no intermediate form.  ``normal_form``
feeds the same pass.  It first gathers the letters into runs of one
sign, each a simple braid P or the inverse Q^{-1} = D^{-1} (D Q^{-1}) of
one: a letter joins the latest run of its sign that stays simple with
it, passing back only runs whose letters commute with it, and otherwise
starts a run.  Each run is one factor of the pass, so a secret word of
B_32 becomes about a third as many factors as it has letters.  A negative
run brings its own division word: the complement of D Q^{-1} is Q, whose
letters the run keeps in order.
``nf_invert`` left-weights nothing: the inverse of D^p A_1 .. A_k is
D^{-p-k} followed by the complements of A_k .. A_1, flipped alternately,
and that sequence is already a normal form.

Some state is computed lazily and kept, all of it one way: in a
class-level ``None`` slot that is not a field, written once on the
instance with ``_set``.  Two threads may both compute a value; the values
are equal.  Conjugation by t needs the normal forms of both t and
t^{-1}; a BraidWord keeps both, computed on first use (``form`` and
``inverse_form``), so a secret, an ephemeral or the base element g that
conjugates or is conjugated several times is normalized and inverted
only once; ``nf_conjugate`` takes the word itself.  A CanonicalForm
keeps its tail steps, computed the first time it is a tail operand of a
product (``_tail_steps``): for each factor its near-D complement word or
its factor list, in both tau frames.  A public key, g or an inverse
secret that recurs as a tail computes none again.

Factors the engine builds are permutations by construction, and outside
bytes are checked once, where they are read (``codec.read_canonical``),
so a PermutationBraid is a plain record.

All values are immutable; every operation is a pure function.
"""

from __future__ import annotations

from operator import sub

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
    letters: tuple[int, ...]

    _form = _inverse_form = None  # not fields: kept by form and inverse_form

    def __post_init__(self):
        if self.n < 2:
            raise ValueError("need at least 2 strands")
        object.__setattr__(self, "letters", tuple(self.letters))
        for v in self.letters:
            if not 1 <= abs(v) <= self.n - 1:
                raise ValueError(f"letter {v} out of range for {self.n} strands")

    def __len__(self) -> int:
        return len(self.letters)

    @property
    def form(self) -> "CanonicalForm":
        """The word's normal form, kept on first use."""
        if self._form is None:
            _set(self, "_form", normal_form(self))
        return self._form

    @property
    def inverse_form(self) -> "CanonicalForm":
        """The normal form of the word's inverse, kept on first use."""
        if self._inverse_form is None:
            _set(self, "_inverse_form", nf_invert(self.form))
        return self._inverse_form


@record
class PermutationBraid:
    """A positive braid in which each strand pair crosses at most once, held
    as its permutation tuple; a plain record that checks nothing itself."""

    perm: Perm

    # The engine builds about ten factors per form, over a hundred per op on
    # every workload; a fixed signature is faster than record's generic one.
    def __init__(self, perm: Perm, /):
        _set(self, "perm", perm)


@record
class CanonicalForm:
    """Left-greedy normal form D^delta_exp A_1 ... A_k.

    Factors exclude the identity and the half twist, and every adjacent
    pair is left-weighted; two group-equal words always yield equal
    CanonicalForm values.
    """

    n: int
    delta_exp: int
    factors: tuple[PermutationBraid, ...]

    _steps = None  # not a field: set by _tail_steps on first use as a tail


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
    W: int

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
    return GroupParams(l, r, g, W)


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

def _left_weight_pair(a: list[int], b: list[int], n: int) -> int:
    """Transfer crossings from the head of b to the tail of a (in place)
    until S(b) is a subset of F(a).  Returns the number of crossings
    moved: 0 exactly when the pair was left-weighted.

    i is in S(b) iff value i-1 sits after value i in b, i.e. the inverse
    table binv has a descent at i; i is in F(a) iff a[i-1] > a[i].  One
    insertion pass does it: for i = 1 .. n-1 the entry (a[i], binv[i])
    travels left past every neighbour j with binv[j] > binv[i] and
    a[j] < a[i], each step one crossing, and is popped from both lists and
    re-inserted, which builds no temporary list.  The entries left of i
    never hold such a neighbouring pair, so none is checked twice; b is
    rebuilt from binv once at the end.
    """
    binv = [0] * n
    for pos, v in enumerate(b):
        binv[v] = pos
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
    if moved:
        for v, pos in enumerate(binv):
            b[pos] = v
    return moved


def _complement_word(f: list[int]) -> list[int]:
    """The reduced word of c = f^-1 D, last letter first: the generators
    whose adjacent swaps insertion-sort perm(c), in the order made."""
    c = [0] * len(f)
    for x, v in enumerate(f):
        c[-1 - v] = x
    word = []
    for i in range(1, len(c)):
        v, k = c[i], i
        while k and c[k - 1] > v:
            c[k] = c[k - 1]
            word.append(k)
            k -= 1
        c[k] = v
    return word


def _divide(a: list[int], word: list[int]) -> list[int]:
    """Rewrite A . c^-1 as c'^-1 . A' in place, where c'.A = A'.c is the
    left lcm of A and c.  word is c's reduced word, last letter first, and
    c' is returned the same way.

    The letters j of the word are taken in turn, each rewriting A s_j^-1
    as w^-1 A' with w.A = A'.s_j their left lcm; the words w, in that
    order, make up the word returned:
    - A[j-1] > A[j]: A ends with s_j, so w is empty, and A' is A with
      positions j-1 and j swapped;
    - A[j] = A[j-1] + 1: A' = A and w = s_v with v = A[j];
    - otherwise, with p = A[j-1] and q = A[j], w relabels the values
      p .. q: those at positions >= j take the lowest and those left of j
      the highest, each keeping its order.  A' is the relabelled A with
      positions j-1 and j swapped, and w's word, last letter first, moves
      each value from position j on, lowest first, down past the values
      left of j below it.
    """
    out: list[int] = []
    for j in word:
        p, q = a[j - 1], a[j]
        if p > q:
            a[j - 1], a[j] = q, p
        elif q == p + 1:
            out.append(q)
        else:
            mid = [a.index(v) for v in range(p + 1, q)]
            left = 1
            for s, x in enumerate(mid, p + 1):
                if x < j:
                    left += 1
                else:
                    out.extend(range(s, s - left, -1))
            out.extend(range(q, q - left, -1))
            for v, x in enumerate([x for x in mid if x > j] + [j - 1, j]
                                  + [x for x in mid if x < j], p):
                a[x] = v
    return out


def _steps(n: int, facs: list[tuple[list[int], list[int] | None]]) -> tuple:
    """Each factor's tail step, (near, frame0, frame1), for facs a list of
    (f, word), word c's reduced word when the caller knows it, else None:
    for f near D, near is True and the frames are c's reduced word (word,
    or ``_complement_word``) and tau(c)'s, the same letters i mapped to
    n - i; otherwise they are f and tau(f).  f is near D when f[0] - f[-1]
    > (n-1) // 2 and its footrule distance from D, between c's crossing
    count and twice it, is under max(n, n^3/256); both tests read f and
    tau(f) alike.  Percolating f costs about n^2/2 crossings per factor it
    passes, dividing by c about c's letters per factor.  Timed both ways
    from the same engine states (Python 3.11, one core of a 2-CPU x86-64
    VM), the summed time was least with the bound at 15-23 at B_16, 73 at
    B_24, and at B_32 and B_48 with every f that passes the first test
    divided (bound 129 and 143 up); n^3/256 is 16, 54, 128 and 432."""
    top, rev = n - 1, range(n - 1, -1, -1)
    near = max(n, n ** 3 // 256)
    out = []
    for f, word in facs:
        if f[0] - f[-1] > top // 2 and sum(map(abs, map(sub, f, rev))) < near:
            if word is None:
                word = _complement_word(f)
            out.append((True, word, [n - j for j in word]))
        else:
            out.append((False, f, [top - v for v in reversed(f)]))
    return tuple(out)


def _tail_steps(y: CanonicalForm) -> tuple:
    """y's ``_steps``, kept on y by the first product that takes it as a
    tail operand."""
    steps = y._steps
    if steps is None:
        steps = _steps(y.n, [(list(f.perm), None) for f in y.factors])
        _set(y, "_steps", steps)
    return steps


def _divide_out(facs: list[list[int]], word: list[int], rev: list[int]) -> int:
    """Divide c^-1 out of facs from the right, one factor at a time from the
    last (``_divide``), where word is c's reduced word in facs' frame.  A
    word c' left over after the first factor becomes the front factor
    D c'^-1.  Returns the D powers that join the front: 1 when the word was
    used up, 0 when the front factor keeps its D."""
    for a in reversed(facs):
        if not word:
            break
        word = _divide(a, word)
    if not word:
        return 1
    front = rev[:]
    for j in word:
        front[j - 1], front[j] = front[j], front[j - 1]
    facs.insert(0, front)
    return 0


def _form(n: int, dexp: int, facs: list[list[int]], tails) -> CanonicalForm:
    """D^dexp . facs . D^q_1 T_1 . D^q_2 T_2 ... in normal form, for tails
    (q_i, the ``_steps`` of T_i's factors), by the pass the module
    docstring describes.  facs is left-weighted, with no identity or D
    factor; it is extended in place, stored flipped by tau while odd is
    set.  A tail factor f near D is not percolated: with c = f^-1 D,
    prefix . f = D tau(prefix) c^-1, and dividing c^-1 out of the prefix
    (``_divide_out``) leaves it left-weighted (the first domino rule of
    Garside theory).  Which factors take this way changes the speed, never
    the form."""
    ident, rev, top = list(range(n)), list(range(n - 1, -1, -1)), n - 1
    odd = 0
    for q, steps in tails:
        dexp += q
        odd ^= q & 1
        for near, f0, f1 in steps:
            if near:
                odd ^= 1
                dexp += _divide_out(facs, f1 if odd else f0, rev)
                while facs and facs[-1] == ident:
                    facs.pop()
                continue
            facs.append((f1 if odd else f0)[:])
            i = len(facs) - 1
            while facs[i] != rev and i and _left_weight_pair(facs[i - 1], facs[i], n):
                i -= 1
            if facs[i] == rev:
                del facs[i]
                facs[i:] = [[top - v for v in reversed(g)] for g in facs[i:]]
                dexp += 1
                odd ^= 1
            if facs and facs[-1] == ident:
                facs.pop()
    if odd:
        facs = [[top - v for v in reversed(f)] for f in facs]
    return CanonicalForm(n, dexp, tuple(PermutationBraid(tuple(f)) for f in facs))


def normal_form(a: BraidWord) -> CanonicalForm:
    """Unique left-greedy normal form of a word; group-equal words agree.

    The letters are first gathered into runs [negative, p, mask, word]: a
    simple braid P (p = perm(P)) or the inverse Q^-1 of one (p =
    perm(Q^-1)), the bitset of the generator indices it uses, and its
    indices in order.  A letter +-i joins the latest run of its sign with
    p[i-1] < p[i] (P s_i, or s_i Q, is still simple), passing back only
    runs that use none of i-1, i, i+1, whose letters commute with s_i;
    otherwise it starts a run.  Each run is one tail of ``_form``: P, or
    Q^-1 = D^-1 C with perm(C) = rev . p, whose complement word is Q's,
    the run's word.
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
            join = [negative, list(range(n)), 0, []]
            runs.append(join)
        p = join[1]
        p[i - 1], p[i] = p[i], p[i - 1]
        join[2] |= 1 << i
        join[3].append(i)
    steps = _steps(n, [([top - v for v in p], word) if negative else (p, None)
                       for negative, p, _, word in runs])
    return _form(n, 0, [], [(-run[0], (step,)) for run, step in zip(runs, steps)])


def nf_multiply(x: CanonicalForm, *ys: CanonicalForm) -> CanonicalForm:
    """Product of any number of canonical forms in one pass: x's factors
    are the prefix, never re-checked, and each later form's factors
    percolate into it, their steps kept on the form (``_tail_steps``)."""
    for y in ys:
        _check_same_strands(x, y)
    return _form(x.n, x.delta_exp, [list(f.perm) for f in x.factors],
                 [(y.delta_exp, _tail_steps(y)) for y in ys])


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
    """normal_form(t * x * t^{-1}) in one pass, from the forms of t and
    t^{-1} that the word keeps."""
    return nf_multiply(t.form, x, t.inverse_form)
