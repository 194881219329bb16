"""The trapdoor test: decide twin-conjugacy queries without any secret
conjugator.

Setup draws a hidden pair (r, s) from the left subgroup.  The trapdoor
predicts Z2 from (Y, Z1) as

    P(Y, Z1)  =  s Y (s^{-1} r) Z1^{-1} r^{-1}.

Setup synthesizes the second public element X2 = P(g, X1), and a query
(Yhat, Z1hat, Z2hat) is accepted iff Z2hat == P(Yhat, Z1hat), checked as
the balance s^{-1} Z2hat r == Yhat (s^{-1} r) Z1hat^{-1} (the same
equation times s^{-1} on the left and r on the right).

For an honest query (Yhat = y g y^{-1} with y from the right subgroup and
Zihat = y Xi y^{-1}), y commutes with r and s, so P(Yhat, Z1hat) =
y P(g, X1) y^{-1} = Z2hat: acceptance is exact, never probabilistic.  If
Z1hat is honest and Z2hat is not, P pins Z2hat to the honest value, so
rejection is also exact.  A dishonest Z1hat is not always rejected: for
any u != 1 from RB_r, (Yhat, u Z1hat, Z2hat u^{-1}) is dishonest in both
components yet always accepted, because u commutes with r, so
P(Yhat, u Z1hat) = P(Yhat, Z1hat) u^{-1} (the suite pins this, 50 of 50).
The suite claims no other soundness bound than its count of random
queries passing (at most 1%).

Both r and s are drawn from LB_l: each must commute with the right-side
ephemeral y for honest queries to pass.  (Testable fact: with s from
RB_r, honest queries fail, because s and y need not commute.)

In normal forms the balance costs two passes of ``nf_multiply``, one
three-form product per side (four two-form products' crossings, about
20% fewer than computing P whole), and an ``nf_invert`` (which
left-weights nothing); setup computes its constants s^{-1}, s^{-1} r and r
once for every later check, normalizing and inverting the words r and s
(``BraidWord.form``).

Before any normal-form work the check compares the sides on strand
permutations.  The map B_n -> S_n, D^p A_1 .. A_k -> rev^(p mod 2) .
A_1 .. A_k, is a homomorphism, so when the sides' images differ at a
strand the normal forms differ too and the query is rejected there: the
filter changes no verdict.  It compares the balance times Z1hat on the
right, s^{-1} Z2hat r Z1hat against Yhat (s^{-1} r), whose images agree
exactly when the balance's do, so each strand is followed forward through
one form after another and no image is built; setup reads the constants'
images the same way.  The normal-form check keeps Z1hat^{-1}: moving
Z1hat to the left side costs about 16% more crossings.  The filter
rejects every z1-corrupted, z2-corrupted and random query of the suite's
fixed seeds (32 of 32 each), nearly always at the first strand.  It
cannot reject a query whose images agree: the shift above, the
pure-subgroup query (v, v, 1) and every honest query go on to the normal
forms.  On reduce-b16, whose median check is one the filter rejects,
the median check takes 0.0046 ms (``BENCH_33.json``, per-layer
``trapdoor.check_ms_p50``).
"""

from __future__ import annotations

from ._record import record
from .braid import (
    BraidWord,
    CanonicalForm,
    GroupParams,
    _check_same_strands,
    nf_invert,
    nf_multiply,
    normal_form,
)
from .elgamal import PublicKey, keygen, shared_conjugates
from .permutations import Perm
from .sampling import SeededRng, SubgroupSide, sample_subgroup


@record
class Trapdoor:
    """Hidden (r, s) plus the tied public pair (X1, X2), the balance's
    constants (s^{-1}, s^{-1} r, r) in normal form and their strand
    permutations, all computed at setup."""

    r: BraidWord
    s: BraidWord
    X1: CanonicalForm
    X2: CanonicalForm
    constants: tuple[CanonicalForm, CanonicalForm, CanonicalForm]
    images: tuple[Perm, Perm, Perm]


@record
class DecisionQuery:
    """A twin-conjugacy query; the engine refuses components outside B_n."""

    Yhat: CanonicalForm
    Z1hat: CanonicalForm
    Z2hat: CanonicalForm


def _strand(x: CanonicalForm, i: int) -> int:
    """x's strand permutation at i: its factors from right to left, then the
    reversal when D's exponent is odd."""
    for f in reversed(x.factors):
        i = f.perm[i]
    return x.n - 1 - i if x.delta_exp % 2 else i


def trapdoor_from_secrets(
    params: GroupParams, X1: CanonicalForm, r: BraidWord, s: BraidWord
) -> Trapdoor:
    """Build the trapdoor for explicit (r, s); X2 is the prediction P(g, X1),
    grouped as (s g (s^{-1} r)) (X1^{-1} r^{-1}), which moves fewest crossings."""
    s_inv_r = nf_multiply(s.inverse_form, r.form)
    X2 = nf_multiply(nf_multiply(s.form, params.g.form, s_inv_r),
                     nf_multiply(nf_invert(X1), r.inverse_form))
    constants = (s.inverse_form, s_inv_r, r.form)
    images = tuple(tuple(_strand(c, i) for i in range(params.n)) for c in constants)
    return Trapdoor(r, s, X1, X2, constants, images)


def trapdoor_setup(params: GroupParams, X1: CanonicalForm, rng: SeededRng) -> Trapdoor:
    """Sample fresh (r, s) from the left subgroup and tie X2 to X1."""
    r = sample_subgroup(params, SubgroupSide.LEFT, rng)
    s = sample_subgroup(params, SubgroupSide.LEFT, rng)
    return trapdoor_from_secrets(params, X1, r, s)


def trapdoor_check(td: Trapdoor, q: DecisionQuery) -> bool:
    """Accept iff s^{-1} Z2hat r == Yhat (s^{-1} r) Z1hat^{-1}, that is iff
    Z2hat is the prediction for (Yhat, Z1hat) (see the module docstring).

    A component outside the trapdoor's B_n raises StrandMismatchError
    before any strand is read.  The strand images of s^{-1} Z2hat r Z1hat
    and Yhat (s^{-1} r), the balance times Z1hat on the right, are compared
    one strand at a time, and the first strand that differs rejects the
    query with no normal-form work; a query whose images agree costs two
    passes, one per side."""
    Y, Z1, Z2 = q.Yhat, q.Z1hat, q.Z2hat
    for x in (Y, Z1, Z2):
        _check_same_strands(x, td.r)
    s_inv, s_inv_r, r = td.images
    for i, j in enumerate(s_inv_r):
        if s_inv[_strand(Z2, r[_strand(Z1, i)])] != _strand(Y, j):
            return False
    s_inv, s_inv_r, r = td.constants
    return nf_multiply(s_inv, Z2, r) == nf_multiply(Y, s_inv_r, nf_invert(Z1))


def honest_query(td_publics: tuple[CanonicalForm, CanonicalForm],
                 params: GroupParams, rng: SeededRng) -> tuple[DecisionQuery, BraidWord]:
    """A query satisfying the twin predicate for (X1, X2): a fresh
    right-side key (y, Yhat = ygy^{-1}) agrees with (X1, X2), so
    Zihat = y Xi y^{-1}.

    Returns the ephemeral y too; whenever X_i = x_i g x_i^{-1} with x_i in
    LB_l, the components equal x_i Yhat x_i^{-1}, so this is exactly the
    honest-query shape of the twin scheme.
    """
    eph = keygen(params, SubgroupSide.RIGHT, 1, rng)
    Z1hat, Z2hat = shared_conjugates(eph, PublicKey(params, SubgroupSide.LEFT, td_publics))
    return DecisionQuery(eph.publics[0], Z1hat, Z2hat), eph.secrets[0]


def random_element(params: GroupParams, rng: SeededRng) -> CanonicalForm:
    """Normal form of a random word of 2W letters over all generators; used
    for fully-random (overwhelmingly dishonest) query material."""
    letters = tuple(
        rng.rand_sign() * (1 + rng.rand_below(params.n - 1)) for _ in range(2 * params.W)
    )
    return normal_form(BraidWord(params.n, letters))


def random_element_differing(params: GroupParams, rng: SeededRng,
                             avoid: CanonicalForm) -> CanonicalForm:
    """A random_element, redrawn until it differs from avoid."""
    while (element := random_element(params, rng)) == avoid:
        pass
    return element


def trapdoor_stats(params: GroupParams, trials: int, rng: SeededRng) -> tuple[int, int, int]:
    """Counts over `trials` fresh trapdoors, each tied to a fresh X1 = xgx^{-1}:
    (honest queries accepted, half-dishonest queries rejected, random queries
    accepted).  The half-dishonest query's Z2hat is random, redrawn until it
    differs from the honest value; callers set their own bounds."""
    complete = rejected = random_passes = 0
    for _ in range(trials):
        td = trapdoor_setup(params, keygen(params, SubgroupSide.LEFT, 1, rng).publics[0], rng)
        q, _y = honest_query((td.X1, td.X2), params, rng)
        complete += trapdoor_check(td, q)
        junk = random_element_differing(params, rng, q.Z2hat)
        rejected += not trapdoor_check(td, DecisionQuery(q.Yhat, q.Z1hat, junk))
        rnd = DecisionQuery(*(random_element(params, rng) for _ in range(3)))
        random_passes += trapdoor_check(td, rnd)
    return complete, rejected, random_passes
