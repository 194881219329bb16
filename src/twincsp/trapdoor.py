"""The trapdoor test: decide twin-conjugacy queries without any secret
conjugator.

Setup draws a hidden pair (r, s) from the left subgroup.  The whole test
is one formula, the trapdoor's prediction of Z2 from (Y, Z1):

    P(Y, Z1)  =  s Y (s^{-1} r) Z1^{-1} r^{-1}.

Setup synthesizes the second public element X2 = P(g, X1), and a query
(Yhat, Z1hat, Z2hat) is accepted iff Z2hat == P(Yhat, Z1hat).

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

In normal forms P costs four products and an ``nf_invert`` (which
left-weights nothing); setup computes its constants s, s^{-1} r and r^{-1}
once for every later check, normalizing and inverting the words r and s
(``BraidWord.form``).

Before any normal-form work the check evaluates P on strand permutations.
The map B_n -> S_n, D^p A_1 .. A_k -> rev^(p mod 2) . A_1 .. A_k, is a
homomorphism, so the image of P(Yhat, Z1hat) is P computed with
``compose`` and ``inverse`` on images; when it differs from the image of
Z2hat the normal forms differ too and the query is rejected at once.  The
filter therefore changes no verdict.  (Setup computes the constants'
images too.)  It rejects every z1-corrupted, z2-corrupted and random query
of the suite's fixed seeds (32 of 32 each).  It cannot reject a query whose
images agree: the shift above, the pure-subgroup query (v, v, 1) and every
honest query go on to the normal forms.  At B_16 (Python 3.11, one core of a 2-CPU
x86-64 VM, median thread CPU time over 200 checks) an honest query takes
1.06-1.21 ms.  A rejected one takes 0.02-0.04 ms (medians of five
alternating runs of 3,200 checks on 16 trapdoors).
"""

from __future__ import annotations

from . import permutations as pm
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
from .sampling import SeededRng, SubgroupSide, sample_subgroup


@record
class Trapdoor:
    """Hidden (r, s) plus the tied public pair (X1, X2), the prediction's
    constants (s, s^{-1} r, r^{-1}) in normal form and their strand
    permutations, all computed at setup."""

    r: BraidWord
    s: BraidWord
    X1: CanonicalForm
    X2: CanonicalForm
    constants: tuple[CanonicalForm, CanonicalForm, CanonicalForm]
    images: tuple[pm.Perm, pm.Perm, pm.Perm]


@record
class DecisionQuery:
    """A twin-conjugacy query; the engine refuses components outside B_n."""

    Yhat: CanonicalForm
    Z1hat: CanonicalForm
    Z2hat: CanonicalForm


def _prediction(mul, inv, s, s_inv_r, r_inv, Y, Z1):
    """s Y (s^{-1} r) Z1^{-1} r^{-1} in the group that mul and inv act in
    (normal forms or strand permutations): the Z2 that the trapdoor pairs
    with (Y, Z1)."""
    return mul(mul(mul(mul(s, Y), s_inv_r), inv(Z1)), r_inv)


def _image(x: CanonicalForm) -> pm.Perm:
    """x's strand permutation: D^p A_1 .. A_k -> rev^(p mod 2) . A_1 .. A_k."""
    factors = x.factors
    if x.delta_exp % 2:
        img = pm.half_twist(x.n)
    elif factors:
        img, factors = factors[0].perm, factors[1:]
    else:
        return pm.identity(x.n)
    for f in factors:
        img = pm.compose(img, f.perm)
    return img


def trapdoor_from_secrets(
    params: GroupParams, X1: CanonicalForm, r: BraidWord, s: BraidWord
) -> Trapdoor:
    """Build the trapdoor for explicit (r, s); X2 is the prediction for
    (g, X1)."""
    constants = (s.form, nf_multiply(s.inverse_form, r.form), r.inverse_form)
    X2 = _prediction(nf_multiply, nf_invert, *constants, params.g.form, X1)
    return Trapdoor(r, s, X1, X2, constants, tuple(_image(c) for c in constants))


def trapdoor_setup(params: GroupParams, X1: CanonicalForm, rng: SeededRng) -> Trapdoor:
    """Sample fresh (r, s) from the left subgroup and tie X2 to X1."""
    r = sample_subgroup(params, SubgroupSide.LEFT, rng)
    s = sample_subgroup(params, SubgroupSide.LEFT, rng)
    return trapdoor_from_secrets(params, X1, r, s)


def trapdoor_check(td: Trapdoor, q: DecisionQuery) -> bool:
    """Accept iff Z2hat equals the trapdoor's prediction for (Yhat, Z1hat)
    (see the module docstring).

    A component outside the trapdoor's B_n raises StrandMismatchError.  The
    prediction is evaluated on strand permutations first, and a query whose
    Z2hat has another image is rejected without any normal-form work
    (0.02-0.04 ms at B_16); one that passes costs four products
    (1.06-1.21 ms)."""
    for x in (q.Yhat, q.Z1hat, q.Z2hat):
        _check_same_strands(x, td.r)
    if _image(q.Z2hat) != _prediction(pm.compose, pm.inverse, *td.images,
                                      _image(q.Yhat), _image(q.Z1hat)):
        return False
    return q.Z2hat == _prediction(nf_multiply, nf_invert, *td.constants, q.Yhat, q.Z1hat)


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
