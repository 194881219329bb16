"""The trapdoor test: decide twin-conjugacy queries without any secret
conjugator.

Setup hides a random pair (r, s) from the left subgroup inside a
synthesized second public element

    X2 = (s g s^{-1}) * (r X1 r^{-1})^{-1}

and a query (Yhat, Z1hat, Z2hat) is accepted iff

    Z2hat * r Z1hat r^{-1}  ==  s Yhat s^{-1}.

For an honest query (Yhat = y g y^{-1} with y from the right subgroup and
Zihat the corresponding conjugates of X1, X2), both sides reduce to
y (s g s^{-1}) y^{-1} because y commutes with everything drawn from the
left subgroup, so acceptance is exact, never probabilistic.  If Z1hat is
honest and Z2hat is not, the equation pins Z2hat to the unique honest
value, so rejection is also exact.  A dishonest Z1hat is not always
rejected: for any u != 1 from RB_r, (Yhat, u Z1hat, Z2hat u^{-1}) is
dishonest in both components yet always accepted, because u commutes with
r and cancels (the suite pins this, 50 of 50).  The suite claims no other
soundness bound than its count of random queries passing (at most 1%).

Both r and s are drawn from LB_l: each must commute with the right-side
ephemeral y for the acceptance equation to balance.  (Testable fact: with
s from RB_r, honest queries fail, because s and y need not commute.)

The check solves the equation for Z2hat and compares it with the
trapdoor's prediction

    Z2hat  ==  s Yhat (s^{-1} r) Z1hat^{-1} r^{-1},

four products and an ``nf_invert`` (which left-weights nothing) where the
equation as written takes five.  X2 is the prediction for (g, X1), so
setup and check share one formula; setup computes s^{-1} r once for every
later check.  The words r and s are normalized and inverted on first use
(``BraidWord.form``).

Before any normal-form work the check compares strand permutations.  The
map B_n -> S_n, D^p A_1 .. A_k -> rev^(p mod 2) . A_1 .. A_k, is a
homomorphism, so when perm(Z2hat) perm(r) perm(Z1hat) perm(r)^{-1} differs
from perm(s) perm(Yhat) perm(s)^{-1} the normal forms differ too and the
query is rejected at once (the images of r, s and their inverses are
computed on a trapdoor's first check and kept).  The filter never rejects
a query that the equation accepts, so every verdict is the equation's.  It
rejects every z1-corrupted, z2-corrupted and random query of the suite's
fixed seeds (32 of 32 each).  It cannot reject a query whose images agree:
the shift above (perm(u) commutes with perm(r)), the pure-subgroup query
(v, v, 1) and every honest query go on to the prediction.  At B_16 (Python
3.11, one core of a 2-CPU x86-64 VM, median thread CPU time over 200
checks) an honest query takes 1.06-1.21 ms, where the five-product
equation took 1.33-1.62 ms.  A rejected one takes 0.02-0.04 ms; it took
0.03-0.06 ms while the four images were rebuilt on every check (medians of
five alternating runs of 3,200 checks on 16 trapdoors).
"""

from __future__ import annotations

from functools import cached_property

from . import permutations as pm
from ._record import record
from .braid import (
    BraidWord,
    CanonicalForm,
    GroupParams,
    _check_same_strands,
    nf_conjugate,
    nf_invert,
    nf_multiply,
    normal_form,
)
from .sampling import SeededRng, SubgroupSide, sample_subgroup


@record
class Trapdoor:
    """Hidden (r, s) plus the tied public pair (X1, X2), and the normal form
    of s^{-1} r, which every check uses."""

    r: BraidWord
    s: BraidWord
    X1: CanonicalForm
    X2: CanonicalForm
    s_inv_r: CanonicalForm

    @cached_property
    def _images(self) -> tuple[pm.Perm, pm.Perm, pm.Perm, pm.Perm]:
        """The strand permutations of r, r^-1, s and s^-1, for every check's
        filter; computed on the first check."""
        r, s = _image(self.r.form), _image(self.s.form)
        return r, pm.inverse(r), s, pm.inverse(s)


@record
class DecisionQuery:
    """A twin-conjugacy query; the engine refuses components outside B_n."""

    Yhat: CanonicalForm
    Z1hat: CanonicalForm
    Z2hat: CanonicalForm


def _prediction(r: BraidWord, s: BraidWord, s_inv_r: CanonicalForm,
                Y: CanonicalForm, Z1: CanonicalForm) -> CanonicalForm:
    """s Y (s^{-1} r) Z1^{-1} r^{-1}, in four products: the Z2 that the
    trapdoor (r, s) pairs with (Y, Z1)."""
    return nf_multiply(nf_multiply(nf_multiply(nf_multiply(s.form, Y), s_inv_r), nf_invert(Z1)),
                       r.inverse_form)


def trapdoor_from_secrets(
    params: GroupParams, X1: CanonicalForm, r: BraidWord, s: BraidWord
) -> Trapdoor:
    """Build the trapdoor for explicit (r, s); X2 is the prediction for
    (g, X1), s g (s^{-1} r) X1^{-1} r^{-1} = (sgs^{-1})(rX1r^{-1})^{-1}."""
    s_inv_r = nf_multiply(s.inverse_form, r.form)
    return Trapdoor(r, s, X1, _prediction(r, s, s_inv_r, params.g.form, X1), s_inv_r)


def trapdoor_setup(params: GroupParams, X1: CanonicalForm, rng: SeededRng) -> Trapdoor:
    """Sample fresh (r, s) from the left subgroup and tie X2 to X1."""
    r = sample_subgroup(params, SubgroupSide.LEFT, rng)
    s = sample_subgroup(params, SubgroupSide.LEFT, rng)
    return trapdoor_from_secrets(params, X1, r, s)


def _image(x: CanonicalForm) -> pm.Perm:
    """x's strand permutation: D^p A_1 .. A_k -> rev^(p mod 2) . A_1 .. A_k."""
    img = pm.half_twist(x.n) if x.delta_exp % 2 else pm.identity(x.n)
    for f in x.factors:
        img = pm.compose(img, f.perm)
    return img


def trapdoor_check(td: Trapdoor, q: DecisionQuery) -> bool:
    """Accept iff Z2hat == s Yhat (s^{-1} r) Z1hat^{-1} r^{-1}, the trapdoor's
    prediction (normal forms); that is Z2hat * r Z1hat r^{-1} == s Yhat s^{-1}.
    X2 is the same formula's prediction for (g, X1).

    A component outside the trapdoor's B_n raises StrandMismatchError.  The
    strand permutations of the two sides are compared first, and a query
    whose images differ is rejected without any normal-form work (0.02-0.04 ms
    at B_16); one that passes costs four products (1.06-1.21 ms)."""
    for x in (q.Yhat, q.Z1hat, q.Z2hat):
        _check_same_strands(x, td.r)
    r, r_inv, s, s_inv = td._images
    r_z1 = pm.compose(pm.compose(r, _image(q.Z1hat)), r_inv)
    s_y = pm.compose(pm.compose(s, _image(q.Yhat)), s_inv)
    if pm.compose(_image(q.Z2hat), r_z1) != s_y:
        return False
    return q.Z2hat == _prediction(td.r, td.s, td.s_inv_r, q.Yhat, q.Z1hat)


def honest_query(td_publics: tuple[CanonicalForm, CanonicalForm],
                 params: GroupParams, rng: SeededRng) -> tuple[DecisionQuery, BraidWord]:
    """A query satisfying the twin predicate for (X1, X2), built from a fresh
    right-subgroup ephemeral y: (ygy^{-1}, yX1y^{-1}, yX2y^{-1}).

    Returns the ephemeral too; whenever X_i = x_i g x_i^{-1} with x_i in
    LB_l, the components equal x_i Yhat x_i^{-1}, so this is exactly the
    honest-query shape of the twin scheme.
    """
    X1, X2 = td_publics
    y = sample_subgroup(params, SubgroupSide.RIGHT, rng)
    q = DecisionQuery(
        Yhat=nf_conjugate(params.g.form, y),
        Z1hat=nf_conjugate(X1, y),
        Z2hat=nf_conjugate(X2, y),
    )
    return q, y


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
        x = sample_subgroup(params, SubgroupSide.LEFT, rng)
        td = trapdoor_setup(params, nf_conjugate(params.g.form, x), rng)
        q, _y = honest_query((td.X1, td.X2), params, rng)
        complete += trapdoor_check(td, q)
        junk = random_element_differing(params, rng, q.Z2hat)
        rejected += not trapdoor_check(td, DecisionQuery(q.Yhat, q.Z1hat, junk))
        rnd = DecisionQuery(*(random_element(params, rng) for _ in range(3)))
        random_passes += trapdoor_check(td, rnd)
    return complete, rejected, random_passes
