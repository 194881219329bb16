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

The trapdoor holds r and s as words; each is normalized and inverted on
first use (``BraidWord.form``) and reused by every later check.
"""

from __future__ import annotations

from dataclasses import dataclass

from .braid import (
    BraidWord,
    CanonicalForm,
    GroupParams,
    nf_conjugate,
    nf_invert,
    nf_multiply,
    normal_form,
)
from .sampling import SeededRng, SubgroupSide, sample_subgroup


@dataclass(frozen=True)
class Trapdoor:
    """Hidden (r, s) plus the tied public pair (X1, X2)."""

    params: GroupParams
    r: BraidWord
    s: BraidWord
    X1: CanonicalForm
    X2: CanonicalForm


@dataclass(frozen=True)
class DecisionQuery:
    Yhat: CanonicalForm
    Z1hat: CanonicalForm
    Z2hat: CanonicalForm

    def __post_init__(self):
        if not (self.Yhat.n == self.Z1hat.n == self.Z2hat.n):
            raise ValueError("query elements live in different braid groups")


def trapdoor_from_secrets(
    params: GroupParams, X1: CanonicalForm, r: BraidWord, s: BraidWord
) -> Trapdoor:
    """Build the trapdoor for explicit (r, s); X2 = (sgs^{-1})(rX1r^{-1})^{-1}."""
    if X1.n != params.n:
        raise ValueError(f"X1 lives in B_{X1.n}, params say B_{params.n}")
    sgs = nf_conjugate(params.g.form, s)
    rX1r = nf_conjugate(X1, r)
    X2 = nf_multiply(sgs, nf_invert(rX1r))
    return Trapdoor(params, r, s, X1, X2)


def trapdoor_setup(params: GroupParams, X1: CanonicalForm, rng: SeededRng) -> Trapdoor:
    """Sample fresh (r, s) from the left subgroup and tie X2 to X1."""
    r = sample_subgroup(params, SubgroupSide.LEFT, rng)
    s = sample_subgroup(params, SubgroupSide.LEFT, rng)
    return trapdoor_from_secrets(params, X1, r, s)


def trapdoor_check(td: Trapdoor, q: DecisionQuery) -> bool:
    """Accept iff Z2hat * r Z1hat r^{-1} == s Yhat s^{-1} (normal forms)."""
    if q.Yhat.n != td.params.n:
        raise ValueError(f"query lives in B_{q.Yhat.n}, trapdoor in B_{td.params.n}")
    lhs = nf_multiply(q.Z2hat, nf_conjugate(q.Z1hat, td.r))
    rhs = nf_conjugate(q.Yhat, td.s)
    return lhs == rhs


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


def random_element(params: GroupParams, rng: SeededRng, length: int | None = None) -> CanonicalForm:
    """Normal form of a random word over all generators; used for
    fully-random (overwhelmingly dishonest) query material."""
    length = 2 * params.W if length is None else length
    letters = tuple(
        rng.rand_sign() * (1 + rng.rand_below(params.n - 1)) for _ in range(length)
    )
    return normal_form(BraidWord(params.n, letters))


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
        junk = random_element(params, rng)
        while junk == q.Z2hat:
            junk = random_element(params, rng)
        rejected += not trapdoor_check(td, DecisionQuery(q.Yhat, q.Z1hat, junk))
        rnd = DecisionQuery(*(random_element(params, rng) for _ in range(3)))
        random_passes += trapdoor_check(td, rnd)
    return complete, rejected, random_passes
