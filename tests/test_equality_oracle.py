"""An equality oracle that shares no code with the normal-form engine:
Dehornoy's handle reduction (P. Dehornoy, "A fast method for comparing
braids", Adv. Math. 125, 1997), on plain tuples of signed letters.

A s_i-handle is a subword s_i^e v s_i^-e in which v has no letter of index
<= i.  Reducing it deletes its ends and replaces each s_{i+1}^d in v by
s_{i+1}^-e s_i^d s_{i+1}^e, which is the same group element.  Reducing
always the handle that ends first (its v holds no handle, so it is
permitted) terminates, and a word is the identity iff it reduces to the
empty word: a handle-free word is empty, s-positive or s-negative.

The property checked is that the normal forms of a and b agree iff
handle_reduce(a . b^-1) is empty, on words whose normal forms take heavy
pairs, half-twist exits and near-D factors divided out of a prefix; and
that a product of several forms in one pass is the element their words
make.
"""

from functools import reduce

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import delta, engine_work, random_word, rewrite_equivalent, rng_from, word_of
from twincsp import (
    BraidWord,
    CanonicalForm,
    braid,
    default_params,
    nf_invert,
    nf_multiply,
    normal_form,
    sample_subgroup,
)
from twincsp.sampling import SubgroupSide


def handle_reduce(letters) -> tuple[int, ...]:
    """The handle-free word that handle reduction reaches from letters.

    Scanning left to right, the letter before position j with index
    <= |w[j]| and nearest to j is the top of a stack of positions with
    nondecreasing index; if it is w[j]'s inverse, the two bound the handle
    that ends first.  No handle ends before it, and the stack below it is
    what it was when its top t was pushed, so after the reduction the scan
    resumes at t + 1.
    """
    w = list(letters)
    stack: list[int] = []
    j = 0
    while j < len(w):
        x = w[j]
        while stack and abs(w[stack[-1]]) > abs(x):
            stack.pop()
        if not (stack and w[stack[-1]] == -x):
            stack.append(j)
            j += 1
            continue
        k = stack.pop()
        i, e = abs(x), 1 if w[k] > 0 else -1
        mid: list[int] = []
        for y in w[k + 1:j]:
            if abs(y) == i + 1:
                mid += [-e * (i + 1), i if y > 0 else -i, e * (i + 1)]
            else:
                mid.append(y)
        w[k:j + 1] = mid
        j = stack[-1] + 1 if stack else 0
    return tuple(w)


def inverse_letters(w: BraidWord) -> tuple[int, ...]:
    return tuple(-v for v in reversed(w.letters))


def test_oracle_on_known_facts():
    n = 5
    s1, s2, s3 = (BraidWord(n, (i,)) for i in (1, 2, 3))
    assert handle_reduce((1, 2, 1, -2, -1, -2)) == ()  # s1 s2 s1 = s2 s1 s2
    assert handle_reduce((1, 3, -1, -3)) == ()  # far generators commute
    assert handle_reduce((1, 2, -1, -2)) != ()
    assert handle_reduce(delta(n).letters * 2 + inverse_letters(delta(n)) * 2) == ()
    assert all(handle_reduce(w.letters) != () for w in (s1, s2, s3))


def cases(n: int, tag: int):
    """Seeded conjugates x g x^-1 of a word g by secrets x sampled from
    both subgroups: their normal forms take heavy pairs, factors that
    become D and near-D factors divided out of a prefix."""
    params = default_params(n // 2, n - n // 2, W=n)
    rng = rng_from(tag)
    g = random_word(n, n, rng)
    for side in (SubgroupSide.LEFT, SubgroupSide.RIGHT):
        x = sample_subgroup(params, side, rng)
        yield BraidWord(n, x.letters + g.letters + inverse_letters(x))


def agree(a: BraidWord, b: BraidWord) -> bool:
    """The normal forms of a and b agree iff handle_reduce(a . b^-1) is empty."""
    same = normal_form(a) == normal_form(b)
    return same == (handle_reduce(a.letters + inverse_letters(b)) == ())


def check_cases(n: int, tag: int) -> None:
    rng = rng_from(tag + 1)
    for w in cases(n, tag):
        # The engine's normal form is the same element as the word ...
        assert handle_reduce(w.letters + inverse_letters(word_of(normal_form(w)))) == ()
        # ... and the engine and the oracle agree on a rewritten word for
        # the same element and on one more letter, a different element.
        same = rewrite_equivalent(w, rng)
        assert normal_form(w) == normal_form(same) and agree(w, same)
        for v in (1, -(n - 1)):
            other = BraidWord(n, w.letters + (v,))
            assert normal_form(w) != normal_form(other) and agree(w, other)


@pytest.mark.parametrize("n", (4, 16, 20, 32, 48))
def test_equality_agrees_with_handle_reduction(n):
    with engine_work(braid) as work:
        for tag in range(3):
            check_cases(n, 7500 + 10 * n + tag)
    assert work.d_made, "no factor became D"
    assert work.crossed, "no near-D factor was divided out of a prefix"
    assert work.divide_crossings == work.letters


@settings(max_examples=12, deadline=None)
@given(st.sampled_from([4, 16, 20, 32]), st.integers(0, 2**32))
def test_equality_agrees_with_handle_reduction_on_drawn_seeds(n, tag):
    check_cases(n, tag)


@pytest.mark.parametrize("n", (4, 16, 32))
def test_subgroups_commute_through_the_oracle(n):
    """x u = u x for x from the left subgroup and u from the right one."""
    params = default_params(n // 2, n - n // 2, W=n)
    rng = rng_from(7600 + n)
    x = sample_subgroup(params, SubgroupSide.LEFT, rng)
    u = sample_subgroup(params, SubgroupSide.RIGHT, rng)
    xu, ux = BraidWord(n, x.letters + u.letters), BraidWord(n, u.letters + x.letters)
    assert normal_form(xu) == normal_form(ux) and agree(xu, ux)


def product_operands(n: int, tag: int) -> list[CanonicalForm]:
    """Seeded forms with odd and even D powers: the conjugates of ``cases``,
    their inverses, a short random word and a negative one (whose factors
    are near D), each shifted by D^-1 .. D^1 (a D power in front of a
    normal form leaves it a normal form)."""
    rng = rng_from(tag)
    forms = [normal_form(w) for w in cases(n, tag)]
    forms += [nf_invert(x) for x in forms] + [normal_form(random_word(n, n, rng))]
    negative = tuple(-abs(v) for v in random_word(n, n, rng).letters)
    forms.append(normal_form(BraidWord(n, negative)))
    return [CanonicalForm(n, x.delta_exp + rng.rand_below(3) - 1, x.factors) for x in forms]


@pytest.mark.parametrize("n", (4, 5, 16, 32))
def test_product_of_several_forms_in_one_pass(n):
    """nf_multiply of 3 and of 5 forms equals the left fold of two-form
    products, and handle reduction finds it the product of their words."""
    operands = product_operands(n, 7800 + n)
    assert {x.delta_exp % 2 for x in operands} == {0, 1}
    rng = rng_from(7900 + n)
    with engine_work(braid) as work:
        for k in (3, 5) * (4 if n < 16 else 2):
            forms = [operands[rng.rand_below(len(operands))] for _ in range(k)]
            product = nf_multiply(*forms)
            assert product == reduce(nf_multiply, forms)
            letters = sum((word_of(x).letters for x in forms), ())
            assert handle_reduce(letters + inverse_letters(word_of(product))) == ()
    assert work.crossed, "no near-D factor was divided out of a prefix"
