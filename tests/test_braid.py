"""Braid words, permutation braids, and the left-greedy normal form."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import (
    assert_left_weighted,
    delta,
    is_identity,
    permutation_of,
    random_word,
    rewrite_equivalent,
    rng_from,
    word_of,
)
from twincsp import (
    BraidWord,
    CanonicalForm,
    StrandMismatchError,
    conjugate,
    invert,
    multiply,
    nf_invert,
    nf_multiply,
    normal_form,
)
from twincsp import permutations as pm


def w(n, *letters):
    return BraidWord(n, letters)


class TestWordOps:
    def test_multiply_identity(self):
        word = w(4, 1, -2, 3)
        assert multiply(w(4), word).letters == word.letters
        assert multiply(word, w(4)).letters == word.letters

    def test_multiply_inverse_cancellation(self):
        assert is_identity(normal_form(multiply(w(3, 1), w(3, -1))))

    def test_multiply_free_reduction_is_eager(self):
        assert multiply(w(3, 1, 2), w(3, -2, -1)).letters == ()

    def test_far_generators_commute(self):
        assert normal_form(multiply(w(4, 1), w(4, 3))) == normal_form(multiply(w(4, 3), w(4, 1)))

    def test_strand_mismatch(self):
        with pytest.raises(StrandMismatchError):
            multiply(w(3, 1), w(4, 1))
        with pytest.raises(StrandMismatchError):
            conjugate(w(3, 1), w(4, 1))
        with pytest.raises(StrandMismatchError):
            nf_multiply(w(3, 1).form, w(4, 1).form)

    def test_invert_empty(self):
        assert invert(w(5)).letters == ()

    def test_invert_antihomomorphism(self):
        assert invert(w(3, 1, 2)).letters == (-2, -1)

    def test_invert_round_trip_random(self):
        rng = rng_from(11)
        for _ in range(50):
            word = random_word(8, rng.rand_below(31), rng)
            assert is_identity(normal_form(multiply(word, invert(word))))

    def test_conjugate_by_identity(self):
        g = w(4, 1, 2, -3)
        assert normal_form(conjugate(g, w(4))) == normal_form(g)

    def test_conjugate_commuting_generator(self):
        assert normal_form(conjugate(w(4, 3), w(4, 1))) == normal_form(w(4, 3))

    def test_conjugate_composition_law(self):
        rng = rng_from(12)
        for _ in range(20):
            g = random_word(6, 8, rng)
            x = random_word(6, 6, rng)
            y = random_word(6, 6, rng)
            assert normal_form(conjugate(conjugate(g, y), x)) == normal_form(
                conjugate(g, multiply(x, y))
            )

    def test_letter_out_of_range(self):
        with pytest.raises(ValueError):
            BraidWord(4, (4,))
        with pytest.raises(ValueError):
            BraidWord(4, (0,))


class TestPermutationImage:
    def test_identity(self):
        assert permutation_of(w(3)).perm == (0, 1, 2)

    def test_single_generator(self):
        assert permutation_of(w(3, 1)).perm == (1, 0, 2)

    def test_sigma121_is_reversal(self):
        # oracle: compose the three transpositions by hand
        assert permutation_of(w(3, 1, 2, 1)).perm == (2, 1, 0)

    def test_signs_ignored(self):
        assert permutation_of(w(3, -1)).perm == (1, 0, 2)

    def test_homomorphism(self):
        rng = rng_from(13)
        for _ in range(50):
            a = random_word(7, 12, rng)
            b = random_word(7, 12, rng)
            pa = permutation_of(a).perm
            pb = permutation_of(b).perm
            composed = tuple(pa[pb[i]] for i in range(7))
            assert permutation_of(multiply(a, b)).perm == composed

    @pytest.mark.parametrize("i", [0, 3, -1])
    def test_transposition_index_out_of_range(self, i):
        with pytest.raises(ValueError, match=f"generator index {i} out of range for 3 strands"):
            pm.transposition(3, i)


class TestDelta:
    def test_delta_2(self):
        assert delta(2).letters == (1,)

    def test_delta_3_definition(self):
        assert delta(3).letters == (1, 2, 1)

    def test_delta_4_permutation_is_reversal(self):
        # oracle: fold the six transpositions with a local compose
        perm = list(range(4))
        for i in delta(4).letters:
            t = list(range(4))
            t[i - 1], t[i] = t[i], t[i - 1]
            perm = [perm[t[x]] for x in range(4)]
        assert tuple(perm) == (3, 2, 1, 0)
        assert permutation_of(delta(4)).perm == (3, 2, 1, 0)

    def test_delta_is_central_squared(self):
        # delta^2 generates the center: conjugation by delta^2 fixes everything
        n = 5
        d2 = multiply(delta(n), delta(n))
        word = w(n, 1, -3, 2, 4)
        assert normal_form(conjugate(word, d2)) == normal_form(word)


class TestNormalForm:
    def test_identity_word(self):
        cf = normal_form(w(3))
        assert cf.delta_exp == 0 and cf.factors == ()

    def test_braid_relation_confluence(self):
        assert normal_form(w(3, 1, 2, 1)) == normal_form(w(3, 2, 1, 2))

    def test_sigma121_is_delta(self):
        cf = normal_form(w(3, 1, 2, 1))
        assert cf == CanonicalForm(3, 1, ())

    def test_delta_word_normalizes_to_power(self):
        for n in (2, 3, 4, 6):
            cf = normal_form(delta(n))
            assert cf.delta_exp == 1 and cf.factors == ()

    def test_idempotent_through_word_of(self):
        rng = rng_from(14)
        for _ in range(40):
            word = random_word(6, 20, rng)
            cf = normal_form(word)
            assert normal_form(word_of(cf)) == cf

    def test_left_weighted_outputs(self):
        rng = rng_from(15)
        for _ in range(60):
            cf = normal_form(random_word(8, 25, rng))
            assert_left_weighted(cf)

    def test_rewrite_soundness(self):
        rng = rng_from(16)
        for _ in range(60):
            word = random_word(8, 20, rng)
            variant = rewrite_equivalent(word, rng, steps=50)
            assert normal_form(word) == normal_form(variant)

    def test_negative_letter(self):
        cf = normal_form(w(2, -1))
        assert cf == CanonicalForm(2, -1, ())


class TestEquals:
    def test_reflexive(self):
        word = w(5, 1, -4, 2)
        assert normal_form(word) == normal_form(word)

    def test_far_commutation(self):
        assert normal_form(w(4, 1, 3)) == normal_form(w(4, 3, 1))

    def test_distinct_generators(self):
        # distinct permutation images certify inequality
        assert permutation_of(w(3, 1)).perm != permutation_of(w(3, 2)).perm
        assert normal_form(w(3, 1)) != normal_form(w(3, 2))

    def test_braid_relations_at_n8(self):
        n = 8
        for i in range(1, n - 1):
            assert normal_form(w(n, i, i + 1, i)) == normal_form(w(n, i + 1, i, i + 1))
        for i in range(1, n):
            for j in range(i + 2, n):
                assert normal_form(w(n, i, j)) == normal_form(w(n, j, i))


class TestAssociativityAndGroupLaws:
    def test_associativity_random(self):
        rng = rng_from(17)
        for _ in range(40):
            a = random_word(6, 10, rng)
            b = random_word(6, 10, rng)
            c = random_word(6, 10, rng)
            assert normal_form(multiply(multiply(a, b), c)) == normal_form(
                multiply(a, multiply(b, c))
            )

    def test_nf_multiply_matches_word_multiply(self):
        rng = rng_from(18)
        for _ in range(60):
            a = random_word(6, 12, rng)
            b = random_word(6, 12, rng)
            assert nf_multiply(normal_form(a), normal_form(b)) == normal_form(multiply(a, b))

    def test_nf_invert_matches_word_invert(self):
        rng = rng_from(19)
        for _ in range(60):
            a = random_word(6, 12, rng)
            assert nf_invert(normal_form(a)) == normal_form(invert(a))


letters_strategy = st.lists(
    st.tuples(st.integers(1, 5), st.booleans()).map(lambda t: t[0] if t[1] else -t[0]),
    max_size=24,
)


@settings(max_examples=40, deadline=None)
@given(letters_strategy)
def test_inverse_law_property(letters):
    word = BraidWord(6, tuple(letters))
    assert is_identity(normal_form(multiply(word, invert(word))))
    assert is_identity(normal_form(multiply(invert(word), word)))


@settings(max_examples=40, deadline=None)
@given(letters_strategy, letters_strategy)
def test_equality_respects_concatenated_inverse(la, lb):
    a = BraidWord(6, tuple(la))
    b = BraidWord(6, tuple(lb))
    # a == b iff a b^{-1} is the identity
    same = normal_form(a) == normal_form(b)
    assert same == is_identity(normal_form(multiply(a, invert(b))))
