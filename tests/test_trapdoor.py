"""The trapdoor test: construction identity, exact completeness, exact
half-dishonest rejection, and statistical soundness against random junk.

Honest queries are built as y'-conjugates of (g, X1, X2) for a fresh
right-subgroup y'; whenever X1 came from a key pair the first component
coincides with the secret-side conjugate x1 Yhat x1^{-1}, which is checked
explicitly (that equality is the shared-value symmetry the schemes rely on).
"""

import pytest

from conftest import (
    CallCounter,
    draw_shift,
    engine_work,
    fresh_trapdoor,
    left_public,
    permutation_of,
    rng_from,
    shift,
    truth_2ccsp,
    word_of,
)
from twincsp import (
    AuthenticationError,
    BraidWord,
    CanonicalForm,
    Ciphertext,
    DecisionQuery,
    PublicKey,
    StrandMismatchError,
    SubgroupSide,
    conjugate,
    default_params,
    hash_elements,
    honest_query,
    make_ccs_instance,
    nf_conjugate,
    nf_invert,
    nf_multiply,
    normal_form,
    random_element,
    run_reduction,
    sample_subgroup,
    sym_decrypt,
    sym_encrypt,
    trapdoor_check,
    trapdoor_from_secrets,
    trapdoor_setup,
    twin_decrypt,
    twin_keygen,
)
from twincsp import braid, trapdoor
from twincsp import permutations as pm
from twincsp.elgamal import SCHEME_TWIN, keygen
from twincsp.trapdoor import _strand, random_element_differing


class TestSetup:
    def test_defining_identity(self, params):
        for i in range(100):
            rng = rng_from(6000 + i)
            td = fresh_trapdoor(params, rng)
            lhs = nf_multiply(td.X2, nf_conjugate(td.X1, td.r))
            rhs = nf_conjugate(normal_form(params.g), td.s)
            assert lhs == rhs

    def test_degenerate_unit_conjugators(self, params):
        rng = rng_from(60)
        X1 = left_public(params, rng)
        eps = BraidWord(params.n, ())
        td = trapdoor_from_secrets(params, X1, eps, eps)
        assert td.X2 == nf_multiply(normal_form(params.g), nf_invert(X1))

    def test_X2_varies_with_seed(self, params):
        X1 = left_public(params, rng_from(61))
        seen = set()
        for i in range(100):
            td = trapdoor_setup(params, X1, rng_from(7000 + i))
            seen.add((td.X2.delta_exp, tuple(f.perm for f in td.X2.factors)))
        assert len(seen) == 100

    def test_secrets_come_from_left_subgroup(self, params):
        td = trapdoor_setup(params, left_public(params, rng_from(62)), rng_from(63))
        for word in (td.r, td.s):
            assert all(1 <= abs(v) <= params.l - 1 for v in word.letters)

    def test_strand_mismatch(self, params):
        X1 = normal_form(BraidWord(4, (1,)))
        with pytest.raises(ValueError):
            trapdoor_setup(params, X1, rng_from(64))


class TestCheck:
    def test_completeness_exact(self, params):
        for i in range(200):
            rng = rng_from(8000 + i)
            td = fresh_trapdoor(params, rng)
            q, _y = honest_query((td.X1, td.X2), params, rng)
            assert trapdoor_check(td, q)

    def test_honest_query_matches_secret_side(self, params):
        # y'-built first component == x1-built first component
        rng = rng_from(65)
        kp = keygen(params, SubgroupSide.LEFT, 1, rng)
        td = trapdoor_setup(params, kp.publics[0], rng)
        q, _y = honest_query((td.X1, td.X2), params, rng)
        assert q.Z1hat == nf_conjugate(q.Yhat, kp.secrets[0])

    def test_half_dishonest_rejected_exactly(self, params):
        for i in range(200):
            rng = rng_from(9000 + i)
            td = fresh_trapdoor(params, rng)
            q, _y = honest_query((td.X1, td.X2), params, rng)
            corrupted = DecisionQuery(q.Yhat, q.Z1hat, random_element(params, rng))
            assert corrupted.Z2hat != q.Z2hat
            assert not trapdoor_check(td, corrupted)

    def test_random_queries_rarely_pass(self, params):
        passes = 0
        trials = 300
        for i in range(trials):
            rng = rng_from(10_000 + i)
            td = fresh_trapdoor(params, rng)
            q = DecisionQuery(
                random_element(params, rng),
                random_element(params, rng),
                random_element(params, rng),
            )
            passes += trapdoor_check(td, q)
        assert passes <= trials // 100

    def test_single_trapdoor_adaptive_batch(self, params):
        # the reduction reuses one (r, s) across every query it answers
        rng = rng_from(66)
        td = fresh_trapdoor(params, rng)
        for _ in range(100):
            q, _y = honest_query((td.X1, td.X2), params, rng)
            assert trapdoor_check(td, q)
            bad = DecisionQuery(q.Yhat, random_element(params, rng), q.Z2hat)
            assert bad.Z1hat != q.Z1hat
            assert not trapdoor_check(td, bad)

    def test_identity_query_is_legal(self, params):
        rng = rng_from(67)
        td = fresh_trapdoor(params, rng)
        eps = normal_form(BraidWord(params.n, ()))
        assert isinstance(trapdoor_check(td, DecisionQuery(eps, eps, eps)), bool)

    def test_strand_mismatch(self, params):
        rng = rng_from(68)
        td = fresh_trapdoor(params, rng)
        small = normal_form(BraidWord(4, (1,)))
        with pytest.raises(ValueError):
            trapdoor_check(td, DecisionQuery(small, small, small))


class TestRandomElementDiffering:
    def test_redraws_when_the_first_draw_is_avoided(self, params):
        rng = rng_from(72)
        first, second = random_element(params, rng), random_element(params, rng)
        assert first != second
        assert random_element_differing(params, rng_from(72), first) == second


class TestShiftAttack:
    """A query dishonest in both Z components that the test accepts every
    time: for u != 1 from RB_r, (Yhat, u Z1hat, Z2hat u^-1) passes, because
    u commutes with r, so the prediction for (Yhat, u Z1hat) is the one for
    (Yhat, Z1hat) times u^-1.  Pinned with its exact count; a repaired test
    must flip it."""

    def test_right_subgroup_shift_is_accepted(self, params):
        accepted = 0
        for seed in range(100, 150):
            rng = rng_from(seed)
            td = fresh_trapdoor(params, rng)
            q, _y = honest_query((td.X1, td.X2), params, rng)
            shifted = DecisionQuery(q.Yhat, *shift(draw_shift(params, rng), q.Z1hat, q.Z2hat))
            assert shifted.Z1hat != q.Z1hat and shifted.Z2hat != q.Z2hat
            accepted += trapdoor_check(td, shifted)
        assert accepted == 50


class TestPermutationFilter:
    """trapdoor_check first compares the two sides of its balance times
    Z1hat on the right, s^-1 Z2hat r Z1hat and Yhat (s^-1 r), on strand
    permutations, one strand at a time.  D^p A_1 .. A_k -> rev^(p mod 2) .
    A_1 .. A_k is a homomorphism B_n -> S_n, so sides whose images differ
    at some strand differ in normal forms too, and the query is rejected at
    that strand before any normal form is computed.  The one strand
    helper walks a form's factors instead of composing its image; the image
    it reads strand by strand must be the homomorphism's, the identity and
    odd powers of D included.  As a reference that shares no code with the
    check, every verdict must equal Z2hat r Z1hat r^-1 == s Yhat s^-1
    computed here directly; a check that made no ``_left_weight_pair``
    call was decided by the filter."""

    @staticmethod
    def image(x):
        """x's strand permutation, read by the check's helper."""
        return tuple(_strand(x, i) for i in range(x.n))

    def test_image_is_a_homomorphism(self, params):
        image = self.image
        for i in range(50):
            rng = rng_from(12_500 + i)
            x, y = random_element(params, rng), random_element(params, rng)
            assert image(x) == permutation_of(word_of(x)).perm
            assert image(nf_multiply(x, y)) == pm.compose(image(x), image(y))
            assert image(nf_invert(x)) == pm.inverse(image(x))
        # the factor-free forms D^p: the half twist alone, or the identity
        x = random_element(params, rng_from(12_550))
        for p in range(-2, 3):
            d = CanonicalForm(params.n, p, ())
            assert image(d) == permutation_of(word_of(d)).perm
            assert image(nf_multiply(d, x)) == pm.compose(image(d), image(x))
            assert image(nf_multiply(x, d)) == pm.compose(image(x), image(d))
            assert image(nf_invert(d)) == pm.inverse(image(d))

    @staticmethod
    def verdict_counts(params, seeds) -> tuple[dict, dict]:
        """Per query kind, over one reduction's trapdoor per seed: the
        queries accepted and the queries the filter decided."""
        kinds = ("honest", "z1", "z2", "random", "shifted", "false success")
        accepted = dict.fromkeys(kinds, 0)
        filtered = dict.fromkeys(kinds, 0)
        for i in seeds:
            rng = rng_from(12_000 + i)
            inst = make_ccs_instance(params, rng)
            u = draw_shift(params, rng)
            answer = []

            def shifted(X1, X2, Y, oracle, u=u, wy=inst.witness_y):
                Z1, Z2 = shift(u, nf_conjugate(X1, wy), nf_conjugate(X2, wy))
                answer.append(DecisionQuery(Y, Z1, Z2))
                return Z1, Z2

            result = run_reduction(inst, shifted, rng)
            assert result.succeeded
            td = result.trapdoor
            q, _y = honest_query((td.X1, td.X2), params, rng)
            queries = {
                "honest": q,
                "z1": DecisionQuery(q.Yhat, random_element_differing(params, rng, q.Z1hat),
                                    q.Z2hat),
                "z2": DecisionQuery(q.Yhat, q.Z1hat,
                                    random_element_differing(params, rng, q.Z2hat)),
                "random": DecisionQuery(*(random_element(params, rng) for _ in range(3))),
                "shifted": DecisionQuery(q.Yhat, *shift(u, q.Z1hat, q.Z2hat)),
                "false success": answer[0],
            }
            for kind, query in queries.items():
                with engine_work(braid) as work:
                    verdict = trapdoor_check(td, query)
                filtered[kind] += work.pair_calls == 0
                equation = (nf_multiply(query.Z2hat, nf_conjugate(query.Z1hat, td.r))
                            == nf_conjugate(query.Yhat, td.s))
                assert verdict == equation, kind
                accepted[kind] += verdict
        return accepted, filtered

    def test_verdicts_equal_the_equation(self, params):
        accepted, filtered = self.verdict_counts(params, range(32))
        assert accepted == {"honest": 32, "z1": 0, "z2": 0, "random": 0,
                            "shifted": 32, "false success": 32}
        assert filtered == {"honest": 0, "z1": 32, "z2": 32, "random": 32,
                            "shifted": 0, "false success": 0}

    @pytest.mark.parametrize("split", [(5, 6, 16), (12, 13, 24)], ids=["B_11", "B_25"])
    def test_verdicts_at_odd_strand_counts(self, split):
        """The same kinds where the reversal rev fixes the middle strand;
        g has a letter +-l at both splits, so it does not split into
        commuting halves."""
        params = default_params(*split)
        assert any(abs(v) == params.l for v in params.g.letters)
        accepted, filtered = self.verdict_counts(params, range(8))
        assert accepted == {"honest": 8, "z1": 0, "z2": 0, "random": 0,
                            "shifted": 8, "false success": 8}
        assert filtered == {"honest": 0, "z1": 8, "z2": 8, "random": 8,
                            "shifted": 0, "false success": 0}


class TestProductCount:
    """Work per trapdoor operation on fixed seeds.  Normal-form products,
    each ``nf_multiply`` call counting as its operands less one: five to
    set up (s^-1 r, then the four of X2 = the prediction for (g, X1)),
    four to check a query that passes the strand-permutation filter (two
    per side of the balance) and none for a query it rejects.  Passes,
    one per call: four to set up (s^-1 r, s g (s^-1 r), X1^-1 r^-1 and
    their product), two to check a passing query (one per side) and none
    for a rejected one.
    Permutation-helper calls, all of ``twincsp.permutations``: only
    ``nf_invert`` calls them (a product flips its factors itself), setup
    reads the images of the balance's constants strand by strand, and the
    filter reads strands without any helper, so a rejected check calls
    none.  Strands read, counted by the strand helper ``_strand`` (three
    calls per strand, one per constant at setup): setup and a passing
    check read all 16, and a rejected check stops at the first strand
    where the sides differ."""

    PM_HELPERS = ("identity", "is_permutation", "compose", "inverse", "transposition",
                  "half_twist", "flip", "descents", "inversion_count")

    def test_products_per_setup_and_check(self, params, monkeypatch):
        passes = CallCounter(braid.nf_multiply)
        products = 0

        def multiply(*forms):
            nonlocal products
            products += len(forms) - 1
            return passes(*forms)

        # nf_conjugate calls braid's nf_multiply; the trapdoor calls its own import
        monkeypatch.setattr(braid, "nf_multiply", multiply)
        monkeypatch.setattr(trapdoor, "nf_multiply", multiply)
        helpers = [CallCounter(getattr(pm, name)) for name in self.PM_HELPERS]
        for name, helper in zip(self.PM_HELPERS, helpers):
            monkeypatch.setattr(pm, name, helper)
        point = CallCounter(trapdoor._strand)
        monkeypatch.setattr(trapdoor, "_strand", point)

        def work() -> tuple[int, int, float, int]:
            return (products, sum(helper.total for helper in helpers), point.total / 3,
                    passes.total)

        one = normal_form(BraidWord(params.n, ()))
        setup, passed, rejected = [], [], []
        for i in range(16):
            rng = rng_from(13_000 + i)
            X1 = left_public(params, rng)
            before = work()
            td = trapdoor_setup(params, X1, rng)
            setup.append(tuple(b - a for a, b in zip(before, work())))
            q, _y = honest_query((td.X1, td.X2), params, rng)
            u = draw_shift(params, rng)
            passing = (q, DecisionQuery(q.Yhat, *shift(u, q.Z1hat, q.Z2hat)),
                       DecisionQuery(u, u, one))
            failing = (DecisionQuery(q.Yhat, random_element_differing(params, rng, q.Z1hat),
                                     q.Z2hat),
                       DecisionQuery(q.Yhat, q.Z1hat,
                                     random_element_differing(params, rng, q.Z2hat)),
                       DecisionQuery(*(random_element(params, rng) for _ in range(3))))
            for queries, counts, verdict in ((passing, passed, True), (failing, rejected, False)):
                for query in queries:
                    before = work()
                    assert trapdoor_check(td, query) is verdict
                    counts.append(tuple(b - a for a, b in zip(before, work())))
        assert [p for p, _, _, _ in setup] == [5] * 16
        assert [p for p, _, _, _ in passed] == [4] * 48
        assert [p for p, _, _, _ in rejected] == [0] * 48
        assert [k for _, _, _, k in setup] == [4] * 16
        assert [k for _, _, _, k in passed] == [2] * 48
        assert [k for _, _, _, k in rejected] == [0] * 48
        assert [s for _, _, s, _ in setup] == [16] * 16
        assert [s for _, _, s, _ in passed] == [16] * 48
        assert [s for _, _, s, _ in rejected] == [
            1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1,
            1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1,
            2, 1, 1, 1, 1, 1, 2, 1, 1, 1, 1, 1, 1, 2, 1, 2]
        assert [c for _, c, _, _ in setup] == [
            40, 36, 54, 48, 44, 60, 56, 53, 48, 43, 63, 39, 41, 53, 45, 41]
        assert [c for _, c, _, _ in passed] == [
            21, 33, 18, 19, 26, 13, 21, 26, 6, 31, 31, 19, 29, 31, 11, 33,
            41, 11, 29, 31, 11, 31, 39, 21, 23, 26, 8, 26, 31, 11, 43, 49,
            11, 21, 23, 13, 26, 36, 11, 26, 31, 14, 21, 26, 16, 19, 19, 8]
        assert [c for _, c, _, _ in rejected] == [0] * 48


class TestSimulatedDecryption:
    """One query tells a CKS-style simulated decryption oracle from real
    decryption.  The adversary encrypts from its own ephemeral y under
    H(Y, u Z1, Z2 u^-1) for some u != 1 from RB_r and has made that one
    hash query.  Real decryption hashes (Y, Z1, Z2) and rejects; the
    simulation opens with the first hash query on Y that passes the
    trapdoor, and the shifted query does.  Pinned; a fix must flip it."""

    MESSAGE = b"known plaintext"

    def shifted_ciphertext(self, pk, rng):
        """The adversary's ciphertext and its hash queries."""
        y = sample_subgroup(pk.params, SubgroupSide.RIGHT, rng)
        u = draw_shift(pk.params, rng)
        Y = nf_conjugate(pk.params.g.form, y)
        Z1, Z2 = (nf_conjugate(X, y) for X in pk.elements)
        q = DecisionQuery(Y, *shift(u, Z1, Z2))
        assert q.Z1hat != Z1 and q.Z2hat != Z2
        key = hash_elements("twin", [q.Yhat, q.Z1hat, q.Z2hat])
        return Ciphertext(SCHEME_TWIN, Y, sym_encrypt(key, self.MESSAGE)), [q]

    def simulated_decrypt(self, td, queries, ct) -> bytes:
        for q in queries:
            if q.Yhat == ct.Y and trapdoor_check(td, q):
                return sym_decrypt(hash_elements("twin", [q.Yhat, q.Z1hat, q.Z2hat]), ct.box)
        raise AuthenticationError("no hash query passes the trapdoor")

    def opens(self, decrypt) -> bool:
        try:
            return decrypt() == self.MESSAGE
        except AuthenticationError:
            return False

    def test_shifted_query_opens_only_in_the_simulation(self, params):
        real = simulated = 0
        for i in range(20):
            kp = twin_keygen(params, rng_from(700 + i))
            ct, _ = self.shifted_ciphertext(kp.public, rng_from(800 + i))
            real += self.opens(lambda: twin_decrypt(kp, ct))
            td = trapdoor_setup(params, left_public(params, rng_from(900 + i)), rng_from(1000 + i))
            sim_pk = PublicKey(params, SubgroupSide.LEFT, (td.X1, td.X2))
            ct, queries = self.shifted_ciphertext(sim_pk, rng_from(800 + i))
            simulated += self.opens(lambda: self.simulated_decrypt(td, queries, ct))
        assert (real, simulated) == (0, 20)


def exponent_sum(cf) -> int:
    return sum(1 if v > 0 else -1 for v in word_of(cf).letters)


def cycle_type(cf) -> tuple[int, ...]:
    """Sorted cycle lengths of the element's permutation image."""
    perm, seen, lengths = permutation_of(word_of(cf)).perm, set(), []
    for start in range(len(perm)):
        j, length = start, 0
        while j not in seen:
            seen.add(j)
            j, length = perm[j], length + 1
        if length:
            lengths.append(length)
    return tuple(sorted(lengths))


class TestSimulatedKey:
    """The reduction's public key is told apart from a real one.  A real
    X2 = x2 g x2^-1 is a conjugate of g, so it keeps g's exponent sum and
    the cycle type of its permutation; the trapdoor's
    X2 = (s g s^-1)(r X1 r^-1)^-1 has exponent sum 0.  Pinned; a fix must
    flip it."""

    def test_exponent_sum_and_cycle_type_tell_x2_apart(self, params):
        g = normal_form(params.g)
        invariants = (exponent_sum(g), cycle_type(g))
        real = simulated = 0
        for i in range(50):
            rng = rng_from(1000 + i)
            kp = twin_keygen(params, rng)
            td = trapdoor_setup(params, kp.publics[0], rng)
            real += (exponent_sum(kp.publics[1]), cycle_type(kp.publics[1])) == invariants
            simulated += (exponent_sum(td.X2), cycle_type(td.X2)) == invariants
        assert (real, simulated) == (50, 0)


class TestPureSubgroupQuery:
    """For v != 1 from RB_r, the query (v, v, 1) passes: v commutes with r
    and s, so both sides of the check equal v.  The real values for
    Yhat = v are (v, v, v), since v also commutes with both secrets, and
    that query fails.  Pinned; a fix must flip it."""

    def test_v_v_1_accepted_and_v_v_v_rejected(self, params):
        one = normal_form(BraidWord(params.n, ()))
        pure = real = 0
        for i in range(50):
            rng = rng_from(1100 + i)
            td = fresh_trapdoor(params, rng)
            v = normal_form(sample_subgroup(params, SubgroupSide.RIGHT, rng))
            assert v != one
            pure += trapdoor_check(td, DecisionQuery(v, v, one))
            real += trapdoor_check(td, DecisionQuery(v, v, v))
        assert (pure, real) == (50, 0)


class TestTruthOracle:
    def test_honest_tuple_true(self, params):
        rng = rng_from(69)
        kp = twin_keygen(params, rng)
        y = sample_subgroup(params, SubgroupSide.RIGHT, rng)
        Yhat = normal_form(conjugate(params.g, y))
        q = DecisionQuery(Yhat, nf_conjugate(Yhat, kp.secrets[0]), nf_conjugate(Yhat, kp.secrets[1]))
        assert truth_2ccsp(kp.secrets[0], kp.secrets[1], q)

    def test_perturbed_components_false(self, params):
        rng = rng_from(70)
        kp = twin_keygen(params, rng)
        y = sample_subgroup(params, SubgroupSide.RIGHT, rng)
        Yhat = normal_form(conjugate(params.g, y))
        z1 = nf_conjugate(Yhat, kp.secrets[0])
        z2 = nf_conjugate(Yhat, kp.secrets[1])
        junk = random_element(params, rng)
        assert junk != z1 and junk != z2
        assert not truth_2ccsp(kp.secrets[0], kp.secrets[1], DecisionQuery(Yhat, junk, z2))
        assert not truth_2ccsp(kp.secrets[0], kp.secrets[1], DecisionQuery(Yhat, z1, junk))

    def test_equivalent_to_y_side_construction(self, params):
        # truth via secrets == truth by construction for y'-built queries
        rng = rng_from(71)
        kp = twin_keygen(params, rng)
        q, _y = honest_query((kp.publics[0], kp.publics[1]), params, rng)
        assert truth_2ccsp(kp.secrets[0], kp.secrets[1], q)


class TestDifferentialAgreement:
    def test_check_agrees_with_labeled_truth(self, params):
        """Mixed honest/corrupted queries against one trapdoor per trial;
        the check must agree with the construction-time truth labels on
        every honest query and nearly always on dishonest ones."""
        honest_total = honest_agree = 0
        dishonest_total = dishonest_agree = 0
        for i in range(300):
            rng = rng_from(11_000 + i)
            td = fresh_trapdoor(params, rng)
            q, _y = honest_query((td.X1, td.X2), params, rng)
            mode = rng.rand_below(3)
            if mode == 0:
                truth = True
            else:
                junk = random_element(params, rng)
                if mode == 1:
                    assert junk != q.Z1hat
                    q = DecisionQuery(q.Yhat, junk, q.Z2hat)
                else:
                    assert junk != q.Z2hat
                    q = DecisionQuery(q.Yhat, q.Z1hat, junk)
                truth = False
            answer = trapdoor_check(td, q)
            if truth:
                honest_total += 1
                honest_agree += answer is True
            else:
                dishonest_total += 1
                dishonest_agree += answer is False
        assert honest_agree == honest_total
        assert dishonest_agree >= 0.99 * dishonest_total


class TestStrandAgreement:
    """Each query component, and each secret, must live in the trapdoor's
    B_n; one in B_4 is refused before any answer, and one in B_32 before
    any strand is read (a walk over its strands would read past the
    trapdoor's 16, or compare only the first 16)."""

    SMALL = normal_form(BraidWord(4, (1,)))
    LARGE = normal_form(BraidWord(32, (20,)))

    @pytest.mark.parametrize("slot", [0, 1, 2], ids=["Yhat", "Z1hat", "Z2hat"])
    def test_one_component_in_another_group(self, params, slot):
        rng = rng_from(69)
        td = fresh_trapdoor(params, rng)
        q, _y = honest_query((td.X1, td.X2), params, rng)
        parts = [q.Yhat, q.Z1hat, q.Z2hat]
        parts[slot] = self.SMALL
        with pytest.raises(StrandMismatchError):
            trapdoor_check(td, DecisionQuery(*parts))

    @pytest.mark.parametrize("slot", [0, 1, 2], ids=["Yhat", "Z1hat", "Z2hat"])
    def test_one_component_in_a_larger_group(self, params, slot, monkeypatch):
        rng = rng_from(69)
        td = fresh_trapdoor(params, rng)
        q, _y = honest_query((td.X1, td.X2), params, rng)
        parts = [q.Yhat, q.Z1hat, q.Z2hat]
        parts[slot] = self.LARGE
        walk = CallCounter(trapdoor._strand)
        monkeypatch.setattr(trapdoor, "_strand", walk)
        with pytest.raises(StrandMismatchError):
            trapdoor_check(td, DecisionQuery(*parts))
        assert walk.total == 0

    def test_reduction_refuses_an_answer_in_another_group(self, params):
        rng = rng_from(70)
        inst = make_ccs_instance(params, rng)

        def adversary(X1, X2, Y, oracle):
            return nf_conjugate(X1, inst.witness_y), self.SMALL

        with pytest.raises(StrandMismatchError):
            run_reduction(inst, adversary, rng)

    def test_secret_in_another_group(self, params):
        rng = rng_from(71)
        X1 = left_public(params, rng)
        s = sample_subgroup(params, SubgroupSide.LEFT, rng)
        with pytest.raises(ValueError):
            trapdoor_from_secrets(params, X1, BraidWord(4, (1,)), s)
