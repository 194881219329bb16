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
    engine_work,
    is_identity,
    permutation_of,
    rng_from,
    truth_2ccsp,
    word_of,
)
from twincsp import (
    AuthenticationError,
    BraidWord,
    Ciphertext,
    DecisionQuery,
    PublicKey,
    StrandMismatchError,
    SubgroupSide,
    conjugate,
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
from twincsp.elgamal import SCHEME_TWIN
from twincsp.trapdoor import _image, random_element_differing


def fresh_X1(params, rng):
    x = sample_subgroup(params, SubgroupSide.LEFT, rng)
    return x, nf_conjugate(normal_form(params.g), x)


class TestSetup:
    def test_defining_identity(self, params):
        for i in range(100):
            rng = rng_from(6000 + i)
            _, X1 = fresh_X1(params, rng)
            td = trapdoor_setup(params, X1, rng)
            lhs = nf_multiply(td.X2, nf_conjugate(td.X1, td.r))
            rhs = nf_conjugate(normal_form(params.g), td.s)
            assert lhs == rhs

    def test_degenerate_unit_conjugators(self, params):
        rng = rng_from(60)
        _, X1 = fresh_X1(params, rng)
        eps = BraidWord(params.n, ())
        td = trapdoor_from_secrets(params, X1, eps, eps)
        assert td.X2 == nf_multiply(normal_form(params.g), nf_invert(X1))

    def test_X2_varies_with_seed(self, params):
        rng = rng_from(61)
        _, X1 = fresh_X1(params, rng)
        seen = set()
        for i in range(100):
            td = trapdoor_setup(params, X1, rng_from(7000 + i))
            seen.add((td.X2.delta_exp, tuple(f.perm for f in td.X2.factors)))
        assert len(seen) == 100

    def test_secrets_come_from_left_subgroup(self, params):
        td = trapdoor_setup(params, fresh_X1(params, rng_from(62))[1], rng_from(63))
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
            _, X1 = fresh_X1(params, rng)
            td = trapdoor_setup(params, X1, rng)
            q, _y = honest_query((td.X1, td.X2), params, rng)
            assert trapdoor_check(td, q)

    def test_honest_query_matches_secret_side(self, params):
        # y'-built first component == x1-built first component
        rng = rng_from(65)
        x1, X1 = fresh_X1(params, rng)
        td = trapdoor_setup(params, X1, rng)
        q, _y = honest_query((td.X1, td.X2), params, rng)
        assert q.Z1hat == nf_conjugate(q.Yhat, x1)

    def test_half_dishonest_rejected_exactly(self, params):
        for i in range(200):
            rng = rng_from(9000 + i)
            _, X1 = fresh_X1(params, rng)
            td = trapdoor_setup(params, X1, rng)
            q, _y = honest_query((td.X1, td.X2), params, rng)
            corrupted = DecisionQuery(q.Yhat, q.Z1hat, random_element(params, rng))
            assert corrupted.Z2hat != q.Z2hat
            assert not trapdoor_check(td, corrupted)

    def test_random_queries_rarely_pass(self, params):
        passes = 0
        trials = 300
        for i in range(trials):
            rng = rng_from(10_000 + i)
            _, X1 = fresh_X1(params, rng)
            td = trapdoor_setup(params, X1, rng)
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
        _, X1 = fresh_X1(params, rng)
        td = trapdoor_setup(params, X1, rng)
        for _ in range(100):
            q, _y = honest_query((td.X1, td.X2), params, rng)
            assert trapdoor_check(td, q)
            bad = DecisionQuery(q.Yhat, random_element(params, rng), q.Z2hat)
            assert bad.Z1hat != q.Z1hat
            assert not trapdoor_check(td, bad)

    def test_identity_query_is_legal(self, params):
        rng = rng_from(67)
        _, X1 = fresh_X1(params, rng)
        td = trapdoor_setup(params, X1, rng)
        eps = normal_form(BraidWord(params.n, ()))
        assert isinstance(trapdoor_check(td, DecisionQuery(eps, eps, eps)), bool)

    def test_strand_mismatch(self, params):
        rng = rng_from(68)
        td = trapdoor_setup(params, fresh_X1(params, rng)[1], rng)
        small = normal_form(BraidWord(4, (1,)))
        with pytest.raises(ValueError):
            trapdoor_check(td, DecisionQuery(small, small, small))


class TestShiftAttack:
    """A query dishonest in both Z components that the test accepts every
    time: for u != 1 from RB_r, (Yhat, u Z1hat, Z2hat u^-1) passes, because
    u commutes with r, so r (u Z1hat) r^-1 = u (r Z1hat r^-1) and u cancels.
    Pinned with its exact count; a repaired test must flip it."""

    def test_right_subgroup_shift_is_accepted(self, params):
        accepted = 0
        for seed in range(100, 150):
            rng = rng_from(seed)
            _, X1 = fresh_X1(params, rng)
            td = trapdoor_setup(params, X1, rng)
            q, _y = honest_query((td.X1, td.X2), params, rng)
            u = normal_form(sample_subgroup(params, SubgroupSide.RIGHT, rng))
            assert not is_identity(u)
            shifted = DecisionQuery(q.Yhat, nf_multiply(u, q.Z1hat),
                                    nf_multiply(q.Z2hat, nf_invert(u)))
            assert shifted.Z1hat != q.Z1hat and shifted.Z2hat != q.Z2hat
            accepted += trapdoor_check(td, shifted)
        assert accepted == 50


class TestPermutationFilter:
    """trapdoor_check first compares the strand permutations of its two
    sides.  D^p A_1 .. A_k -> rev^(p mod 2) . A_1 .. A_k is a homomorphism
    B_n -> S_n, so a query whose images differ fails the equation too and
    is rejected before any normal form is computed.  Every verdict must
    equal the equation computed here directly; a check that made no
    ``_left_weight_pair`` call was decided by the filter."""

    def test_image_is_a_homomorphism(self, params):
        for i in range(50):
            rng = rng_from(12_500 + i)
            x, y = random_element(params, rng), random_element(params, rng)
            assert _image(x) == permutation_of(word_of(x)).perm
            assert _image(nf_multiply(x, y)) == pm.compose(_image(x), _image(y))
            assert _image(nf_invert(x)) == pm.inverse(_image(x))

    def test_verdicts_equal_the_equation(self, params):
        kinds = ("honest", "z1", "z2", "random", "shifted", "false success")
        accepted = dict.fromkeys(kinds, 0)
        filtered = dict.fromkeys(kinds, 0)
        for i in range(32):
            rng = rng_from(12_000 + i)
            inst = make_ccs_instance(params, rng)
            u = normal_form(sample_subgroup(params, SubgroupSide.RIGHT, rng))
            assert not is_identity(u)
            answer = []

            def shifted(X1, X2, Y, oracle, u=u, wy=inst.witness_y):
                Z1, Z2 = nf_multiply(u, nf_conjugate(X1, wy)), nf_multiply(nf_conjugate(X2, wy),
                                                                           nf_invert(u))
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
                "shifted": DecisionQuery(q.Yhat, nf_multiply(u, q.Z1hat),
                                         nf_multiply(q.Z2hat, nf_invert(u))),
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
        assert accepted == {"honest": 32, "z1": 0, "z2": 0, "random": 0,
                            "shifted": 32, "false success": 32}
        assert filtered == {"honest": 0, "z1": 32, "z2": 32, "random": 32,
                            "shifted": 0, "false success": 0}


class TestProductCount:
    """Normal-form products per trapdoor operation on fixed seeds: five to
    set up (s^-1 r, then the four of X2 = the prediction for (g, X1)), four
    to check a query that passes the strand-permutation filter and none for
    a query it rejects."""

    def test_products_per_setup_and_check(self, params, monkeypatch):
        products = CallCounter(braid.nf_multiply)
        # nf_conjugate calls braid's nf_multiply; the trapdoor calls its own import
        monkeypatch.setattr(braid, "nf_multiply", products)
        monkeypatch.setattr(trapdoor, "nf_multiply", products)
        one = normal_form(BraidWord(params.n, ()))
        setup, passed, rejected = [], [], []
        for i in range(16):
            rng = rng_from(13_000 + i)
            _, X1 = fresh_X1(params, rng)
            before = products.total
            td = trapdoor_setup(params, X1, rng)
            setup.append(products.total - before)
            q, _y = honest_query((td.X1, td.X2), params, rng)
            u = normal_form(sample_subgroup(params, SubgroupSide.RIGHT, rng))
            passing = (q, DecisionQuery(q.Yhat, nf_multiply(u, q.Z1hat),
                                        nf_multiply(q.Z2hat, nf_invert(u))),
                       DecisionQuery(u, u, one))
            failing = (DecisionQuery(q.Yhat, random_element_differing(params, rng, q.Z1hat),
                                     q.Z2hat),
                       DecisionQuery(q.Yhat, q.Z1hat,
                                     random_element_differing(params, rng, q.Z2hat)),
                       DecisionQuery(*(random_element(params, rng) for _ in range(3))))
            for queries, counts, verdict in ((passing, passed, True), (failing, rejected, False)):
                for query in queries:
                    before = products.total
                    assert trapdoor_check(td, query) is verdict
                    counts.append(products.total - before)
        assert setup == [5] * 16
        assert passed == [4] * 48
        assert rejected == [0] * 48


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
        u = normal_form(sample_subgroup(pk.params, SubgroupSide.RIGHT, rng))
        assert not is_identity(u)
        Y = nf_conjugate(pk.params.g.form, y)
        Z1, Z2 = (nf_conjugate(X, y) for X in pk.elements)
        q = DecisionQuery(Y, nf_multiply(u, Z1), nf_multiply(Z2, nf_invert(u)))
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
            _, X1 = fresh_X1(params, rng_from(900 + i))
            td = trapdoor_setup(params, X1, rng_from(1000 + i))
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
            _, X1 = fresh_X1(params, rng)
            td = trapdoor_setup(params, X1, rng)
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
            _, X1 = fresh_X1(params, rng)
            td = trapdoor_setup(params, X1, rng)
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
    B_n; one in B_4 is refused before any answer."""

    SMALL = normal_form(BraidWord(4, (1,)))

    @pytest.mark.parametrize("slot", [0, 1, 2], ids=["Yhat", "Z1hat", "Z2hat"])
    def test_one_component_in_another_group(self, params, slot):
        rng = rng_from(69)
        td = trapdoor_setup(params, fresh_X1(params, rng)[1], rng)
        q, _y = honest_query((td.X1, td.X2), params, rng)
        parts = [q.Yhat, q.Z1hat, q.Z2hat]
        parts[slot] = self.SMALL
        with pytest.raises(StrandMismatchError):
            trapdoor_check(td, DecisionQuery(*parts))

    def test_reduction_refuses_an_answer_in_another_group(self, params):
        rng = rng_from(70)
        inst = make_ccs_instance(params, rng)

        def adversary(X1, X2, Y, oracle):
            return nf_conjugate(X1, inst.witness_y), self.SMALL

        with pytest.raises(StrandMismatchError):
            run_reduction(inst, adversary, rng)

    def test_secret_in_another_group(self, params):
        rng = rng_from(71)
        _, X1 = fresh_X1(params, rng)
        s = sample_subgroup(params, SubgroupSide.LEFT, rng)
        with pytest.raises(ValueError):
            trapdoor_from_secrets(params, X1, BraidWord(4, (1,)), s)
