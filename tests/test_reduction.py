"""The reduction simulation and the decryption-oracle leak."""

from conftest import (
    draw_shift,
    oracle_leak_demo,
    perfect_adversary,
    random_adversary,
    rng_from,
    shift,
)
from twincsp import (
    DecisionQuery,
    SubgroupSide,
    conjugate,
    keygen,
    make_ccs_instance,
    multiply,
    nf_conjugate,
    normal_form,
    probing_adversary,
    random_element,
    run_reduction,
    sample_subgroup,
)
from twincsp.elgamal import SCHEME_CS


class TestInstance:
    def test_witnesses_generate_the_instance(self, params):
        inst = make_ccs_instance(params, rng_from(80))
        g_nf = normal_form(params.g)
        assert inst.X == nf_conjugate(g_nf, inst.witness_x)
        assert inst.Y == nf_conjugate(g_nf, inst.witness_y)
        assert all(abs(v) < params.l for v in inst.witness_x.letters)
        assert all(abs(v) > params.l for v in inst.witness_y.letters)


class TestRunReduction:
    def test_perfect_adversary_recovers_shared_value(self, params):
        for i in range(20):
            rng = rng_from(12_000 + i)
            inst = make_ccs_instance(params, rng)
            result = run_reduction(inst, perfect_adversary(inst.witness_y), rng)
            # oracle: direct word construction from the witnesses
            expected = normal_form(
                conjugate(params.g, multiply(inst.witness_x, inst.witness_y))
            )
            assert result.succeeded
            assert result.value == expected

    def test_random_adversary_always_fails(self, params):
        for i in range(30):
            rng = rng_from(13_000 + i)
            inst = make_ccs_instance(params, rng)
            result = run_reduction(inst, random_adversary(params, rng), rng)
            assert not result.succeeded
            assert result.value is None

    def test_transcript_differential(self, params):
        rng = rng_from(81)
        inst = make_ccs_instance(params, rng)
        adversary, labels = probing_adversary(params, inst.witness_y, rng, n_queries=50)
        result = run_reduction(inst, adversary, rng)
        assert result.succeeded
        assert len(result.transcript) == len(labels) == 50
        honest = [(ans, truth) for (q, ans), truth in zip(result.transcript, labels) if truth]
        dishonest = [(ans, truth) for (q, ans), truth in zip(result.transcript, labels) if not truth]
        assert all(ans for ans, _ in honest)
        bad = sum(1 for ans, _ in dishonest if ans)
        assert bad <= max(1, len(dishonest) // 100)

    def test_adversary_sees_only_challenge_and_oracle(self, params):
        rng = rng_from(82)
        inst = make_ccs_instance(params, rng)
        seen = {}

        def spy(X1, X2, Y, oracle):
            seen["args"] = (X1, X2, Y)
            seen["oracle"] = oracle
            return None

        result = run_reduction(inst, spy, rng)
        assert not result.succeeded
        X1, X2, Y = seen["args"]
        assert X1 == inst.X and Y == inst.Y
        assert X2 == result.trapdoor.X2
        assert callable(seen["oracle"])

    def test_no_query_limit(self, params):
        """Like the paper's simulator, the reduction answers every query:
        1,100 repeats of one query all reach the transcript."""
        rng = rng_from(83)
        inst = make_ccs_instance(params, rng)
        e = random_element(params, rng)
        q = DecisionQuery(e, e, e)

        def repeater(X1, X2, Y, oracle):
            for _ in range(1100):
                oracle(q)
            return None

        result = run_reduction(inst, repeater, rng)
        assert len(result.transcript) == 1100

    def test_transcript_answers_replayable(self, params):
        from twincsp import trapdoor_check

        rng = rng_from(84)
        inst = make_ccs_instance(params, rng)
        adversary, _labels = probing_adversary(params, inst.witness_y, rng, n_queries=8)
        result = run_reduction(inst, adversary, rng)
        assert len(result.transcript) == 8
        for q, ans in result.transcript:
            assert trapdoor_check(result.trapdoor, q) == ans


class TestFalseSuccess:
    """run_reduction accepts any output that passes the trapdoor check
    against the challenge, and the right-subgroup shift of
    tests/test_trapdoor.py::TestShiftAttack passes it: an answer
    (u Z1, Z2 u^-1) with u != 1 from RB_r is reported as a success whose
    value u Z1 is not the shared conjugate.  Pinned; a fix must flip it."""

    def test_shifted_answer_succeeds_with_a_wrong_value(self, params):
        wrong = 0
        for i in range(20):
            rng = rng_from(900 + i)
            inst = make_ccs_instance(params, rng)
            u = draw_shift(params, rng)
            honest = perfect_adversary(inst.witness_y)

            def shifted(X1, X2, Y, oracle, honest=honest, u=u):
                return shift(u, *honest(X1, X2, Y, oracle))

            result = run_reduction(inst, shifted, rng)
            truth = nf_conjugate(inst.X, inst.witness_y)
            wrong += result.succeeded and result.value != truth
        assert wrong == 20


def exponent_sum(x) -> int:
    """The exponent sum of a normal form D^p A_1 .. A_k: p n(n-1)/2 for the
    half twists plus each factor's crossings, its permutation's inversions."""
    n = x.n
    return x.delta_exp * n * (n - 1) // 2 + sum(
        f.perm[i] > f.perm[j] for f in x.factors for i in range(n) for j in range(i + 1, n))


def plain_reduction(inst, adversary, rng):
    """Claim (a)'s reduction, which needs no decision oracle: draw x2, hand
    the twin solver (X, x2 g x2^-1, Y), a correctly distributed key, with
    no oracle, and report its Z1 (None when it declines)."""
    X2 = keygen(inst.params, SubgroupSide.LEFT, 1, rng).publics[0]
    output = adversary(inst.X, X2, inst.Y, None)
    return None if output is None else output[0]


class TestPlainReduction:
    """An adversary that answers only when X2 keeps g's exponent sum is
    perfect on real keys and useless inside run_reduction, whose
    X2 = (s g s^-1)(r X1 r^-1)^-1 has exponent sum 0.  The plain reduction
    for claim (a) hands it a real key, so it succeeds every time.  Pinned;
    a trapdoor whose X2 keeps g's invariants must flip the second count."""

    def test_x2_checking_adversary(self, params):
        g_sum = exponent_sum(normal_form(params.g))
        assert g_sum == sum(1 if v > 0 else -1 for v in params.g.letters)
        plain = simulated = 0
        for i in range(20):
            inst = make_ccs_instance(params, rng_from(3000 + i))
            honest = perfect_adversary(inst.witness_y)

            def checking(X1, X2, Y, oracle, honest=honest):
                return honest(X1, X2, Y, oracle) if exponent_sum(X2) == g_sum else None

            truth = nf_conjugate(inst.X, inst.witness_y)
            plain += plain_reduction(inst, checking, rng_from(5000 + i)) == truth
            simulated += run_reduction(inst, checking, rng_from(4000 + i)).value == truth
        assert (plain, simulated) == (20, 0)


class TestOracleLeak:
    def test_honest_guess_accepted(self, params):
        rng = rng_from(85)
        kp = keygen(params, SubgroupSide.LEFT, SCHEME_CS, rng)
        y = sample_subgroup(params, SubgroupSide.RIGHT, rng)
        Yhat = normal_form(conjugate(params.g, y))
        Zhat = nf_conjugate(kp.publics[0], y)
        assert oracle_leak_demo(kp, Yhat, Zhat, rng) is True

    def test_random_guesses_rejected(self, params):
        rng = rng_from(86)
        kp = keygen(params, SubgroupSide.LEFT, SCHEME_CS, rng)
        y = sample_subgroup(params, SubgroupSide.RIGHT, rng)
        Yhat = normal_form(conjugate(params.g, y))
        honest = nf_conjugate(kp.publics[0], y)
        for _ in range(50):
            Zhat = random_element(params, rng)
            assert Zhat != honest
            assert oracle_leak_demo(kp, Yhat, Zhat, rng) is False

    def test_matches_direct_predicate_on_mixed_trials(self, params):
        rng = rng_from(87)
        kp = keygen(params, SubgroupSide.LEFT, SCHEME_CS, rng)
        for i in range(100):
            y = sample_subgroup(params, SubgroupSide.RIGHT, rng)
            Yhat = normal_form(conjugate(params.g, y))
            if rng.rand_below(2):
                Zhat = nf_conjugate(kp.publics[0], y)
            else:
                Zhat = random_element(params, rng)
            direct = nf_conjugate(Yhat, kp.secrets[0]) == Zhat
            assert oracle_leak_demo(kp, Yhat, Zhat, rng) == direct
