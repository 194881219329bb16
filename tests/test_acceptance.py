"""Acceptance suite: every criterion at its stated tolerance, one printed
pass/fail line per criterion.

Run with `pytest tests/test_acceptance.py -v -s` to see the lines as they
complete.  Everything is seeded, so reruns are bit-identical.
"""

import re
import time
from collections import Counter

from conftest import (
    assert_left_weighted,
    commutes,
    is_identity,
    oracle_leak_demo,
    perfect_adversary,
    permutation_of,
    random_word,
    rewrite_equivalent,
    rng_from,
    two_party_run,
)
from twincsp import (
    BraidWord,
    Ciphertext,
    Role,
    SubgroupSide,
    conjugate,
    decrypt,
    default_params,
    encrypt,
    invert,
    keygen,
    loopback_run,
    make_ccs_instance,
    multiply,
    nf_conjugate,
    nike_keygen,
    nike_shared_key,
    normal_form,
    probing_adversary,
    random_element,
    run_reduction,
    sample_subgroup,
    serialize_canonical,
    trapdoor_stats,
    twin_decrypt,
    twin_encrypt,
    twin_keygen,
)
from twincsp.codec import AuthenticationError
from twincsp.elgamal import SCHEME_CS

N = 16
PARAMS = default_params()


def error_kind(exc: Exception) -> str:
    """The exception's type and the head of its message, numbers masked."""
    head = str(exc).split(":")[0]
    return f"{type(exc).__name__}: {re.sub(r'0x[0-9a-f]+|[0-9]+', 'N', head)}"


def report(number: int, name: str, ok: bool, detail: str) -> None:
    print(f"[criterion {number}] {name}: {'PASS' if ok else 'FAIL'} ({detail})")
    assert ok, f"criterion {number} failed: {detail}"


def test_criterion_1_group_laws():
    start = time.monotonic()
    failures = 0

    # both relation families, exhaustively over generator pairs at n = 16
    for i in range(1, N - 1):
        if normal_form(BraidWord(N, (i, i + 1, i))) != normal_form(
            BraidWord(N, (i + 1, i, i + 1))
        ):
            failures += 1
    for i in range(1, N):
        for j in range(i + 2, N):
            if normal_form(BraidWord(N, (i, j))) != normal_form(BraidWord(N, (j, i))):
                failures += 1

    rng = rng_from(201)
    cases = 1000
    for k in range(cases):
        length = 1 + rng.rand_below(30)
        a = random_word(N, length, rng)
        b = random_word(N, 1 + rng.rand_below(30), rng)
        checks_assoc = k % 3 == 0
        if checks_assoc:
            c = random_word(N, 1 + rng.rand_below(30), rng)
            if normal_form(multiply(multiply(a, b), c)) != normal_form(multiply(a, multiply(b, c))):
                failures += 1
        # inverse law
        if not is_identity(normal_form(multiply(a, invert(a)))):
            failures += 1
        # homomorphism into the symmetric group (composition done locally)
        pa, pb = permutation_of(a).perm, permutation_of(b).perm
        if permutation_of(multiply(a, b)).perm != tuple(pa[pb[i]] for i in range(N)):
            failures += 1

    elapsed = time.monotonic() - start
    report(
        1,
        "group-law suite",
        failures == 0 and elapsed < 60.0,
        f"{cases} randomized cases at n={N}, W<=30, {failures} failures, {elapsed:.1f}s",
    )


def test_criterion_2_normal_form_confluence():
    start = time.monotonic()
    rng = rng_from(202)
    pairs = 500
    mismatches = 0
    for _ in range(pairs):
        w = random_word(N, 5 + rng.rand_below(26), rng)
        variant = rewrite_equivalent(w, rng, steps=50)
        cf_w, cf_v = normal_form(w), normal_form(variant)
        assert_left_weighted(cf_w)
        if cf_w != cf_v or serialize_canonical(cf_w) != serialize_canonical(cf_v):
            mismatches += 1
    elapsed = time.monotonic() - start
    report(
        2,
        "normal-form confluence",
        mismatches == 0 and elapsed < 60.0,
        f"{pairs} rewritten pairs, {mismatches} mismatches, {elapsed:.1f}s",
    )


def test_criterion_3_commuting_subgroups():
    rng = rng_from(203)
    trials = 1000
    failures = 0
    for _ in range(trials):
        x = sample_subgroup(PARAMS, SubgroupSide.LEFT, rng)
        y = sample_subgroup(PARAMS, SubgroupSide.RIGHT, rng)
        if not commutes(x, y):
            failures += 1
    report(
        3,
        "commuting-subgroup property",
        failures == 0,
        f"{trials} seeded pairs at l=r=8, {failures} failures",
    )


def test_criterion_4_scheme_correctness():
    rng = rng_from(204)
    bad_round_trips = 0
    accepted_forgeries = 0

    kp_cs = keygen(PARAMS, SubgroupSide.LEFT, SCHEME_CS, rng)
    kp_twin = twin_keygen(PARAMS, rng)
    for i in range(100):
        msg = rng.rand_bytes(1 + rng.rand_below(128))
        if decrypt(kp_cs, encrypt(kp_cs.public, msg, rng, SCHEME_CS), SCHEME_CS) != msg:
            bad_round_trips += 1
        if twin_decrypt(kp_twin, twin_encrypt(kp_twin.public, msg, rng)) != msg:
            bad_round_trips += 1

    # 100 cross-key trials + 100 tamper trials, all must be rejected
    other_cs = keygen(PARAMS, SubgroupSide.LEFT, SCHEME_CS, rng)
    other_twin = twin_keygen(PARAMS, rng)
    for i in range(50):
        ct = encrypt(kp_cs.public, b"cross", rng, SCHEME_CS)
        try:
            decrypt(other_cs, ct, SCHEME_CS)
            accepted_forgeries += 1
        except AuthenticationError:
            pass
        tct = twin_encrypt(kp_twin.public, b"cross", rng)
        try:
            twin_decrypt(other_twin, tct)
            accepted_forgeries += 1
        except AuthenticationError:
            pass
    for i in range(50):
        y = sample_subgroup(PARAMS, SubgroupSide.RIGHT, rng)
        fresh_Y = normal_form(conjugate(PARAMS.g, y))
        ct = encrypt(kp_cs.public, b"tamper", rng, SCHEME_CS)
        try:
            decrypt(kp_cs, Ciphertext(ct.scheme, fresh_Y, ct.box), SCHEME_CS)
            accepted_forgeries += 1
        except AuthenticationError:
            pass
        tct = twin_encrypt(kp_twin.public, b"tamper", rng)
        try:
            twin_decrypt(kp_twin, Ciphertext(tct.scheme, fresh_Y, tct.box))
            accepted_forgeries += 1
        except AuthenticationError:
            pass

    report(
        4,
        "scheme correctness",
        bad_round_trips == 0 and accepted_forgeries == 0,
        f"100 round trips per scheme ({bad_round_trips} bad), "
        f"100 cross-key + 100 tamper trials ({accepted_forgeries} accepted)",
    )


def test_criterion_5_trapdoor_test():
    start = time.monotonic()
    trials = 1000
    complete, half_dishonest_rejected, random_passes = trapdoor_stats(
        PARAMS, trials, rng_from(205)
    )

    elapsed = time.monotonic() - start
    ok = (
        complete == trials
        and half_dishonest_rejected == trials
        and random_passes <= trials // 100
        and elapsed < 300.0
    )
    report(
        5,
        "trapdoor test",
        ok,
        f"completeness {complete}/{trials}, half-dishonest rejected "
        f"{half_dishonest_rejected}/{trials}, random passes {random_passes}/{trials} "
        f"(tolerance <=1%), {elapsed:.1f}s",
    )


def test_criterion_6_reduction_simulation():
    runs = 100
    exact = 0
    for i in range(runs):
        rng = rng_from(20_600 + i)
        inst = make_ccs_instance(PARAMS, rng)
        result = run_reduction(inst, perfect_adversary(inst.witness_y), rng)
        expected = normal_form(
            conjugate(PARAMS.g, multiply(inst.witness_x, inst.witness_y))
        )
        exact += result.succeeded and result.value == expected

    honest_total = honest_agree = 0
    dishonest_total = dishonest_agree = 0
    for i in range(4):
        rng = rng_from(20_900 + i)
        inst = make_ccs_instance(PARAMS, rng)
        adversary, labels = probing_adversary(PARAMS, inst.witness_y, rng, n_queries=50)
        result = run_reduction(inst, adversary, rng)
        assert result.succeeded
        for (q, answer), truth in zip(result.transcript, labels):
            if truth:
                honest_total += 1
                honest_agree += answer is True
            else:
                dishonest_total += 1
                dishonest_agree += answer is False

    ok = (
        exact == runs
        and honest_agree == honest_total
        and dishonest_agree >= 0.99 * dishonest_total
    )
    report(
        6,
        "reduction simulation",
        ok,
        f"perfect adversary exact in {exact}/{runs} runs; oracle vs ground truth: "
        f"honest {honest_agree}/{honest_total}, dishonest {dishonest_agree}/{dishonest_total}",
    )


def test_criterion_7_oracle_leak():
    rng = rng_from(207)
    kp = keygen(PARAMS, SubgroupSide.LEFT, SCHEME_CS, rng)
    trials = 500
    disagreements = 0
    for _ in range(trials):
        y = sample_subgroup(PARAMS, SubgroupSide.RIGHT, rng)
        Yhat = normal_form(conjugate(PARAMS.g, y))
        if rng.rand_below(2):
            Zhat = nf_conjugate(kp.publics[0], y)
        else:
            Zhat = random_element(PARAMS, rng)
        direct_predicate = nf_conjugate(Yhat, kp.secrets[0]) == Zhat
        if oracle_leak_demo(kp, Yhat, Zhat, rng) != direct_predicate:
            disagreements += 1
    report(
        7,
        "oracle-leak demo",
        disagreements == 0,
        f"{trials} mixed trials, {disagreements} disagreements with the direct predicate",
    )


def test_criterion_8_key_exchange():
    start = time.monotonic()
    runs = 100

    nike_failures = 0
    for i in range(runs):
        alice = nike_keygen(PARAMS, SubgroupSide.LEFT, rng_from(21_000 + i))
        bob = nike_keygen(PARAMS, SubgroupSide.RIGHT, rng_from(22_000 + i))
        if nike_shared_key(alice, bob.public) != nike_shared_key(bob, alice.public):
            nike_failures += 1

    kex_failures = 0
    for i in range(runs):
        res_i, res_r = loopback_run(PARAMS, rng_from(23_000 + i), rng_from(24_000 + i))
        if isinstance(res_i, Exception) or isinstance(res_r, Exception):
            kex_failures += 1
        elif res_i.key != res_r.key:
            kex_failures += 1

    # fixed-seed transcripts are byte-identical across runs
    first = loopback_run(PARAMS, rng_from(25_000), rng_from(25_001))
    second = loopback_run(PARAMS, rng_from(25_000), rng_from(25_001))
    deterministic = (
        first[0].sent == second[0].sent and first[1].sent == second[1].sent
    )

    # exhaustive single-byte tamper over one recorded transcript
    base_i, base_r = first
    survivals = 0
    positions = 0
    errors: Counter[str] = Counter()
    raw_os_errors = 0
    unfinished = 0
    timeouts = set()
    for role, stream in ((Role.INITIATOR, base_i.sent), (Role.RESPONDER, base_r.sent)):
        for offset in range(len(stream)):
            positions += 1
            outcomes = two_party_run(
                PARAMS,
                rng_from(25_000),
                rng_from(25_001),
                tamper=(role, offset),
                timeout=1.0,
            )
            if not any(isinstance(o, Exception) for o in outcomes):
                survivals += 1
            for side, out in zip(Role, outcomes):
                if not isinstance(out, Exception):
                    continue
                errors[f"{side.value} {error_kind(out)}"] += 1
                raw_os_errors += isinstance(out, OSError)
                unfinished += str(out) == "responder did not finish"
                if isinstance(out.__cause__, TimeoutError):
                    timeouts.add((role.value, offset))
    print("tamper outcomes per side and error kind:")
    for kind, count in sorted(errors.items()):
        print(f"  {count:5d}  {kind}")
    # Only a flip in a frame-length byte that asks for 65,536 or 256 more
    # bytes than ever arrive may end in a timeout: bytes 1 and 2 of the
    # INIT head (offset 0) and byte 1 of the RESP head.  A CONFIRM head
    # (offset 653) announcing any length but 33 is refused before its body
    # is read.  Whether the other errors read "stream truncated" or a reset
    # depends on when the peer closes, so only these are pinned.
    expected_timeouts = {("initiator", 1), ("initiator", 2), ("responder", 1)}

    elapsed = time.monotonic() - start
    ok = (
        nike_failures == 0
        and kex_failures == 0
        and deterministic
        and survivals == 0
        and raw_os_errors == 0
        and unfinished == 0
        and timeouts == expected_timeouts
    )
    report(
        8,
        "key exchange",
        ok,
        f"nike {runs - nike_failures}/{runs}, interactive {runs - kex_failures}/{runs}, "
        f"transcripts deterministic: {deterministic}, tamper survivals "
        f"{survivals}/{positions} positions, raw OSErrors {raw_os_errors}, "
        f"unfinished responders {unfinished}, timeouts at {sorted(timeouts)}, "
        f"{elapsed:.1f}s",
    )
