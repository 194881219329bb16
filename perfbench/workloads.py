"""The four benchmark workloads.

Constructing a workload is its set-up: it takes the freshly imported
``twincsp`` package and the seed, and builds every input from the seed.
``run(i)`` performs unit i of a round (the timed part); ``check(i, out)``
verifies its output with the engine-independent checks of ``checks.py``
and returns the unit's wire bytes.  Every run repeats whole rounds of the
same units, so counts per op do not depend on the run's length.

Calls into the package go through module attributes (``tc.elgamal.x``)
at call time, so the tracer's wrappers see them.
"""

from __future__ import annotations

import contextlib
import hashlib
import time

from checks import (
    CheckError,
    check_conjugate_of,
    check_kex_transcript,
    form_of,
    parse_ciphertext_file,
    parse_twin_public_key_file,
    word_invariants,
)


def derive(seed: int, *parts) -> bytes:
    """32 bytes determined by the benchmark seed and a label."""
    text = "|".join(["perfbench", str(seed), *map(str, parts)])
    return hashlib.sha256(text.encode()).digest()


def element_bytes(form) -> int:
    """Size of a serialized canonical form: 16-byte header plus n 2-byte
    images per factor."""
    n, _delta, perms = form
    return 16 + 2 * n * len(perms)


class Workload:
    units = 1          # units per round
    ops_per_unit = 1   # ops one unit counts for

    def __init__(self, tc, seed: int):
        self.tc = tc
        self.seed = seed
        self.span = contextlib.nullcontext

    def setup_check(self) -> None:
        """Checks on set-up outputs (key files), run once before timing."""

    def latencies(self, out, duration: float) -> list[float]:
        return [duration]


class Pke(Workload):
    """Twin encrypt -> ciphertext file -> decode -> twin decrypt at B_16."""

    message_bytes = 64
    distinct_messages = 1
    keys = 1

    def __init__(self, tc, seed: int):
        super().__init__(tc, seed)
        params = tc.braid.default_params()
        self.public_files, self.pairs = [], []
        for k in range(self.keys):
            kp = tc.elgamal.twin_keygen(params, tc.sampling.SeededRng(derive(seed, "keygen", k)))
            secret_file = tc.keyfiles.encode_keypair(kp)
            public_file = tc.keyfiles.encode_public_key(kp.public)
            self.public_files.append(public_file)
            self.pairs.append((tc.keyfiles.decode_keypair(secret_file),
                               tc.keyfiles.decode_public_key(public_file)))
        self.messages = [
            hashlib.shake_256(derive(seed, "message", i)).digest(self.message_bytes)
            for i in range(self.distinct_messages)
        ]
        self.ephemeral = [derive(seed, "ephemeral", i) for i in range(self.units)]
        self.ref = word_invariants(params.n, params.g.letters)
        pick = derive(seed, "tamper")
        self.tamper_unit = pick[0] % self.units
        self.tamper_at = int.from_bytes(pick[1:9], "big")

    def setup_check(self) -> None:
        for public_file in self.public_files:
            for k, form in enumerate(parse_twin_public_key_file(public_file)):
                check_conjugate_of(self.ref, form, f"public key X{k + 1}")

    def run(self, i: int):
        tc = self.tc
        kp, pk = self.pairs[i % self.keys]
        ct = tc.elgamal.twin_encrypt(
            pk, self.messages[i % len(self.messages)], tc.sampling.SeededRng(self.ephemeral[i]))
        blob = tc.keyfiles.encode_ciphertext(ct)
        return blob, tc.elgamal.twin_decrypt(kp, tc.keyfiles.decode_ciphertext(blob))

    def check(self, i: int, out) -> int:
        blob, plain = out
        message = self.messages[i % len(self.messages)]
        if plain != message:
            raise CheckError("decrypt did not return the message")
        Y, body, _tag, body_offset = parse_ciphertext_file(blob)
        check_conjugate_of(self.ref, Y, "ciphertext header Y")
        if len(body) != len(message):
            raise CheckError("ciphertext body length differs from the message")
        if i == self.tamper_unit:
            self._check_tamper(self.pairs[i % self.keys][0], blob,
                               body_offset + self.tamper_at % len(body))
        return len(blob) - len(message)

    def _check_tamper(self, kp, blob: bytes, at: int) -> None:
        """A copy with one body byte flipped must fail authentication."""
        tc = self.tc
        forged = blob[:at] + bytes([blob[at] ^ 0x01]) + blob[at + 1 :]
        try:
            tc.elgamal.twin_decrypt(kp, tc.keyfiles.decode_ciphertext(forged))
        except tc.codec.AuthenticationError:
            return
        raise CheckError(f"ciphertext with byte {at} flipped was accepted")


class PkeShort(Pke):
    units = 256
    distinct_messages = 256
    keys = 16
    message_bytes = 64


class PkeBulk(Pke):
    units = 16
    distinct_messages = 2
    message_bytes = 1 << 20


class ReduceB16(Workload):
    """run_reduction on fresh CCS instances; each query is one op."""

    units = 64
    kinds = ("honest", "z1", "z2", "random")  # one query of each per reduction
    ops_per_unit = len(kinds)

    def __init__(self, tc, seed: int):
        super().__init__(tc, seed)
        self.params = tc.braid.default_params()
        self.instances = [
            tc.reduction.make_ccs_instance(
                self.params, tc.sampling.SeededRng(derive(seed, "instance", i)))
            for i in range(self.units)
        ]
        self.ref = word_invariants(self.params.n, self.params.g.letters)
        self.expected = {}

    def setup_check(self) -> None:
        for inst in self.instances:
            check_conjugate_of(self.ref, form_of(inst.X), "instance X")
            check_conjugate_of(self.ref, form_of(inst.Y), "instance Y")

    def run(self, i: int):
        tc, params = self.tc, self.params
        inst = self.instances[i]
        rng = tc.sampling.SeededRng(derive(self.seed, "adversary", i))
        labels, answers, lat = [], [], []

        def differing(avoid):
            while True:
                cand = tc.trapdoor.random_element(params, rng)
                if cand != avoid:
                    return cand

        def adversary(X1, X2, Y, oracle):
            with self.span():
                for kind in self.kinds:
                    if kind == "random":
                        q = tc.trapdoor.DecisionQuery(
                            *(tc.trapdoor.random_element(params, rng) for _ in range(3)))
                    else:
                        q, _y = tc.trapdoor.honest_query((X1, X2), params, rng)
                        if kind == "z1":
                            q = tc.trapdoor.DecisionQuery(q.Yhat, differing(q.Z1hat), q.Z2hat)
                        elif kind == "z2":
                            q = tc.trapdoor.DecisionQuery(q.Yhat, q.Z1hat, differing(q.Z2hat))
                    labels.append(kind == "honest")
                    t0 = time.perf_counter()
                    answers.append(oracle(q))
                    lat.append(time.perf_counter() - t0)
                wy = inst.witness_y
                return (tc.braid.nf_conjugate(X1, wy), tc.braid.nf_conjugate(X2, wy))

        result = tc.reduction.run_reduction(
            inst, adversary, tc.sampling.SeededRng(derive(self.seed, "reduction", i)))
        return result, labels, answers, lat

    def latencies(self, out, duration: float) -> list[float]:
        return out[3]

    def check(self, i: int, out) -> int:
        result, labels, answers, _lat = out
        if len(answers) != len(self.kinds) or len(result.transcript) != len(self.kinds):
            raise CheckError("wrong number of answered queries")
        for k, (label, answer) in enumerate(zip(labels, answers)):
            if answer != label:
                raise CheckError(f"query {k} ({self.kinds[k]}) answered {answer}")
        if result.value is None:
            raise CheckError("reduction rejected the true answer")
        if i not in self.expected:
            tc, inst = self.tc, self.instances[i]
            word = tc.braid.conjugate(
                self.params.g, tc.braid.multiply(inst.witness_y, inst.witness_x))
            self.expected[i] = tc.braid.normal_form(word)
        if result.value != self.expected[i]:
            raise CheckError("answer differs from the witnesses' conjugate")
        check_conjugate_of(self.ref, form_of(result.value), "reduction answer")
        return sum(element_bytes(form_of(e)) for q, _ in result.transcript
                   for e in (q.Yhat, q.Z1hat, q.Z2hat))


class KexB32(Workload):
    """One loopback_run with key confirmation at B_32; fresh seeds per op."""

    units = 32

    def __init__(self, tc, seed: int):
        super().__init__(tc, seed)
        self.params = tc.braid.default_params(16, 16, 32)
        self.seeds = [(derive(seed, "initiator", i), derive(seed, "responder", i))
                      for i in range(self.units)]
        self.ref = word_invariants(self.params.n, self.params.g.letters)

    def run(self, i: int):
        tc = self.tc
        a, b = tc.kex.loopback_run(
            self.params, tc.sampling.SeededRng(self.seeds[i][0]),
            tc.sampling.SeededRng(self.seeds[i][1]))
        for side in (a, b):
            if isinstance(side, BaseException):
                raise side
        return a, b

    def check(self, i: int, out) -> int:
        a, b = out
        if a.key != b.key:
            raise CheckError("the two sides derived different keys")
        if a.received != b.sent or b.received != a.sent:
            raise CheckError("received bytes differ from the peer's sent bytes")
        check_kex_transcript(a.sent, b.sent, a.key.bytes, self.ref)
        return len(a.sent) + len(b.sent)


WORKLOADS = {
    "pke-short": PkeShort,
    "pke-bulk": PkeBulk,
    "reduce-b16": ReduceB16,
    "kex-b32": KexB32,
}
