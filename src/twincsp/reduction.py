"""Executable simulation of the main reduction, plus the decryption-oracle
leak against the single-key scheme.

The reduction wraps an adversary for the twin problem inside a solver for
the plain shared-conjugate problem: given a challenge (X, Y), it sets
X1 = X, synthesizes X2 through a fresh trapdoor, answers every decision
query of the adversary with the trapdoor check (never touching a secret),
and finally accepts the adversary's output (Z1, Z2) only if it passes the
same check against the challenge Y, reporting Z1 as its answer; on
rejection it reports failure rather than guessing.  Acceptance does not
make Z1 the answer: the check passes (u Z1, Z2 u^-1) for any u from RB_r,
so an adversary can make the reduction report success with a wrong value
(tests/test_reduction.py::TestFalseSuccess: 20 of 20).

The oracle-leak demo shows why the single-key scheme needs this machinery
at all: a decryption oracle for it answers the decision predicate for
free.  The attacker seals a known message under the hash of a guessed
pair (Yhat, Zhat) and watches whether the oracle's decryption returns
that message; it does exactly when Zhat is the true shared conjugate.

Adversaries only ever see (X1, X2, Y, oracle); instance witnesses stay
with the caller.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Optional

from .braid import BraidWord, CanonicalForm, GroupParams, nf_conjugate
from .codec import AuthenticationError, hash_elements, sym_encrypt
from .elgamal import SCHEME_CS, Ciphertext, KeyPair, cs_decrypt
from .sampling import SeededRng, SubgroupSide, sample_subgroup
from .trapdoor import (
    DecisionQuery,
    Trapdoor,
    honest_query,
    random_element,
    trapdoor_check,
    trapdoor_setup,
)

Oracle = Callable[[DecisionQuery], bool]
Adversary = Callable[
    [CanonicalForm, CanonicalForm, CanonicalForm, Oracle],
    Optional[tuple[CanonicalForm, CanonicalForm]],
]

DEFAULT_QUERY_BUDGET = 1024


class QueryBudgetError(RuntimeError):
    """The adversary exceeded its decision-query budget."""


@dataclass(frozen=True)
class CcsInstance:
    """A challenge (g, X, Y) plus its witnesses, which no adversary sees; the
    tests, the CLI's reduce-demo and the benchmark read them to check an
    answer."""

    params: GroupParams
    X: CanonicalForm
    Y: CanonicalForm
    witness_x: BraidWord
    witness_y: BraidWord


def make_ccs_instance(params: GroupParams, rng: SeededRng) -> CcsInstance:
    """X = xgx^{-1} with x from LB_l; Y = ygy^{-1} with y from RB_r."""
    x = sample_subgroup(params, SubgroupSide.LEFT, rng)
    y = sample_subgroup(params, SubgroupSide.RIGHT, rng)
    return CcsInstance(params, nf_conjugate(params.g.form, x), nf_conjugate(params.g.form, y), x, y)


@dataclass
class ReductionResult:
    """Outcome of one simulated reduction run."""

    value: Optional[CanonicalForm]
    transcript: list[tuple[DecisionQuery, bool]]
    trapdoor: Trapdoor

    @property
    def succeeded(self) -> bool:
        return self.value is not None


def run_reduction(
    inst: CcsInstance,
    adversary: Adversary,
    rng: SeededRng,
    query_budget: int = DEFAULT_QUERY_BUDGET,
) -> ReductionResult:
    """Simulate the reduction on one instance.

    Every adversary query is answered by the trapdoor check; the final
    output is accepted, and Z1 reported as the value, only if it passes
    that same check against the challenge.  That does not make Z1 the
    shared conjugate: the right-subgroup shift passes the check (see the
    module docstring).
    """
    td = trapdoor_setup(inst.params, inst.X, rng)
    transcript: list[tuple[DecisionQuery, bool]] = []

    def oracle(q: DecisionQuery) -> bool:
        if len(transcript) >= query_budget:
            raise QueryBudgetError(f"budget of {query_budget} queries exhausted")
        answer = trapdoor_check(td, q)
        transcript.append((q, answer))
        return answer

    output = adversary(td.X1, td.X2, inst.Y, oracle)
    if output is None:
        return ReductionResult(None, transcript, td)
    Z1, Z2 = output
    if not trapdoor_check(td, DecisionQuery(inst.Y, Z1, Z2)):
        return ReductionResult(None, transcript, td)
    return ReductionResult(Z1, transcript, td)


def probing_adversary(
    params: GroupParams,
    witness_y: BraidWord,
    rng: SeededRng,
    n_queries: int = 50,
) -> tuple[Adversary, list[bool]]:
    """An adversary that first fires a mix of honest and corrupted decision
    queries, then answers perfectly.

    Returns (adversary, truth_labels); truth_labels[i] is the ground truth
    of the i-th query, known exactly because the adversary built it:
    honest queries are y'-conjugates of (g, X1, X2), corrupted ones have a
    component replaced by a random conjugate verified to differ.
    """
    labels: list[bool] = []

    def run(X1, X2, Y, oracle):
        for _ in range(n_queries):
            q, _y = honest_query((X1, X2), params, rng)
            mode = rng.rand_below(4)
            if mode == 0:
                labels.append(True)
            else:
                z1, z2 = q.Z1hat, q.Z2hat
                if mode in (1, 3):
                    z1 = _fresh_conjugate_differing(params, rng, q.Z1hat)
                if mode in (2, 3):
                    z2 = _fresh_conjugate_differing(params, rng, q.Z2hat)
                q = DecisionQuery(q.Yhat, z1, z2)
                labels.append(False)
            oracle(q)
        return nf_conjugate(X1, witness_y), nf_conjugate(X2, witness_y)

    return run, labels


def _fresh_conjugate_differing(
    params: GroupParams, rng: SeededRng, avoid: CanonicalForm
) -> CanonicalForm:
    while True:
        cand = random_element(params, rng)
        if cand != avoid:
            return cand


def oracle_leak_demo(
    kp: KeyPair, Yhat: CanonicalForm, Zhat: CanonicalForm, rng: SeededRng
) -> bool:
    """Answer the decision predicate "is Zhat == ccs(X, Yhat)?" using only a
    decryption oracle for the single-key scheme (kp holds one secret).

    Forges a ciphertext for a known message under H("cs", Yhat, Zhat); the
    oracle (an honest cs_decrypt) recomputes the key from its secret, so
    decryption returns the known message exactly when the guess was right.
    """
    probe = rng.rand_bytes(16)
    key = hash_elements("cs", [Yhat, Zhat])
    forged = Ciphertext(SCHEME_CS, Yhat, sym_encrypt(key, probe))
    try:
        return cs_decrypt(kp, forged) == probe
    except AuthenticationError:
        return False
