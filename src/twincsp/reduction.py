"""Executable simulation of the main reduction.

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

The trapdoor stands in for the decision oracle that a decryption oracle
for the single-key scheme leaks for free (tests/conftest.py::oracle_leak_demo).

Adversaries only ever see (X1, X2, Y, oracle); instance witnesses stay
with the caller.
"""

from __future__ import annotations

from collections.abc import Callable

from ._record import record
from .braid import BraidWord, CanonicalForm, GroupParams, nf_conjugate
from .elgamal import keygen
from .sampling import SeededRng, SubgroupSide
from .trapdoor import (
    DecisionQuery,
    Trapdoor,
    honest_query,
    random_element_differing,
    trapdoor_check,
    trapdoor_setup,
)

Oracle = Callable[[DecisionQuery], bool]
Adversary = Callable[
    [CanonicalForm, CanonicalForm, CanonicalForm, Oracle],
    tuple[CanonicalForm, CanonicalForm] | None,
]

DEFAULT_QUERY_BUDGET = 1024


class QueryBudgetError(RuntimeError):
    """The adversary exceeded its decision-query budget."""


@record
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
    x = keygen(params, SubgroupSide.LEFT, 1, rng)
    y = keygen(params, SubgroupSide.RIGHT, 1, rng)
    return CcsInstance(params, x.publics[0], y.publics[0], x.secrets[0], y.secrets[0])


@record
class ReductionResult:
    """Outcome of one simulated reduction run."""

    value: CanonicalForm | None
    transcript: tuple[tuple[DecisionQuery, bool], ...]
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
    if output is not None:
        Z1, Z2 = output
        if trapdoor_check(td, DecisionQuery(inst.Y, Z1, Z2)):
            return ReductionResult(Z1, tuple(transcript), td)
    return ReductionResult(None, tuple(transcript), td)


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
                    z1 = random_element_differing(params, rng, q.Z1hat)
                if mode in (2, 3):
                    z2 = random_element_differing(params, rng, q.Z2hat)
                q = DecisionQuery(q.Yhat, z1, z2)
                labels.append(False)
            oracle(q)
        return nf_conjugate(X1, witness_y), nf_conjugate(X2, witness_y)

    return run, labels

