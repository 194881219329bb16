import hashlib
import hmac
import importlib.util
import socket
import threading
from collections import Counter
from pathlib import Path

import pytest

from twincsp import (
    AuthenticationError,
    BraidWord,
    CanonicalForm,
    DecisionQuery,
    GroupParams,
    KeyPair,
    PermutationBraid,
    Role,
    SeededRng,
    SubgroupSide,
    Trapdoor,
    default_params,
    hash_elements,
    multiply,
    nf_conjugate,
    nf_invert,
    nf_multiply,
    normal_form,
    random_element,
    sample_subgroup,
    sym_encrypt,
    trapdoor_setup,
)
from twincsp import permutations as pm
from twincsp.codec import SealedBox, blob, serialize_canonical
from twincsp.elgamal import SCHEME_CS, SCHEME_NAMES, Ciphertext, decrypt, keygen
from twincsp.kex import StreamChannel, run_parties
from twincsp.keyfiles import CT_FILE_VERSION, CT_MAGIC, decode_ciphertext, encode_ciphertext

ROOT = Path(__file__).resolve().parent.parent


def load_tool(name: str):
    """A script from tools/, loaded as a module by its path."""
    spec = importlib.util.spec_from_file_location(name, ROOT / "tools" / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


# The one counter of the engine's work (pair calls, crossings, near-D divisions),
# shared with tools/pair_work.py: ``with engine_work(braid) as work:``.
engine_work = load_tool("pair_work").engine_work


class CallCounter:
    """Counts calls of a wrapped function, per thread."""

    def __init__(self, fn):
        self.fn = fn
        self.by_thread = Counter()

    def __call__(self, *args, **kwargs):
        self.by_thread[threading.get_ident()] += 1
        return self.fn(*args, **kwargs)

    @property
    def total(self) -> int:
        return sum(self.by_thread.values())


@pytest.fixture
def params():
    return default_params()


def rng_from(tag: int) -> SeededRng:
    """Expand a small integer into a seed."""
    return SeededRng(tag.to_bytes(32, "big"))


def permutation_of(a: BraidWord) -> PermutationBraid:
    """Image of the word in the symmetric group (signs ignored)."""
    p = pm.identity(a.n)
    for v in a.letters:
        p = pm.compose(p, pm.transposition(a.n, abs(v)))
    return PermutationBraid(p)


def is_identity(cf: CanonicalForm) -> bool:
    """Whether a canonical form is the identity: no half twists, no factors."""
    return cf.delta_exp == 0 and not cf.factors


def commutes(a: BraidWord, b: BraidWord) -> bool:
    """Whether ab = ba as group elements."""
    return normal_form(multiply(a, b)) == normal_form(multiply(b, a))


def left_public(params: GroupParams, rng: SeededRng) -> CanonicalForm:
    """X = x g x^-1 for a fresh x from the left subgroup."""
    return keygen(params, SubgroupSide.LEFT, 1, rng).publics[0]


def fresh_trapdoor(params: GroupParams, rng: SeededRng) -> Trapdoor:
    """A trapdoor tied to a fresh X1 = left_public(params, rng); X1 and then
    (r, s) are drawn from rng."""
    return trapdoor_setup(params, left_public(params, rng), rng)


def draw_shift(params: GroupParams, rng: SeededRng) -> CanonicalForm:
    """A normal form u != 1 drawn from the right subgroup RB_r, for shift."""
    u = normal_form(sample_subgroup(params, SubgroupSide.RIGHT, rng))
    assert not is_identity(u)
    return u


def shift(u: CanonicalForm, Z1: CanonicalForm,
          Z2: CanonicalForm) -> tuple[CanonicalForm, CanonicalForm]:
    """The right-subgroup shift (u Z1, Z2 u^-1): for u from RB_r, u commutes
    with the trapdoor's r, so the test accepts the shifted pair exactly
    when it accepts (Z1, Z2) (TestShiftAttack in tests/test_trapdoor.py)."""
    return nf_multiply(u, Z1), nf_multiply(Z2, nf_invert(u))


def oracle_leak_demo(
    kp: KeyPair, Yhat: CanonicalForm, Zhat: CanonicalForm, rng: SeededRng
) -> bool:
    """Answer the decision predicate "is Zhat == ccs(X, Yhat)?" using only a
    decryption oracle for the single-key scheme (kp holds one secret).

    This is why the single-key scheme needs the reduction's trapdoor at
    all: a decryption oracle for it answers the decision predicate for
    free.  Forges a ciphertext for a known message under H("cs", Yhat,
    Zhat); the oracle (an honest single-scheme decrypt) recomputes the key
    from its secret, so decryption returns the known message exactly when
    Zhat is the true shared conjugate.
    """
    probe = rng.rand_bytes(16)
    key = hash_elements("cs", [Yhat, Zhat])
    forged = Ciphertext(SCHEME_CS, Yhat, sym_encrypt(key, probe))
    try:
        return decrypt(kp, forged, SCHEME_CS) == probe
    except AuthenticationError:
        return False


def version_3_file(kp: KeyPair, data: bytes, lead: int | None = None) -> bytes:
    """The ciphertext file data, which kp opens, rebuilt by the rules of file
    version 0x03: body = message XOR SHAKE-256(K || "ks") and tag =
    HMAC-SHA-256(K, "mac" || body), K = H(label, Y, Z_1, .., Z_k).  Given
    lead, one byte goes before the message, chosen so that the body starts
    with the byte lead.  The package keeps no code for old versions, so the
    tests build such files here."""
    ct = decode_ciphertext(data, kp)
    message = decrypt(kp, ct)
    Z = [nf_conjugate(ct.Y, w) for w in kp.secrets]
    key = hash_elements(SCHEME_NAMES[kp.k], [ct.Y, *Z]).bytes
    stream = hashlib.shake_256(key + b"ks").digest(len(message) + 1)
    if lead is not None:
        message = bytes([lead ^ stream[0]]) + message
    body = bytes(m ^ s for m, s in zip(message, stream))
    tag = hmac.new(key, b"mac" + body, hashlib.sha256).digest()
    return (CT_MAGIC + bytes([0x03, ct.scheme]) + blob(serialize_canonical(ct.Y))
            + blob(body) + blob(tag))


def shifted_into_version_4(old: bytes) -> bytes:
    """The 0x03 file old, whose body starts with 0x04, as a 0x04 file: that
    body byte becomes the version byte and the body length shrinks by one.
    Its 0x03 tag covers "mac" || body, so a 0x04 tag over "mac" || version
    || body would accept the result."""
    ct = decode_ciphertext(old[:6] + bytes([CT_FILE_VERSION]) + old[7:])
    assert ct.box.ct[0] == CT_FILE_VERSION == 0x04
    return encode_ciphertext(Ciphertext(ct.scheme, ct.Y, SealedBox(ct.box.ct[1:], ct.box.tag)))


class FlippingChannel(StreamChannel):
    """Flips the low bit of the outgoing byte at flip_offset, an offset into
    the frames this channel sends; ``sent`` keeps the intended bytes."""

    def __init__(self, sock: socket.socket, flip_offset: int, timeout: float):
        super().__init__(sock, timeout)
        self.flip_offset = flip_offset

    def send_bytes(self, data: bytes) -> None:
        lo = self.flip_offset - len(self.sent)
        if 0 <= lo < len(data):
            data = data[:lo] + bytes([data[lo] ^ 0x01]) + data[lo + 1 :]
        super().send_bytes(data)


def two_party_run(
    params: GroupParams,
    init_rng: SeededRng,
    resp_rng: SeededRng,
    *,
    tamper: tuple[Role, int] | None = None,
    timeout: float = 5.0,
):
    """``kex.run_parties`` over a socket pair whose sockets time out after
    timeout seconds, with confirmation; tamper=(role, offset) flips one
    byte of that role's outgoing stream in flight.  Both sockets are closed
    on every path out.
    """
    socks = socket.socketpair()
    try:
        chan_i, chan_r = (
            FlippingChannel(sock, tamper[1], timeout) if tamper and tamper[0] is role
            else StreamChannel(sock, timeout)
            for role, sock in zip(Role, socks)
        )
        return run_parties(params, chan_i, chan_r, init_rng, resp_rng)
    finally:
        for sock in socks:
            sock.close()


def delta(n: int) -> BraidWord:
    """The half twist D_n = (s_1 .. s_{n-1})(s_1 .. s_{n-2}) .. (s_1)."""
    if n < 2:
        raise ValueError("need at least 2 strands")
    letters = [j for k in range(n - 1, 0, -1) for j in range(1, k + 1)]
    return BraidWord(n, tuple(letters))


def word_of(cf: CanonicalForm) -> BraidWord:
    """Expand a canonical form back into a braid word."""
    n = cf.n
    letters: list[int] = []
    dword = delta(n).letters
    if cf.delta_exp >= 0:
        letters.extend(dword * cf.delta_exp)
    else:
        letters.extend(tuple(-v for v in reversed(dword)) * (-cf.delta_exp))
    for f in cf.factors:
        letters.extend(_positive_word(f.perm))
    return BraidWord(n, tuple(letters))


def _positive_word(p: tuple[int, ...]) -> list[int]:
    """A reduced positive word for a permutation braid, by stripping final
    descents."""
    cur = list(p)
    n = len(cur)
    out: list[int] = []
    while True:
        for i in range(1, n):
            if cur[i - 1] > cur[i]:
                out.append(i)
                cur[i - 1], cur[i] = cur[i], cur[i - 1]
                break
        else:
            break
    out.reverse()
    return out


def truth_2ccsp(x1: BraidWord, x2: BraidWord, q: DecisionQuery) -> bool:
    """Ground-truth twin predicate, evaluated with both secret conjugators:
    Z1hat == x1 Yhat x1^{-1} and Z2hat == x2 Yhat x2^{-1}."""
    return (
        nf_conjugate(q.Yhat, x1) == q.Z1hat
        and nf_conjugate(q.Yhat, x2) == q.Z2hat
    )


def perfect_adversary(witness_y: BraidWord):
    """Answers with the true conjugates, using the ephemeral witness the
    test extracted from the instance."""

    def run(X1, X2, Y, oracle):
        return nf_conjugate(X1, witness_y), nf_conjugate(X2, witness_y)

    return run


def random_adversary(params, rng: SeededRng):
    """Outputs two random conjugates; its answer should always be rejected."""

    def run(X1, X2, Y, oracle):
        return random_element(params, rng), random_element(params, rng)

    return run


def random_word(n: int, length: int, rng: SeededRng, indices=None) -> BraidWord:
    """Uniform signed letters; indices defaults to the full generator range."""
    return BraidWord(n, rng.rand_letters(indices or range(1, n), length))


def rewrite_equivalent(word: BraidWord, rng: SeededRng, steps: int = 50) -> BraidWord:
    """Apply relation rewrites and free insertions/cancellations; the result
    is a different word for the same group element."""
    letters = list(word.letters)
    n = word.n
    for _ in range(steps):
        op = rng.rand_below(4)
        if op == 0 and len(letters) >= 2:
            # far-commutation swap
            spots = [i for i in range(len(letters) - 1)
                     if abs(abs(letters[i]) - abs(letters[i + 1])) >= 2]
            if spots:
                i = spots[rng.rand_below(len(spots))]
                letters[i], letters[i + 1] = letters[i + 1], letters[i]
                continue
        if op == 1 and len(letters) >= 3:
            # braid relation on a same-sign aba run
            spots = []
            for i in range(len(letters) - 2):
                a, b, c = letters[i], letters[i + 1], letters[i + 2]
                if a == c and abs(abs(a) - abs(b)) == 1 and (a > 0) == (b > 0):
                    spots.append(i)
            if spots:
                i = spots[rng.rand_below(len(spots))]
                a, b = letters[i], letters[i + 1]
                letters[i : i + 3] = [b, a, b]
                continue
        if op == 2:
            # free insertion
            i = rng.rand_below(len(letters) + 1)
            (v,) = rng.rand_letters(range(1, n), 1)
            letters[i:i] = [v, -v]
            continue
        # free cancellation
        spots = [i for i in range(len(letters) - 1) if letters[i] == -letters[i + 1]]
        if spots:
            i = spots[rng.rand_below(len(spots))]
            del letters[i : i + 2]
    return BraidWord(n, tuple(letters))


def assert_left_weighted(cf: CanonicalForm) -> None:
    """Structural validity of a canonical form, factor by factor: no
    identity or D factor, and S(B) (descents of B^-1) inside F(A)
    (descents of A) for every adjacent pair (A, B)."""
    for f in cf.factors:
        assert f.perm != pm.identity(cf.n), "identity factor in normal form"
        assert f.perm != pm.half_twist(cf.n), "half-twist factor not extracted"
    for a, b in zip(cf.factors, cf.factors[1:]):
        start, finish = pm.descents(pm.inverse(b.perm)), pm.descents(a.perm)
        assert start <= finish, (
            f"pair not left-weighted: S={sorted(start)} F={sorted(finish)}"
        )
