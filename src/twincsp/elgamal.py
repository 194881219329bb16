"""Hashed encryption from the conjugacy search problem, single and twin.

Both schemes are hybrids: a conjugate header plus a symmetric box.  The
secret key holder and the encryptor compute the same shared conjugate

    ccs(X, Y) = (xy) g (xy)^{-1} = x Y x^{-1} = y X y^{-1}

because x is drawn from the left subgroup and the ephemeral y from the
right one, and those commute elementwise.  The single scheme hashes
(Y, Z) under label "cs"; the twin scheme carries two public conjugates
X_1, X_2, reuses one ephemeral y for Z_1 and Z_2, and hashes (Y, Z1, Z2)
under label "twin" so that both secrets enter the key.

Each conjugator is normalized once: an encryption conjugates g and every
public element by one canonical ephemeral, and a key pair holds its
secrets as canonical conjugators.  Key generation stores the conjugators
it used for the public keys; a key pair read from a key file derives them
on first use, so decoding a key file does no normal-form work.

Messages are arbitrary byte strings.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from .braid import (
    BraidWord,
    CanonicalForm,
    Conjugator,
    GroupParams,
    conjugator,
    nf_conjugate,
)
from .codec import SealedBox, hash_elements, sym_decrypt, sym_encrypt
from .sampling import SeededRng, SubgroupSide, sample_subgroup

SCHEME_CS = 0x01
SCHEME_TWIN = 0x02


@dataclass(frozen=True)
class CsPublicKey:
    params: GroupParams
    X: CanonicalForm


@dataclass(frozen=True)
class CsKeyPair:
    params: GroupParams
    sk_x: BraidWord
    pk_X: CanonicalForm
    canonical: tuple[Conjugator] | None = field(default=None, compare=False, repr=False)

    @property
    def public(self) -> CsPublicKey:
        return CsPublicKey(self.params, self.pk_X)

    @property
    def conjugators(self) -> tuple[Conjugator]:
        """The secret x in canonical form, derived on first use if not given."""
        if self.canonical is None:
            object.__setattr__(self, "canonical", (conjugator(self.sk_x),))
        return self.canonical


@dataclass(frozen=True)
class TwinPublicKey:
    params: GroupParams
    X1: CanonicalForm
    X2: CanonicalForm


@dataclass(frozen=True)
class TwinKeyPair:
    params: GroupParams
    sk_x1: BraidWord
    sk_x2: BraidWord
    pk_X1: CanonicalForm
    pk_X2: CanonicalForm
    canonical: tuple[Conjugator, Conjugator] | None = field(
        default=None, compare=False, repr=False)

    @property
    def public(self) -> TwinPublicKey:
        return TwinPublicKey(self.params, self.pk_X1, self.pk_X2)

    @property
    def conjugators(self) -> tuple[Conjugator, Conjugator]:
        """The secrets (x1, x2) in canonical form, derived on first use if
        not given."""
        if self.canonical is None:
            object.__setattr__(
                self, "canonical", (conjugator(self.sk_x1), conjugator(self.sk_x2)))
        return self.canonical


@dataclass(frozen=True)
class Ciphertext:
    """Conjugate header Y plus the sealed symmetric payload."""

    scheme: int
    Y: CanonicalForm
    box: SealedBox


def ccs_shared(secret: BraidWord, peer_public: CanonicalForm) -> CanonicalForm:
    """The shared conjugate: normal_form(secret * peer_public * secret^{-1}).

    Symmetric across sides: with X = xgx^{-1} (x left) and Y = ygy^{-1}
    (y right), ccs_shared(x, Y) == ccs_shared(y, X).
    """
    if secret.n != peer_public.n:
        raise ValueError(f"strand counts differ: {secret.n} != {peer_public.n}")
    return nf_conjugate(peer_public, secret)


def cs_keygen(params: GroupParams, rng: SeededRng) -> CsKeyPair:
    """Secret conjugator from LB_l; public key X = x g x^{-1}."""
    x = sample_subgroup(params, SubgroupSide.LEFT, rng)
    cx = conjugator(x)
    return CsKeyPair(params, x, nf_conjugate(params.g_nf, cx), (cx,))


def cs_encrypt(pk: CsPublicKey, message: bytes, rng: SeededRng) -> Ciphertext:
    """Ephemeral y from RB_r; Y = ygy^{-1}, Z = yXy^{-1}, k = H("cs", Y, Z)."""
    y = conjugator(sample_subgroup(pk.params, SubgroupSide.RIGHT, rng))
    Y = nf_conjugate(pk.params.g_nf, y)
    Z = nf_conjugate(pk.X, y)
    key = hash_elements("cs", [Y, Z])
    return Ciphertext(SCHEME_CS, Y, sym_encrypt(key, message))


def cs_decrypt(kp: CsKeyPair, ct: Ciphertext) -> bytes:
    """Recompute Z = x Y x^{-1} and open the box; raises AuthenticationError
    on forged or mis-keyed ciphertexts."""
    (cx,) = kp.conjugators
    Z = nf_conjugate(ct.Y, cx)
    key = hash_elements("cs", [ct.Y, Z])
    return sym_decrypt(key, ct.box)


def twin_keygen(params: GroupParams, rng: SeededRng) -> TwinKeyPair:
    """Two independent secret conjugators from LB_l."""
    x1 = sample_subgroup(params, SubgroupSide.LEFT, rng)
    x2 = sample_subgroup(params, SubgroupSide.LEFT, rng)
    c1, c2 = conjugator(x1), conjugator(x2)
    return TwinKeyPair(params, x1, x2, nf_conjugate(params.g_nf, c1),
                       nf_conjugate(params.g_nf, c2), (c1, c2))


def twin_encrypt(pk: TwinPublicKey, message: bytes, rng: SeededRng) -> Ciphertext:
    """One ephemeral y serves both halves: k = H("twin", Y, Z1, Z2)."""
    y = conjugator(sample_subgroup(pk.params, SubgroupSide.RIGHT, rng))
    Y = nf_conjugate(pk.params.g_nf, y)
    Z1 = nf_conjugate(pk.X1, y)
    Z2 = nf_conjugate(pk.X2, y)
    key = hash_elements("twin", [Y, Z1, Z2])
    return Ciphertext(SCHEME_TWIN, Y, sym_encrypt(key, message))


def twin_decrypt(kp: TwinKeyPair, ct: Ciphertext) -> bytes:
    c1, c2 = kp.conjugators
    Z1 = nf_conjugate(ct.Y, c1)
    Z2 = nf_conjugate(ct.Y, c2)
    key = hash_elements("twin", [ct.Y, Z1, Z2])
    return sym_decrypt(key, ct.box)
