"""Hashed encryption from the conjugacy search problem, single and twin,
and the one key type of the package.

A key is k secrets w_i from one subgroup (its side) and their public
conjugates X_i = w_i g w_i^{-1}: k = 1 for the single scheme, k = 2 for
the twin scheme and both key exchanges.  Both schemes are hybrids, a
conjugate header plus a symmetric box.  An encryption draws one ephemeral
y from the right subgroup and hashes Y = y g y^{-1} with every shared
conjugate Z_i = y X_i y^{-1} = w_i Y w_i^{-1} (the secrets come from the
left subgroup, which commutes with the right one elementwise) under label
"cs" for k = 1 or "twin" for k = 2, so that every secret enters the key.
The ciphertext's scheme byte is k.

Each conjugator is normalized once: a word keeps the normal forms of
itself and its inverse (``BraidWord.form``), so an encryption normalizes
its ephemeral once and a key pair its secrets on first use.  A key pair
read from a key file holds plain words, so decoding does no normal-form
work.  Messages are arbitrary byte strings.
"""

from __future__ import annotations

from ._record import record
from .braid import BraidWord, CanonicalForm, GroupParams, nf_conjugate
from .codec import SealedBox, hash_elements, sym_decrypt, sym_encrypt
from .sampling import SeededRng, SubgroupSide, sample_subgroup

SCHEME_CS = 0x01
SCHEME_TWIN = 0x02
# The scheme byte is k, the number of secrets; the name is the hash label.
SCHEME_NAMES = {SCHEME_CS: "cs", SCHEME_TWIN: "twin"}


@record
class PublicKey:
    """The public conjugates X_i = w_i g w_i^{-1} of k secrets from one side."""

    params: GroupParams
    side: SubgroupSide
    elements: tuple[CanonicalForm, ...]

    @property
    def k(self) -> int:
        return len(self.elements)


@record
class KeyPair:
    """k secret words from one subgroup and their public conjugates."""

    params: GroupParams
    side: SubgroupSide
    secrets: tuple[BraidWord, ...]
    publics: tuple[CanonicalForm, ...]

    @property
    def k(self) -> int:
        return len(self.secrets)

    @property
    def public(self) -> PublicKey:
        return PublicKey(self.params, self.side, self.publics)


@record
class Ciphertext:
    """Conjugate header Y plus the sealed symmetric payload."""

    scheme: int
    Y: CanonicalForm
    box: SealedBox


def keygen(params: GroupParams, side: SubgroupSide, k: int, rng: SeededRng) -> KeyPair:
    """k independent secrets from the side's subgroup; X_i = w_i g w_i^{-1}."""
    secrets = tuple(sample_subgroup(params, side, rng) for _ in range(k))
    publics = tuple(nf_conjugate(params.g.form, w) for w in secrets)
    return KeyPair(params, side, secrets, publics)


def _label(key: PublicKey | KeyPair, k: int | None = None) -> str:
    """The hash label of a key of left-subgroup secrets (exactly k, if given)."""
    if key.side is not SubgroupSide.LEFT:
        raise ValueError("encryption keys hold left-subgroup secrets")
    if key.k not in SCHEME_NAMES or k not in (None, key.k):
        raise ValueError(f"a key of {key.k} elements does not fit this scheme")
    return SCHEME_NAMES[key.k]


def encrypt(pk: PublicKey, message: bytes, rng: SeededRng, k: int | None = None) -> Ciphertext:
    """Ephemeral y from RB_r; Y = ygy^{-1}, Z_i = y X_i y^{-1},
    key = H(label, Y, Z_1, .., Z_k).  k, if given, is the size the key must have."""
    label = _label(pk, k)
    y = sample_subgroup(pk.params, SubgroupSide.RIGHT, rng)
    Y = nf_conjugate(pk.params.g.form, y)
    key = hash_elements(label, [Y, *(nf_conjugate(X, y) for X in pk.elements)])
    return Ciphertext(pk.k, Y, sym_encrypt(key, message))


def decrypt(kp: KeyPair, ct: Ciphertext, k: int | None = None) -> bytes:
    """Recompute Z_i = w_i Y w_i^{-1} and open the box; raises
    AuthenticationError on forged or mis-keyed ciphertexts."""
    label = _label(kp, k)
    key = hash_elements(label, [ct.Y, *(nf_conjugate(ct.Y, w) for w in kp.secrets)])
    return sym_decrypt(key, ct.box)


def cs_keygen(params: GroupParams, rng: SeededRng) -> KeyPair:
    """Secret conjugator x from LB_l; public key X = x g x^{-1}."""
    return keygen(params, SubgroupSide.LEFT, SCHEME_CS, rng)


def twin_keygen(params: GroupParams, rng: SeededRng) -> KeyPair:
    """Two independent secret conjugators from LB_l."""
    return keygen(params, SubgroupSide.LEFT, SCHEME_TWIN, rng)


def twin_encrypt(pk: PublicKey, message: bytes, rng: SeededRng) -> Ciphertext:
    """One ephemeral y serves both halves: key = H("twin", Y, Z1, Z2)."""
    return encrypt(pk, message, rng, SCHEME_TWIN)


def twin_decrypt(kp: KeyPair, ct: Ciphertext) -> bytes:
    return decrypt(kp, ct, SCHEME_TWIN)
