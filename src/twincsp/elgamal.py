"""Hashed encryption from the conjugacy search problem, single and twin,
the one key type of the package and the one shared-conjugate rule.

A key is k secrets w_i from one subgroup (its side) and their public
conjugates X_i = w_i g w_i^{-1}: k = 1 for the single scheme, k = 2 for
the twin scheme and both key exchanges; ``keygen`` draws every key.

Every scheme is a key agreement between a left-side key (x_i, X_i) and a
right-side key (y_j, Y_j): either party computes the shared conjugates

    ccs(X_i, Y_j) = x_i Y_j x_i^{-1} = y_j X_i y_j^{-1},   i outer,

with ``shared_conjugates`` (the subgroups commute elementwise) and hashes
them.  The key exchanges hash the four values of two two-secret keys.
Both encryption schemes are hybrids, a conjugate header plus a symmetric
box: a fresh one-secret right-side key (its public element is the header
Y) agrees with the recipient's key, and the box key is
H(label, Y, Z_1, .., Z_k) under label "cs" for k = 1 or "twin" for k = 2,
so that every secret enters the key.  The ciphertext's scheme byte is k.

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


def shared_conjugates(me: KeyPair, peer: PublicKey) -> list[CanonicalForm]:
    """The shared conjugates of my key and an opposite-side peer key, in the
    order ccs(X_i, Y_j), i outer: x_i Y_j x_i^{-1} if I hold the x_i, else
    y_j X_i y_j^{-1}."""
    if peer.side is me.side:
        raise ValueError("parties must use opposite subgroups")
    if me.side is SubgroupSide.LEFT:
        return [nf_conjugate(Y, x) for x in me.secrets for Y in peer.elements]
    return [nf_conjugate(X, y) for X in peer.elements for y in me.secrets]


def _label(key: PublicKey | KeyPair, k: int | None = None) -> str:
    """The hash label of a key of left-subgroup secrets (exactly k, if given)."""
    if key.side is not SubgroupSide.LEFT:
        raise ValueError("encryption keys hold left-subgroup secrets")
    if key.k not in SCHEME_NAMES or k not in (None, key.k):
        raise ValueError(f"a key of {key.k} elements does not fit this scheme")
    return SCHEME_NAMES[key.k]


def encrypt(pk: PublicKey, message: bytes, rng: SeededRng, k: int | None = None) -> Ciphertext:
    """Agree with pk from a fresh ephemeral key (y from RB_r, Y = ygy^{-1}):
    key = H(label, Y, Z_1, .., Z_k), Z_i = y X_i y^{-1}.  k, if given, is the
    size the key must have."""
    label = _label(pk, k)
    eph = keygen(pk.params, SubgroupSide.RIGHT, 1, rng)
    Y = eph.publics[0]
    key = hash_elements(label, [Y, *shared_conjugates(eph, pk)])
    return Ciphertext(pk.k, Y, sym_encrypt(key, message))


def decrypt(kp: KeyPair, ct: Ciphertext, k: int | None = None) -> bytes:
    """Agree with the header Y (Z_i = w_i Y w_i^{-1}) and open the box; raises
    AuthenticationError on forged or mis-keyed ciphertexts."""
    label = _label(kp, k)
    _label(kp, ct.scheme)  # the ciphertext's scheme byte must be the key's k
    header = PublicKey(kp.params, SubgroupSide.RIGHT, (ct.Y,))
    key = hash_elements(label, [ct.Y, *shared_conjugates(kp, header)])
    return sym_decrypt(key, ct.box)


def twin_keygen(params: GroupParams, rng: SeededRng) -> KeyPair:
    """Two independent secret conjugators from LB_l."""
    return keygen(params, SubgroupSide.LEFT, SCHEME_TWIN, rng)


def twin_encrypt(pk: PublicKey, message: bytes, rng: SeededRng) -> Ciphertext:
    """One ephemeral y serves both halves: key = H("twin", Y, Z1, Z2)."""
    return encrypt(pk, message, rng, SCHEME_TWIN)


def twin_decrypt(kp: KeyPair, ct: Ciphertext) -> bytes:
    return decrypt(kp, ct, SCHEME_TWIN)
