"""The default base element's split degeneracy, pinned with exact counts.

default_params(l, r) folds DEFAULT_G_LETTERS into 1..n-1.  The coupling
generator s_l is the one generator outside both LB_l and RB_r; when no
letter of g is +-l, g = g_L g_R with g_L in LB_l and g_R in RB_r, halves
that commute, and each side's conjugation moves only its own half.  A fix
changes the inputs of the kex-b32 benchmark and the B_32/B_48 frozen
vectors, so it waits for a change that re-baselines them; it must flip
these counts.
"""

import struct

from conftest import rng_from
from twincsp import (
    BraidWord,
    SubgroupSide,
    default_params,
    encrypt,
    hash_elements,
    keygen,
    loopback_run,
    nf_invert,
    nf_multiply,
    normal_form,
)
from twincsp.codec import AuthenticationError, deserialize_canonical, sym_decrypt
from twincsp.elgamal import SCHEME_CS


def degenerate(l: int, r: int) -> bool:
    return all(abs(v) != l for v in default_params(l, r).g.letters)


def frame_elements(stream: bytes) -> tuple:
    """The two elements of the first frame of a kex stream, parsed here:
    length:4 | type:1 | (length:4 | canonical form) twice."""
    (length,) = struct.unpack_from(">I", stream)
    payload = stream[5 : 4 + length]
    (first,) = struct.unpack_from(">I", payload)
    (second,) = struct.unpack_from(">I", payload, 4 + first)
    return (deserialize_canonical(payload[4 : 4 + first]),
            deserialize_canonical(payload[8 + first : 8 + first + second]))


def split_attack_opens(params, seed: int, trials: int = 20) -> int:
    """cs ciphertexts opened from public data alone with
    Z = X g_R^-1 g_L^-1 Y, where g_L and g_R keep g's letters below and
    above l.  When g = g_L g_R this is x g_L x^-1 . y g_R y^-1 = Z."""
    n, l = params.n, params.l
    g_L = normal_form(BraidWord(n, tuple(v for v in params.g.letters if abs(v) < l)))
    g_R = normal_form(BraidWord(n, tuple(v for v in params.g.letters if abs(v) > l)))
    opened = 0
    for i in range(trials):
        rng = rng_from(seed + i)
        kp = keygen(params, SubgroupSide.LEFT, SCHEME_CS, rng)
        ct = encrypt(kp.public, b"split", rng, SCHEME_CS)
        Z = nf_multiply(nf_multiply(kp.publics[0], nf_invert(g_R)),
                        nf_multiply(nf_invert(g_L), ct.Y))
        try:
            opened += sym_decrypt(hash_elements("cs", [ct.Y, Z]), ct.box) == b"split"
        except AuthenticationError:
            pass
    return opened


class TestSplitDegeneracy:
    def test_count_over_small_splits(self):
        splits = [(l, r) for l in range(2, 25) for r in range(2, 25)]
        split = [s for s in splits if degenerate(*s)]
        assert (len(split), len(splits)) == (253, 529)
        # kex-b32 and the B_48 vector split; the B_16 default does not
        assert (16, 16) in split and (24, 24) in split and (8, 8) not in split

    def test_b32_exchange_key_from_the_init_frame(self):
        params = default_params(16, 16, 32)
        assert all(abs(v) < params.l for v in params.g.letters)  # g lies in LB_16
        right_publics_are_g = eavesdropped = 0
        for i in range(20):
            res_i, res_r = loopback_run(params, rng_from(500 + i), rng_from(600 + i))
            assert res_i.key == res_r.key
            X1, X2 = frame_elements(res_i.sent)
            right_publics_are_g += frame_elements(res_r.sent) == (params.g.form, params.g.form)
            eavesdropped += hash_elements("kex", [X1, X1, X2, X2]) == res_i.key
        assert (right_publics_are_g, eavesdropped) == (20, 20)

    def test_split_opens_cs_ciphertexts(self):
        assert degenerate(10, 6)
        assert split_attack_opens(default_params(10, 6), 700) == 20
        assert split_attack_opens(default_params(), 700) == 0
