"""The abstract's claims, each pinned by the number the README quotes
(ROADMAP item 10).  So far: claim (e), short ciphertexts."""

import statistics

from conftest import rng_from
from twincsp import SubgroupSide, encrypt, keygen, serialize_canonical
from twincsp.keyfiles import encode_ciphertext

MESSAGE = bytes(range(64))


def test_claim_e_twin_ciphertexts_are_as_short_as_cs_ones(params):
    """Under one ephemeral the twin ciphertext carries the same header Y as
    the cs one and is not one byte longer: the second secret costs nothing
    on the wire.  Y's size at B_16 over 32 ephemerals is pinned too (ROADMAP
    item 16 re-pins it when it changes the factor encoding)."""
    cs = keygen(params, SubgroupSide.LEFT, 1, rng_from(1000)).public
    twin = keygen(params, SubgroupSide.LEFT, 2, rng_from(2000)).public
    same_y, extra, header, twin_file = 0, set(), [], []
    for i in range(32):
        ct_cs = encrypt(cs, MESSAGE, rng_from(100 + i))
        ct_twin = encrypt(twin, MESSAGE, rng_from(100 + i))
        same_y += ct_cs.Y == ct_twin.Y
        extra.add(len(encode_ciphertext(ct_twin)) - len(encode_ciphertext(ct_cs)))
        header.append(len(serialize_canonical(ct_twin.Y)))
        twin_file.append(len(encode_ciphertext(ct_twin)))
    assert same_y == 32
    assert extra == {0}
    assert (min(header), statistics.median(header), max(header)) == (112, 256, 464)
    assert statistics.median(twin_file) == 372
