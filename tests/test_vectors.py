"""Known-answer vectors: fixed-seed key files, ciphertext headers, derived
keys, NIKE keys, trapdoor publics and reduction answers, plus a B_32 key
exchange transcript, a B_32 NIKE key and a B_48 conjugate (the sizes at
which the engine finishes heavy factor pairs with a meet).

Normal forms are unique, so any rewrite of the engine or of how secrets
are held must reproduce these bytes exactly; a deliberate format change
bumps a version instead.  The ciphertext tag is not pinned here (the MAC
has its own version); the keystream body is, as of ciphertext file
version 0x03, whose keystream is SHAKE-256(key || "ks").
"""

import hashlib

from conftest import perfect_adversary, rng_from
from twincsp import (
    SubgroupSide,
    cs_keygen,
    default_params,
    encrypt,
    hash_elements,
    loopback_run,
    make_ccs_instance,
    nf_conjugate,
    nike_keygen,
    nike_shared_key,
    random_element,
    run_reduction,
    sample_subgroup,
    serialize_canonical,
    sym_decrypt,
    trapdoor_from_secrets,
    twin_encrypt,
    twin_keygen,
)
from twincsp.elgamal import SCHEME_CS
from twincsp.keyfiles import encode_keypair, encode_public_key

MESSAGE = b"known answer"


def digest(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def form_digest(cf) -> str:
    return digest(serialize_canonical(cf))


def test_twin_key_files(params):
    kp = twin_keygen(params, rng_from(9001))
    assert digest(encode_public_key(kp.public)) == (
        "d620ae675b3ce3dfba200e120f18c992cc386f3fc95c87ea593aff10e8de74ff"
    )
    assert digest(encode_keypair(kp)) == (
        "7696617efb71df5b07eb8de7ccdc14685c8947c03e090c7a450536fb2c885bb7"
    )


def test_cs_key_files(params):
    kp = cs_keygen(params, rng_from(9010))
    assert digest(encode_public_key(kp.public)) == (
        "16d16bae13665fcdf48bb06ae3f02732fe8ab7f05dd1a0cbb604b08418ad6546"
    )
    assert digest(encode_keypair(kp)) == (
        "c3a0c61df3387ad8a1a451887122ba45ecd65448a0d323445515f573dcb05a33"
    )


def test_nike_shared_key(params):
    alice = nike_keygen(params, SubgroupSide.LEFT, rng_from(9011))
    bob = nike_keygen(params, SubgroupSide.RIGHT, rng_from(9012))
    key = nike_shared_key(alice, bob.public)
    assert key == nike_shared_key(bob, alice.public)
    assert key.bytes.hex() == (
        "3238a5590eda595c3cfca7495ad902723c816dc055587cfa7b4c7099312dec4a"
    )


def test_twin_encrypt(params):
    kp = twin_keygen(params, rng_from(9001))
    ct = twin_encrypt(kp.public, MESSAGE, rng_from(9002))
    assert form_digest(ct.Y) == (
        "d334041fb4662812b73cf05dc13ece4fb3b0c56a6dd182712c0d2f37394bc049"
    )
    key = hash_elements(
        "twin", [ct.Y, nf_conjugate(ct.Y, kp.secrets[0]), nf_conjugate(ct.Y, kp.secrets[1])]
    )
    assert key.bytes.hex() == (
        "d7991426b4e7a24a4a7add6ebde84658ee8a61470f6ea534397e382a50ac8240"
    )
    assert ct.box.ct.hex() == "7cc547ed49668576ea6fad5e"
    assert sym_decrypt(key, ct.box) == MESSAGE


def test_cs_encrypt(params):
    kp = cs_keygen(params, rng_from(9003))
    ct = encrypt(kp.public, MESSAGE, rng_from(9004), SCHEME_CS)
    assert form_digest(ct.Y) == (
        "0fe8ad993da672980684b42bc7c81db973dc3065c9b610105e4f7907c5745cc0"
    )
    key = hash_elements("cs", [ct.Y, nf_conjugate(ct.Y, kp.secrets[0])])
    assert key.bytes.hex() == (
        "1fefff474ec6a365be30fdfc9a0ce23bb863537a859e5bfe2fa055bd7a0633a5"
    )
    assert ct.box.ct.hex() == "47542bc17fda2b4fd624547b"
    assert sym_decrypt(key, ct.box) == MESSAGE


def test_trapdoor_X2(params):
    X1 = twin_keygen(params, rng_from(9001)).publics[0]
    rng = rng_from(9005)
    r = sample_subgroup(params, SubgroupSide.LEFT, rng)
    s = sample_subgroup(params, SubgroupSide.LEFT, rng)
    assert form_digest(trapdoor_from_secrets(params, X1, r, s).X2) == (
        "b7c6a97c3f1564ea682c0862976b861ad223c113cd2ace75fa6cc5d594e8b4dc"
    )


def test_reduction_answer(params):
    inst = make_ccs_instance(params, rng_from(9006))
    result = run_reduction(inst, perfect_adversary(inst.witness_y), rng_from(9007))
    assert form_digest(result.value) == (
        "afd698c58aebd9af1e567d6e4dcf3883f6f0fb625f93eeacdbc5ed3fd64286b7"
    )


def test_kex_transcript_b32():
    res_i, res_r = loopback_run(default_params(16, 16, 32), rng_from(9020), rng_from(9021))
    assert digest(res_i.sent) == (
        "703f74a48aab93dfebdbf25005d3c0150440e08e4c3b2e8c4f5bdbaf1e1f0e66"
    )
    assert digest(res_r.sent) == (
        "27cfcd68ce673c0e2b5c84ba89f016e27385f1e1b524035d3463b246a9b8c15a"
    )
    assert res_i.key == res_r.key
    assert res_i.key.bytes.hex() == (
        "eb36796d52b1bfbe24048c014f2817462c29da796c1b09d10ab925c4500e80a8"
    )


def test_nike_shared_key_b32():
    params = default_params(16, 16, 32)
    alice = nike_keygen(params, SubgroupSide.LEFT, rng_from(9022))
    bob = nike_keygen(params, SubgroupSide.RIGHT, rng_from(9023))
    key = nike_shared_key(alice, bob.public)
    assert key == nike_shared_key(bob, alice.public)
    assert key.bytes.hex() == (
        "8af0748278453354c09fd44c00f25ed267a695e8f35b06d3e8092c000e439978"
    )


def test_conjugate_b48():
    params = default_params(24, 24, 32)
    rng = rng_from(9024)
    x = random_element(params, rng)
    w = sample_subgroup(params, SubgroupSide.LEFT, rng)
    assert form_digest(nf_conjugate(x, w)) == (
        "638d1f028e98e225303875fffa734abbc03aea2e04590fc4de548b9f3735dd93"
    )
