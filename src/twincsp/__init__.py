"""Twin conjugacy-search toolkit over braid groups.

Braid arithmetic with Garside left-greedy normal forms, hashed encryption
from the conjugacy search problem (single and twin), the trapdoor test
for twin decision queries, an executable simulation of the reduction from
the single problem to the oracle-assisted twin problem, and two key
exchange protocols with a framed wire format.
"""

from .braid import (
    BraidWord,
    CanonicalForm,
    GroupParams,
    PermutationBraid,
    StrandMismatchError,
    conjugate,
    default_params,
    invert,
    multiply,
    nf_conjugate,
    nf_invert,
    nf_multiply,
    normal_form,
)
from .codec import (
    AuthenticationError,
    CodecError,
    SealedBox,
    SymKey,
    hash_elements,
    serialize_canonical,
    sym_decrypt,
    sym_encrypt,
)
from .elgamal import (
    Ciphertext,
    KeyPair,
    PublicKey,
    decrypt,
    encrypt,
    keygen,
    twin_decrypt,
    twin_encrypt,
    twin_keygen,
)
from .kex import (
    KeyConfirmError,
    ProtocolError,
    Role,
    kex_run,
    loopback_run,
    nike_keygen,
    nike_shared_key,
)
from .reduction import (
    CcsInstance,
    ReductionResult,
    make_ccs_instance,
    probing_adversary,
    run_reduction,
)
from .sampling import SeededRng, SubgroupSide, sample_subgroup
from .trapdoor import (
    DecisionQuery,
    Trapdoor,
    honest_query,
    random_element,
    trapdoor_check,
    trapdoor_from_secrets,
    trapdoor_setup,
    trapdoor_stats,
)

__all__ = [
    "AuthenticationError",
    "BraidWord",
    "CanonicalForm",
    "CcsInstance",
    "Ciphertext",
    "CodecError",
    "DecisionQuery",
    "GroupParams",
    "KeyConfirmError",
    "KeyPair",
    "PermutationBraid",
    "ProtocolError",
    "PublicKey",
    "ReductionResult",
    "Role",
    "SealedBox",
    "SeededRng",
    "StrandMismatchError",
    "SubgroupSide",
    "SymKey",
    "Trapdoor",
    "conjugate",
    "decrypt",
    "default_params",
    "encrypt",
    "hash_elements",
    "honest_query",
    "invert",
    "kex_run",
    "keygen",
    "loopback_run",
    "make_ccs_instance",
    "multiply",
    "nf_conjugate",
    "nf_invert",
    "nf_multiply",
    "nike_keygen",
    "nike_shared_key",
    "normal_form",
    "probing_adversary",
    "random_element",
    "run_reduction",
    "sample_subgroup",
    "serialize_canonical",
    "sym_decrypt",
    "sym_encrypt",
    "trapdoor_check",
    "trapdoor_from_secrets",
    "trapdoor_setup",
    "trapdoor_stats",
    "twin_decrypt",
    "twin_encrypt",
    "twin_keygen",
]
