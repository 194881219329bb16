"""Twin conjugacy-search toolkit over braid groups.

Braid arithmetic with Garside left-greedy normal forms, hashed encryption
from the conjugacy search problem (single and twin), the trapdoor test
for twin decision queries, an executable simulation of the reduction from
the single problem to the oracle-assisted twin problem, and two key
exchange protocols with a framed wire format.
"""

from types import ModuleType as _ModuleType

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

# The imports above are the public surface: every public name they bind,
# submodules excepted (tests/test_surface.py checks each has a caller).
__all__ = sorted(name for name, value in globals().items()
                 if not name.startswith("_") and not isinstance(value, _ModuleType))
