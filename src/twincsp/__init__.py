"""Twin conjugacy-search toolkit over braid groups.

Braid arithmetic with Garside left-greedy normal forms, hashed encryption
from the conjugacy search problem (single and twin), the trapdoor test
for twin decision queries, an executable simulation of the reduction from
the single problem to the oracle-assisted twin problem, and two key
exchange protocols with a framed wire format.

``import twincsp`` loads the encryption core (braid, codec, elgamal,
sampling).  The key exchange, the trapdoor test and the reduction load on
first use, as ``twincsp.kex`` or as one of their names listed in ``_LAZY``.
"""

from importlib import import_module as _import_module
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
from .sampling import SeededRng, SubgroupSide, sample_subgroup

# The public names of the submodules loaded on first use, by submodule.
_LAZY = {
    "kex": ("KeyConfirmError", "ProtocolError", "Role", "kex_run", "loopback_run",
            "nike_keygen", "nike_shared_key"),
    "reduction": ("CcsInstance", "ReductionResult", "make_ccs_instance", "probing_adversary",
                  "run_reduction"),
    "trapdoor": ("DecisionQuery", "Trapdoor", "honest_query", "random_element",
                 "trapdoor_check", "trapdoor_from_secrets", "trapdoor_setup", "trapdoor_stats"),
}
_LAZY_OWNER = {name: module for module, names in _LAZY.items() for name in names}


def __getattr__(name: str):
    """Import a lazy submodule, or one of its public names, on first use
    (PEP 562); the import system then binds the submodule here."""
    if name in _LAZY:
        return _import_module(f".{name}", __name__)
    if name in _LAZY_OWNER:
        return getattr(_import_module(f".{_LAZY_OWNER[name]}", __name__), name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


# The public surface: every public name the imports above bind, submodules
# excepted, and the lazy names (tests/test_surface.py checks each has a caller).
__all__ = sorted([*(name for name, value in globals().items()
                    if not name.startswith("_") and not isinstance(value, _ModuleType)),
                  *_LAZY_OWNER])
