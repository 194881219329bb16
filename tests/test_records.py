"""The contract of the package's 14 value records: frozen, equal only to a
record of the same class with equal fields, hashed to match, built by
position only, and still checked by their __post_init__.
Importing the package, the key files and the CLI loads no code generator."""

import subprocess
import sys
from pathlib import Path

import pytest

from conftest import rng_from
from twincsp import (
    BraidWord,
    CanonicalForm,
    GroupParams,
    PermutationBraid,
    StrandMismatchError,
    default_params,
    normal_form,
    twin_keygen,
)
from twincsp.codec import SealedBox, SymKey
from twincsp.elgamal import SCHEME_TWIN, Ciphertext, KeyPair, PublicKey
from twincsp.kex import KexResult
from twincsp.reduction import CcsInstance, ReductionResult
from twincsp.trapdoor import DecisionQuery, Trapdoor

SRC = Path(__file__).resolve().parent.parent / "src"


def make_all():
    """One record of each type, built afresh on every call so that two calls
    give equal records that are distinct objects."""
    params = default_params()
    x = BraidWord(16, (1, -2, 3))
    X = normal_form(x)
    perm = X.factors[0].perm
    kp = twin_keygen(params, rng_from(1))
    box = SealedBox(b"body", bytes(32))
    q = DecisionQuery(X, X, X)
    td = Trapdoor(x, x, X, X, (X, X, X), (perm, perm, perm))
    return {
        BraidWord: x,
        PermutationBraid: PermutationBraid(perm),
        CanonicalForm: CanonicalForm(X.n, X.delta_exp, X.factors),
        GroupParams: params,
        SymKey: SymKey(bytes(range(32))),
        SealedBox: box,
        PublicKey: kp.public,
        KeyPair: kp,
        Ciphertext: Ciphertext(SCHEME_TWIN, X, box),
        Trapdoor: td,
        DecisionQuery: q,
        CcsInstance: CcsInstance(params, X, X, x, x),
        ReductionResult: ReductionResult(X, ((q, True),), td),
        KexResult: KexResult(SymKey(bytes(32)), b"sent", b"received"),
    }


TYPES = list(make_all())


def field_names(rec) -> list[str]:
    return list(vars(type(rec)).get("__annotations__", {}))


def test_fourteen_types():
    assert len(TYPES) == 14


@pytest.mark.parametrize("cls", TYPES, ids=lambda c: c.__name__)
class TestContract:
    def test_fields_cannot_be_assigned_or_deleted(self, cls):
        rec = make_all()[cls]
        for name in field_names(rec):
            value = getattr(rec, name)
            with pytest.raises(AttributeError):
                setattr(rec, name, value)
            with pytest.raises(AttributeError):
                delattr(rec, name)
            assert getattr(rec, name) is value

    def test_new_attributes_cannot_be_added(self, cls):
        with pytest.raises(AttributeError):
            make_all()[cls].extra = 1

    def test_equal_to_an_equal_record_and_to_nothing_else(self, cls):
        a, b = make_all()[cls], make_all()[cls]
        assert a is not b
        assert a == b and not a != b
        values = tuple(getattr(a, name) for name in field_names(a))
        assert a != values and values != a
        assert a != object()

    def test_equal_records_hash_equal(self, cls):
        a, b = make_all()[cls], make_all()[cls]
        assert hash(a) == hash(b)
        assert len({a, b}) == 1

    def test_positional_construction_round_trips(self, cls):
        rec = make_all()[cls]
        values = [getattr(rec, name) for name in field_names(rec)]
        assert cls(*values) == rec
        assert not set(field_names(rec)) & set(vars(cls))  # no class-level default

    def test_keywords_and_missing_fields_raise_type_error(self, cls):
        rec = make_all()[cls]
        values = {name: getattr(rec, name) for name in field_names(rec)}
        with pytest.raises(TypeError):
            cls(**values)
        with pytest.raises(TypeError):
            cls(*list(values.values())[:-1])

    def test_bad_arguments_raise_type_error(self, cls):
        rec = make_all()[cls]
        values = [getattr(rec, name) for name in field_names(rec)]
        with pytest.raises(TypeError):
            cls(*values, values[0])
        with pytest.raises(TypeError):
            cls(*values, no_such_field=1)
        with pytest.raises(TypeError):
            cls()

    def test_repr_names_the_class_and_fields(self, cls):
        rec = make_all()[cls]
        text = repr(rec)
        assert text.startswith(cls.__name__ + "(")
        for name in field_names(rec):
            assert f"{name}=" in text


def test_a_record_differs_from_its_field_tuple():
    assert CanonicalForm(16, 0, ()) != (16, 0, ())
    assert (16, 0, ()) != CanonicalForm(16, 0, ())


def test_records_of_different_classes_never_compare_equal():
    kp = twin_keygen(default_params(), rng_from(2))
    pk = kp.public
    assert pk != kp and kp != pk
    # Same field values, different classes.
    X = normal_form(BraidWord(16, (1,)))
    assert DecisionQuery(X, X, X) != CanonicalForm(X.n, X.delta_exp, X.factors)


def test_cached_forms_on_a_frozen_word():
    w = BraidWord(8, (1, 2, -3, 4))
    assert w.form is w.form
    assert w.form == normal_form(w)
    assert w.inverse_form == normal_form(BraidWord(8, (-4, 3, -2, -1)))
    # the kept forms are not fields: they change neither equality nor hash
    fresh = BraidWord(8, [1, 2, -3, 4])  # letters are stored as a tuple
    assert w == fresh and hash(w) == hash(fresh) and repr(w) == repr(fresh)


class TestPostInitChecksStillRaise:
    def test_symkey_length(self):
        for size in (0, 31, 33):
            with pytest.raises(ValueError, match="key must be exactly 32 bytes"):
                SymKey(bytes(size))

    def test_sealed_box_tag_length(self):
        with pytest.raises(ValueError, match="tag must be exactly 32 bytes"):
            SealedBox(b"body", bytes(31))
        with pytest.raises(ValueError, match="tag must be exactly 32 bytes"):
            SealedBox(b"", bytes(33))

    def test_group_params_field_limits(self):
        g = default_params().g
        with pytest.raises(ValueError, match="need l >= 2 and r >= 2"):
            GroupParams(1, 15, BraidWord(16, ()), 16)
        with pytest.raises(ValueError, match="W must be >= 1"):
            GroupParams(8, 8, g, 0)
        with pytest.raises(ValueError, match="fit the key file fields"):
            GroupParams(8, 8, g, 65536)
        with pytest.raises(ValueError, match="fit the key file fields"):
            GroupParams(16385, 16384, BraidWord(32769, ()), 16)
        with pytest.raises(StrandMismatchError, match="params say B_16"):
            GroupParams(8, 8, BraidWord(12, ()), 16)

    def test_braid_word_letter_range(self):
        for letters in ((4,), (0,), (-4,), (1, 2, 5)):
            with pytest.raises(ValueError, match="out of range for 4 strands"):
                BraidWord(4, letters)
        with pytest.raises(ValueError, match="need at least 2 strands"):
            BraidWord(1, ())


def test_import_loads_no_code_generator():
    """The records are built without generating source: a fresh interpreter
    that imports the package, the key files and the CLI loads neither
    dataclasses nor inspect."""
    script = (
        "import sys\n"
        f"sys.path.insert(0, {str(SRC)!r})\n"
        "before = set(sys.modules)\n"
        "import twincsp, twincsp.keyfiles, twincsp.cli\n"
        "print(' '.join(sorted(set(sys.modules) - before)))\n"
    )
    # -I -S: no environment, user or site-packages code runs before the script.
    # -B: -I ignores PYTHONDONTWRITEBYTECODE, so say it again; the run must
    # leave no bytecode cache in src/.
    proc = subprocess.run([sys.executable, "-I", "-S", "-B", "-c", script],
                          capture_output=True, text=True, timeout=60)
    assert proc.returncode == 0, proc.stderr
    loaded = set(proc.stdout.split())
    assert "twincsp.cli" in loaded
    assert not loaded & {"dataclasses", "inspect"}, sorted(loaded & {"dataclasses", "inspect"})
