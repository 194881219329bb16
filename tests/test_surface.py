"""The public package holds no test-only surface: every name in
``twincsp.__all__`` is used by the package itself, the tools or the
benchmark, not only by the tests; ``__all__`` is exactly the public names
``__init__`` imports; every public module-level function or class of
the package has such a caller or is one the benchmark traces by name; and
every private module-level name is read by the package itself, so no
helper stays in ``src/`` only for the tests."""

import ast
import importlib.util
from pathlib import Path
from types import ModuleType

import twincsp

ROOT = Path(__file__).resolve().parent.parent


def referenced_names() -> set[str]:
    """Every Name id and Attribute attr in src/, tools/ and perfbench/,
    test files excluded; import aliases are not Name nodes."""
    names = set()
    for top in ("src", "tools", "perfbench"):
        for path in (ROOT / top).rglob("*.py"):
            if path.name.startswith("test_"):
                continue
            for node in ast.walk(ast.parse(path.read_text(), str(path))):
                if isinstance(node, ast.Name):
                    names.add(node.id)
                elif isinstance(node, ast.Attribute):
                    names.add(node.attr)
    return names


def public_definitions() -> set[str]:
    """"module.name" for every module-level def or class in src/twincsp/
    whose name has no leading underscore."""
    defs = set()
    for path in (ROOT / "src" / "twincsp").glob("*.py"):
        for node in ast.parse(path.read_text(), str(path)).body:
            if (isinstance(node, (ast.FunctionDef, ast.ClassDef))
                    and not node.name.startswith("_")):
                defs.add(f"{path.stem}.{node.name}")
    return defs


def private_definitions() -> dict[str, str]:
    """"module.name" -> name for every module-level def, class or assigned
    name in src/twincsp/ with one leading underscore (dunders excluded)."""
    defs = {}
    for path in (ROOT / "src" / "twincsp").glob("*.py"):
        for node in ast.parse(path.read_text(), str(path)).body:
            if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
                names = [node.name]
            elif isinstance(node, ast.Assign):
                names = [t.id for t in node.targets if isinstance(t, ast.Name)]
            elif isinstance(node, ast.AnnAssign) and isinstance(node.target, ast.Name):
                names = [node.target.id]
            else:
                names = []
            defs.update((f"{path.stem}.{name}", name) for name in names
                        if name.startswith("_") and not name.startswith("__"))
    return defs


def names_read_in_src() -> set[str]:
    """Every name src/ reads: Name ids in load context, Attribute attrs and
    imported names; a def, class or assignment does not read its name."""
    names = set()
    for path in (ROOT / "src").rglob("*.py"):
        for node in ast.walk(ast.parse(path.read_text(), str(path))):
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                names.add(node.id)
            elif isinstance(node, ast.Attribute):
                names.add(node.attr)
            elif isinstance(node, ast.alias):
                names.add(node.name)
    return names


def traced_names() -> set[str]:
    """"module.name" for every function perfbench/tracing.py wraps by name,
    read from its TRACED table (the file is loaded by its path)."""
    spec = importlib.util.spec_from_file_location(
        "perfbench_tracing", ROOT / "perfbench" / "tracing.py")
    tracing = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracing)
    return {f"{module}.{qual}" for module, qual, _layer, _kind in tracing.TRACED}


def test_every_public_name_has_a_caller_outside_the_tests():
    used = referenced_names()
    unused = {name for name in twincsp.__all__ if name not in used}
    assert unused == set()


def test_all_is_every_public_name_the_package_imports():
    """A name imported into __init__ is public, so the test above checks
    it; a submodule is not part of the surface."""
    public = sorted(name for name, value in vars(twincsp).items()
                    if not name.startswith("_") and not isinstance(value, ModuleType))
    assert twincsp.__all__ == public


def test_every_public_definition_has_a_caller_or_is_traced():
    """Only the benchmark's tracer keeps these two definitions in the
    package (ROADMAP item 6 (b))."""
    used = referenced_names()
    uncalled = {d for d in public_definitions() if d.split(".")[1] not in used}
    assert uncalled == {"codec.deserialize_canonical", "permutations.transposition"}
    assert uncalled <= traced_names()


def test_every_private_definition_is_read_in_src():
    """A private helper that only the tests call (say, a strand-image
    builder kept after the package stopped using it) fails here."""
    read = names_read_in_src()
    unread = {d for d, name in private_definitions().items() if name not in read}
    assert unread == set()
