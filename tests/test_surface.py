"""The public package holds no test-only surface: every name in
``twincsp.__all__`` is used by the package itself, the tools or the
benchmark, not only by the tests."""

import ast
from pathlib import Path

import twincsp

ROOT = Path(__file__).resolve().parent.parent

# The single scheme's encrypt/decrypt pair: nothing outside the tests calls
# them, and tests/test_elgamal.py pins that they refuse a two-secret key.
TEST_ONLY = {"cs_encrypt", "cs_decrypt"}


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


def test_every_public_name_has_a_caller_outside_the_tests():
    used = referenced_names()
    unused = {name for name in twincsp.__all__ if name not in used}
    assert unused == TEST_ONLY
