"""The public package holds no test-only surface: every name in
``twincsp.__all__`` is used by the package itself, the tools or the
benchmark, not only by the tests; ``__all__`` is exactly the public names
``__init__`` imports or loads on first use, and ``import twincsp`` loads
only the encryption core; every public module-level function or class of
the package has such a caller or is one the benchmark traces by name;
every private module-level name is read by the package itself, so no
helper stays in ``src/`` only for the tests; and every default-valued
parameter of a public function or method is passed by such a caller, so
no option stays only for the tests, and left out by one, so no default
goes unused."""

import ast
import importlib.util
import subprocess
import sys
from pathlib import Path
from types import ModuleType

import twincsp

ROOT = Path(__file__).resolve().parent.parent


def nodes_outside_the_tests():
    """Every AST node of src/, tools/ and perfbench/, test files excluded."""
    for top in ("src", "tools", "perfbench"):
        for path in (ROOT / top).rglob("*.py"):
            if not path.name.startswith("test_"):
                yield from ast.walk(ast.parse(path.read_text(), str(path)))


def referenced_names() -> set[str]:
    """Every Name id and Attribute attr in src/, tools/ and perfbench/,
    test files excluded; import aliases are not Name nodes."""
    names = set()
    for node in nodes_outside_the_tests():
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


def default_parameters() -> dict[str, tuple[str, int | None, str]]:
    """"module.function(param)" -> (callee, position, param) for every
    parameter with a default of a public module-level function, or of a
    public method or __init__ of a public class, in src/twincsp/.  A call
    names a method by its own name and __init__ by its class; position
    counts the arguments a call passes (a method's first parameter is
    bound) and is None for a keyword-only parameter."""
    params = {}
    for path in (ROOT / "src" / "twincsp").glob("*.py"):
        for node in ast.parse(path.read_text(), str(path)).body:
            if isinstance(node, ast.FunctionDef) and not node.name.startswith("_"):
                funcs = [(node.name, node.name, node, 0)]
            elif isinstance(node, ast.ClassDef) and not node.name.startswith("_"):
                funcs = [(f"{node.name}.{f.name}", node.name if f.name == "__init__" else f.name,
                          f, 1)
                         for f in node.body if isinstance(f, ast.FunctionDef)
                         and (f.name == "__init__" or not f.name.startswith("_"))]
            else:
                funcs = []
            for qual, callee, func, bound in funcs:
                args = func.args
                names = [arg.arg for arg in args.posonlyargs + args.args]
                for i in range(len(names) - len(args.defaults), len(names)):
                    params[f"{path.stem}.{qual}({names[i]})"] = (callee, i - bound, names[i])
                for arg, default in zip(args.kwonlyargs, args.kw_defaults):
                    if default is not None:
                        params[f"{path.stem}.{qual}({arg.arg})"] = (callee, None, arg.arg)
    return params


def calls_by_callee() -> dict[str, list[tuple[int, set[str]]]]:
    """Callee -> (positional arguments, keywords) of each call in src/,
    tools/ and perfbench/, test files excluded; the callee is a called
    Name's id or Attribute's attr."""
    calls = {}
    for node in nodes_outside_the_tests():
        if isinstance(node, ast.Call):
            callee = getattr(node.func, "id", None) or getattr(node.func, "attr", None)
            calls.setdefault(callee, []).append(
                (len(node.args), {kw.arg for kw in node.keywords}))
    return calls


def passes(call: tuple[int, set[str]], position: int | None, name: str) -> bool:
    """Whether a call passes the parameter, by position or by keyword."""
    n_args, keywords = call
    return name in keywords or (position is not None and n_args > position)


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
    """A name imported into __init__ or listed in its table of lazy
    submodules is public, so the test above checks it; a submodule is not
    part of the surface."""
    eager = [name for name, value in vars(twincsp).items()
             if not name.startswith("_") and not isinstance(value, ModuleType)]
    lazy = [name for names in twincsp._LAZY.values() for name in names]
    assert twincsp.__all__ == sorted(eager + lazy)


def test_every_public_name_resolves_to_its_definition():
    """getattr gives, for every name in __all__, the object its defining
    module binds; a lazy name comes from the submodule its table names."""
    for name in twincsp.__all__:
        value = getattr(twincsp, name)
        assert getattr(sys.modules[value.__module__], name) is value, name
        if name in twincsp._LAZY_OWNER:
            assert value.__module__ == f"twincsp.{twincsp._LAZY_OWNER[name]}", name


def fresh_interpreter(script: str) -> str:
    """Run script in a new interpreter that imports the package from src/
    without a bytecode cache; returns its stdout."""
    # -I -S: no environment, user or site-packages code runs before the
    # script; -B says PYTHONDONTWRITEBYTECODE again, which -I ignores.
    proc = subprocess.run(
        [sys.executable, "-I", "-S", "-B", "-c",
         f"import sys\nsys.path.insert(0, {str(ROOT / 'src')!r})\n" + script],
        capture_output=True, text=True, timeout=60)
    assert proc.returncode == 0, proc.stderr
    return proc.stdout


LAZY_MODULES = ("twincsp.kex", "twincsp.trapdoor", "twincsp.reduction")


def test_package_and_cli_imports_load_no_application():
    """import twincsp and import twincsp.cli load the encryption core only:
    not the key exchange, the trapdoor test, the reduction or socket.  The
    key exchange's failure types live in codec, so reading them loads
    nothing more."""
    out = fresh_interpreter(
        f"lazy = {LAZY_MODULES + ('socket',)!r}\n"
        "import twincsp\n"
        "print(*[m for m in lazy if m in sys.modules])\n"
        "import twincsp.cli\n"
        "print(*[m for m in lazy if m in sys.modules])\n"
        "twincsp.ProtocolError, twincsp.KeyConfirmError\n"
        "print(*[m for m in lazy if m in sys.modules])\n")
    assert out.splitlines() == ["", "", ""]


def test_star_import_binds_every_public_name():
    """from twincsp import * binds every name in __all__, and it is what
    loads the lazy submodules."""
    out = fresh_interpreter(
        f"lazy = {LAZY_MODULES!r}\n"
        "import twincsp\n"
        "before = [m for m in lazy if m in sys.modules]\n"
        "from twincsp import *\n"
        "print(len(before), sum(m in sys.modules for m in lazy),\n"
        "      *[name for name in twincsp.__all__ if name not in globals()])\n")
    assert out.split() == ["0", "3"]


def test_every_public_definition_has_a_caller_or_is_traced():
    """Only the benchmark's tracer keeps these three definitions in the
    package (ROADMAP item 6 (b)); the canonical decoder reads descents in
    one pass over positions, without permutations.descents."""
    used = referenced_names()
    uncalled = {d for d in public_definitions() if d.split(".")[1] not in used}
    assert uncalled == {"codec.deserialize_canonical", "permutations.descents",
                        "permutations.transposition"}
    assert uncalled <= traced_names()


def test_no_module_keeps_state_with_cached_property():
    """Lazy state is kept one way (braid.py's paragraph on kept state): a
    class-level None slot written once with _set.  No module imports,
    names or applies functools.cached_property."""
    assert "cached_property" not in names_read_in_src()


def test_every_default_parameter_is_passed_outside_the_tests():
    """A parameter with a default that only the tests pass is a knob kept
    for them; a call in the package, the tools or the benchmark that passes
    it by position or by keyword keeps it.  dispatch's argv is the seam the
    tests drive the CLI through; main calls dispatch() with none."""
    calls = calls_by_callee()
    unpassed = {label for label, (callee, position, name) in default_parameters().items()
                if not any(passes(call, position, name) for call in calls.get(callee, []))}
    assert unpassed == {"cli.dispatch(argv)"}


def test_every_default_parameter_is_left_out_outside_the_tests():
    """A default that every call in the package, the tools and the
    benchmark overrides is a value no caller uses; the parameter should be
    required.  main's dispatch() leaves argv out."""
    calls = calls_by_callee()
    always_passed = {label for label, (callee, position, name) in default_parameters().items()
                     if all(passes(call, position, name) for call in calls.get(callee, []))}
    assert always_passed == set()


def test_every_private_definition_is_read_in_src():
    """A private helper that only the tests call (say, a strand-image
    builder kept after the package stopped using it) fails here."""
    read = names_read_in_src()
    unread = {d for d, name in private_definitions().items() if name not in read}
    assert unread == set()
