"""The package root exports exactly what the README's Library example
imports, plus REFERENCE_CASES, and every public function or method has a
caller inside the package (a parameter of the same name is no caller), so
the surface cannot grow back unnoticed."""

import ast
import importlib
import re
from pathlib import Path

import negabench

README = Path(__file__).resolve().parents[1] / "README.md"


def _library_imports():
    text = README.read_text()
    section = text[text.index("## Library"):]
    names = re.search(r"from negabench import \((.*?)\)", section, re.S).group(1)
    return {n.strip() for n in names.split(",") if n.strip()}


def test_all_is_the_documented_surface():
    want = _library_imports() | {"REFERENCE_CASES"}
    assert len(want) > 1
    assert set(negabench.__all__) == want
    assert len(negabench.__all__) == len(want)
    for name in negabench.__all__:
        assert getattr(negabench, name) is not None


def test_bench_span_targets_resolve():
    # bench/spans.py wraps each (module, path) by name; read without importing it
    spans = README.parent / "bench" / "spans.py"
    tree = ast.parse(spans.read_text())
    targets = next(node.value for node in tree.body if isinstance(node, ast.AnnAssign)
                   and node.target.id == "TARGETS")
    pairs = ast.literal_eval(targets)
    assert len(pairs) > 30
    for module, path in pairs:
        obj = importlib.import_module(f"negabench.{module}")
        for attr in path.split("."):
            assert hasattr(obj, attr), f"{module}.{path}"
            obj = getattr(obj, attr)
        assert callable(obj), f"{module}.{path}"


def test_modules_resolve_as_attributes():
    from negabench import cli  # noqa: F401  (not imported by the package root)
    for module in ("core", "spectra", "subspaces", "constructions", "oracle", "cli"):
        assert getattr(negabench, module).__name__ == f"negabench.{module}"


# bench/spans.py traces these by name, so they stay until its spans move
TRACED_ONLY = {"fragmentary_walsh", "fragmentary_nega"}


def _uses(node, enclosing=frozenset(), params=frozenset()):
    """(name, names of the functions around it) for each name read as a Name
    or an Attribute under node, in one walk.  A Name that is a parameter of a
    function it appears in reads that parameter, so it is not yielded."""
    inner, body = params, ()
    if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)):
        # the whole def is inside the function: its decorators and defaults too
        enclosing = enclosing | {getattr(node, "name", None)}
        a = node.args
        inner = params | {p.arg for p in (*a.posonlyargs, *a.args, *a.kwonlyargs,
                                           a.vararg, a.kwarg) if p}
        body = node.body if isinstance(node.body, list) else [node.body]
    if isinstance(node, ast.Name) and node.id not in params:
        yield node.id, enclosing
    elif isinstance(node, ast.Attribute):
        yield node.attr, enclosing
    for child in ast.iter_child_nodes(node):
        # defaults, annotations and decorators are read outside the parameters' scope
        yield from _uses(child, enclosing, inner if any(child is b for b in body) else params)


def test_every_public_function_has_a_caller_in_the_package():
    trees = [ast.parse(p.read_text()) for p in sorted(Path(negabench.__file__).parent.glob("*.py"))]
    public = {node.name for tree in trees for node in ast.walk(tree)
              if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef))
              and not node.name.startswith("_")}
    assert len(public) > 50
    # a use inside a function of the same name (itself, or a namesake) is no caller
    called = {name for tree in trees for name, enclosing in _uses(tree) if name not in enclosing}
    uncalled = public - called
    assert uncalled <= TRACED_ONLY, sorted(uncalled - TRACED_ONLY)
