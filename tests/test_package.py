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


def _names_used(node, outside, params=frozenset()):
    """Names read as a Name or an Attribute under node, outside the bodies of
    functions named `outside`.  A Name that is a parameter of a function it
    appears in reads that parameter, so it is not counted."""
    inner, body = params, ()
    if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)):
        if getattr(node, "name", None) == outside:
            return
        a = node.args
        inner = params | {p.arg for p in (*a.posonlyargs, *a.args, *a.kwonlyargs,
                                           a.vararg, a.kwarg) if p}
        body = node.body if isinstance(node.body, list) else [node.body]
    if isinstance(node, ast.Name) and node.id not in params:
        yield node.id
    elif isinstance(node, ast.Attribute):
        yield node.attr
    for child in ast.iter_child_nodes(node):
        # defaults, annotations and decorators are read outside the parameters' scope
        yield from _names_used(child, outside, inner if any(child is b for b in body) else params)


def test_every_public_function_has_a_caller_in_the_package():
    trees = [ast.parse(p.read_text()) for p in sorted(Path(negabench.__file__).parent.glob("*.py"))]
    public = {node.name for tree in trees for node in ast.walk(tree)
              if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef))
              and not node.name.startswith("_")}
    assert len(public) > 50
    uncalled = {name for name in public
                if not any(name in _names_used(tree, name) for tree in trees)}
    assert uncalled <= TRACED_ONLY, sorted(uncalled - TRACED_ONLY)
