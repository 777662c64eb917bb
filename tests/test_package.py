"""The package root exports exactly what the README's Library example
imports, plus REFERENCE_CASES, so the surface cannot grow back unnoticed."""

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


def test_modules_resolve_as_attributes():
    from negabench import cli  # noqa: F401  (not imported by the package root)
    for module in ("core", "spectra", "subspaces", "constructions", "oracle", "cli"):
        assert getattr(negabench, module).__name__ == f"negabench.{module}"
