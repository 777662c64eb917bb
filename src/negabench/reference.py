"""Reference constructions with independently recorded ANFs.

Three canonical parameter sets, one per construction style, whose full ANFs
were recorded from an independent computer-algebra evaluation.  They serve as
end-to-end regression fixtures: the workbench must reproduce each polynomial
exactly (as a set of monomials, order-insensitively).

Variable naming in the recorded polynomials: x_i / y_i follow the package
layouts, so x_i -> var i and y_i -> var (block offset + i).
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from typing import Optional

from .constructions import ConstructionSpec, RotationSpec
from .core import BitVector
from .subspaces import GammaSpec

_TERM_RE = re.compile(r"([xy])(\d+)")


def _parse_terms(text: str, y_offset: int) -> frozenset[int]:
    masks = set()
    for term in text.replace("\n", " ").split("+"):
        term = term.strip()
        if not term:
            continue
        mask = 0
        for var, idx in _TERM_RE.findall(term):
            j = int(idx) + (y_offset if var == "y" else 0)
            mask |= 1 << j
        if mask in masks:
            raise ValueError(f"duplicate recorded term {term!r}")
        masks.add(mask)
    return frozenset(masks)


@dataclass(frozen=True)
class ReferenceCase:
    name: str
    family: str
    spec: ConstructionSpec
    expected_terms: frozenset[int]
    delta_over_base: bool  # expected_terms cover only the part added to the base
    expected_degree: int
    expected_rotation_order: Optional[int] = None


_CASE1_ANF = """
x0x1y0y1 + x0x1y0y3 + x0x1y1y2 + x0x1y1 + x0x1y2y3 + x0x1y3 + x0x3y0y1 +
x0x3y0y3 + x0x3y1y2 + x0x3y1 + x0x3y2y3 + x0x3y3 + x0y0y1 + x0y0y3 + x0y0 +
x0y1y2 + x0y1 + x0y2y3 + x0y3 + x1x2y0y1 + x1x2y0y3 + x1x2y1y2 + x1x2y1 +
x1x2y2y3 + x1x2y3 + x1y0y1 + x1y0y3 + x1y1y2 + x1y2y3 + x1y3 + x2x3y0y1 +
x2x3y0y3 + x2x3y1y2 + x2x3y1 + x2x3y2y3 + x2x3y3 + x2y0y1 + x2y0y3 + x2y1y2 +
x2y1 + x2y2y3 + x2y2 + x2y3 + x3y0y1 + x3y0y3 + x3y1y2 + x3y1 + x3y2y3 +
y0y1 + y0y2 + y0y3 + y1y2 + y1y3 + y1 + y2y3 + y3
"""

_CASE2_ANF = """
x0x1y0y1y4 + x0x1y0y1 + x0x1y0y3y4 + x0x1y0y3 + x0x1y0y4 + x0x1y1y2y4 +
x0x1y1y2 + x0x1y1y4 + x0x1y1 + x0x1y2y3y4 + x0x1y2y3 + x0x1y2y4 + x0x1y3y4 +
x0x1y3 + x0x1y4 + x0x3y0y1y4 + x0x3y0y1 + x0x3y0y3y4 + x0x3y0y3 + x0x3y0y4 +
x0x3y1y2y4 + x0x3y1y2 + x0x3y1y4 + x0x3y1 + x0x3y2y3y4 + x0x3y2y3 +
x0x3y2y4 + x0x3y3y4 + x0x3y3 + x0x3y4 + x0y0y1y4 + x0y0y3y4 + x0y0y4 +
x0y0 + x0y1y2y4 + x0y1y4 + x0y2y3y4 + x0y2y4 + x0y3y4 + x1x2y0y1y4 +
x1x2y0y1 + x1x2y0y3y4 + x1x2y0y3 + x1x2y0y4 + x1x2y1y2y4 + x1x2y1y2 +
x1x2y1y4 + x1x2y1 + x1x2y2y3y4 + x1x2y2y3 + x1x2y2y4 + x1x2y3y4 + x1x2y3 +
x1x2y4 + x1y0y1 + x1y0y3 + x1y1y2 + x1y2y3 + x1y3 + x2x3y0y1y4 + x2x3y0y1 +
x2x3y0y3y4 + x2x3y0y3 + x2x3y0y4 + x2x3y1y2y4 + x2x3y1y2 + x2x3y1y4 +
x2x3y1 + x2x3y2y3y4 + x2x3y2y3 + x2x3y2y4 + x2x3y3y4 + x2x3y3 + x2x3y4 +
x2y0y1y4 + x2y0y3y4 + x2y0y4 + x2y1y2y4 + x2y1y4 + x2y2y3y4 + x2y2y4 +
x2y2 + x2y3y4 + x2y4 + x3y0y1 + x3y0y3 + x3y1y2 + x3y1 + x3y2y3 + x4y4 +
y0y2 + y1y3
"""

_CASE3_DELTA = """
x0x1x2x3 + x0x1x2y3 + x0x1x3y2 + x0x2x3y1 + x1x2x3y0 + x0x1y2y3 + x0x2y1y3 +
x0x3y1y2 + x1x2y0y3 + x1x3y0y2 + x2x3y0y1 + x0y1y2y3 + x1y0y2y3 + x2y0y1y3 +
x3y0y1y2 + y0y1y2y3
"""

REFERENCE_CASES: tuple[ReferenceCase, ...] = (
    ReferenceCase(
        name="g4k-8var-max-degree",
        family="G4K",
        spec=GammaSpec(2, "S1", (BitVector.from_string("0001"),)),
        expected_terms=_parse_terms(_CASE1_ANF, y_offset=4),
        delta_over_base=False,
        expected_degree=4,
    ),
    ReferenceCase(
        name="h4k2-10var-max-degree",
        family="H4K2",
        spec=GammaSpec(
            2, "S3",
            (BitVector.from_string("1000"), BitVector.from_string("0101")),
            ("1", "B"),
        ),
        expected_terms=_parse_terms(_CASE2_ANF, y_offset=5),
        delta_over_base=False,
        expected_degree=5,
    ),
    ReferenceCase(
        name="f2rs-8var-single-orbit",
        family="F2RS_ORBIT",
        spec=RotationSpec(2, (BitVector.from_string("1111"),)),
        expected_terms=_parse_terms(_CASE3_DELTA, y_offset=4),
        delta_over_base=True,
        expected_degree=4,
        expected_rotation_order=2,
    ),
)
