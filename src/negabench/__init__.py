"""Workbench for bent-negabent Boolean function constructions.

Builds the four modifier-set constructions and the 2-rotation-symmetric
family, computes exact Walsh and nega spectra over the integers, and
machine-verifies every closed form the constructions come with: ANFs,
duals, degree parity conditions and the fragment spectrum formulas.

The package root exports the names of the README's Library example plus
`REFERENCE_CASES`; everything else is imported from its module
(`negabench.core`, `.spectra`, `.subspaces`, `.constructions`, `.oracle`,
`.reference`, `.cli`).
"""

from .core import BitVector
from .spectra import classify, nega_transform, walsh_transform
from .subspaces import GammaSpec
from .constructions import RotationSpec, construct
from .oracle import verify_construction
from .reference import REFERENCE_CASES

__version__ = "0.1.0"

__all__ = [
    "BitVector",
    "GammaSpec",
    "REFERENCE_CASES",
    "RotationSpec",
    "classify",
    "construct",
    "nega_transform",
    "verify_construction",
    "walsh_transform",
]
