"""Constructive monomialization of discrete rank-m valuations.

A valuation of k((X_1, ..., X_n)) centered in k[[X]] is presented by
the generalized-power-series images of the variables (`HahnStream`);
`monomialize` produces a transform log, residue generators, and final
coordinates in which the valuation is monomial, and `verify_monomial`
spot-checks the result on random polynomials.  The `monoval` console
script exposes the same pipeline for textual spec files.
"""

from .coeff import CoeffError, GroundField, ParseError, Tower, TowerElem
from .engine import (
    CoordChange,
    MonomializationResult,
    Monoidal,
    ValuationSpec,
    VerifyReport,
    monomialize,
    verify_monomial,
)
from .errors import (InconclusiveError, InternalError, PurityError,
                     StructureError)
from .hahn import (
    APFamily,
    Budget,
    FiniteTerms,
    HahnStream,
    add,
    first_terms,
    inverse,
    monomial_image,
    mul,
    nu_t,
    scale,
    sub,
    term_mul,
)
from .lexgroup import INFINITY, SubgroupBasis, echelon_reduce

__version__ = "0.1.0"

__all__ = [
    "APFamily",
    "Budget",
    "CoeffError",
    "CoordChange",
    "FiniteTerms",
    "GroundField",
    "HahnStream",
    "INFINITY",
    "InconclusiveError",
    "InternalError",
    "MonomializationResult",
    "Monoidal",
    "ParseError",
    "PurityError",
    "StructureError",
    "SubgroupBasis",
    "Tower",
    "TowerElem",
    "ValuationSpec",
    "VerifyReport",
    "add",
    "echelon_reduce",
    "first_terms",
    "inverse",
    "monomial_image",
    "monomialize",
    "mul",
    "nu_t",
    "scale",
    "sub",
    "term_mul",
    "verify_monomial",
]
