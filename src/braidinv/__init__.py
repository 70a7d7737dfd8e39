"""Exact quantum invariants of braid closures.

The package computes two link invariants of closed braids in fully exact
arithmetic: the third colored Alexander polynomial (a one-variable Laurent
polynomial over the sixth-root-of-unity integers Z[w]) and the Links-Gould
invariant (a two-variable polynomial), together with verification sweeps that
check the specialization t0 = t**2, t1 = w**2 t**-2 of Links-Gould against the
colored Alexander value on large families of braid words.
"""

from .braid import BraidWord, parse_braid
from .invariant import (
    InvariantValue,
    ProportionalityError,
    compute_ado3,
    compute_lg,
    compute_lg_specialized,
)
from .ring import (
    CycScalar,
    LaurentPoly1,
    LaurentPoly2,
    parse_poly,
    specialize,
)

__all__ = [
    "BraidWord",
    "CycScalar",
    "InvariantValue",
    "LaurentPoly1",
    "LaurentPoly2",
    "ProportionalityError",
    "compute_ado3",
    "compute_lg",
    "compute_lg_specialized",
    "parse_braid",
    "parse_poly",
    "specialize",
]

__version__ = "0.1.0"
