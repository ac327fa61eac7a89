"""Exact verification engine for Poisson brackets of deformed W-algebra series."""

from .exactfield import LaurentPoly, RationalFunction, sym_minus, sym_plus
from .rflinalg import FieldMatrix
from .genexpr import SeriesExpr, YMonomial, build_t1, build_t2, build_t5_e6
from .algebras import AlgebraPreset, ClosureSpec, VerificationOutcome, build_preset, verify_cartan
from .poisson import (BracketReport, DeltaDecomposition, NonUniformBaseError,
                      NotDecomposableError, bracket_sum, decompose, extract_t2_e6,
                      symbol, verify_all, verify_closure)

__all__ = [
    "LaurentPoly", "RationalFunction", "sym_minus", "sym_plus",
    "FieldMatrix",
    "SeriesExpr", "YMonomial", "build_t1", "build_t2", "build_t5_e6",
    "AlgebraPreset", "ClosureSpec", "VerificationOutcome", "build_preset", "verify_cartan",
    "BracketReport", "DeltaDecomposition", "NonUniformBaseError",
    "NotDecomposableError", "bracket_sum", "decompose", "extract_t2_e6",
    "symbol", "verify_all", "verify_closure",
]
