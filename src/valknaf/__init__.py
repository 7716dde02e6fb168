"""Exact ramification invariants of valuation extensions.

Modules by theme:

- `ordgroup`: finitely generated subgroups of Q^r under the lex order.
- `raminv`: ramification invariants (e, f, eps, d) and the criterion
  deciding when a valuation extension is of essentially finite type.
- `localsplit`: extensions of a rank-1 discrete valuation along a monic
  squarefree polynomial, via Newton polygons, residual polynomials and
  the MacLane towers of `inductive`.
- `monoval`: rank-2 monomial valuations on k(x, y) and their binomial
  extensions.
- `gf`, `poly`, `funcfield`, `residuefield`, `numtheory`: the exact
  arithmetic beneath: GF(p^n), polynomials, k(t), residue fields, integers.
- `cli` / `problemfile` / `fixtures`: the command-line front end, the
  problem-file format and its meaning, and the named example catalog.
"""

from .fixtures import FIXTURES, Fixture, fixture
from .localsplit import (BaseValuation, LocalFactor, NewtonPolygonSegment,
                         UnresolvedBranchError, newton_polygon,
                         residual_polynomial, split_extensions,
                         to_extension_invariants)
from .monoval import (BinomialExtensionSpec, MonomialValuation,
                      ResidualDegreeError, extend_binomial, mono_value)
from .ordgroup import (LexGroup, RationalVector, initial_index, initial_set,
                       lex_compare, subgroup_index)
from .problemfile import (ProblemFile, ProblemFileError, parse_problem,
                          serialize)
from .raminv import (ExtensionInvariants, KnafVerdict, defect,
                     frobenius_defect, knaf_decide, ramification_index,
                     validate)

__all__ = [
    "LexGroup", "RationalVector", "initial_index", "initial_set",
    "lex_compare", "subgroup_index",
    "ExtensionInvariants", "KnafVerdict", "defect", "frobenius_defect",
    "knaf_decide", "ramification_index", "validate",
    "BaseValuation", "LocalFactor", "NewtonPolygonSegment",
    "UnresolvedBranchError", "newton_polygon", "residual_polynomial",
    "split_extensions", "to_extension_invariants",
    "BinomialExtensionSpec", "MonomialValuation", "ResidualDegreeError",
    "extend_binomial", "mono_value",
    "ProblemFile", "ProblemFileError", "parse_problem", "serialize",
    "FIXTURES", "Fixture", "fixture",
]
