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

Names load their module on first use (PEP 562): `import valknaf` compiles
no engine, and `valknaf.knaf_decide` imports `raminv` and what it needs,
nothing more.  The package keeps no copy of a public name; each lookup
reads the current attribute of the defining module, and each module above
resolves as `valknaf.<module>`.
"""

from importlib import import_module

# public name -> the submodule that defines it
_OWNERS = {name: module for module, names in (
    ("ordgroup", ("LexGroup", "RationalVector", "initial_index",
                  "initial_set", "subgroup_index")),
    ("raminv", ("ExtensionInvariants", "KnafVerdict", "defect",
                "frobenius_defect", "knaf_decide", "ramification_index",
                "validate")),
    ("localsplit", ("BaseValuation", "LocalFactor", "UnresolvedBranchError",
                    "split_extensions", "to_extension_invariants")),
    ("monoval", ("BinomialExtensionSpec", "MonomialValuation",
                 "ResidualDegreeError", "extend_binomial")),
    ("problemfile", ("ProblemFile", "ProblemFileError", "parse_problem",
                     "serialize")),
    ("fixtures", ("FIXTURES", "Fixture", "fixture")),
) for name in names}

_MODULES = frozenset((
    "cli", "fixtures", "funcfield", "gf", "inductive", "localsplit",
    "monoval", "numtheory", "ordgroup", "poly", "problemfile", "raminv",
    "residuefield"))

__all__ = list(_OWNERS)


def __getattr__(name):
    # nothing is cached in globals(): a wrapper set on the defining module
    # (perfbench/tracer.py patches through vars(module)) must show here
    # while it is installed and leave no copy behind once it is removed
    if name in _OWNERS:
        return getattr(import_module(f"{__name__}.{_OWNERS[name]}"), name)
    if name in _MODULES:
        return import_module(f"{__name__}.{name}")
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


def __dir__():
    return list(__all__)
