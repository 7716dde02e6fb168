"""Command-line front end for the extension engines.

Subcommands: `group` (indices of one lex group over another), `decide`
(Knaf verdict on declared invariants or a named fixture), `split` (rank-1
engine on a problem file), `binomial` (rank-2 monomial engine) and
`fixtures` (the named catalog).  Problems are read from `--file` (`-` for
stdin) in the line-oriented format of `problemfile`.  Exit codes: 0 success,
1 usage or problem-file syntax error or an exceeded resource bound
(`monoval.MAX_RESIDUAL_DEGREE`, `monoval.MAX_FIELD_ORDER`), 2
inconsistent data (validation or engine rejection, "inconsistent: ...") or
input outside the supported scope ("unsupported: ..."), 3 branch unresolved
within the recursion depth.
"""

from __future__ import annotations

import argparse
import re
import sys
from dataclasses import dataclass
from fractions import Fraction
from typing import Optional

from .fixtures import FIXTURES, fixture
from .gf import GF
from .localsplit import (BaseValuation, UnresolvedBranchError,
                         split_extensions, to_extension_invariants)
from .monoval import (MAX_FIELD_ORDER, BinomialExtensionSpec,
                      MonomialValuation, ResidualDegreeError, extend_binomial)
from .numtheory import isprime, perfect_power
from .ordgroup import LexGroup, RationalVector, initial_index, subgroup_index
from .poly import Poly, QQ
from .problemfile import (ProblemFile, ProblemFileError, parse_int,
                          parse_problem)
from .raminv import ExtensionInvariants, knaf_decide


@dataclass(frozen=True)
class ReportRow:
    """One output row; group-mode rows leave the undecidable columns None."""

    label: str
    e: int
    eps: int
    initial: bool
    f: Optional[int] = None
    d: Optional[int] = None
    defectless: Optional[bool] = None
    eft: Optional[bool] = None
    certificate: str = ""


_ROW_FIELDS = ("label", "e", "f", "eps", "d", "defectless", "initial", "eft",
               "certificate")
_GROUP_FIELDS = ("label", "e", "eps", "initial")


# -- problem interpretation ------------------------------------------------------

_GF_RE = re.compile(r"GF\((\d+)\)")


def _prime_power(q: int):
    p, n = perfect_power(q)
    if not isprime(p):
        raise ProblemFileError(f"{q} is not a prime power")
    return p, n


def _constant_field(token: str):
    if token == "Q":
        return QQ
    m = _GF_RE.fullmatch(token)
    if m:
        q = parse_int(m.group(1))
        if q >= MAX_FIELD_ORDER:
            raise ProblemFileError(
                f"GF(q) with q of {q.bit_length()} bits is beyond the field "
                f"order bound 2^{MAX_FIELD_ORDER.bit_length() - 1}")
        return GF(*_prime_power(q))
    raise ProblemFileError(
        f"unknown field {token!r} (expected Q, Q(t) or GF(q))")


def _field_element(field, x):
    """x coerced into field; a rational with no image there is a file error."""
    try:
        return field.coerce(x)
    except ZeroDivisionError:
        raise ProblemFileError(
            f"{x} is not an element of {field!r}: its denominator is "
            f"divisible by {field.characteristic}") from None


def _lex_group(problem: ProblemFile, name: str) -> LexGroup:
    rank = problem.get(name, "rank")
    gens = problem.get_all(name, "gen")
    for g in gens:
        if len(g) != rank:
            raise ProblemFileError(
                f"[{name}] generator {g} does not have {rank} entries")
    return LexGroup(rank, gens)


def _base_valuation(problem: ProblemFile) -> BaseValuation:
    token = problem.get("base", "field")
    p = problem.get("base", "p", None)
    pi = problem.get("base", "pi", None)
    if token == "Q":
        if p is None or pi is not None:
            raise ProblemFileError("field Q takes `p = <prime>` and no pi")
        return BaseValuation.padic(p)
    if token == "Q(t)":
        constants = QQ
    else:
        constants = _constant_field(token)
    if pi is None or p is not None:
        raise ProblemFileError(
            f"field {token} takes `pi = [c0, ..., 1]` and no p")
    if not all(isinstance(c, Fraction) for c in pi):
        raise ProblemFileError("pi coefficients must be rationals")
    return BaseValuation.pi_adic(
        constants, Poly(constants, [_field_element(constants, c) for c in pi]))


def _coefficient(v: BaseValuation, entry):
    if isinstance(entry, RationalVector):
        if v.field is QQ:
            raise ProblemFileError(
                "vector coefficients (polynomials in t) need a "
                "function-field base")
        return v.field.from_coeff_lists(
            [_field_element(v.field.base, c) for c in entry])
    return _field_element(v.field, entry)


def _split_input(problem: ProblemFile):
    v = _base_valuation(problem)
    coeffs = problem.get("polynomial", "coeffs")
    if not coeffs:
        raise ProblemFileError("coeffs must not be empty")
    return v, Poly(v.field, [_coefficient(v, c) for c in coeffs])


def _binomial_input(problem: ProblemFile):
    token = problem.get("base", "field")
    if token == "Q(t)":
        raise ProblemFileError("binomial mode takes a constant field: Q or GF(q)")
    k = _constant_field(token)
    v = MonomialValuation(k, problem.get("base", "weight_x"),
                          problem.get("base", "weight_y"))
    c = problem.get("extension", "c")
    if not isinstance(c, (Fraction, RationalVector)):
        raise ProblemFileError(
            f"c must be a rational or a vector like (1, 0), not {c!r}")
    if isinstance(c, RationalVector):
        if k is QQ:
            raise ProblemFileError("vector constants need a GF(q) base")
        if any(x.denominator != 1 for x in c):
            raise ProblemFileError("GF element coordinates must be integers")
        c = k.element(int(x) for x in c)
    else:
        c = _field_element(k, c)
    spec = BinomialExtensionSpec(problem.get("extension", "n"),
                                 problem.get("extension", "a"),
                                 problem.get("extension", "b"), c)
    return v, spec


def _verdict_row(label: str, inv: ExtensionInvariants) -> ReportRow:
    k = knaf_decide(inv)
    return ReportRow(label=label, e=k.e, f=k.f, eps=k.eps, d=k.d,
                     defectless=k.defectless, initial=k.initial_condition,
                     eft=k.eft, certificate=inv.provenance)


def run(problem: ProblemFile, depth_limit: int = 16) -> list:
    """Rows for a parsed problem; raises instead of encoding failure."""
    if problem.mode == "group":
        nu = _lex_group(problem, "gamma_nu")
        omega = _lex_group(problem, "gamma_omega")
        e = subgroup_index(omega, nu)
        if e == float("inf"):
            raise ValueError("[gamma_omega : gamma_nu] is infinite")
        eps = initial_index(omega, nu)
        return [ReportRow(label="gamma_omega over gamma_nu", e=e, eps=eps,
                          initial=eps == e)]
    if problem.mode == "decide":
        inv = ExtensionInvariants(
            gamma_nu=_lex_group(problem, "gamma_nu"),
            gamma_omega=_lex_group(problem, "gamma_omega"),
            residue_degree=problem.get("extension", "residue_degree"),
            local_degree=problem.get("extension", "local_degree"),
            residue_char=problem.get("extension", "residue_char"),
            total_degree=problem.get("extension", "total_degree", None),
            provenance=problem.get("extension", "label", ""))
        return [_verdict_row(problem.get("extension", "label", "extension"),
                             inv)]
    if problem.mode == "split":
        v, g = _split_input(problem)
        factors = split_extensions(v, g, depth_limit=depth_limit)
        return [_verdict_row(f"factor {i}",
                             to_extension_invariants(v, lf, g.degree))
                for i, lf in enumerate(factors, start=1)]
    if problem.mode == "binomial":
        v, spec = _binomial_input(problem)
        return [_verdict_row(f"extension {i}", inv)
                for i, inv in enumerate(extend_binomial(v, spec), start=1)]
    raise ProblemFileError(f"unknown mode {problem.mode!r}")


def fixture_rows(fx) -> list:
    return [_verdict_row(f"{fx.name}[{i}]", inv)
            for i, inv in enumerate(fx.invariants(), start=1)]


# -- rendering -------------------------------------------------------------------

def _cell(value) -> str:
    if value is None:
        return "-"
    if value is True:
        return "true"
    if value is False:
        return "false"
    return str(value)


def _print_table(rows, fields, out):
    header = {"label": "extension", "eps": "eps", "initial": "eps=e",
              "eft": "EFT", "certificate": "certificate"}
    names = [header.get(f, f) for f in fields]
    table = [[_cell(getattr(r, f)) for f in fields] for r in rows]
    widths = [max(len(n), *(len(row[i]) for row in table)) if table else len(n)
              for i, n in enumerate(names)]
    out.write("  ".join(n.ljust(w) for n, w in zip(names, widths)).rstrip()
              + "\n")
    for row in table:
        out.write("  ".join(c.ljust(w) for c, w in zip(row, widths)).rstrip()
                  + "\n")


def _print_porcelain(rows, fields, out):
    for r in rows:
        out.write("\t".join(f"{f}={_cell(getattr(r, f))}" for f in fields)
                  + "\n")


def _emit(rows, mode: str, porcelain: bool, out) -> None:
    fields = _GROUP_FIELDS if mode == "group" else _ROW_FIELDS
    if porcelain:
        _print_porcelain(rows, fields, out)
    else:
        _print_table(rows, fields, out)


# -- argument handling -----------------------------------------------------------

class _UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        raise _UsageError(f"{self.prog}: error: {message}\n"
                          f"{self.format_usage().rstrip()}")


def _build_parser() -> _Parser:
    parser = _Parser(prog="valknaf",
                     description="ramification invariants and the "
                                 "essentially-finite-type criterion")
    sub = parser.add_subparsers(dest="command", required=True)

    def with_io(p, file_required=True):
        p.add_argument("--file", metavar="PATH",
                       required=file_required,
                       help="problem file (- for stdin)")
        p.add_argument("--porcelain", action="store_true",
                       help="stable machine-readable key=value rows")

    with_io(sub.add_parser("group", help="index and initial index of a "
                                         "lex group extension"))
    decide = sub.add_parser("decide", help="Knaf verdict on declared "
                                           "invariants or a fixture")
    decide.add_argument("fixture", nargs="?", metavar="FIXTURE",
                        help="named fixture to decide")
    with_io(decide, file_required=False)
    split = sub.add_parser("split", help="extensions of a rank-1 valuation "
                                         "to K[x]/(g)")
    with_io(split)
    split.add_argument("--depth", type=int, default=16, metavar="N",
                       help="recursion depth limit (default 16)")
    with_io(sub.add_parser("binomial", help="tame binomial extension of a "
                                            "monomial valuation"))
    fixtures_p = sub.add_parser("fixtures", help="list the fixture catalog")
    fixtures_p.add_argument("name", nargs="?", metavar="FIXTURE",
                            help="show a single fixture")
    fixtures_p.add_argument("--porcelain", action="store_true",
                            help="stable machine-readable key=value rows")
    return parser


_PARSER = _build_parser()


def _read_problem(path: str, expected_mode: str) -> ProblemFile:
    if path == "-":
        data = sys.stdin.buffer.read()
    else:
        with open(path, "rb") as handle:
            data = handle.read()
    problem = parse_problem(data)
    if problem.mode != expected_mode:
        raise ProblemFileError(
            f"problem file has mode {problem.mode}, expected {expected_mode}")
    return problem


def _dispatch(args, out) -> int:
    if args.command == "fixtures":
        catalog = [fixture(args.name)] if args.name else list(FIXTURES)
        for fx in catalog:
            rows = fixture_rows(fx)
            if args.porcelain:
                _print_porcelain(rows, _ROW_FIELDS, out)
            else:
                out.write(f"{fx.name}\n  {fx.description}\n")
                _print_table(rows, _ROW_FIELDS, out)
                out.write("\n")
        return 0

    if args.command == "decide" and args.fixture is not None:
        if args.file:
            raise _UsageError("decide takes a fixture name or --file, not both")
        rows = fixture_rows(fixture(args.fixture))
        _emit(rows, "decide", args.porcelain, out)
        return 0
    if args.command == "decide" and not args.file:
        raise _UsageError("decide needs a fixture name or --file")

    depth = getattr(args, "depth", 16)
    if depth < 1:
        raise _UsageError("--depth must be at least 1")
    problem = _read_problem(args.file, args.command)
    rows = run(problem, depth_limit=depth)
    _emit(rows, problem.mode, args.porcelain, out)
    return 0


def main(argv=None) -> int:
    try:
        args = _PARSER.parse_args(argv)
    except _UsageError as exc:
        print(exc, file=sys.stderr)
        return 1
    except SystemExit as exc:  # --help
        return int(exc.code or 0)
    try:
        return _dispatch(args, sys.stdout)
    except (_UsageError, ProblemFileError, ResidualDegreeError, OSError,
            LookupError) as exc:
        message = exc.args[0] if isinstance(exc, LookupError) and exc.args else exc
        print(f"error: {message}", file=sys.stderr)
        return 1
    except UnresolvedBranchError as exc:
        print(f"unresolved: {exc}", file=sys.stderr)
        return 3
    except NotImplementedError as exc:
        print(f"unsupported: {exc}", file=sys.stderr)
        return 2
    except ValueError as exc:
        print(f"inconsistent: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
