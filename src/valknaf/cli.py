"""Command-line front end for the extension engines.

Subcommands: `group` (indices of one lex group over another), `decide`
(Knaf verdict on declared invariants or a named fixture), `split` (rank-1
engine on a problem file), `binomial` (rank-2 monomial engine) and
`fixtures` (the named catalog).  Problems are read from `--file` (`-` for
stdin) in the line-oriented format of `problemfile`, which also gives a
problem and a fixture their invariants (`problemfile.problem_invariants`).
Exit codes: 0 success, 1 usage or problem-file syntax error or an exceeded
resource bound (`monoval.MAX_RESIDUAL_DEGREE`,
`problemfile.MAX_FIELD_ORDER`), 2 inconsistent data (validation or engine
rejection, "inconsistent: ...") or input outside the supported scope
("unsupported: ..."), 3 branch unresolved within the recursion depth.
"""

from __future__ import annotations

import argparse
import sys
from dataclasses import dataclass
from typing import Optional

from .fixtures import FIXTURES, fixture
from .localsplit import UnresolvedBranchError
from .monoval import ResidualDegreeError
from .ordgroup import initial_index, subgroup_index
from .problemfile import (ProblemFile, ProblemFileError, lex_group,
                          parse_problem, problem_invariants)
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


def _verdict_row(label: str, inv: ExtensionInvariants) -> ReportRow:
    k = knaf_decide(inv)
    return ReportRow(label=label, e=k.e, f=k.f, eps=k.eps, d=k.d,
                     defectless=k.defectless, initial=k.initial_condition,
                     eft=k.eft, certificate=inv.provenance)


def run(problem: ProblemFile, depth_limit: int = 16) -> list:
    """Rows for a parsed problem; raises instead of encoding failure."""
    if problem.mode == "group":
        nu = lex_group(problem, "gamma_nu")
        omega = lex_group(problem, "gamma_omega")
        e = subgroup_index(omega, nu)
        if e == float("inf"):
            raise ValueError("[gamma_omega : gamma_nu] is infinite")
        eps = initial_index(omega, nu)
        return [ReportRow(label="gamma_omega over gamma_nu", e=e, eps=eps,
                          initial=eps == e)]
    invariants = problem_invariants(problem, depth_limit=depth_limit)
    if problem.mode == "decide":
        return [_verdict_row(problem.get("extension", "label", "extension"),
                             invariants[0])]
    row = "factor" if problem.mode == "split" else "extension"
    return [_verdict_row(f"{row} {i}", inv)
            for i, inv in enumerate(invariants, start=1)]


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
