"""Command-line front end for the extension engines.

Subcommands: `group` (indices of one lex group over another), `decide`
(Knaf verdict on declared invariants or a named fixture), `split` (rank-1
engine on a problem file), `binomial` (rank-2 monomial engine) and
`fixtures` (the named catalog).  Problems are read from `--file` (`-` for
stdin) in the line-oriented format of `problemfile`, which also gives a
problem and a fixture their invariants (`problemfile.problem_invariants`).
`_parse_args` reads the command line from the table `_COMMANDS`; `-h`
prints `USAGE`, and a usage error is one line ending in its command's usage.
Exit codes: 0 success, 1 usage or problem-file syntax error or an exceeded
resource bound (`monoval.MAX_RESIDUAL_DEGREE`, `problemfile.MAX_FIELD_ORDER`,
`problemfile.MAX_RANK`, `localsplit.MAX_DEPTH` for `--depth`), 2
inconsistent data (validation or engine rejection, "inconsistent: ...") or
input outside the supported scope ("unsupported: ..."), 3 branch
unresolved within `--depth` augmentation steps.
"""

from __future__ import annotations

import re
import sys
from dataclasses import dataclass
from types import SimpleNamespace
from typing import Optional

from .localsplit import DEFAULT_DEPTH, MAX_DEPTH, UnresolvedBranchError
from .monoval import ResidualDegreeError
from .ordgroup import _initial_index, subgroup_index
from .problemfile import (ProblemFile, ProblemFileError, lex_group,
                          parse_problem, problem_invariants)
from .raminv import ExtensionInvariants, knaf_decide


@dataclass(frozen=True)
class ReportRow:
    """One output row; group-mode rows leave the undecidable columns None,
    and `_GROUP_FIELDS` prints none of them."""

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


def run(problem: ProblemFile, depth_limit: int = DEFAULT_DEPTH) -> list:
    """Rows for a parsed problem; raises instead of encoding failure."""
    if problem.mode == "group":
        nu = lex_group(problem, "gamma_nu")
        omega = lex_group(problem, "gamma_omega")
        e = subgroup_index(omega, nu)
        if e == float("inf"):
            raise ValueError("[gamma_omega : gamma_nu] is infinite")
        eps = _initial_index(omega, nu)
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

USAGE = """\
valknaf group    --file FILE [--porcelain]
valknaf decide  (--file FILE | FIXTURE) [--porcelain]
valknaf split    --file FILE [--porcelain] [--depth N]
valknaf binomial --file FILE [--porcelain]
valknaf fixtures [FIXTURE] [--porcelain]
"""
_HELP = ("-h", "--help")
# command -> (its options, the attribute of its optional positional, whether
# --file is required)
_COMMANDS = {
    "group": (_HELP + ("--file", "--porcelain"), None, True),
    "decide": (_HELP + ("--file", "--porcelain"), "fixture", False),
    "split": (_HELP + ("--file", "--porcelain", "--depth"), None, True),
    "binomial": (_HELP + ("--file", "--porcelain"), None, True),
    "fixtures": (_HELP + ("--porcelain",), "name", False),
}
_USAGE_LINES = {line.split()[1]: " ".join(line.split())
                for line in USAGE.splitlines()}
_NEGATIVE_NUMBER = re.compile(r"^-\d+$|^-\d*\.\d+$")


class _UsageError(Exception):
    """A usage error; its one line ends with the usage of its command."""

    def __init__(self, message, command=None):
        usage = _USAGE_LINES.get(command, "valknaf {%s} ..." %
                                 ",".join(_COMMANDS))
        super().__init__(f"{message}; usage: {usage}")


def _option(token, options, command=None):
    """(option, its value after `=` or None) for an option token, (None,
    None) for an unknown option, None for a positional: `-`, a negative
    number, a token with a space.  A long option may be cut to a unique
    prefix, and `-hX` is -h with the value X."""
    if token[:1] != "-" or token == "-":
        return None
    head, eq, value = token.partition("=")
    if head not in options:
        if token[1] == "-":
            matches = [o for o in options if o.startswith(head)]
            if len(matches) > 1:
                raise _UsageError(f"ambiguous option: {token!r} could match "
                                  f"{', '.join(matches)}", command)
            head = matches[0] if matches else None
        elif token[1] == "h":
            head, eq, value = "-h", "=", token[2:]
        else:
            head = None
    if head is None and (_NEGATIVE_NUMBER.match(token) or " " in token):
        return None
    if head == "-h" and value and not value.strip("h"):
        eq = ""  # `-hh` is -h twice
    return head, value if eq and head else None


def _parse_args(argv):
    """The attributes `_dispatch` reads, from a command line; None for help.

    The command is the first positional, and only -h is known before it.
    After it options and the optional positional come in any order, the
    last of a repeated option wins, and every token after `--` is a
    positional.  tests/test_argv_reference.py holds this reader to the
    argument parser it replaced.
    """
    i = next((i for i, t in enumerate(argv)
              if t == "--" or _option(t, _HELP) is None), len(argv))
    command = argv[i] if i < len(argv) else None
    options, positional, file_required = _COMMANDS.get(command,
                                                       ((), None, False))
    end = argv.index("--") if "--" in argv else len(argv)
    kinds = [_option(t, _HELP) for t in argv[:i]]
    args = {"command": command, "file": None, "porcelain": False,
            "depth": DEFAULT_DEPTH, "fixture": None, "name": None}
    extras, filled = [], None
    steps = iter(range(len(argv)))
    for j in steps:
        if j == i:  # the tokens after the command are read once it is known
            if command not in _COMMANDS:
                raise _UsageError(f"invalid choice: {command!r} (choose from "
                                  f"{', '.join(_COMMANDS)})")
            kinds += [None] + [_option(t, options, command)
                               for t in argv[i + 1:end]]
            kinds += [None] * (len(argv) - len(kinds))
            continue
        if kinds[j] is None:
            if j == end and (positional or filled == j - 1):
                continue  # a `--` next to the positional
            if positional:
                args[positional], positional, filled = argv[j], None, j
            else:
                extras.append(argv[j])
            continue
        option, value = kinds[j]
        if option in ("--file", "--depth"):
            if value is None:
                if j + 1 == end or kinds[j + 1] is not None:
                    raise _UsageError(f"argument {option}: expected one "
                                      "argument", command)
                value = argv[next(steps)]
            if option == "--depth":
                try:
                    value = int(value)
                except ValueError:
                    raise _UsageError(f"argument --depth: invalid int value: "
                                      f"{value!r}", command) from None
            args[option[2:]] = value
        elif value is not None:
            raise _UsageError(f"argument {option}: ignored explicit argument "
                              f"{value!r}", command)
        elif option == "--porcelain":
            args["porcelain"] = True
        elif option:
            return None
        else:
            extras.append(argv[j])
    if command is None:
        raise _UsageError("the following arguments are required: command")
    if file_required and args["file"] is None:
        raise _UsageError("the following arguments are required: --file",
                          command)
    if extras:
        raise _UsageError("unrecognized arguments: "
                          + " ".join(map(repr, extras)), command)
    return SimpleNamespace(**args)


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
        # only the two catalog commands import (and so build) the catalog
        from .fixtures import FIXTURES, fixture
        catalog = ([fixture(args.name)] if args.name is not None
                   else list(FIXTURES))
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
            raise _UsageError("decide takes a fixture name or --file, not "
                              "both", "decide")
        from .fixtures import fixture
        rows = fixture_rows(fixture(args.fixture))
        _emit(rows, "decide", args.porcelain, out)
        return 0
    if args.command == "decide" and not args.file:
        raise _UsageError("decide needs a fixture name or --file", "decide")

    if not 1 <= args.depth <= MAX_DEPTH:
        raise _UsageError(f"--depth must be between 1 and {MAX_DEPTH}",
                          "split")
    problem = _read_problem(args.file, args.command)
    rows = run(problem, depth_limit=args.depth)
    _emit(rows, problem.mode, args.porcelain, out)
    return 0


def main(argv=None) -> int:
    try:
        args = _parse_args(sys.argv[1:] if argv is None else argv)
        if args is None:
            sys.stdout.write(USAGE)
            return 0
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
