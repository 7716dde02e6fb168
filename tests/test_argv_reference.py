"""The CLI's table-driven argv reader against the argparse parser it replaced.

On every command line of a seeded corpus the reader and the reference
(`oracles.argv_reference`) must agree: equal values of the six attributes
`_dispatch` reads when the reference accepts, a usage error when it
rejects, help when it prints help.
"""

import contextlib
import io
import random
from itertools import permutations, product

import pytest

from valknaf import cli

from oracles import ArgvError, argv_reference

ATTRS = ("command", "file", "porcelain", "depth", "fixture", "name")
# what `_dispatch` reads where a subparser sets no attribute
DEFAULTS = {"file": None, "porcelain": False, "depth": 16, "fixture": None,
            "name": None}
REFERENCE = argv_reference()

# command -> options that take a value, flags, and its optional positional
COMMANDS = {
    "group": (("--file",), ("--porcelain",), False),
    "decide": (("--file",), ("--porcelain",), True),
    "split": (("--file", "--depth"), ("--porcelain",), False),
    "binomial": (("--file",), ("--porcelain",), False),
    "fixtures": ((), ("--porcelain",), True),
}
VALUES = {"--file": ("a.prob", "-"), "--depth": ("3", "-1"),
          "POSITIONAL": ("i-at-3", "-1")}
PREFIXES = {"--file": "--f", "--depth": "--d", "--porcelain": "--porc"}

# the tokens of the random corpus
TOKENS = (
    "group", "decide", "split", "binomial", "fixtures",
    "--file", "--porcelain", "--depth", "--help", "-h",
    "--f", "--fi", "--p", "--porc", "--d", "--de", "--h", "--he",
    "--", "-", "-1", "-x", "--bogus", "---", "-.5", "-1e5",
    "--file=a", "--f=", "--fi=-", "--depth=3", "--d=2", "--depth=x",
    "--depth=-1", "--porcelain=1", "--p=", "--help=", "--=x", "--=",
    "-h=", "-h=h", "-hh", "-hhh", "-hx", "-=x",
    "a", "b.prob", "x", "3", "0", "-2", "+4", " 5", "3.5", "٣",
    "i-at-3", "-x y", "",
)


def reference(argv):
    """'help', 'error' or the six attributes, as argparse read argv."""
    try:
        with contextlib.redirect_stdout(io.StringIO()):
            ns = REFERENCE.parse_args(argv)
    except ArgvError:
        return "error"
    except SystemExit as exc:
        assert exc.code == 0
        return "help"
    return tuple(getattr(ns, a, DEFAULTS.get(a)) for a in ATTRS)


def reader(argv):
    """'help', 'error' or the six attributes, as `cli._parse_args` reads."""
    try:
        args = cli._parse_args(argv)
    except cli._UsageError:
        return "error"
    return "help" if args is None else tuple(getattr(args, a) for a in ATTRS)


def systematic_corpus():
    """Each command x option order x `=` form x prefix x `--` x repeat."""
    for command, (valued, flags, positional) in COMMANDS.items():
        items = valued + flags + (("POSITIONAL",) if positional else ())
        orders = [order for r in range(len(items) + 1)
                  for order in permutations(items, r)]
        for order, equals, abbrev, dashdash, repeat in product(
                orders, (False, True), (False, True), (False, True),
                (False, True)):
            if repeat and order:
                order = order + order[:1]
            argv, seen = [command], set()
            for item in order:
                value = VALUES.get(item, ("", ""))[item in seen]
                seen.add(item)
                name = PREFIXES[item] if abbrev and item in PREFIXES else item
                if item == "POSITIONAL":
                    argv += ["--", value] if dashdash else [value]
                elif item in flags:
                    argv.append(name)
                elif equals:
                    argv.append(f"{name}={value}")
                else:
                    argv += [name, value]
            if dashdash and not positional:
                argv.append("--")
            yield argv


def random_corpus(seed, count):
    """Token strings from TOKENS, most of them led by a command."""
    rng = random.Random(seed)
    for _ in range(count):
        argv = [rng.choice(TOKENS) for _ in range(rng.randint(0, 7))]
        if argv and rng.random() < 0.7:
            argv[0] = rng.choice(tuple(COMMANDS))
        yield argv


def option_corpus(seed, count):
    """A command and shuffled options, prefixes, `=` forms and positionals."""
    rng = random.Random(seed)
    spellings = {"--file": ("--file", "--f", "--fil"),
                 "--depth": ("--depth", "--d", "--dep"),
                 "--porcelain": ("--porcelain", "--p", "--porc")}
    values = {"--file": ("a", "-", "-1", ""),
              "--depth": ("3", "-1", "x", " 7", "+2", "0")}
    for _ in range(count):
        groups = []
        for _ in range(rng.randint(0, 4)):
            option = rng.choice(tuple(spellings))
            name = rng.choice(spellings[option])
            if option == "--porcelain":
                groups.append([name])
            elif rng.random() < 0.4:
                groups.append([f"{name}={rng.choice(values[option])}"])
            else:
                groups.append([name, rng.choice(values[option])])
        groups += [[rng.choice(("i-at-3", "-1", "x", "--", "-"))]
                   for _ in range(rng.randint(0, 2))]
        rng.shuffle(groups)
        argv = [rng.choice(tuple(COMMANDS))] + [t for g in groups for t in g]
        if rng.random() < 0.1:
            argv.insert(rng.randint(0, len(argv)), rng.choice(TOKENS))
        yield argv


@pytest.mark.parametrize("corpus,reached", [
    (lambda: systematic_corpus(), {"ok", "error"}),
    (lambda: random_corpus(20261019, 6000), {"ok", "error", "help"}),
    (lambda: option_corpus(20261020, 4000), {"ok", "error", "help"}),
], ids=["systematic", "random-tokens", "random-options"])
def test_reader_matches_reference(corpus, reached):
    outcomes = set()
    for argv in corpus():
        expected = reference(argv)
        assert reader(argv) == expected, argv
        outcomes.add(expected if isinstance(expected, str) else "ok")
    assert outcomes == reached


def test_systematic_corpus_is_mostly_accepted():
    outcomes = [reference(argv) for argv in systematic_corpus()]
    accepted = sum(not isinstance(o, str) for o in outcomes)
    assert len(outcomes) > 500 and accepted > len(outcomes) // 3


@pytest.mark.parametrize("argv,attrs", [
    (["split", "--file=-", "--d", "-1"],
     ("split", "-", False, -1, None, None)),
    (["split", "--depth", "2", "--file", "a", "--depth=+7"],
     ("split", "a", False, 7, None, None)),
    (["decide", "--", "-1"], ("decide", None, False, 16, "-1", None)),
    (["fixtures", "--porc", "i-at-3"],
     ("fixtures", None, True, 16, None, "i-at-3")),
    (["group", "--porcelain", "--fi", "-1"], ("group", "-1", True, 16, None,
                                              None)),
])
def test_reader_values(argv, attrs):
    assert reader(argv) == attrs == reference(argv)
