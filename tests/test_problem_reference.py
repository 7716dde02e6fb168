"""`parse_problem` against the reference parser in `tests/oracles.py`.

The reference is the cascade of string splits that the scanner replaced.
On every input the two must agree: the same `repr` on success, or the same
exception type and message, line number included.  Inputs are the demo
problems, every fixture's serialized problem, edited demo problems (valid
and malformed), texts with several faults that pin which error is raised,
and made texts: a mode's sections and keys with values of the right kind,
padded with blanks, tabs, comments and `1 / 2` spacing, with lines dropped
or made-up lines put in.  Two last tests pin that long runs of blanks scan
in linear time and that the scanner builds exactly one Fraction per
rational token.
"""

import time
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oracles import parse_problem_reference
from test_problem_fuzz import PROBLEMS, edited_problems
from valknaf.fixtures import FIXTURES
from valknaf.ordgroup import RationalVector
from valknaf.problemfile import (SCHEMAS, ProblemFileError, parse_problem,
                                 serialize)


def outcome(parse, text):
    try:
        return repr(parse(text))
    except Exception as exc:  # type and message must agree as well
        return type(exc), str(exc)


def assert_same(text):
    assert outcome(parse_problem, text) == outcome(parse_problem_reference,
                                                   text)


@pytest.mark.parametrize("path", PROBLEMS, ids=lambda p: p.name)
def test_parse_matches_reference_on_demo_problems(path):
    assert_same(path.read_bytes())
    assert_same(path.read_text())


def test_parse_matches_reference_on_fixture_problems():
    for fx in FIXTURES:
        assert_same(serialize(fx.problem))


@settings(max_examples=300, deadline=None, derandomize=True, database=None)
@given(edited_problems())
def test_parse_matches_reference_on_edited_problems(problem):
    assert_same(problem[1])


HUGE = "7" * 4301  # one digit beyond Python's int-string limit

# values where several faults meet, so which one is named first matters
TRICKY_VALUES = [
    f"(1, {HUGE})", f"(1, 2/{HUGE})", f"({HUGE}/0)", f"(1/0, {HUGE})",
    f"({HUGE}, )", f"(1, {HUGE}, foo)", f"[1, (1, {HUGE}), foo]",
    f"[1/0, (1, foo)]", f"[{HUGE}, a)(b]", "(1, foo)", "((1, 0), 1)",
    "[1, foo, 1]", "[(0, 1), GF(4)]", "[a)(b, 1]", "[GF(4, 1)]", "(1)(2)",
    "[(1)(2)]", "(GF(4))", "(1, GF(4)", "[x(, 1)]", "(1, 2) x", "[1], [2]",
    "( , 1)", "(1,)", "[1,]", "[ ]", "()", "( )", "[(1/2, 0), 1 / 3]",
    "1 / 2", "1/-2", "5/ 0", "(", "[", "-", "+", "a=b", "[[1], 2]",
]


@pytest.mark.parametrize("value", TRICKY_VALUES)
@pytest.mark.parametrize("key", ["coeffs", "p"])
def test_parse_matches_reference_on_tricky_values(key, value):
    text = (f"version = 1\nmode = split\n[base]\nfield = Q\np = 5\n"
            f"[polynomial]\ncoeffs = [1, 0, 1]\n")
    assert_same(text.replace(f"{key} = ", f"{key} = {value} #", 1))


HEAD = "version = 1\nmode = split\n"

# texts with several faults, each with the one error that must be raised
ERROR_ORDER = [
    # a syntax error on a later line beats a schema error in an earlier
    # section
    (HEAD + "[base]\nfield = Q\nq = 7\n[polynomial]\ncoeffs = [1, 0, 1\n",
     "line 7: unterminated list"),
    # a missing `version` or `mode` beats every schema error
    ("mode = split\n[base]\nfield = Q\nq = 7\n",
     "missing `version = 1`"),
    ("version = 1\n[extension]\nn = 2\n", "missing `mode = ...`"),
    # a missing key in one section beats an unknown key in a later one
    (HEAD + "[base]\np = 5\n[polynomial]\ncoeffs = [1, 0, 1]\nq = 1\n",
     "line 3: section [base] is missing key 'field'"),
    # a section not allowed in the mode beats a later duplicate key
    (HEAD + "[extension]\nn = 2\n[base]\nfield = Q\nfield = Q\n",
     "line 3: section [extension] is not allowed in mode split"),
    # a missing required section comes last
    (HEAD + "[base]\nfield = Q\nq = 7\n",
     "line 5: unknown key 'q' in section [base]"),
    (HEAD + "[base]\nfield = Q\np = 5\n",
     "mode split requires a section [polynomial]"),
]


@pytest.mark.parametrize("text,message", ERROR_ORDER)
def test_parse_matches_reference_on_error_order(text, message):
    assert_same(text)
    with pytest.raises(ProblemFileError) as err:
        parse_problem(text)
    assert str(err.value) == message


_BLANK = st.sampled_from(["", " ", "  ", "\t", " \t"])


@st.composite
def _rational(draw, odd=False):
    """p or p/q, with blanks around the slash; odd adds huge digits, a zero
    denominator and a signed one."""
    digits = ["0", "1", "3", "15", "-1", "+4", "-38", "0007",
              "12345678901234567891"]
    num = draw(st.sampled_from(digits + [HUGE] * odd))
    if draw(st.booleans()):
        return num
    odd_dens = ["0", "-2", HUGE] * odd
    den = draw(st.sampled_from(["1", "2", "15"] + odd_dens))
    return f"{num}{draw(_BLANK)}/{draw(_BLANK)}{den}"


_WORDS = st.sampled_from(["Q", "Q(t)", "GF(4)", "GF(49)", "foo", "lex-1",
                          "a)(b", "x(", "z^2"])
_JUNK = st.sampled_from(["", ",", "(", ")", "[", "]", "=", "x y", "1 2",
                         "1/", "/2"])


@st.composite
def _vector(draw, entry, closes=(")",)):
    sep = draw(st.sampled_from([",", ", ", " ,", "\t,\t"]))
    entries = sep.join(draw(st.lists(entry, min_size=1, max_size=4)))
    close = draw(st.sampled_from(closes))
    return f"({draw(_BLANK)}{entries}{draw(_BLANK)}{close}"


@st.composite
def _list(draw, item, closes=("]",)):
    sep = draw(st.sampled_from([",", ", ", " , "]))
    body = sep.join(draw(st.lists(item, max_size=4)))
    close = draw(st.sampled_from(closes))
    return f"[{draw(_BLANK)}{body}{draw(_BLANK)}{close}"


# well-formed values, and values with nested vectors, stray characters,
# words in odd places, missing or doubled closers, huge digits and zero
# denominators
_GOOD_ITEM = st.one_of(_rational(), _vector(_rational()), _WORDS)
_ODD_ITEM = st.recursive(
    st.one_of(_rational(odd=True), _WORDS, _JUNK),
    lambda inner: _vector(st.one_of(_rational(odd=True), inner),
                          (")", ",)", "", "))")), max_leaves=6)
_VALUE = st.one_of(_GOOD_ITEM, _list(_GOOD_ITEM), _ODD_ITEM,
                   _list(_ODD_ITEM, ("]", "", ",]")))
_SECTIONS = st.sampled_from(["base", "polynomial", "gamma_nu", "gamma_omega",
                             "extension", "car"])
_KEYS = st.sampled_from(["field", "p", "pi", "coeffs", "rank", "gen", "n",
                         "c", "weight_x", "weight_y", "label", "mode"])


@st.composite
def _line(draw):
    kind = draw(st.sampled_from(["assign"] * 8 + ["section", "blank",
                                                  "comment", "junk"]))
    if kind == "section":
        body = f"[{draw(_SECTIONS)}]"
    elif kind == "assign":
        body = f"{draw(_KEYS)}{draw(_BLANK)}={draw(_BLANK)}{draw(_VALUE)}"
    elif kind == "junk":
        body = draw(_JUNK)
    else:
        body = ""
    comment = draw(st.sampled_from(["", "", "# note", "#", "# a = (1, 2]"]))
    return f"{draw(_BLANK)}{body}{draw(_BLANK)}{comment}"


_GOOD = {"int": st.sampled_from(["0", "1", "2", "-3", "+4", "0007"]),
         "vector": _vector(_rational()), "list": _list(_GOOD_ITEM),
         "word": _WORDS, "value": _GOOD_ITEM}


@st.composite
def made_problems(draw):
    """A mode's sections and keys with values of the right kind, padded
    with blanks and comments; now and then a line is dropped, a made line
    put in, or the header cut short."""
    mode = draw(st.sampled_from(sorted(SCHEMAS)))
    lines = [f"version{draw(_BLANK)}= 1", f"mode = {mode}"]
    for name, keys in SCHEMAS[mode].items():
        lines.append(f"{draw(_BLANK)}[{name}]{draw(_BLANK)}")
        for key, tag in keys.items():
            for _ in range(draw(st.integers(1, 2)) if "+" in tag else 1):
                value = draw(_GOOD[tag.rstrip("?+")])
                lines.append(f"{key}{draw(_BLANK)}={draw(_BLANK)}{value}")
    for _ in range(draw(st.integers(0, 3))):
        i = draw(st.integers(0, len(lines)))
        if draw(st.booleans()) and i < len(lines):
            del lines[i]
        else:
            lines.insert(i, draw(_line()))
    return "\n".join(lines) + draw(st.sampled_from(["", "\n", "\r\n"]))


@settings(max_examples=300, deadline=None, derandomize=True, database=None)
@given(made_problems())
def test_parse_matches_reference_on_made_texts(text):
    assert_same(text)


BLANKS = " " * 100_000

# a run of blanks that a pattern could split between two `\s*` takes time
# quadratic in its length to fail; 1e5 blanks would then take minutes
LONG_BLANK_TEXTS = [
    f"{BLANKS}!\n",
    "version = 1\nmode = split\n[base]\nfield = Q\np = 5\n[polynomial]\n"
    f"coeffs = [1{BLANKS}]\n",
    "version = 1\nmode = split\n[base]\nfield = Q\np = 5\n[polynomial]\n"
    f"coeffs = [(1{BLANKS}, 1){BLANKS}, 1{BLANKS}/ 2{BLANKS}]\n",
    f"version = 1{BLANKS}!\n",
    f"version ={BLANKS}#\n",
]


@pytest.mark.parametrize("text", LONG_BLANK_TEXTS, ids=range(5))
def test_long_blank_runs_parse_in_linear_time(text):
    start = time.perf_counter()
    mine = outcome(parse_problem, text)
    assert time.perf_counter() - start < 1.0
    assert mine == outcome(parse_problem_reference, text)


def _rationals_in(value) -> int:
    """How many rationals a parsed value holds; an int was one Fraction."""
    if isinstance(value, (int, Fraction)):
        return 1
    if isinstance(value, RationalVector):
        return len(value)
    if isinstance(value, tuple):
        return sum(map(_rationals_in, value))
    return 0  # a word


def test_parse_builds_one_fraction_per_rational(monkeypatch):
    # the reference matched each rational twice; the scanner reads its
    # digits once and builds its Fraction once
    texts = [p.read_text() for p in PROBLEMS]
    texts += [serialize(fx.problem) for fx in FIXTURES]
    new = Fraction.__new__
    made = []

    def counting(cls, *args, **kwargs):
        made.append(args)
        return new(cls, *args, **kwargs)

    counts, problems = [], []
    monkeypatch.setattr(Fraction, "__new__", counting)
    for text in texts:
        made.clear()
        problems.append(parse_problem(text))
        counts.append(len(made))
    monkeypatch.undo()
    expected = [1 + sum(_rationals_in(v) for _, entries in pf.sections
                        for _, v in entries) for pf in problems]
    assert counts == expected  # 1 for `version = 1`
    # version, two ranks and four generators of two entries each
    assert counts[[p.name for p in PROBLEMS].index(
        "group-half-lattice.prob")] == 11
