"""`parse_problem` against the reference parser in `tests/oracles.py`.

The reference reads every value by a cascade of string splits; the library
captures most values with its one line pattern and reads only the rest,
lists holding a word and malformed values, by a cascade of its own.
On every input the two must agree: the same `repr` on success, or the same
exception type and message, line number included.  Inputs are the demo
problems, every fixture's serialized problem, edited demo problems (valid
and malformed), texts with several faults that pin which error is raised,
and made texts: a mode's sections and keys with values of the right kind,
padded with blanks, tabs, comments and `1 / 2` spacing, with lines dropped
or made-up lines put in.  The last tests pin that long runs of blanks scan
in linear time, that the reader builds exactly one Fraction per rational
that is not integral and none per integral one, that every integral
rational reads as an int, that no list of rationals and vectors reaches
the cascade, and that long lists of vectors read in linear time.
"""

import importlib.util
import sys
import time
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oracles import parse_problem_reference
from test_problem_fuzz import PROBLEMS, edited_problems
from valknaf.fixtures import FIXTURES
from valknaf import problemfile
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


def _rationals(value) -> list:
    """The rationals of a parsed value, in order."""
    if isinstance(value, tuple):  # a list or a RationalVector
        return [x for v in value for x in _rationals(v)]
    return [] if isinstance(value, str) else [value]


def test_parse_builds_one_fraction_per_rational(monkeypatch):
    # the reference matched each rational twice; the reader takes its
    # digits once, builds one Fraction for a rational that is not integral
    # and none for an integral one
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
    expected = [sum(type(x) is Fraction for _, entries in pf.sections
                    for _, v in entries for x in _rationals(v))
                for pf in problems]
    assert counts == expected
    # of the two ranks and four generators of two entries each, only the
    # entry 1/2 is not integral
    assert counts[[p.name for p in PROBLEMS].index(
        "group-half-lattice.prob")] == 1
    assert sum(counts) > 0


def _workload_texts(seeds=(0,)) -> list:
    """The problem files of one block of each benchmark workload at each
    seed; the generator never imports valknaf."""
    path = Path(__file__).resolve().parent.parent / "perfbench" / "generate.py"
    spec = importlib.util.spec_from_file_location("perfbench_generate", path)
    generate = importlib.util.module_from_spec(spec)
    # its dataclasses look their module up while the class is built
    sys.modules[spec.name] = generate
    spec.loader.exec_module(generate)
    return [item.text for workload in generate.WORKLOADS for seed in seeds
            for item in next(generate.blocks(workload, seed))]


def test_integral_rationals_read_as_ints():
    # poly.QQ's convention: an int when the value is integral, a Fraction
    # otherwise, in the demos, the fixtures and every workload's problems
    texts = [p.read_text() for p in PROBLEMS]
    texts += [serialize(fx.problem) for fx in FIXTURES]
    texts += _workload_texts()
    kinds = set()
    for text in texts:
        try:
            problem = parse_problem(text)
        except ProblemFileError:  # a workload's malformed file
            continue
        for _, entries in problem.sections:
            for _, value in entries:
                for x in _rationals(value):
                    assert type(x) is int or (type(x) is Fraction
                                              and x.denominator != 1), x
                    kinds.add(type(x))
    assert kinds == {int, Fraction}
    text = HEAD + "[base]\nfield = Q\np = 6/3\n[polynomial]\n"
    problem = parse_problem(text + "coeffs = [4/2, -1 / 3, (2/4, 3/1), 0/5]\n")
    assert problem.get("base", "p") == 2
    coeffs = problem.get("polynomial", "coeffs")
    assert repr(coeffs) == "(2, Fraction(-1, 3), (1/2, 3), 0)"
    assert [type(x) for x in _rationals(coeffs)] == [int, Fraction, Fraction,
                                                     int, int]


def test_only_words_and_faults_reach_the_cascade(monkeypatch):
    # the line pattern captures every list of rationals and vectors; the
    # cascade `_value` reads only a list holding a word, and malformed values
    cascade = []
    real = problemfile._value

    def recording(s, line):
        cascade.append(s)
        return real(s, line)

    monkeypatch.setattr(problemfile, "_value", recording)

    def parse_all(texts):
        for text in texts:
            try:
                parse_problem(text)
            except ProblemFileError:  # a workload's malformed file
                pass

    workloads = _workload_texts(seeds=(0, 1))
    parse_all(workloads)
    assert cascade == []
    texts = [p.read_text() for p in PROBLEMS]
    texts += [serialize(fx.problem) for fx in FIXTURES]
    parse_all(texts)
    for s in cascade:
        if not any(c.isalpha() for c in s):
            with pytest.raises(ProblemFileError):
                real(s, 1)
    values = [line.split("#", 1)[0].partition("=")[2].strip()
              for text in texts + workloads for line in text.splitlines()]
    assert sum(v.startswith("[") and not any(c.isalpha() for c in v)
               for v in values) > 100
    cascade.clear()
    problem = parse_problem(
        "version = 1\nmode = split\n[base]\nfield = GF(5)\npi = [0,1]\n"
        "[polynomial]\ncoeffs = [ ( 1 , 2 / 4 ) ,-3,( +4/6 ), 0 ]  # note\n")
    assert repr(problem.get("polynomial", "coeffs")) == (
        "((1, 1/2), -3, (2/3), 0)")
    assert cascade == []
    for coeffs, message in ((f"[1, 1/0, {HUGE}]", "zero denominator"),
                            (f"[(1, {HUGE}), 1/0]", "integer of 4301")):
        with pytest.raises(ProblemFileError, match=f"line 7: {message}"):
            parse_problem(HEAD + "[base]\nfield = Q\np = 5\n[polynomial]\n"
                          f"coeffs = {coeffs}\n")
    assert cascade == []


@pytest.mark.parametrize("tail", ["(1, x)", "(1, 2", "f(x)"])
def test_long_vector_lists_read_in_linear_time(tail):
    # a list that the line pattern gives up on at its last entry falls to
    # the cascade; both must stay linear in the number of vectors
    def text(n):
        return (HEAD + "[base]\nfield = GF(5)\npi = [0, 1]\n[polynomial]\n"
                "coeffs = [" + "(1, 2/3), " * n + tail + "]\n")

    times = []
    for n in (2_000, 8_000, 32_000):
        best = float("inf")
        for _ in range(3):
            start = time.perf_counter()
            outcome(parse_problem, text(n))
            best = min(best, time.perf_counter() - start)
        times.append(best)
    # 16 times the vectors: 16 times the time when linear, 256 when
    # quadratic
    assert times[2] < 64 * times[0], times
    assert times[2] < 2.0, times
    assert_same(text(2_000))
