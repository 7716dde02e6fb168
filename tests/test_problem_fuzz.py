"""Hypothesis fuzz of the problem-file front end.

Each example starts from one of the shipped demo problems and applies one
to three edits: blank a line, duplicate a line, replace a line's value (or
the whole line) with a token from a fixed pool of numbers, vectors, lists
and field names, or put a token in place of the value of a `key = value`
line other than `version` and `mode`.  The last edit keeps the header and
the section lines, so its files get past the parser and into the engines.
Every edited file must still end in a documented exit code, and a nonzero
exit must come with exactly one line on stderr.  The pool holds integers
above 2^53, so the engines' exact arithmetic is fuzzed too, and lists and
vectors that hold words or nested parentheses, so a value edit can put a
word among a list's coefficients.
"""

import contextlib
import io
import tempfile
from pathlib import Path

from hypothesis import given, settings
from hypothesis import strategies as st

from valknaf import cli

PROBLEMS = sorted((Path(__file__).resolve().parent.parent / "demos"
                   / "problems").glob("*.prob"))

TOKENS = ("0", "1", "-1", "2", "3", "5", "7", "1/5", "1/0", str(10 ** 18 + 3),
          "12345678901234567891", "1/12345678901234567891",
          "-4000048000216000432000324",
          "(1, 0)", "(0, 1)", "(1/2, 0)", "()", "[1, 0, 1]", "[0, 1]",
          "[(0, -1), 0, 1]", "[]", "Q", "Q(t)", "GF(4)", "GF(6)", "GF(1)",
          "foo", "[1, foo, 1]", "[(0, 1), GF(4)]", "(1, foo)", "((1, 0), 1)")
HEADER_KEYS = ("version", "mode")


def _shape(value: str) -> str:
    """list, vector, word or number: what a value looks like."""
    value = value.split("#", 1)[0].strip()
    if value.startswith("["):
        return "list"
    if value.startswith("("):
        return "vector"
    return "word" if value[:1].isalpha() else "number"


def _value_lines(lines) -> list:
    """Indices of the `key = value` lines whose key is not a header key."""
    out = []
    for i, line in enumerate(lines):
        key, sep, _ = line.partition("=")
        key = key.strip()
        if (sep and key and not key.startswith(("#", "["))
                and key not in HEADER_KEYS):
            out.append(i)
    return out


@st.composite
def edited_problems(draw):
    """(mode, text) of a demo problem after one to three edits."""
    path = draw(st.sampled_from(PROBLEMS))
    lines = path.read_text().splitlines()
    values_only = draw(st.booleans())
    for _ in range(draw(st.integers(1, 3))):
        edit = "value" if values_only else draw(
            st.sampled_from(("blank", "duplicate", "replace")))
        if edit == "value":
            i = draw(st.sampled_from(_value_lines(lines)))
            key, _, value = lines[i].partition("=")
            token = draw(st.sampled_from(
                [t for t in TOKENS if _shape(t) == _shape(value)]))
            lines[i] = f"{key}= {token}"
            continue
        i = draw(st.integers(0, len(lines) - 1))
        if edit == "blank":
            lines[i] = ""
        elif edit == "duplicate":
            lines.insert(i, lines[i])
        else:
            key, sep, _ = lines[i].partition("=")
            token = draw(st.sampled_from(TOKENS))
            lines[i] = f"{key}= {token}" if sep else token
    return path.name.split("-", 1)[0], "\n".join(lines) + "\n"


@settings(max_examples=300, deadline=5000, derandomize=True, database=None)
@given(edited_problems())
def test_edited_problem_files_exit_cleanly(problem):
    mode, text = problem
    out, err = io.StringIO(), io.StringIO()
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "edited.prob"
        path.write_text(text)
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = cli.main([mode, "--file", str(path), "--porcelain"])
    assert code in (0, 1, 2, 3)
    if code:
        assert err.getvalue().count("\n") == 1, err.getvalue()
        assert err.getvalue().endswith("\n")
