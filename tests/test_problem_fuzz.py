"""Hypothesis fuzz of the problem-file front end.

Each example starts from one of the shipped demo problems and applies one
to three edits: blank a line, duplicate a line, or replace a value with a
token from a fixed pool of numbers, vectors, lists and field names.  Every
edited file must still end in a documented exit code, and a nonzero exit
must come with exactly one line on stderr.  q with thousands of digits is
not in the pool: its cost is a resource-bound question, not a parse one.
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
          "(1, 0)", "(0, 1)", "(1/2, 0)", "()", "[1, 0, 1]", "[0, 1]",
          "[(0, -1), 0, 1]", "[]", "Q", "Q(t)", "GF(4)", "GF(6)", "GF(1)",
          "foo")


@st.composite
def edited_problems(draw):
    """(mode, text) of a demo problem after one to three edits."""
    path = draw(st.sampled_from(PROBLEMS))
    lines = path.read_text().splitlines()
    for _ in range(draw(st.integers(1, 3))):
        i = draw(st.integers(0, len(lines) - 1))
        edit = draw(st.sampled_from(("blank", "duplicate", "replace")))
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
