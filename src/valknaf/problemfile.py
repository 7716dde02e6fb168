"""Line-oriented problem files: parsing, schema checking, serialization.

A problem file is UTF-8 text of `key = value` lines grouped under bracketed
section headers, with `#` comments and a top-level `version` and `mode`.
Values are integers, rationals `p/q`, vectors `(a, b, ...)`, lists
`[v0, v1, ...]` (entries rational or vector), or bare words.  Each mode
fixes which sections and keys may appear; unknown keys and sections are
rejected with their line number, as are malformed values.  `serialize` and
`parse_problem` are mutually inverse on well-formed `ProblemFile` values.
"""

from __future__ import annotations

import re
import sys
from dataclasses import dataclass
from fractions import Fraction

from .ordgroup import RationalVector

FORMAT_VERSION = 1

_MISSING = object()


class ProblemFileError(Exception):
    """Syntax or schema error in a problem file, with a 1-based line number."""

    def __init__(self, message: str, line=None):
        self.line = line
        super().__init__(f"line {line}: {message}" if line else message)


@dataclass(frozen=True)
class ProblemFile:
    """Parsed problem: version, mode and ordered key-value sections.

    sections is a tuple of (name, entries) pairs, entries a tuple of
    (key, value) pairs in file order; repeatable keys appear once per
    occurrence.  Values are int, Fraction, RationalVector, tuple (list) or
    str, so equality is structural and serialization is type-faithful.
    """

    version: int
    mode: str
    sections: tuple

    def section(self, name: str) -> tuple:
        for n, entries in self.sections:
            if n == name:
                return entries
        raise KeyError(name)

    def get(self, section: str, key: str, default=_MISSING):
        for k, v in self.section(section):
            if k == key:
                return v
        if default is _MISSING:
            raise KeyError(f"[{section}] {key}")
        return default

    def get_all(self, section: str, key: str) -> list:
        return [v for k, v in self.section(section) if k == key]


# -- grammar -------------------------------------------------------------------

_SECTION_RE = re.compile(r"\[([a-z_]+)\]")
_ASSIGN_RE = re.compile(r"([A-Za-z_][A-Za-z0-9_]*)\s*=\s*(\S.*)")
_RATIONAL_RE = re.compile(r"([+-]?\d+)(?:\s*/\s*(\d+))?")
_WORD_RE = re.compile(r"[A-Za-z][-A-Za-z0-9_^()]*")


def _split_top(s: str, line: int) -> list:
    """Split on commas outside parentheses."""
    parts, depth, cur = [], 0, []
    for ch in s:
        if ch == "(":
            depth += 1
        elif ch == ")":
            depth -= 1
            if depth < 0:
                raise ProblemFileError("unbalanced parentheses", line)
        if ch == "," and depth == 0:
            parts.append("".join(cur))
            cur = []
        else:
            cur.append(ch)
    if depth:
        raise ProblemFileError("unbalanced parentheses", line)
    parts.append("".join(cur))
    return parts


def parse_int(digits: str, line=None) -> int:
    """int(digits); one beyond Python's int-string limit is a file error."""
    try:
        return int(digits)
    except ValueError:
        raise ProblemFileError(
            f"integer of {len(digits.lstrip('+-'))} digits is beyond the "
            f"limit of {sys.get_int_max_str_digits()} digits", line) from None


def _parse_rational(s: str, line: int) -> Fraction:
    m = _RATIONAL_RE.fullmatch(s.strip())
    if not m:
        raise ProblemFileError(f"malformed rational {s.strip()!r}", line)
    num, den = parse_int(m.group(1), line), parse_int(m.group(2) or "1", line)
    if den == 0:
        raise ProblemFileError("zero denominator", line)
    return Fraction(num, den)


def _parse_vector(s: str, line: int) -> RationalVector:
    body = s.strip()[1:-1].strip()
    if not body:
        raise ProblemFileError("empty vector", line)
    return RationalVector(_parse_rational(p, line) for p in _split_top(body, line))


def _parse_value(s: str, line: int):
    s = s.strip()
    if s.startswith("["):
        if not s.endswith("]"):
            raise ProblemFileError("unterminated list", line)
        body = s[1:-1].strip()
        if not body:
            return ()
        return tuple(_parse_item(p, line) for p in _split_top(body, line))
    return _parse_item(s, line)


def _parse_item(s: str, line: int):
    s = s.strip()
    if s.startswith("("):
        if not s.endswith(")"):
            raise ProblemFileError("unterminated vector", line)
        return _parse_vector(s, line)
    if _RATIONAL_RE.fullmatch(s):
        return _parse_rational(s, line)
    if _WORD_RE.fullmatch(s):
        return s
    raise ProblemFileError(f"malformed value {s!r}", line)


# -- schema --------------------------------------------------------------------
# Key specs: type tag + "?" optional + "+" repeatable (at least once).
# Tags: int, vector, list, word, value (any single value).

_GROUP_KEYS = {"rank": "int", "gen": "vector+"}

SCHEMAS = {
    "group": {
        "gamma_nu": _GROUP_KEYS,
        "gamma_omega": _GROUP_KEYS,
    },
    "decide": {
        "gamma_nu": _GROUP_KEYS,
        "gamma_omega": _GROUP_KEYS,
        "extension": {
            "residue_degree": "int",
            "local_degree": "int",
            "residue_char": "int",
            "total_degree": "int?",
            "label": "word?",
        },
    },
    "split": {
        "base": {"field": "word", "p": "int?", "pi": "list?"},
        "polynomial": {"coeffs": "list"},
    },
    "binomial": {
        "base": {"field": "word", "weight_x": "vector", "weight_y": "vector"},
        "extension": {"n": "int", "a": "int", "b": "int", "c": "value"},
    },
}


def _check_type(key: str, value, tag: str, line: int):
    """Normalize value against a type tag; ints come back as python int."""
    if tag == "int":
        if isinstance(value, Fraction) and value.denominator == 1:
            return int(value)
        raise ProblemFileError(f"{key} must be an integer", line)
    if tag == "vector":
        if isinstance(value, RationalVector):
            return value
        raise ProblemFileError(f"{key} must be a vector like (1, 0)", line)
    if tag == "list":
        if isinstance(value, tuple) and not isinstance(value, RationalVector):
            return value
        raise ProblemFileError(f"{key} must be a list like [c0, c1, 1]", line)
    if tag == "word":
        if isinstance(value, str):
            return value
        raise ProblemFileError(f"{key} must be a name", line)
    return value  # tag "value": anything goes


def parse_problem(text) -> ProblemFile:
    """Parse problem text (bytes or str) and check it against its mode schema."""
    if isinstance(text, bytes):
        try:
            text = text.decode("utf-8")
        except UnicodeDecodeError as exc:
            raise ProblemFileError(f"not valid UTF-8: {exc}") from None

    version = mode = None
    # raw[name] = (header line, list of (key, value, line))
    raw, order, current = {}, [], None
    for lineno, rawline in enumerate(text.splitlines(), start=1):
        line = rawline.split("#", 1)[0].strip()
        if not line:
            continue
        m = _SECTION_RE.fullmatch(line)
        if m:
            name = m.group(1)
            if name in raw:
                raise ProblemFileError(f"duplicate section [{name}]", lineno)
            raw[name] = (lineno, [])
            order.append(name)
            current = name
            continue
        m = _ASSIGN_RE.fullmatch(line)
        if not m:
            raise ProblemFileError(f"expected `key = value`, got {line!r}", lineno)
        key, value = m.group(1), _parse_value(m.group(2), lineno)
        if current is None:
            if key == "version":
                if version is not None:
                    raise ProblemFileError("duplicate version", lineno)
                version = _check_type(key, value, "int", lineno)
                if version != FORMAT_VERSION:
                    raise ProblemFileError(
                        f"unsupported format version {version} "
                        f"(expected {FORMAT_VERSION})", lineno)
            elif key == "mode":
                if mode is not None:
                    raise ProblemFileError("duplicate mode", lineno)
                mode = _check_type(key, value, "word", lineno)
                if mode not in SCHEMAS:
                    raise ProblemFileError(
                        f"unknown mode {mode!r} (expected one of "
                        f"{', '.join(sorted(SCHEMAS))})", lineno)
            else:
                raise ProblemFileError(
                    f"unknown top-level key {key!r}", lineno)
        else:
            raw[current][1].append((key, value, lineno))

    if version is None:
        raise ProblemFileError("missing `version = 1`")
    if mode is None:
        raise ProblemFileError("missing `mode = ...`")

    schema = SCHEMAS[mode]
    sections = []
    for name in order:
        header_line, items = raw[name]
        keyspec = schema.get(name)
        if keyspec is None:
            raise ProblemFileError(
                f"section [{name}] is not allowed in mode {mode}", header_line)
        seen, entries = {}, []
        for key, value, lineno in items:
            tag = keyspec.get(key)
            if tag is None:
                raise ProblemFileError(
                    f"unknown key {key!r} in section [{name}]", lineno)
            if key in seen and not tag.endswith("+"):
                raise ProblemFileError(f"duplicate key {key!r}", lineno)
            seen[key] = True
            entries.append((key, _check_type(key, value, tag.rstrip("?+"), lineno)))
        for key, tag in keyspec.items():
            if not tag.endswith("?") and key not in seen:
                raise ProblemFileError(
                    f"section [{name}] is missing key {key!r}", header_line)
        sections.append((name, tuple(entries)))
    for name in schema:
        if name not in raw:
            raise ProblemFileError(f"mode {mode} requires a section [{name}]")

    return ProblemFile(version=version, mode=mode, sections=tuple(sections))


# -- serialization ---------------------------------------------------------------

def _fmt_value(value) -> str:
    if isinstance(value, RationalVector):
        return "(" + ", ".join(_fmt_value(c) for c in value) + ")"
    if isinstance(value, tuple):
        return "[" + ", ".join(_fmt_value(c) for c in value) + "]"
    if isinstance(value, Fraction):
        return str(value.numerator) if value.denominator == 1 else str(value)
    return str(value)


def serialize(problem: ProblemFile) -> str:
    """Render a ProblemFile as text; parse_problem inverts this exactly."""
    lines = [f"version = {problem.version}", f"mode = {problem.mode}"]
    for name, entries in problem.sections:
        lines.append("")
        lines.append(f"[{name}]")
        for key, value in entries:
            lines.append(f"{key} = {_fmt_value(value)}")
    return "\n".join(lines) + "\n"
