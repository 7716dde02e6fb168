"""Line-oriented problem files: grammar, schema and meaning.

A problem file is UTF-8 text of `key = value` lines grouped under bracketed
section headers, with `#` comments and a top-level `version` and `mode`.
Values are integers, rationals `p/q`, vectors `(a, b, ...)`, lists
`[v0, v1, ...]` (entries rational or vector), or bare words.  Each mode
fixes which sections and keys may appear; unknown keys and sections are
rejected with their line number, as are malformed values.  `serialize` and
`parse_problem` are mutually inverse on well-formed `ProblemFile` values.
The meaning of a problem is here too: `problem_invariants` builds what a
decide, split or binomial problem names and returns the `ExtensionInvariants`
its engine finds; the CLI and the fixture catalog both decide through it.
"""

from __future__ import annotations

import re
import sys
from dataclasses import dataclass
from fractions import Fraction

from .gf import GF
from .localsplit import BaseValuation, split_extensions, to_extension_invariants
from .monoval import BinomialExtensionSpec, MonomialValuation, extend_binomial
from .numtheory import isprime, perfect_power
from .ordgroup import LexGroup, RationalVector
from .poly import Poly, QQ
from .raminv import ExtensionInvariants

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


# -- meaning ---------------------------------------------------------------------

_GF_RE = re.compile(r"GF\((\d+)\)")
# q of a problem file's GF(q) token must lie below this, checked on the
# integer before it is split into p^n, so a q of thousands of digits fails
# fast; every fixture, demo and workload has q <= 2^13
MAX_FIELD_ORDER = 2 ** 128


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


def lex_group(problem: ProblemFile, name: str) -> LexGroup:
    """The lex group of section [name]: its `rank` and `gen` vectors."""
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
    constants = QQ if token == "Q(t)" else _constant_field(token)
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


def problem_invariants(problem: ProblemFile, depth_limit: int = 16) -> list:
    """The `ExtensionInvariants` of a decide, split or binomial problem, one
    per extension; a split recurses at most depth_limit deep."""
    if problem.mode == "decide":
        return [ExtensionInvariants(
            gamma_nu=lex_group(problem, "gamma_nu"),
            gamma_omega=lex_group(problem, "gamma_omega"),
            residue_degree=problem.get("extension", "residue_degree"),
            local_degree=problem.get("extension", "local_degree"),
            residue_char=problem.get("extension", "residue_char"),
            total_degree=problem.get("extension", "total_degree", None),
            provenance=problem.get("extension", "label", ""))]
    if problem.mode == "split":
        v, g = _split_input(problem)
        return [to_extension_invariants(v, lf, g.degree)
                for lf in split_extensions(v, g, depth_limit=depth_limit)]
    if problem.mode == "binomial":
        return extend_binomial(*_binomial_input(problem))
    raise ProblemFileError(f"mode {problem.mode} has no extension invariants")
