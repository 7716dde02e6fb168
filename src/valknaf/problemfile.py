"""Line-oriented problem files: grammar, schema and meaning.

A problem file is UTF-8 text of `key = value` lines grouped under bracketed
section headers, with `#` comments and a top-level `version` and `mode`.
Values are integers, rationals `p/q`, vectors `(a, b, ...)`, lists
`[v0, v1, ...]` (entries rational or vector), or bare words.  A rational
reads by `poly.QQ`'s convention: an int when it is integral, so `4/2` reads
as `2`, and a Fraction otherwise.  Each mode fixes which sections and keys
may appear; unknown keys and sections are rejected with their line number,
as are malformed values.  One compiled pattern matches each whole line: a
blank or comment line, a section header, or a `key = value` whose value,
when it is one rational, one vector of rationals, one word or one list of
rationals and vectors, it captures directly; the rationals of a vector or
a list are read with one left-to-right scan of their digits.  Any other
value is a list holding a word, or a mistake, and the grammar's own
cascade reads it: split at the commas outside parentheses, then match each
part as a rational, a vector or a word, or name its first fault.  An
integer reads as an int with no Fraction built; a rational `p/q` builds
one Fraction from its digits, kept only when it is not integral.
Scan, then schema: the scan raises each syntax error at once and keeps each
section's entries; one loop over them after the scan checks the schema, so
a syntax error on a later line wins over a schema error on an earlier one.
`serialize` and `parse_problem` are mutually inverse on well-formed
`ProblemFile` values.
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
from .localsplit import (DEFAULT_DEPTH, BaseValuation, split_extensions,
                         to_extension_invariants)
from .monoval import BinomialExtensionSpec, MonomialValuation, extend_binomial
from .numtheory import perfect_power
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
    occurrence.  Values are int (an integral rational), Fraction (any other
    rational), RationalVector, tuple (list) or str, so equality is
    structural and serialization is type-faithful.
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

_RATIONAL = r"([+-]?\d+)(?:\s*/\s*(\d+))?"
_R = r"[+-]?\d+(?:\s*/\s*\d+)?"  # _RATIONAL without its groups
_V = r"\(\s*" + _R + r"(?:\s*,\s*" + _R + r")*\s*\)"  # a vector of rationals
# a rational (numerator and denominator digits), a vector of rationals or a
# word: 4 groups
_ITEM = _RATIONAL + "|(" + _V + r")|([A-Za-z][-A-Za-z0-9_^()]*)"
_RATIONAL_RE = re.compile(_RATIONAL)
_ITEM_RE = re.compile(_ITEM)
# a list of rationals and vectors and nothing else, its body captured: 1 group
_RV = "(?:" + _R + "|" + _V + ")"
_ITEMS = r"\[\s*(" + _RV + r"(?:\s*,\s*" + _RV + r")*)\s*\]"
# a whole line: blank or comment, `[section]`, or `key = value` with the
# value one item, one list of rationals and vectors or any other text.  Each
# run of blanks can be taken by one `\s*` only, so a line that does not
# match fails in linear time.
_LINE_RE = re.compile(
    r"\s*(?:(?:\[([a-z_]+)\]|([A-Za-z_][A-Za-z0-9_]*)\s*=\s*(?:" + _ITEM
    + "|" + _ITEMS + r"|([^#\s](?:[^#]*[^#\s])?)))\s*)?(?:#.*)?")


def parse_int(digits: str, line=None) -> int:
    """int(digits); one beyond Python's int-string limit is a file error."""
    try:
        return int(digits)
    except ValueError:
        raise ProblemFileError(
            f"integer of {len(digits.lstrip('+-'))} digits is beyond the "
            f"limit of {sys.get_int_max_str_digits()} digits", line) from None


def _numbers(pairs, line: int) -> list:
    """The rationals of scanned (numerator, denominator) digit pairs, in
    order, as `QQ` holds them; the first that has no value names the file
    error."""
    try:
        return [QQ.coerce(Fraction(int(n), int(d))) if d else int(n)
                for n, d in pairs]
    except ZeroDivisionError:
        raise ProblemFileError("zero denominator", line) from None
    except ValueError:  # more digits than the int-string limit
        for n, d in pairs:
            parse_int(n, line)
            parse_int(d or "1", line)
        raise


def _read(num, den, vector, word, line: int):
    """The value of one matched item: a rational read from its digits, a
    RationalVector of such rationals, or a word."""
    if vector:
        # the entries are ints and Fractions already: no coercion
        return tuple.__new__(RationalVector,
                             _numbers(_RATIONAL_RE.findall(vector), line))
    if num:
        return _numbers(((num, den),), line)[0]
    return word


# -- the cascade: every value the line pattern does not capture ----------------

def _parts(s: str, line: int) -> list:
    """The stripped parts of s between its commas outside parentheses; the
    parentheses inside words count."""
    parts, start, depth = [], 0, 0
    for i, c in enumerate(s):
        if c == "(":
            depth += 1
        elif c == ")":
            depth -= 1
            if depth < 0:
                raise ProblemFileError("unbalanced parentheses", line)
        elif c == "," and not depth:
            parts.append(s[start:i].strip())
            start = i + 1
    if depth:
        raise ProblemFileError("unbalanced parentheses", line)
    parts.append(s[start:].strip())
    return parts


def _item(s: str, line: int):
    """A rational, a vector `(a, b, ...)` of rationals or a word; any other
    text is a file error naming its first fault."""
    m = _ITEM_RE.fullmatch(s)
    if m:
        return _read(*m.groups(), line)
    if s[:1] != "(":
        raise ProblemFileError(f"malformed value {s!r}", line)
    if s[-1] != ")":
        raise ProblemFileError("unterminated vector", line)
    parts = _parts(s[1:-1], line)
    if parts == [""]:
        raise ProblemFileError("empty vector", line)
    for part in parts:
        m = _RATIONAL_RE.fullmatch(part)
        if not m:
            raise ProblemFileError(f"malformed rational {part!r}", line)
        # its digit-limit or zero-denominator error
        _numbers((m.groups(),), line)
    raise AssertionError(f"{s!r} reads as a vector of rationals")


def _value(s: str, line: int):
    """An item, or a list `[v0, v1, ...]` of items."""
    if s[0] != "[":
        return _item(s, line)
    if s[-1] != "]":
        raise ProblemFileError("unterminated list", line)
    parts = _parts(s[1:-1], line)
    return () if parts == [""] else tuple(_item(p, line) for p in parts)


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


# SCHEMAS with each tag read once: mode -> section -> key ->
# (type tag, optional, repeatable)
_KEY_SPECS = {
    mode: {name: {key: (tag.rstrip("?+"), tag.endswith("?"), tag.endswith("+"))
                  for key, tag in keys.items()}
           for name, keys in sections.items()}
    for mode, sections in SCHEMAS.items()}


def _check_type(key: str, value, tag: str, line: int):
    """value, checked against a type tag; an int is an integral rational."""
    if tag == "int":
        if type(value) is int:
            return value
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
    """Parse problem text (bytes or str) and check it against its mode schema.

    Scan, then schema: the scan raises each syntax error at once, then a
    missing `version` or `mode` is raised, and then one loop over the
    sections in file order raises the first schema error.
    """
    if isinstance(text, bytes):
        try:
            text = text.decode("utf-8")
        except UnicodeDecodeError as exc:
            raise ProblemFileError(f"not valid UTF-8: {exc}") from None

    version = mode = items = None
    raw = {}  # name -> (header line, [(key, value, line), ...]), file order
    fullmatch = _LINE_RE.fullmatch
    for lineno, rawline in enumerate(text.splitlines(), start=1):
        m = fullmatch(rawline)
        if m is None:
            line = rawline.split("#", 1)[0].strip()
            raise ProblemFileError(f"expected `key = value`, got {line!r}",
                                   lineno)
        header, key, num, den, vector, word, listed, value = m.groups()
        if header:
            if header in raw:
                raise ProblemFileError(f"duplicate section [{header}]", lineno)
            items = []
            raw[header] = (lineno, items)
            continue
        if key is None:
            continue
        if value:
            value = _value(value, lineno)
        elif listed and "(" in listed:
            value = tuple(_read(*item, lineno)
                          for item in _ITEM_RE.findall(listed))
        elif listed:
            value = tuple(_numbers(_RATIONAL_RE.findall(listed), lineno))
        else:
            value = _read(num, den, vector, word, lineno)
        if items is not None:
            items.append((key, value, lineno))
        elif key == "version":
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
            raise ProblemFileError(f"unknown top-level key {key!r}", lineno)

    if version is None:
        raise ProblemFileError("missing `version = 1`")
    if mode is None:
        raise ProblemFileError("missing `mode = ...`")
    mode_specs = _KEY_SPECS[mode]
    sections = []
    for name, (header_line, items) in raw.items():
        specs = mode_specs.get(name)
        if specs is None:
            raise ProblemFileError(
                f"section [{name}] is not allowed in mode {mode}", header_line)
        entries, seen = [], set()
        for key, value, lineno in items:
            spec = specs.get(key)
            if spec is None:
                raise ProblemFileError(
                    f"unknown key {key!r} in section [{name}]", lineno)
            if key in seen and not spec[2]:
                raise ProblemFileError(f"duplicate key {key!r}", lineno)
            seen.add(key)
            entries.append((key, _check_type(key, value, spec[0], lineno)))
        for key, (_, optional, _) in specs.items():
            if not optional and key not in seen:
                raise ProblemFileError(
                    f"section [{name}] is missing key {key!r}", header_line)
        sections.append((name, tuple(entries)))
    for name in mode_specs:
        if name not in raw:
            raise ProblemFileError(f"mode {mode} requires a section [{name}]")
    return ProblemFile(version=version, mode=mode, sections=tuple(sections))


# -- serialization ---------------------------------------------------------------

def _fmt_value(value) -> str:
    if type(value) is tuple:
        return "[" + ", ".join(map(str, value)) + "]"
    return str(value)


def serialize(problem: ProblemFile) -> str:
    """Render a ProblemFile as text; parse_problem inverts this exactly."""
    lines = [f"version = {problem.version}", f"mode = {problem.mode}"]
    for name, entries in problem.sections:
        lines += ["", f"[{name}]"]
        lines += [f"{key} = {_fmt_value(value)}" for key, value in entries]
    return "\n".join(lines) + "\n"


# -- meaning ---------------------------------------------------------------------

_GF_RE = re.compile(r"GF\((\d+)\)")
# q of a problem file's GF(q) token must lie below this, checked on the
# integer before it is split into p^n, so a q of thousands of digits fails
# fast; every fixture, demo and workload has q <= 2^13
MAX_FIELD_ORDER = 2 ** 128
# the largest rank of a group section, whose least is 1; a pair at the
# bound takes about 2 s
MAX_RANK = 128


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
        try:
            return GF(*perfect_power(q))
        except ValueError:
            raise ProblemFileError(f"{q} is not a prime power") from None
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
    if rank < 1:
        raise ProblemFileError(f"[{name}] rank {rank} is below 1")
    if rank > MAX_RANK:
        raise ProblemFileError(
            f"[{name}] rank {rank} is beyond the rank bound {MAX_RANK}")
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
        try:
            return BaseValuation.padic(p)
        except ValueError:
            raise ProblemFileError(f"{p} is not prime") from None
    constants = QQ if token == "Q(t)" else _constant_field(token)
    if pi is None or p is not None:
        raise ProblemFileError(
            f"field {token} takes `pi = [c0, ..., 1]` and no p")
    if not all(isinstance(c, (int, Fraction)) for c in pi):
        raise ProblemFileError("pi coefficients must be rationals")
    return BaseValuation.pi_adic(
        constants, Poly(constants, [_field_element(constants, c) for c in pi]))


def _coefficient(v: BaseValuation, entry):
    if isinstance(entry, str):
        raise ProblemFileError("coeffs must hold rationals or vectors like "
                               f"(0, 1), not {entry!r}")
    if isinstance(entry, RationalVector):
        if v.field is QQ:
            raise ProblemFileError(
                "vector coefficients (polynomials in t) need a "
                "function-field base")
        return v.field.coerce(Poly(
            v.field.base, [_field_element(v.field.base, c) for c in entry]))
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
    wx, wy = problem.get("base", "weight_x"), problem.get("base", "weight_y")
    for key, w in ("weight_x", wx), ("weight_y", wy):
        if len(w) != 2:
            raise ProblemFileError(f"[base] {key} {w} does not have 2 entries")
    v = MonomialValuation(k, wx, wy)
    c = problem.get("extension", "c")
    if not isinstance(c, (int, Fraction, RationalVector)):
        raise ProblemFileError("c must be a rational or a vector like (1, 0), "
                               f"not {_fmt_value(c)!r}")
    if isinstance(c, RationalVector):
        if k is QQ:
            raise ProblemFileError("vector constants need a GF(q) base")
        if any(x.denominator != 1 for x in c):
            raise ProblemFileError("GF element coordinates must be integers")
        if len(c) > k.n:
            raise ProblemFileError(f"a GF({k.q}) element has at most {k.n} "
                                   f"coordinates, not {len(c)}")
        c = k.element(int(x) for x in c)
    else:
        c = _field_element(k, c)
    spec = BinomialExtensionSpec(problem.get("extension", "n"),
                                 problem.get("extension", "a"),
                                 problem.get("extension", "b"), c)
    return v, spec


def problem_invariants(problem: ProblemFile,
                       depth_limit: int = DEFAULT_DEPTH) -> list:
    """The `ExtensionInvariants` of a decide, split or binomial problem, one
    per extension; a split branch augments at most depth_limit times."""
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
