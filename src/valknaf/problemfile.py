"""Line-oriented problem files: grammar, schema and meaning.

A problem file is UTF-8 text of `key = value` lines grouped under bracketed
section headers, with `#` comments and a top-level `version` and `mode`.
Values are integers, rationals `p/q`, vectors `(a, b, ...)`, lists
`[v0, v1, ...]` (entries rational or vector), or bare words.  Each mode
fixes which sections and keys may appear; unknown keys and sections are
rejected with their line number, as are malformed values.  One compiled
pattern matches each whole line: a blank or comment line, a section header,
or a `key = value` whose value, when it is one rational, one vector of
rationals or one word, it captures directly.  Any other value is a list or
a mistake, and one compiled scanner cuts it into tokens: a rational, a
vector of rationals, a word, or a single other character such as `(`, `)`,
`[`, `]` or `,`.  Each Fraction is built once from its scanned digits.
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

_RATIONAL = r"([+-]?\d+)(?:\s*/\s*(\d+))?"
_R = r"[+-]?\d+(?:\s*/\s*\d+)?"  # _RATIONAL without its groups
# a rational (numerator and denominator digits), a vector of rationals or a
# word: 4 groups
_ITEM = (_RATIONAL + r"|(\(\s*" + _R + r"(?:\s*,\s*" + _R + r")*\s*\))"
         r"|([A-Za-z][-A-Za-z0-9_^()]*)")
_RATIONAL_RE = re.compile(_RATIONAL)
# a whole line: blank or comment, `[section]`, or `key = value` with the
# value one item or any other text.  Each run of blanks can be taken by one
# `\s*` only, so a line that does not match fails in linear time.
_LINE_RE = re.compile(
    r"\s*(?:(?:\[([a-z_]+)\]|([A-Za-z_][A-Za-z0-9_]*)\s*=\s*(?:" + _ITEM
    + r"|([^#\s](?:[^#]*[^#\s])?)))\s*)?(?:#.*)?")
# one token of a value with the blanks after it: an item, or one other
# character such as ( ) [ ] , -- findall gives (text, num, den, vector,
# word, char).  The search skips blanks before the first token, and no
# blank can start two tokens, so a value scans in linear time.
_TOKEN_RE = re.compile(r"((?:" + _ITEM + r"|(\S))\s*)")


def parse_int(digits: str, line=None) -> int:
    """int(digits); one beyond Python's int-string limit is a file error."""
    try:
        return int(digits)
    except ValueError:
        raise ProblemFileError(
            f"integer of {len(digits.lstrip('+-'))} digits is beyond the "
            f"limit of {sys.get_int_max_str_digits()} digits", line) from None


def _text(tokens) -> str:
    """The source text of a run of tokens, stripped."""
    return "".join(t[0] for t in tokens).strip()


def _split(tokens, line: int) -> list:
    """Runs of tokens between the commas outside parentheses; the
    parentheses inside words count."""
    runs, start, depth = [], 0, 0
    for i, (_, _, _, _, word, char) in enumerate(tokens):
        if char == ",":
            if not depth:
                runs.append(tokens[start:i])
                start = i + 1
            continue
        for c in word or char:
            if c == "(":
                depth += 1
            elif c == ")":
                depth -= 1
                if depth < 0:
                    raise ProblemFileError("unbalanced parentheses", line)
    if depth:
        raise ProblemFileError("unbalanced parentheses", line)
    runs.append(tokens[start:])
    return runs


def _read(num, den, vector, word, line: int):
    """The value of one scanned item: a Fraction built from its digits, a
    RationalVector of such Fractions, or a word."""
    try:
        if vector:
            # the entries are Fractions already: no coercion
            return tuple.__new__(RationalVector, [
                Fraction(int(n), int(d)) if d else Fraction(int(n))
                for n, d in _RATIONAL_RE.findall(vector)])
        if num:
            return Fraction(int(num), int(den)) if den else Fraction(int(num))
        return word
    except ZeroDivisionError:
        raise ProblemFileError("zero denominator", line) from None
    except ValueError:  # more digits than the int-string limit
        for n, d in _RATIONAL_RE.findall(vector) if vector else [(num, den)]:
            parse_int(n, line)
            parse_int(d or "1", line)
        raise


def _item(tokens, line: int):
    """A rational, a vector `(a, b, ...)` of rationals or a word."""
    if len(tokens) == 1 and not tokens[0][5]:
        return _read(*tokens[0][1:5], line)
    text = _text(tokens)
    if text[:1] != "(":
        raise ProblemFileError(f"malformed value {text!r}", line)
    # not a vector of rationals: name the first fault of its entries
    if text[-1] != ")":
        raise ProblemFileError("unterminated vector", line)
    body = _TOKEN_RE.findall(text, 1, len(text) - 1)
    if not body:
        raise ProblemFileError("empty vector", line)
    for run in _split(body, line):
        if len(run) != 1 or not run[0][1]:
            raise ProblemFileError(f"malformed rational {_text(run)!r}", line)
        _read(*run[0][1:5], line)  # its digit-limit or zero-denominator error
    raise AssertionError(f"{text!r} scans as a vector of rationals")


def _value(s: str, line: int):
    """An item, or a list `[v0, v1, ...]` of items."""
    if s[0] != "[":
        return _item(_TOKEN_RE.findall(s), line)
    if s[-1] != "]":
        raise ProblemFileError("unterminated list", line)
    tokens = _TOKEN_RE.findall(s, 1, len(s) - 1)
    if not tokens:
        return ()
    return tuple(_item(run, line) for run in _split(tokens, line))


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
    """Normalize value against a type tag; ints come back as python int."""
    if tag == "int":
        if isinstance(value, Fraction) and value.denominator == 1:
            return value.numerator
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
        header, key, num, den, vector, word, value = m.groups()
        if header:
            if header in raw:
                raise ProblemFileError(f"duplicate section [{header}]", lineno)
            items = []
            raw[header] = (lineno, items)
            continue
        if key is None:
            continue
        value = (_value(value, lineno) if value else
                 _read(num, den, vector, word, lineno))
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
        lines += ["", f"[{name}]"]
        lines += [f"{key} = {_fmt_value(value)}" for key, value in entries]
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
        if not isprime(p):
            raise ProblemFileError(f"{p} is not prime")
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
    if not isinstance(c, (Fraction, RationalVector)):
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


def problem_invariants(problem: ProblemFile, depth_limit: int = 16) -> list:
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
