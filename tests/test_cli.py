"""Tests for the problem-file format, the fixture catalog and the CLI."""

import os
import subprocess
import sys
from fractions import Fraction as F
from pathlib import Path

import pytest

from valknaf import cli
from valknaf.fixtures import FIXTURES, fixture
from valknaf.inductive import Tower
from valknaf.ordgroup import LexGroup, initial_index, subgroup_index
from valknaf.problemfile import (ProblemFile, ProblemFileError, parse_problem,
                                 serialize)
from valknaf.raminv import knaf_decide

SPLIT5 = """\
version = 1
mode = split

[base]
field = Q
p = 5

[polynomial]
coeffs = [1, 0, 1]
"""

GROUP = """\
version = 1
mode = group

[gamma_nu]
rank = 2
gen = (1, 0)
gen = (0, 1)

[gamma_omega]
rank = 2
gen = (1/2, 0)
gen = (0, 1)
"""

BINO = """\
version = 1
mode = binomial

[base]
field = GF(5)
weight_x = (1, 0)
weight_y = (0, 1)

[extension]
n = 2
a = 1
b = 0
c = 1
"""


# -- parsing -------------------------------------------------------------------

def test_parse_split_example():
    pf = parse_problem(SPLIT5)
    assert pf.version == 1 and pf.mode == "split"
    assert pf.get("base", "field") == "Q"
    assert pf.get("base", "p") == 5
    assert pf.get("polynomial", "coeffs") == (1, 0, 1)


def test_parse_group_example():
    pf = parse_problem(GROUP.encode())  # bytes input
    assert pf.mode == "group"
    assert pf.get_all("gamma_omega", "gen") == [(F(1, 2), 0), (0, 1)]
    assert pf.get("gamma_nu", "rank") == 2


def test_round_trip_identity():
    for text in (SPLIT5, GROUP, BINO):
        pf = parse_problem(text)
        assert parse_problem(serialize(pf)) == pf
        assert serialize(parse_problem(serialize(pf))) == serialize(pf)


def test_round_trip_all_fixture_problems():
    for fx in FIXTURES:
        again = parse_problem(serialize(fx.problem))
        assert again == fx.problem, fx.name
        # equal values of another type (an int for a Fraction) read apart
        assert repr(again) == repr(fx.problem), fx.name


@pytest.mark.parametrize("text,line,fragment", [
    (SPLIT5.replace("p = 5", "p = 1//2"), 6, "malformed"),
    (SPLIT5.replace("version = 1", "version = 2"), 1, "version"),
    (SPLIT5.replace("p = 5", "p = 5\nq = 7"), 7, "unknown key"),
    (SPLIT5.replace("p = 5", "p = 5\np = 7"), 7, "duplicate key"),
    (SPLIT5 + "\n[base]\nfield = Q\n", 11, "duplicate section"),
    (SPLIT5.replace("[base]", "[car]"), 4, "not allowed"),
    (GROUP.replace("gen = (1, 0)\n", "", 1).replace("gen = (0, 1)\n", "", 1),
     4, "missing key"),
    (SPLIT5.replace("coeffs = [1, 0, 1]", "coeffs = [1, 0, 1"), 9,
     "unterminated"),
    (GROUP.replace("gen = (1, 0)", "gen = ()"), 6, "empty vector"),
    (SPLIT5.replace("p = 5", "p = 1/0"), 6, "zero denominator"),
    (SPLIT5.replace("p = 5", "p = 1/2"), 6, "integer"),
    (SPLIT5.replace("field = Q", "just words here"), 5, "key = value"),
])
def test_rejections_carry_line_numbers(text, line, fragment):
    with pytest.raises(ProblemFileError) as err:
        parse_problem(text)
    assert f"line {line}" in str(err.value)
    assert fragment in str(err.value)


def test_missing_sections_and_header_keys():
    with pytest.raises(ProblemFileError, match="missing `version"):
        parse_problem("mode = group\n")
    with pytest.raises(ProblemFileError, match="missing `mode"):
        parse_problem("version = 1\n")
    with pytest.raises(ProblemFileError, match="unknown mode"):
        parse_problem("version = 1\nmode = shuffle\n")
    with pytest.raises(ProblemFileError, match="requires a section"):
        parse_problem("version = 1\nmode = split\n[base]\nfield = Q\np = 5\n")
    with pytest.raises(ProblemFileError, match="UTF-8"):
        parse_problem(b"version = 1\xff\n")


# -- fixtures ------------------------------------------------------------------

def test_fixture_catalog_rows_match_expected():
    for fx in FIXTURES:
        rows = tuple((k.e, k.f, k.eps, k.d, k.eft)
                     for k in map(knaf_decide, fx.invariants()))
        assert rows == fx.expected, fx.name


def _porcelain_rows(text):
    rows = []
    for line in text.splitlines():
        cells = dict(kv.split("=", 1) for kv in line.split("\t"))
        rows.append((int(cells["e"]), int(cells["f"]), int(cells["eps"]),
                     int(cells["d"]), cells["eft"] == "true"))
    return tuple(rows)


@pytest.mark.parametrize("fx", FIXTURES, ids=lambda fx: fx.name)
def test_fixture_problem_files_run_to_expected(fx, tmp_path, capsys):
    rows = tuple((r.e, r.f, r.eps, r.d, r.eft) for r in cli.run(fx.problem))
    assert rows == fx.expected
    path = write(tmp_path, f"{fx.name}.prob", serialize(fx.problem))
    assert cli.main([fx.problem.mode, "--file", path, "--porcelain"]) == 0
    assert _porcelain_rows(capsys.readouterr().out) == fx.expected


def test_fixture_lookup():
    assert fixture("i-at-3").expected == ((1, 2, 1, 1, True),)
    with pytest.raises(KeyError, match="unknown fixture"):
        fixture("no-such-fixture")


def test_expected_named_values():
    table = {
        "sqrt2-at-2": ((2, 1, 2, 1, True),),
        "monomial-sqrt-x": ((2, 1, 1, 1, False),),
        "monomial-sqrt-y": ((2, 1, 2, 1, True),),
        "monomial-sqrt-xy": ((2, 1, 1, 1, False),),
        "frobenius-defect-p": ((1, 1, 1, 2, False),),
        "frobenius-abhyankar": ((2, 1, 2, 1, True),),
    }
    for name, rows in table.items():
        assert fixture(name).expected == rows


# -- cli -----------------------------------------------------------------------

def write(tmp_path, name, text):
    path = tmp_path / name
    path.write_text(text, encoding="utf-8")
    return str(path)


def test_cli_split_table_and_exit(tmp_path, capsys):
    path = write(tmp_path, "s.prob", SPLIT5)
    assert cli.main(["split", "--file", path]) == 0
    out = capsys.readouterr().out
    assert "EFT" in out and out.count("true") >= 4
    assert "factor 1" in out and "factor 2" in out


def test_cli_porcelain_schema_stable(tmp_path, capsys):
    path = write(tmp_path, "s.prob", SPLIT5)
    runs = []
    for _ in range(2):
        assert cli.main(["split", "--file", path, "--porcelain"]) == 0
        runs.append(capsys.readouterr().out)
    assert runs[0] == runs[1]
    first = runs[0].splitlines()[0].split("\t")
    assert [kv.split("=")[0] for kv in first] == [
        "label", "e", "f", "eps", "d", "defectless", "initial", "eft",
        "certificate"]


def test_cli_group_mode(tmp_path, capsys):
    path = write(tmp_path, "g.prob", GROUP)
    assert cli.main(["group", "--file", path, "--porcelain"]) == 0
    out = capsys.readouterr().out.strip()
    assert out == ("label=gamma_omega over gamma_nu\te=2\teps=1\t"
                   "initial=false")


def test_cli_binomial(tmp_path, capsys):
    path = write(tmp_path, "b.prob", BINO)
    assert cli.main(["binomial", "--file", path, "--porcelain"]) == 0
    out = capsys.readouterr().out
    assert "e=2" in out and "eps=1" in out and "eft=false" in out


def test_cli_decide_fixture_matches_catalog(capsys):
    for fx in FIXTURES:
        assert cli.main(["decide", fx.name, "--porcelain"]) == 0
        decide_out = capsys.readouterr().out
        assert cli.main(["fixtures", fx.name, "--porcelain"]) == 0
        fixtures_out = capsys.readouterr().out
        assert decide_out == fixtures_out
        for (e, f, eps, d, eft), line in zip(fx.expected,
                                             decide_out.splitlines()):
            assert f"e={e}" in line and f"f={f}" in line
            assert f"eps={eps}" in line and f"d={d}" in line
            assert f"eft={'true' if eft else 'false'}" in line


def test_cli_fixtures_listing(capsys):
    assert cli.main(["fixtures"]) == 0
    out = capsys.readouterr().out
    for fx in FIXTURES:
        assert fx.name in out
        assert fx.description.splitlines()[0][:30] in out


def test_cli_function_field_split(tmp_path, capsys):
    text = """\
version = 1
mode = split

[base]
field = Q(t)
pi = [0, 1]

[polynomial]
coeffs = [(0, -1), 0, 1]
"""
    path = write(tmp_path, "qt.prob", text)
    assert cli.main(["split", "--file", path, "--porcelain"]) == 0
    out = capsys.readouterr().out
    assert "e=2" in out and "eft=true" in out


def test_cli_gf4_vector_constant(tmp_path, capsys):
    # z^3 = g over GF(4)(x, y): g is not a cube, so f = 3 and e = 1
    text = """\
version = 1
mode = binomial

[base]
field = GF(4)
weight_x = (1, 0)
weight_y = (0, 1)

[extension]
n = 3
a = 0
b = 0
c = (0, 1)
"""
    path = write(tmp_path, "gf4.prob", text)
    assert cli.main(["binomial", "--file", path, "--porcelain"]) == 0
    out = capsys.readouterr().out
    assert "e=1" in out and "f=3" in out and "eft=true" in out


def test_cli_exit_codes(tmp_path, capsys):
    syntax = write(tmp_path, "syn.prob", SPLIT5.replace("p = 5", "p = 1//2"))
    wild = write(tmp_path, "wild.prob", BINO.replace("n = 2", "n = 5"))
    # z^5 = 2 over GF(5): 2 is a 5th power, as is every element
    reducible = write(tmp_path, "red.prob", BINO.replace("n = 2", "n = 5")
                      .replace("a = 1", "a = 0").replace("c = 1", "c = 2"))
    nonsq = write(tmp_path, "nsq.prob",
                  SPLIT5.replace("coeffs = [1, 0, 1]",
                                 "coeffs = [4, -4, 1]"))  # (x - 2)^2
    deep = write(tmp_path, "deep.prob",
                 SPLIT5.replace("p = 5", "p = 2").replace(
                     "coeffs = [1, 0, 1]", "coeffs = [4, 0, 8, 0, 1]"))
    notprime = {p: write(tmp_path, f"p{p}.prob", SPLIT5.replace(
        "p = 5", f"p = {p}")) for p in (4, 0, -3)}
    longvec = write(tmp_path, "long.prob", BINO.replace(
        "GF(5)", "GF(4)").replace("c = 1", "c = (1, 0, 0)"))
    baddec = write(tmp_path, "bad.prob", """\
version = 1
mode = decide

[gamma_nu]
rank = 1
gen = (1)

[gamma_omega]
rank = 1
gen = (1/2)

[extension]
residue_degree = 1
local_degree = 3
residue_char = 0
""")
    cases = [
        (["split", "--file", syntax], 1, "line 6"),
        (["split", "--file", str(tmp_path / "absent.prob")], 1, "absent"),
        (["group", "--file", write(tmp_path, "m.prob", SPLIT5)], 1, "mode"),
        (["decide", "no-such"], 1, "unknown fixture"),
        (["fixtures", ""], 1, "error: unknown fixture ''; "),
        (["decide"], 1, "fixture name or --file"),
        (["split", "--file", syntax, "--depth", "0"], 1, "depth"),
        (["split", "--file", syntax, "--depth", "257"], 1,
         "--depth must be between 1 and 256"),
        (["split", "--file", notprime[4]], 1, "error: 4 is not prime"),
        (["split", "--file", notprime[0]], 1, "error: 0 is not prime"),
        (["split", "--file", notprime[-3]], 1, "error: -3 is not prime"),
        (["binomial", "--file", longvec], 1,
         "error: a GF(4) element has at most 2 coordinates, not 3"),
        (["nonsense"], 1, "invalid choice"),
        ([], 1, "the following arguments are required: command"),
        (["split"], 1, "the following arguments are required: --file"),
        (["split", "--file"], 1, "argument --file: expected one argument"),
        (["split", "--file", "--porcelain"], 1, "expected one argument"),
        (["split", "--file", syntax, "--depth", "x"], 1,
         "invalid int value: 'x'"),
        (["split", "--file", syntax, "extra"], 1,
         "unrecognized arguments: 'extra'"),
        (["--porcelain", "split", "--file", syntax, "a\nb"], 1,
         "unrecognized arguments: '--porcelain' 'a\\nb'"),
        (["group", "--=x"], 1, "ambiguous option"),
        (["group", "--porcelain=yes", "--file", syntax], 1,
         "ignored explicit argument 'yes'"),
        (["binomial", "--file", wild], 0, ""),
        (["binomial", "--file", reducible], 2, "reducible"),
        (["split", "--file", nonsq], 2, "squarefree"),
        (["decide", "--file", baddec], 2, "does not divide"),
        (["split", "--file", deep, "--depth", "1"], 3, "not isolated"),
        (["split", "--file", deep], 0, ""),  # the default depth is back
    ]
    for argv, code, fragment in cases:
        assert cli.main(argv) == code, argv
        out, err = capsys.readouterr()
        assert fragment in err, (argv, err)
        if code:
            assert out == "" and err.count("\n") == 1, (argv, err)


@pytest.mark.parametrize("argv,usage", [
    ([], "valknaf {group,decide,split,binomial,fixtures} ..."),
    (["split"], "valknaf split --file FILE [--porcelain] [--depth N]"),
    (["decide"], "valknaf decide (--file FILE | FIXTURE) [--porcelain]"),
    (["fixtures", "a", "b"], "valknaf fixtures [FIXTURE] [--porcelain]"),
])
def test_cli_usage_error_is_one_line(capsys, argv, usage):
    assert cli.main(argv) == 1
    out, err = capsys.readouterr()
    assert out == "" and err.startswith("error: ")
    assert err.endswith(f"; usage: {usage}\n") and err.count("\n") == 1


@pytest.mark.parametrize("argv", [["-h"], ["--help"], ["split", "--help"],
                                  ["decide", "-h", "--bogus"],
                                  ["fixtures", "--he"]])
def test_cli_help_prints_usage(capsys, argv):
    assert cli.main(argv) == 0
    out, err = capsys.readouterr()
    assert out == cli.USAGE and err == ""
    assert out.splitlines()[2] == (
        "valknaf split    --file FILE [--porcelain] [--depth N]")


def test_cli_usage_is_the_readme_block():
    readme = (Path(__file__).resolve().parent.parent / "README.md").read_text(
        encoding="utf-8")
    section = readme[readme.index("## Command line"):]
    assert section.split("```\n")[1] == cli.USAGE


def test_cli_main_reads_sys_argv(capsys, monkeypatch):
    monkeypatch.setattr(sys, "argv", ["valknaf", "fixtures", "i-at-3",
                                      "--porc"])
    assert cli.main() == 0
    assert capsys.readouterr().out.startswith("label=i-at-3[1]\t")


@pytest.mark.parametrize("mode,text", [
    # (x^2 + 1)^2 + t at pi = t over Q(t): the residual factor x^2 + 1 would
    # need the residue field Q(i)
    ("split", SPLIT5.replace("field = Q", "field = Q(t)")
     .replace("p = 5", "pi = [0, 1]")
     .replace("[1, 0, 1]", "[(1, 1), 0, 2, 0, 1]")),
    # pi = t^2 + 1 over Q(t): the residue field Q[t]/(pi) is Q(i)
    ("split", SPLIT5.replace("field = Q", "field = Q(t)")
     .replace("p = 5", "pi = [1, 0, 1]")),
], ids=["qt-degree-2-residue", "qt-degree-2-pi"])
def test_cli_out_of_scope_is_unsupported(tmp_path, capsys, mode, text):
    # out-of-scope input keeps exit 2 but is told apart from inconsistent data
    path = write(tmp_path, "p.prob", text)
    assert cli.main([mode, "--file", path]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("unsupported: ")
    assert "residue field of degree 2 over Q" in captured.err
    assert captured.err.count("\n") == 1


def test_cli_simple_quadratic_residual_factor_over_qt(tmp_path, capsys):
    # x^2 + 1 at pi = t over Q(t): the residual factor x^2 + 1 is simple, so
    # f = 2 is read off its degree and no number field is built
    path = write(tmp_path, "p.prob", SPLIT5.replace("field = Q", "field = Q(t)")
                 .replace("p = 5", "pi = [0, 1]"))
    assert cli.main(["split", "--file", path, "--porcelain"]) == 0
    captured = capsys.readouterr()
    assert captured.err == ""
    assert captured.out.count("\n") == 1
    assert "\te=1\tf=2\teps=1\t" in captured.out


def test_cli_corrupt_tower_is_inconsistent(tmp_path, capsys, monkeypatch):
    # a unit of the graded reduction that vanishes can only come from a
    # corrupt tower; Tower.residue reports it as inconsistent data, in one
    # line.  The unit is zeroed only where residue asks for it, through
    # the line_residual it shares with the polygon segments: lift_at,
    # which lift_key calls first after each augmentation, would invert a
    # zero unit.
    real = Tower.unit_at

    def zero_unit_in_residue(self, i, w, q_exps, t):
        unit = real(self, i, w, q_exps, t)
        if sys._getframe(2).f_code.co_name == "residue":
            return self.field_at(i).zero
        return unit

    monkeypatch.setattr(Tower, "unit_at", zero_unit_in_residue)
    # x^4 + 8x^2 + 4 at 2 augments three times (test_cli_exit_codes' deep)
    deep = write(tmp_path, "deep.prob",
                 SPLIT5.replace("p = 5", "p = 2").replace(
                     "coeffs = [1, 0, 1]", "coeffs = [4, 0, 8, 0, 1]"))
    assert cli.main(["split", "--file", deep, "--porcelain"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == ("inconsistent: graded reduction vanished; "
                            "tower is corrupt\n")


GF5_SPLIT = """\
version = 1
mode = split

[base]
field = GF(5)
pi = {pi}

[polynomial]
coeffs = {coeffs}
"""


@pytest.mark.parametrize("field,pi,message", [
    ("Q(t)", "[0, 0, 1]", "t^2 is not irreducible over QQ"),
    ("GF(5)", "[4, 0, 1]", "4 + t^2 is not irreducible over GF(5)"),
], ids=["Q(t)", "GF(5)"])
def test_cli_reducible_pi_is_printed_in_t(tmp_path, capsys, field, pi,
                                          message):
    # a reducible uniformizer is inconsistent data; the message prints it
    # as a polynomial in t, as the valuation's description does
    path = write(tmp_path, "p.prob", GF5_SPLIT.replace("GF(5)", field)
                 .format(pi=pi, coeffs="[1, 0, 1]"))
    assert cli.main(["split", "--file", path]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"inconsistent: {message}\n"


@pytest.mark.parametrize("mode,text", [
    ("split", GF5_SPLIT.format(pi="[1/5, 1]", coeffs="[1, 0, 1]")),
    ("split", GF5_SPLIT.format(pi="[0, 1]", coeffs="[1/5, 0, 1]")),
    ("split", GF5_SPLIT.format(pi="[0, 1]", coeffs="[(1/5, 1), 0, 1]")),
    ("binomial", BINO.replace("c = 1", "c = 1/5")),
], ids=["pi", "coeffs", "vector", "binomial"])
def test_cli_rational_without_image_in_gf(tmp_path, capsys, mode, text):
    path = write(tmp_path, "p.prob", text)
    assert cli.main([mode, "--file", path]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1
    assert "1/5" in err and "GF(5)" in err


@pytest.mark.parametrize("field", ["GF(5)", "Q"])
def test_cli_binomial_constant_not_a_value(tmp_path, capsys, field):
    text = BINO.replace("GF(5)", field).replace("c = 1", "c = foo")
    path = write(tmp_path, "c.prob", text)
    assert cli.main(["binomial", "--file", path]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1
    assert "foo" in err


@pytest.mark.parametrize("c", ["[1/2, 1]", "[(1, 0), x]", "foo"])
def test_cli_binomial_constant_reads_as_file_text(tmp_path, capsys, c):
    # a list was printed as Python reprs, e.g. (Fraction(1, 2), Fraction(1, 1))
    path = write(tmp_path, "c.prob", BINO.replace("c = 1", f"c = {c}"))
    assert cli.main(["binomial", "--file", path]) == 1
    assert capsys.readouterr().err == (
        f"error: c must be a rational or a vector like (1, 0), not {c!r}\n")


@pytest.mark.parametrize("line,bad", [
    ("weight_x = (1, 0)", "weight_x = (1, 0, 0)"),
    ("weight_y = (0, 1)", "weight_y = (1)"),
])
def test_cli_binomial_weight_length_is_file_error(tmp_path, capsys, line, bad):
    # a weight of the wrong length exited 2 as inconsistent data
    path = write(tmp_path, "w.prob", BINO.replace(line, bad))
    assert cli.main(["binomial", "--file", path]) == 1
    key, weight = bad.split(" = ")
    assert capsys.readouterr().err == (
        f"error: [base] {key} {weight} does not have 2 entries\n")


@pytest.mark.parametrize("base,coeffs", [
    ("field = GF(3)\npi = [0, 1]", "[(0, -1), 0, z]"),
    ("field = Q(t)\npi = [0, 1]", "[(0, -1), 0, z]"),
    ("field = Q\np = 5", "[1, 0, z]"),
], ids=["GF(3)", "Q(t)", "Q"])
def test_cli_split_word_coefficient_is_file_error(tmp_path, capsys, base,
                                                  coeffs):
    # a word among the coefficients escaped as a TypeError traceback over
    # GF(3)(t) and Q(t), and as exit 2 over Q
    text = SPLIT5.replace("field = Q\np = 5", base).replace(
        "[1, 0, 1]", coeffs)
    path = write(tmp_path, "w.prob", text)
    assert cli.main(["split", "--file", path]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == ("error: coeffs must hold rationals or vectors "
                            "like (0, 1), not 'z'\n")


def gf_split(q, coeffs):
    return GF5_SPLIT.replace("GF(5)", f"GF({q})").format(pi="[0, 1]",
                                                        coeffs=coeffs)


@pytest.mark.parametrize("q,code", [
    (1, 1), (6, 1), (36, 1), (4, 0), (64, 0),
])
def test_cli_gf_token_prime_power(tmp_path, capsys, q, code):
    path = write(tmp_path, "gfq.prob", gf_split(q, "[(0, -1), 0, 0, 1]"))
    assert cli.main(["split", "--file", path, "--porcelain"]) == code
    captured = capsys.readouterr()
    if code:
        assert captured.err == f"error: {q} is not a prime power\n"
    else:
        assert "e=3" in captured.out and "eps=3" in captured.out


@pytest.mark.parametrize("q,code", [
    (2 ** 128, 1), (10 ** 3000 + 1, 1), (2 ** 128 - 159, 0), (3 ** 80, 0),
], ids=["2^128", "10^3000+1", "prime-below-2^128", "3^80"])
def test_cli_gf_field_order_bound(tmp_path, capsys, q, code):
    # the bound is checked on q before it is split into p^n: at the parent a
    # q of 3001 digits spent seconds in perfect_power before it failed
    path = write(tmp_path, "gfq.prob", gf_split(q, "[(0, -1), 0, 1]"))
    assert cli.main(["split", "--file", path, "--porcelain"]) == code
    captured = capsys.readouterr()
    if code:
        assert captured.out == ""
        assert captured.err == (
            f"error: GF(q) with q of {q.bit_length()} bits is beyond the "
            "field order bound 2^128\n")
    else:
        assert "\te=2\tf=1\teps=2\t" in captured.out


HUGE = "7" * 5003  # beyond Python's 4300-digit int-string limit


@pytest.mark.parametrize("text,fragment", [
    (SPLIT5.replace("p = 5", f"p = {HUGE}"), "line 6: integer of 5003"),
    (SPLIT5.replace("[1, 0, 1]", f"[1/{HUGE}, 0, 1]"),
     "line 9: integer of 5003"),
    (gf_split(HUGE, "[(0, -1), 0, 1]"), "integer of 5003"),
], ids=["p", "denominator", "gf"])
def test_cli_integer_beyond_str_limit_is_file_error(tmp_path, capsys, text,
                                                   fragment):
    path = write(tmp_path, "huge.prob", text)
    assert cli.main(["split", "--file", path, "--porcelain"]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: ")
    assert captured.err.count("\n") == 1 and fragment in captured.err


BIG_P = 1000000000000000003

# name -> (mode, problem text, expected rows as (e, f, eps))
BIG_PRIME_INPUTS = {
    "split-Q": ("split", SPLIT5.replace("p = 5", f"p = {BIG_P}").replace(
        "coeffs = [1, 0, 1]", f"coeffs = [-{BIG_P}, 0, 1]"), [(2, 1, 2)]),
    # x^2 - 1 splits mod p: two residual factors of degree 1
    "split-Q-residual-split": ("split", SPLIT5.replace(
        "p = 5", f"p = {BIG_P}").replace(
        "coeffs = [1, 0, 1]", "coeffs = [-1, 0, 1]"), [(1, 1, 1), (1, 1, 1)]),
    "split-GF": ("split", gf_split(BIG_P, "[(0, -1), 0, 1]"), [(2, 1, 2)]),
    "decide": ("decide", f"""\
version = 1
mode = decide

[gamma_nu]
rank = 1
gen = (1)

[gamma_omega]
rank = 1
gen = (1/2)

[extension]
residue_degree = 1
local_degree = 2
residue_char = {BIG_P}
""", [(2, 1, 2)]),
}


def child_env():
    src = str(Path(__file__).resolve().parent.parent / "src")
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        filter(None, [src, env.get("PYTHONPATH")]))
    return env


@pytest.mark.parametrize("name", sorted(BIG_PRIME_INPUTS))
def test_cli_prime_near_1e18(tmp_path, name):
    # run in a child so that a slow primality test or a factorization that
    # enumerates GF(p) fails here instead of hanging the suite
    mode, text, expected = BIG_PRIME_INPUTS[name]
    path = write(tmp_path, "big.prob", text)
    proc = subprocess.run(
        [sys.executable, "-m", "valknaf.cli", mode, "--file", path,
         "--porcelain"],
        capture_output=True, text=True, env=child_env(), timeout=30)
    assert proc.returncode == 0, proc.stderr
    rows = proc.stdout.splitlines()
    assert len(rows) == len(expected)
    for row, (e, f, eps) in zip(rows, expected):
        assert f"\te={e}\tf={f}\teps={eps}\t" in row


# inputs whose residue extensions once enumerated a large field: GF(p^2)
# for p near 1e18, GF(2^22), and GF(3^12) below a quartic; each row is
# (e, f), and the e f of each input sum to its degree
FORMERLY_HANGING = {
    "x2-t-over-big-prime-square": ("""\
version = 1
mode = split

[base]
field = GF(1000000000000000003)
pi = [-2, 0, 1]

[polynomial]
coeffs = [(0, -1), 0, 1]
""", 2, [(1, 1), (1, 1)]),
    "phi22-squared-plus-2": ("""\
version = 1
mode = split

[base]
field = Q
p = 2

[polynomial]
coeffs = [3, 2, 1, 0, 2, 2, 2, 2, 3, 2, 2, 2, 7, 4, 6, 4, 5, 8, 8, 6, 6, 4, \
9, 6, 7, 6, 7, 4, 7, 6, 8, 4, 3, 4, 5, 4, 3, 0, 2, 2, 2, 0, 0, 0, 1]
""", 44, None),
    "quartic-at-deg-pi-12": ("""\
version = 1
mode = split

[base]
field = GF(3)
pi = [1, 2, 2, 2, 0, 2, 1, 1, 0, 2, 1, 2, 1]

[polynomial]
coeffs = [(2, 2), 0, 0, 0, 1]
""", 4, None),
}


@pytest.mark.parametrize("name", sorted(FORMERLY_HANGING))
def test_cli_formerly_hanging(tmp_path, name):
    # run in a child so that a root search that enumerates the residue
    # field fails here instead of hanging the suite
    text, degree, expected = FORMERLY_HANGING[name]
    path = write(tmp_path, "hang.prob", text)
    proc = subprocess.run(
        [sys.executable, "-m", "valknaf.cli", "split", "--file", path,
         "--porcelain"],
        capture_output=True, text=True, env=child_env(), timeout=10)
    assert proc.returncode == 0, proc.stderr
    rows = [dict(field.split("=", 1) for field in line.split("\t"))
            for line in proc.stdout.splitlines()]
    ef = [(int(r["e"]), int(r["f"])) for r in rows]
    assert sum(e * f for e, f in ef) == degree
    if expected is not None:
        assert ef == expected


def test_cli_close_roots_optimal_chain(tmp_path):
    # roots 1 and 1 + 3^257 stay together past the largest --depth; each
    # step's key replaces the one level of e = f = 1, so the 256 steps
    # grade through one level each instead of through all the steps before
    n = 257
    text = SPLIT5.replace("p = 5", "p = 3").replace(
        "[1, 0, 1]", f"[{1 + 3 ** n}, {-(2 + 3 ** n)}, 1]")
    path = write(tmp_path, "close.prob", text)
    proc = subprocess.run(
        [sys.executable, "-m", "valknaf.cli", "split", "--file", path,
         "--depth", "256"],
        capture_output=True, text=True, env=child_env(), timeout=3)
    assert proc.returncode == 3
    assert proc.stdout == ""
    assert proc.stderr == (
        "unresolved: branch not isolated within depth 256; last step: "
        "[deg 1] slope -256, residual factor 2 + x (multiplicity 2)\n")


def test_cli_run_api():
    rows = cli.run(parse_problem(SPLIT5))
    assert len(rows) == 2
    assert all(r.eft and r.e == 1 and r.f == 1 for r in rows)
    grows = cli.run(parse_problem(GROUP))
    assert grows[0].e == 2 and grows[0].eps == 1 and grows[0].f is None


def test_shipped_demo_problems_parse_and_run():
    from pathlib import Path
    probs = sorted((Path(__file__).parent.parent / "demos" / "problems")
                   .glob("*.prob"))
    assert len(probs) >= 8
    for path in probs:
        pf = parse_problem(path.read_bytes())
        assert parse_problem(serialize(pf)) == pf, path.name
        rows = cli.run(pf)
        assert rows, path.name


def test_cli_stdin(tmp_path, capsys, monkeypatch):
    import io
    monkeypatch.setattr("sys.stdin",
                        type("S", (), {"buffer": io.BytesIO(SPLIT5.encode())})())
    assert cli.main(["split", "--file", "-", "--porcelain"]) == 0
    assert capsys.readouterr().out.count("\n") == 2


def binomial_q(n, a, b):
    return (BINO.replace("GF(5)", "Q").replace("n = 2", f"n = {n}")
            .replace("a = 1", f"a = {a}").replace("b = 0", f"b = {b}"))


@pytest.mark.parametrize("n,a,c,code", [
    (10 ** 30 + 57, 0, 1, 1), (10 ** 8, 0, 1, 1), (10 ** 8, 0, 4, 1),
    (10 ** 30 + 57, 1, 1, 0),
], ids=["huge-g", "large-g", "large-g-reducible", "huge-n-g1"])
def test_cli_binomial_residual_degree_bound(tmp_path, n, a, c, code):
    # in a child: building T^g - c densely overflowed or hung for huge g;
    # the bound is checked before irreducibility, so z^(10^8) - 4 (a square)
    # exits 1 with the bound rather than 2 as reducible
    text = binomial_q(n, a, 0).replace("c = 1", f"c = {c}")
    path = write(tmp_path, "big.prob", text)
    proc = subprocess.run(
        [sys.executable, "-m", "valknaf.cli", "binomial", "--file", path,
         "--porcelain"],
        capture_output=True, text=True, env=child_env(), timeout=30)
    assert proc.returncode == code, proc.stderr
    if code:
        assert proc.stdout == ""
        assert proc.stderr.startswith("error: gcd(n, a, b) = ")
        assert proc.stderr.count("\n") == 1
    else:
        assert proc.stdout.count("\n") == 1
        assert f"\te={n}\tf=1\t" in proc.stdout


# one item of each benchmark workload family, as (mode, problem text)
NO_SYMPY_ITEMS = [
    ("split", SPLIT5),                                          # p-adic
    ("split", gf_split(5, "[(0, -1), 0, 1]")),                  # pi-adic GF(q)
    # (x^6 + x^3 + 1)^2 + 2 at p = 2: residue field GF(2^6)
    ("split", SPLIT5.replace("p = 5", "p = 2").replace(
        "[1, 0, 1]", "[3, 0, 0, 2, 0, 0, 3, 0, 0, 2, 0, 0, 1]")),
    ("group", GROUP),
    ("decide", (Path(__file__).resolve().parent.parent / "demos" / "problems"
                / "decide-frobenius-defect.prob").read_text()),
    ("binomial", binomial_q(2, 0, 0).replace("c = 1", "c = 2")),
    ("binomial", binomial_q(6, 2, 3)),
    ("binomial", BINO.replace("a = 1", "a = 2").replace("c = 1", "c = 2")),
    ("binomial", BINO.replace("GF(5)", "GF(25)").replace("c = 1",
                                                          "c = (0, 1)")),
]


def test_workload_items_do_not_import_sympy(tmp_path):
    paths = []
    for i, (mode, text) in enumerate(NO_SYMPY_ITEMS):
        paths.append((mode, write(tmp_path, f"item{i}.prob", text)))
    script = (
        "import sys\n"
        "import valknaf, valknaf.cli\n"
        f"for mode, path in {paths!r}:\n"
        "    code = valknaf.cli.main([mode, '--file', path, '--porcelain'])\n"
        "    assert code == 0, (mode, path, code)\n"
        "loaded = sorted(m for m in sys.modules if m.split('.')[0] == 'sympy')\n"
        "assert not loaded, loaded[:5]\n")
    proc = subprocess.run([sys.executable, "-c", script], capture_output=True,
                          text=True, env=child_env(), timeout=60)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.count("\n") == 10


GROUP4 = """\
version = 1
mode = group

[gamma_nu]
rank = 4
gen = (1, 4/3, 1/7, 2/5)
gen = (0, 2/3, 25/28, 1/6)
gen = (0, 0, 9/4, 4/3)
gen = (0, 0, 0, 5/3)

[gamma_omega]
rank = 4
gen = (1/2, 1/3, 0, 1/5)
gen = (0, 2/3, 1/7, 0)
gen = (0, 0, 3/4, 1/6)
gen = (0, 0, 0, 5/6)
"""

DECIDE4 = GROUP4.replace("mode = group", "mode = decide") + """
[extension]
residue_degree = 2
local_degree = 24
residue_char = 0
label = rank4
"""


def test_group_and_decide_compute_on_integers(monkeypatch):
    # once a problem is parsed, the lattice work runs on ints: no Fraction
    group, decide = parse_problem(GROUP4), parse_problem(DECIDE4)
    omega = LexGroup(3, [(F(1, 2), 0, F(1, 3)), (0, F(1, 5), 0),
                         (0, 0, F(2, 7))])
    nu = LexGroup(3, [(1, 0, F(2, 3)), (0, F(3, 5), 0), (0, 0, F(4, 7))])
    new = F.__new__
    made = []

    def counting(cls, *args, **kwargs):
        made.append(args)
        return new(cls, *args, **kwargs)

    calls = {"group": lambda: cli.run(group),
             "decide": lambda: cli.run(decide),
             "rank-3 indices": lambda: [subgroup_index(omega, nu),
                                        initial_index(omega, nu)]}
    counts, results = {}, {}
    monkeypatch.setattr(F, "__new__", counting)
    for name, call in calls.items():
        made.clear()
        results[name] = call()
        counts[name] = len(made)
    monkeypatch.undo()
    assert counts == {name: 0 for name in calls}
    (g,), (d,) = results["group"], results["decide"]
    assert (g.e, g.eps, g.initial) == (12, 2, False)
    assert (d.e, d.f, d.eps, d.d, d.eft) == (12, 2, 2, 1, False)
    assert results["rank-3 indices"] == [12, 2]
