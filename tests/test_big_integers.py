"""Exact answers on integers above 2^53.

Integral rationals are plain `int`s, and `int / int` is a float, which is
exact only below 2^53.  Each problem below reaches one of the places where
two field elements are divided (`BaseValuation.residue`,
`Tower.lift_at`, `Tower.lift_key`, `monoval._binomial_irreducible`) with
such integers; a float quotient there prints a wrong certificate or
verdict.  The expected outputs are those of the Fraction-only arithmetic
that came before.
"""

import pytest

from valknaf import cli

A = 12345678901234567891


def split_qt(pi, coeffs):
    return f"""\
version = 1
mode = split

[base]
field = Q(t)
pi = {pi}

[polynomial]
coeffs = {coeffs}
"""


def binomial_q(c):
    return f"""\
version = 1
mode = binomial

[base]
field = Q
weight_x = (1, 0)
weight_y = (0, 1)

[extension]
n = 4
a = 0
b = 0
c = {c}
"""


ROW = ("label={label}\te={e}\tf={f}\teps={e}\td=1\tdefectless=true\t"
       "initial=true\teft=true\tcertificate={cert}\n")
DOUBLE_ROOT = (f"[deg 1] slope 0, residual factor -{A} + x (multiplicity 2)"
               " -> ")

# name -> (mode, problem text, exit code, stdout)
CASES = {
    # x^2 - 2a*x + (a^2 - t^3) = (x - a)^2 - t^3 at t: ramified, e = 2
    "ramified": ("split", split_qt("[0, 1]", f"[({A * A}, 0, 0, -1), {-2 * A}, 1]"),
                 0, ROW.format(label="factor 1", e=2, f=1, cert=(
                     DOUBLE_ROOT + "[deg 1] slope -3/2, residual factor "
                     "-1 + x (multiplicity 1)"))),
    # (x - a)^2 - 3t^2: 3 is not a square in Q, so f = 2
    "inert": ("split", split_qt("[0, 1]", f"[({A * A}, 0, -3), {-2 * A}, 1]"),
              0, ROW.format(label="factor 1", e=1, f=2, cert=(
                  DOUBLE_ROOT + "[deg 1] slope -1, residual factor "
                  "-3 + x^2 (multiplicity 1)"))),
    # (x + a)^3 + t^3 at t - 7: residues of big integers at t = 7
    "shifted-pi": ("split", split_qt(
        "[-7, 1]", f"[({A ** 3}, 0, 0, 1), {3 * A * A}, {3 * A}, 1]"), 0,
        ROW.format(label="factor 1", e=1, f=1, cert=(
            "[deg 1] slope 0, residual factor 12345678901234567898 + x "
            "(multiplicity 1)"))
        + ROW.format(label="factor 2", e=1, f=2, cert=(
            "[deg 1] slope 0, residual factor "
            "152415787532388367440176805368846212693 + "
            "24691357802469135775*x + x^2 (multiplicity 1)"))),
    "big-constant": ("split", split_qt("[0, 1]", f"[({A}, 1), 0, 1]"), 0,
                     ROW.format(label="factor 1", e=1, f=2, cert=(
                         f"[deg 1] slope 0, residual factor {A} + x^2 "
                         "(multiplicity 1)"))),
    # z^4 + 4s^4 with s = 1000003 factors (Sophie Germain); z^4 + 4s^4 - 4
    # does not
    "binomial-reducible": ("binomial", binomial_q(-4 * 1000003 ** 4), 2, ""),
    "binomial-irreducible": (
        "binomial", binomial_q(-4 * 1000003 ** 4 + 4), 0,
        "label=extension 1\te=1\tf=4\teps=1\td=1\tdefectless=true\t"
        "initial=true\teft=true\tcertificate=binomial z^4 = "
        "-4000048000216000432000320*x^0*y^0: e = 1, residual factor "
        "4000048000216000432000320 + x^4\n"),
}


@pytest.mark.parametrize("name", sorted(CASES))
def test_big_integer_answers_are_exact(tmp_path, capsys, name):
    mode, text, code, stdout = CASES[name]
    path = tmp_path / "big.prob"
    path.write_text(text)
    assert cli.main([mode, "--file", str(path), "--porcelain"]) == code
    captured = capsys.readouterr()
    assert captured.out == stdout
    if code:
        assert captured.err == (
            "inconsistent: binomial z^4 = -4000048000216000432000324*x^0*y^0 "
            "is reducible over the base field\n")
