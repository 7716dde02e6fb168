"""Inductive (MacLane-style) valuation towers over a discrete base valuation.

A tower is an optimal MacLane chain of levels (phi_i, mu_i): monic keys of
strictly increasing degree with assigned values.  Its valuation is computed
through phi-adic expansions: V_i(f) = min_j (V_{i-1}(c_j) + j * mu_i).  A
tower of k levels takes and gives every value as an int in units of 1/D,
D = e_1 * ... * e_k (`Tower.denom`), so no value, comparison or exponent
is a Fraction; only `val` gives one, `edges` one per polygon edge, and
`augment` takes the new key's value as one.  `grade` expands each digit
once and records, for the digits that attain the value, what `residue`
needs to compute the class.  `edges` is the one Newton polygon, with its
residual polynomials, for the MacLane walk.

The graded pieces are handled through explicit monomials pi^(a_0) *
phi_1^(a_1) * ... * phi_i^(a_i).  Every value w in the current value group
has a unique canonical exponent vector with 0 <= a_j < e_j for j >= 1; the
defining relations [phi_j^(e_j)] = z_j * [Q_j] (Q_j the canonical monomial of
value e_j * mu_j) let any exponent vector be normalized onto the canonical
one at the cost of a unit in the current residue field.  `reduce_at` and
`lift_at` are mutually inverse through exactly this bookkeeping.  A level
keeps the `ResidueExtension` kappa_(i-1) -> kappa_i = kappa_(i-1)(z_i) that
adjoins a root z_i of its residual factor psi, psi with it, and the images
of z_1, ..., z_i in kappa_i, made once when the level is, for the carries.
The next key is phi^(e*f) plus the lift of the class of -phi^(e*f), whose
coordinates over z^t are u * psi_t since psi(z) = 0; they are lifted from
psi's coefficients, so no `decompose` is made for the key, and the key has
psi as its residual polynomial.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd, inf, prod
from typing import NamedTuple

from .poly import Poly, _poly, _preduce, power
from .residuefield import ResidueExtension, extend_residue

INFINITY = inf


def phi_expansion(f: Poly, phi: Poly):
    """Digits of f in base phi (ascending), each of degree < deg phi.

    In base x, the key of depth 0, the digits are f's coefficients as
    constants, and nothing is divided; in any other base each step reduces
    a list in place, and its quotient is the next dividend."""
    if f.is_zero():
        return [f]
    F, b = f.field, phi.coeffs
    if len(b) == 2 and not b[0] and b[1] == F.one:
        return [_poly(F, (c,) if c else ()) for c in f.coeffs]
    r = list(f.coeffs)
    digits = []
    while r:
        q = _preduce(F, r, b)
        digits.append(_poly(F, r))
        r = q
    return digits


class Level(NamedTuple):
    """One level of an optimal chain: e*f >= 2 unless it is the top."""

    phi: Poly
    mu: Fraction              # value assigned to phi
    e: int                    # [Gamma_i : Gamma_{i-1}]
    f: int                    # deg psi = [kappa_i : kappa_{i-1}]
    ext: ResidueExtension     # kappa_{i-1} -> kappa_i, root z_i
    zs: tuple                 # images of z_1, ..., z_i in kappa_i
    q_exps: list              # canonical exponents of value e * mu
    denom: int                # e_1 * ... * e_i


class Tower:
    """Base valuation plus a tuple of completed levels.

    With D = e_1 * ... * e_k the ramification product of all k levels,
    every value of the tower lies in (1/D) Z, and every method but `val`
    and `augment` takes and gives it as the int w * D.  The tables
    `mu_units` (mu_j * D), `_steps` (D / D_j) and `_inv`
    ((mu_j * D_j)^-1 mod e_j) are indexed by level j = 0..k and made once
    here; at j = 0, `_steps` holds D and the others an unused 0.
    """

    def __init__(self, base, levels=()):
        self.base = base
        self.levels = tuple(levels)
        self.denom = den = self.levels[-1].denom if self.levels else 1
        self.mu_units = [0] + [int(lev.mu * den) for lev in self.levels]
        self._steps = [den] + [den // lev.denom for lev in self.levels]
        self._inv = [0] + [pow(int(lev.mu * lev.denom), -1, lev.e)
                           for lev in self.levels]

    @property
    def depth(self) -> int:
        return len(self.levels)

    def field_at(self, i):
        """Residue field kappa_i (kappa_0 = residue field of the base)."""
        if i:
            return self.levels[i - 1].ext.new_field
        return self.base.residue_field

    def residue_product(self) -> int:
        return prod(lev.f for lev in self.levels)

    # -- values and classes ------------------------------------------------

    def grade(self, i, f: Poly):
        """(V, parts) of a nonzero f at level i, each digit expanded once.

        V is the value of f, in units of 1/D.  parts is what `residue`
        needs for the class of f, so that the class is computed only where
        it is asked for: at level 0 the remainders that the base's
        `split` gives, at level i a dict from the position j of each digit
        of f in phi_i that attains V to that digit's grade (V_j, parts_j).
        """
        if i == 0:
            if f.degree > 0:
                raise ValueError("stage-0 values are defined for constants")
            v, num, den = self.base.split(f[0])
            return v * self.denom, (num, den)
        mu = self.mu_units[i]
        best = tight = None
        for j, digit in enumerate(phi_expansion(f, self.levels[i - 1].phi)):
            if digit.is_zero():
                continue
            graded = self.grade(i - 1, digit)
            w = graded[0] + j * mu
            if best is None or w < best:
                best, tight = w, {j: graded}
            elif w == best:
                tight[j] = graded
        return best, tight

    def residue(self, i, parts):
        """Class r in kappa_i with [f] = r * monomial, from `grade`'s parts.

        The digits of f in phi_i that attain its value lie on one line of
        slope -mu_i, through j mod e_i; its `line_residual` over
        kappa_(i-1), evaluated at z_i, is the class.
        """
        if i == 0:
            return self.base.residue(*parts)
        lev = self.levels[i - 1]
        line = self.line_residual(i - 1, parts, next(iter(parts)) % lev.e,
                                  lev.e, lev.q_exps)
        ext = lev.ext
        total = line.map_coeffs(ext.embed, ext.new_field)(ext.root)
        if not total:
            raise ValueError("graded reduction vanished; tower is corrupt")
        return total

    def line_residual(self, i, line, j0, e, q_exps) -> Poly:
        """Residual polynomial over kappa_i of a line: line maps j0 + s*e
        to the grade (V_j, parts_j) of a digit at level i, and coefficient s
        is its class times `unit_at(i, V_j, q_exps, s)`, else 0.  At level
        0 there is no level to carry onto, so that unit is 1 and the class
        is taken as it is."""
        F = self.field_at(i)
        coeffs = [F.zero] * ((max(line) - j0) // e + 1)
        for j, (w, parts) in line.items():
            s, off = divmod(j - j0, e)
            assert not off, "digit off the line"
            r = self.residue(i, parts)
            coeffs[s] = F.mul(r, self.unit_at(i, w, q_exps, s)) if i else r
        return Poly(F, coeffs)

    def edges(self, digits):
        """Edges (x1, x2, slope, e, residual over kappa_k) by rising slope
        of the lower Newton polygon of the digits of a polynomial in the
        top key, each graded once; all runs on ints but the slope,
        -num / (e * D) with num / e in lowest terms.  Above depth 0, edges
        at or below the key's own value e*f*mu (`lift_key`'s contract) are
        skipped: their roots were peeled off at an earlier branching point."""
        k = self.depth
        grades = {j: self.grade(k, d) for j, d in enumerate(digits)
                  if not d.is_zero()}
        if len(grades) < 2:
            raise ValueError(
                "inconsistent data: expansion left no polygon points")
        hull = []
        for j, (w, _) in grades.items():
            while len(hull) >= 2:
                (j0, w0), (j1, w1) = hull[-2:]
                if (j1 - j0) * (w - w0) > (w1 - w0) * (j - j0):
                    break
                hull.pop()
            hull.append((j, w))
        floor = -INFINITY  # depth 0 has no key, so no edge is skipped
        if k:
            top = self.levels[-1]
            floor = top.e * top.f * self.mu_units[k]
        for (x1, w1), (x2, w2) in zip(hull, hull[1:]):
            common = gcd(w1 - w2, x2 - x1)
            num, e = (w1 - w2) // common, (x2 - x1) // common
            if num <= e * floor:
                continue
            line = {j: graded for j, graded in grades.items() if x1 <= j <= x2
                    and (graded[0] - w1) * e == (x1 - j) * num}
            q_exps = self.canonical_exps(k, num) if k else None
            yield (x1, x2, Fraction(-num, e * self.denom), e,
                   self.line_residual(k, line, x1, e, q_exps))

    def val(self, f: Poly):
        """Tower value of f under all levels."""
        if f.is_zero():
            return INFINITY
        return Fraction(self.grade(self.depth, f)[0], self.denom)

    def reduce_at(self, i, f: Poly):
        """Class of f at its own value: r in kappa_i with [f] = r * monomial.

        f must be nonzero with degree below deg phi_(i+1) (for i = depth,
        any expansion coefficient of the current key qualifies).
        """
        if f.is_zero():
            raise ValueError("cannot reduce zero")
        return self.residue(i, self.grade(i, f)[1])

    # -- canonical monomials and units --------------------------------------

    def canonical_exps(self, i, w: int):
        """Exponents (a_0, ..., a_i) of the canonical monomial of value w.

        With D_j = e_1 * ... * e_j, w lies in Gamma_(j-1) + a_j * mu_j exactly
        when (w - a_j * mu_j) * D_j is divisible by e_j; mu_j * D_j is an
        integer prime to e_j, so a_j = (w * D_j) / (mu_j * D_j) mod e_j.
        """
        if w % self._steps[i]:
            raise ValueError(f"{Fraction(w, self.denom)} is not in the "
                             f"level-{i} value group")
        exps = [0] * (i + 1)
        for j in range(i, 0, -1):
            a = w // self._steps[j] * self._inv[j] % self.levels[j - 1].e
            exps[j] = a
            w -= a * self.mu_units[j]
        exps[0] = w // self.denom
        return exps

    def normalize_exps(self, i, exps):
        """Unit u in kappa_i with [monomial(exps)] = u * [canonical monomial].

        exps has slots 0..i and is consumed (mutated to the canonical form):
        phi_j^(s*e_j) = (z_j * Q_j)^s carries s = exps[j] // e_j down; a
        negative s divides by z_j.
        """
        F = self.field_at(i)
        unit = F.one
        zs = self.levels[i - 1].zs if i else ()
        for j in range(i, 0, -1):
            lev = self.levels[j - 1]
            s, exps[j] = divmod(exps[j], lev.e)
            if s:
                unit = F.mul(unit, power(F, zs[j - 1], s))
                for idx, q in enumerate(lev.q_exps):
                    exps[idx] += s * q
        return unit

    def unit_at(self, i, w: int, q_exps, t):
        """Unit u in kappa_i with [M_w] * [Q]^t = u * [canonical monomial].

        M_w is the canonical monomial of value w at level i and Q the
        monomial with exponents q_exps (slots 0..i).
        """
        exps = self.canonical_exps(i, w)
        for idx, q in enumerate(q_exps):
            exps[idx] += t * q
        return self.normalize_exps(i, exps)

    # -- lifting ---------------------------------------------------------------

    def lift_at(self, i, r, w: int) -> Poly:
        """Polynomial with tower value w (level i) reducing to r.

        Inverse of reduce_at: reduce_at(i, lift_at(i, r, w)) == r.
        """
        if not r:
            raise ValueError("cannot lift zero")
        a = self.canonical_exps(i, w)[i]
        if i == 0:
            return Poly.constant(self.base.field,
                                 self.base.lift_shifted(r, a))
        return self._lift_coords(i, self.levels[i - 1].ext.decompose(r), a, w)

    def _lift_coords(self, i, comps, a, w: int) -> Poly:
        """Lift at value w (level i >= 1, a the phi_i exponent of its
        canonical monomial) of the class sum_s comps[s] * z_i^s, comps over
        kappa_(i-1) and not all zero: coordinate s goes to the digit of
        phi_i^(s*e_i + a), lifted at the value that puts it on w."""
        lev = self.levels[i - 1]
        below = self.field_at(i - 1)
        acc = Poly.zero(self.base.field)
        for s, r_s in enumerate(comps):
            if not r_s:
                continue
            j = s * lev.e + a
            wc = w - j * self.mu_units[i]
            u = self.unit_at(i - 1, wc, lev.q_exps, s)
            r_s = below.mul(r_s, below.inv(u))
            acc = acc + self.lift_at(i - 1, r_s, wc) * lev.phi ** j
        return acc

    # -- augmentation --------------------------------------------------------

    def augment(self, phi: Poly, lam: Fraction, psi: Poly) -> "Tower":
        """The tower [v; phi -> lam], replacing a top level of e*f = 1."""
        below = self
        if self.levels and self.levels[-1].e * self.levels[-1].f == 1:
            below = Tower(self.base, self.levels[:-1])
        lam = Fraction(lam)
        prev_den = below.denom
        scaled = lam * prev_den  # e * lam is scaled.numerator / prev_den
        e = scaled.denominator
        q_exps = below.canonical_exps(below.depth, scaled.numerator)
        ext = extend_residue(below.field_at(below.depth), psi)
        zs = below.levels[-1].zs if below.levels else ()
        level = Level(phi, lam, e, psi.degree, ext,
                      tuple(map(ext.embed, zs)) + (ext.root,), q_exps,
                      prev_den * e)
        return Tower(self.base, below.levels + (level,))

    def lift_key(self) -> Poly:
        """Key polynomial of the next stage: phi^(e*f) plus one lift.

        In kappa_k the single digit of phi^(e*f) reduces to u * z^f, u the
        unit in kappa_(k-1) carrying [Q]^f onto the canonical monomial of
        value e*f*mu.  Its negative is lifted at that value; as psi(z) = 0,
        its coordinates over z^t (t < f) are u * psi_t, taken from the
        level's psi with no `decompose`.  They are not all zero, since a
        residual factor has psi_0 != 0.  So the residual polynomial of
        phi' along (phi, mu) is a unit multiple of psi, and
        V_new(phi') = f*e*mu.
        """
        lev, k = self.levels[-1], self.depth
        below, ef = self.field_at(k - 1), lev.e * lev.f
        u = self.unit_at(k - 1, 0, lev.q_exps, lev.f)
        comps = [below.mul(u, c) for c in lev.ext.psi.coeffs[:-1]]
        return lev.phi ** ef + self._lift_coords(k, comps, 0,
                                                 ef * self.mu_units[k])
