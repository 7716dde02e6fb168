"""Inductive (MacLane-style) valuation towers over a discrete base valuation.

A tower is an optimal MacLane chain of levels (phi_i, mu_i): monic keys of
strictly increasing degree with assigned values.  Its valuation is computed
through phi-adic expansions: V_i(f) = min_j (V_{i-1}(c_j) + j * mu_i).  A
tower of k levels takes and gives every value as an int in units of 1/D,
D = e_1 * ... * e_k (`Tower.denom`), so no value, comparison or exponent
is a Fraction; only `val` gives one, and `augment` takes the new key's
value as one.  `grade` expands each digit once and records, for the
digits that attain the value, what `residue` needs to compute the class.

The graded pieces are handled through explicit monomials pi^(a_0) *
phi_1^(a_1) * ... * phi_i^(a_i).  Every value w in the current value group
has a unique canonical exponent vector with 0 <= a_j < e_j for j >= 1; the
defining relations [phi_j^(e_j)] = z_j * [Q_j] (Q_j the canonical monomial of
value e_j * mu_j) let any exponent vector be normalized onto the canonical
one at the cost of a unit in the current residue field.  `reduce_at` and
`lift_at` are mutually inverse through exactly this bookkeeping.  A level
keeps a root z of its residual factor psi, not psi: the residue field
grows by deg psi, and the next key, phi^(e*f) plus one `lift_at` of the
class of -phi^(e*f), has psi as its residual polynomial since psi(z) = 0.
"""

from __future__ import annotations

from fractions import Fraction
from math import inf

from .poly import Poly, power
from .residuefield import extend_residue

INFINITY = inf


def phi_expansion(f: Poly, phi: Poly):
    """Digits of f in base phi (ascending), each of degree < deg phi."""
    if f.is_zero():
        return [f]
    digits = []
    while not f.is_zero():
        f, r = divmod(f, phi)
        digits.append(r)
    return digits


class Level:
    """One level of an optimal chain: e*f >= 2 unless it is the top."""

    __slots__ = ("phi", "mu", "e", "f", "z", "resfield", "embed_prev",
                 "decompose", "q_exps", "denom")

    def __init__(self, phi, mu, e, f, z, resfield, embed_prev, decompose,
                 q_exps, denom):
        self.phi = phi
        self.mu = mu              # value assigned to phi
        self.e = e                # [Gamma_i : Gamma_{i-1}]
        self.f = f                # deg psi = [kappa_i : kappa_{i-1}]
        self.z = z                # chosen root of psi in resfield
        self.resfield = resfield  # kappa_i
        self.embed_prev = embed_prev    # kappa_{i-1} -> kappa_i
        self.decompose = decompose      # kappa_i -> [kappa_{i-1}] over z^s
        self.q_exps = q_exps      # canonical exponents of value e * mu
        self.denom = denom        # e_1 * ... * e_i


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
        return self.levels[i - 1].resfield if i else self.base.residue_field

    def residue_product(self) -> int:
        out = 1
        for lev in self.levels:
            out *= lev.f
        return out

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
        total = line.map_coeffs(lev.embed_prev, lev.resfield)(lev.z)
        if not total:
            raise ValueError("graded reduction vanished; tower is corrupt")
        return total

    def line_residual(self, i, line, j0, e, q_exps) -> Poly:
        """Residual polynomial over kappa_i of a line: line maps j0 + s*e
        to the grade (V_j, parts_j) of a digit at level i, and coefficient s
        is its class times `unit_at(i, V_j, q_exps, s)`, else 0."""
        F = self.field_at(i)
        coeffs = [F.zero] * ((max(line) - j0) // e + 1)
        for j, (w, parts) in line.items():
            s, off = divmod(j - j0, e)
            assert not off, "digit off the line"
            coeffs[s] = F.mul(self.residue(i, parts),
                              self.unit_at(i, w, q_exps, s))
        return Poly(F, coeffs)

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

    def z_up(self, j, i):
        """Image of z_j in kappa_i (j <= i)."""
        x = self.levels[j - 1].z
        for m in range(j + 1, i + 1):
            x = self.levels[m - 1].embed_prev(x)
        return x

    def normalize_exps(self, i, exps):
        """Unit u in kappa_i with [monomial(exps)] = u * [canonical monomial].

        exps has slots 0..i and is consumed (mutated to the canonical form):
        phi_j^(s*e_j) = (z_j * Q_j)^s carries s = exps[j] // e_j down; a
        negative s divides by z_j.
        """
        F = self.field_at(i)
        unit = F.one
        for j in range(i, 0, -1):
            lev = self.levels[j - 1]
            s, exps[j] = divmod(exps[j], lev.e)
            if s:
                unit = F.mul(unit, power(F, self.z_up(j, i), s))
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
        lev = self.levels[i - 1]
        below = self.field_at(i - 1)
        comps = lev.decompose(r)
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
        level = Level(phi=phi, mu=lam, e=e, f=psi.degree, z=ext.root,
                      resfield=ext.new_field, embed_prev=ext.embed,
                      decompose=ext.decompose, q_exps=q_exps,
                      denom=prev_den * e)
        return Tower(self.base, below.levels + (level,))

    def lift_key(self) -> Poly:
        """Key polynomial of the next stage: phi^(e*f) plus one `lift_at`.

        In kappa_k the single digit of phi^(e*f) reduces to u * z^f, u the
        unit carrying [Q]^f onto the canonical monomial of value e*f*mu.
        Its negative rho is lifted at that value; as psi(z) = 0, the
        coordinates of rho over z^t (t < f) are u * psi_t, so the residual
        polynomial of phi' along (phi, mu) is a unit multiple of psi, and
        V_new(phi') = f*e*mu.
        """
        lev, k = self.levels[-1], self.depth
        F, ef = lev.resfield, lev.e * lev.f
        u = lev.embed_prev(self.unit_at(k - 1, 0, lev.q_exps, lev.f))
        rho = F.neg(F.mul(u, power(F, lev.z, lev.f)))
        return lev.phi ** ef + self.lift_at(k, rho, ef * self.mu_units[k])
