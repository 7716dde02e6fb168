"""Inductive (MacLane-style) valuation towers over a discrete base valuation.

A tower is a chain of levels (phi_i, mu_i): monic key polynomials with
assigned values.  The tower valuation of any polynomial is computed through
phi-adic expansions: V_i(f) = min_j (V_{i-1}(c_j) + j * mu_i).

The graded pieces are handled through explicit monomials pi^(a_0) *
phi_1^(a_1) * ... * phi_i^(a_i).  Every value w in the current value group
has a unique canonical exponent vector with 0 <= a_j < e_j for j >= 1; the
defining relations [phi_j^(e_j)] = z_j * [Q_j] (Q_j the canonical monomial of
value e_j * mu_j) let any exponent vector be normalized onto the canonical
one at the cost of a unit in the current residue field.  `reduce_at` and
`lift_at` are mutually inverse through exactly this bookkeeping, which is
the consistency the augmentation step needs: the new residue generator z is
a root of the chosen residual factor psi, and the residue field grows by
deg psi.
"""

from __future__ import annotations

from fractions import Fraction
from math import inf

from .poly import Poly
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
    """One completed augmentation step."""

    __slots__ = ("phi", "mu", "e", "f", "psi", "z", "resfield",
                 "embed_prev", "decompose", "q_exps", "denom")

    def __init__(self, phi, mu, e, f, psi, z, resfield, embed_prev,
                 decompose, q_exps, denom):
        self.phi = phi
        self.mu = mu              # value assigned to phi
        self.e = e                # [Gamma_i : Gamma_{i-1}]
        self.f = f                # deg psi = [kappa_i : kappa_{i-1}]
        self.psi = psi            # minimal polynomial of z over kappa_{i-1}
        self.z = z                # chosen root of psi in resfield
        self.resfield = resfield  # kappa_i
        self.embed_prev = embed_prev    # kappa_{i-1} -> kappa_i
        self.decompose = decompose      # kappa_i -> [kappa_{i-1}] over z^s
        self.q_exps = q_exps      # canonical exponents of value e * mu
        self.denom = denom        # e_1 * ... * e_i


class Tower:
    """Base valuation plus a tuple of completed levels."""

    def __init__(self, base, levels=()):
        self.base = base
        self.levels = tuple(levels)
        self._z_cache = {}

    @property
    def depth(self) -> int:
        return len(self.levels)

    def field_at(self, i):
        """Residue field kappa_i (kappa_0 = residue field of the base)."""
        return self.levels[i - 1].resfield if i else self.base.residue_field

    def denom_at(self, i) -> int:
        """e_1 * ... * e_i, so Gamma_i = (1/denom) Z."""
        return self.levels[i - 1].denom if i else 1

    def ramification_product(self) -> int:
        return self.denom_at(self.depth)

    def residue_product(self) -> int:
        out = 1
        for lev in self.levels:
            out *= lev.f
        return out

    # -- values ------------------------------------------------------------

    def val(self, f: Poly):
        """Tower value of f under all levels."""
        return self._val(self.depth, f)

    def _val(self, i, f):
        if f.is_zero():
            return INFINITY
        if i == 0:
            if f.degree > 0:
                raise ValueError("stage-0 values are defined for constants")
            return self.base.value_of(f[0])
        lev = self.levels[i - 1]
        best = INFINITY
        for j, digit in enumerate(phi_expansion(f, lev.phi)):
            if digit.is_zero():
                continue
            w = self._val(i - 1, digit) + j * lev.mu
            if w < best:
                best = w
        return best

    # -- canonical monomials and units --------------------------------------

    def canonical_exps(self, i, w):
        """Exponents (a_0, ..., a_i) of the canonical monomial of value w.

        With D_j = e_1 * ... * e_j, w lies in Gamma_(j-1) + a_j * mu_j exactly
        when (w - a_j * mu_j) * D_j is divisible by e_j; mu_j * D_j is an
        integer prime to e_j, so a_j = (w * D_j) / (mu_j * D_j) mod e_j.
        """
        w = Fraction(w)
        exps = [0] * (i + 1)
        for j in range(i, 0, -1):
            lev = self.levels[j - 1]
            wd = w * lev.denom
            if wd.denominator != 1:
                raise ValueError(f"{w} is not in the level-{i} value group")
            a = int(wd) * pow(int(lev.mu * lev.denom), -1, lev.e) % lev.e
            exps[j] = a
            w -= a * lev.mu
        if w.denominator != 1:
            raise ValueError("value is not in the value group")
        exps[0] = int(w)
        return exps

    def z_up(self, j, i):
        """Image of z_j in kappa_i (j <= i)."""
        key = (j, i)
        if key not in self._z_cache:
            x = self.levels[j - 1].z
            for m in range(j + 1, i + 1):
                x = self.levels[m - 1].embed_prev(x)
            self._z_cache[key] = x
        return self._z_cache[key]

    def normalize_exps(self, i, exps):
        """Unit u in kappa_i with [monomial(exps)] = u * [canonical monomial].

        exps has slots 0..i and is consumed (mutated to the canonical form):
        phi_j^(s*e_j) = (z_j * Q_j)^s carries s = exps[j] // e_j down.  A
        negative s divides by z_j, as powers of one / z_j, since a negative
        power of an int is a float.
        """
        one = unit = self.field_at(i).one
        for j in range(i, 0, -1):
            lev = self.levels[j - 1]
            s, exps[j] = divmod(exps[j], lev.e)
            if s:
                z = self.z_up(j, i)
                unit = unit * (z ** s if s > 0 else (one / z) ** -s)
                for idx, q in enumerate(lev.q_exps):
                    exps[idx] += s * q
        return unit

    def monomial_unit(self, i, w, q_exps, t):
        """Unit u in kappa_i with [M_w] * [Q]^t = u * [canonical monomial].

        M_w is the canonical monomial of value w at level i and Q the
        monomial with exponents q_exps (slots 0..i).
        """
        exps = self.canonical_exps(i, w)
        for idx, q in enumerate(q_exps):
            exps[idx] += t * q
        return self.normalize_exps(i, exps)

    # -- graded reduction and lifting ---------------------------------------

    def reduce_at(self, i, f: Poly):
        """Class of f at its own value: r in kappa_i with [f] = r * monomial.

        f must be nonzero with degree below deg phi_(i+1) (for i = depth,
        any expansion coefficient of the current key qualifies).
        """
        if f.is_zero():
            raise ValueError("cannot reduce zero")
        if i == 0:
            a = f[0]
            return self.base.shifted_reduce(a, self.base.value_of(a))
        lev = self.levels[i - 1]
        digits = phi_expansion(f, lev.phi)
        vals = [None if d.is_zero() else self._val(i - 1, d)
                for d in digits]
        w = min(v + j * lev.mu for j, v in enumerate(vals) if v is not None)
        total = lev.resfield.zero
        common_a = None
        for j, v in enumerate(vals):
            if v is None or v + j * lev.mu != w:
                continue
            s, a = divmod(j, lev.e)
            if common_a is None:
                common_a = a
            assert a == common_a, "tight exponents disagree mod e"
            r = self.reduce_at(i - 1, digits[j])
            u = self.monomial_unit(i - 1, v, lev.q_exps, s)
            total = total + lev.embed_prev(r * u) * lev.z ** s
        if not total:
            raise RuntimeError("graded reduction vanished; tower is corrupt")
        return total

    def lift_at(self, i, r, w) -> Poly:
        """Polynomial with tower value w (level i) reducing to r.

        Inverse of reduce_at: reduce_at(i, lift_at(i, r, w)) == r.
        """
        if not r:
            raise ValueError("cannot lift zero")
        if i == 0:
            return Poly.constant(self.base.field,
                                 self.base.lift_shifted(r, w))
        lev = self.levels[i - 1]
        exps_w = self.canonical_exps(i, w)
        a = exps_w[i]
        comps = lev.decompose(r)
        acc = Poly.zero(self.base.field)
        for s, r_s in enumerate(comps):
            if not r_s:
                continue
            j = s * lev.e + a
            wc = w - j * lev.mu
            u = self.monomial_unit(i - 1, wc, lev.q_exps, s)
            r_s = r_s * (self.field_at(i - 1).one / u)
            acc = acc + self.lift_at(i - 1, r_s, wc) * lev.phi ** j
        return acc

    # -- augmentation --------------------------------------------------------

    def augment(self, phi: Poly, lam: Fraction, psi: Poly) -> "Tower":
        """Append the level (phi -> lam) with chosen residual factor psi."""
        lam = Fraction(lam)
        prev_den = self.denom_at(self.depth)
        e = (lam * prev_den).denominator
        q_exps = self.canonical_exps(self.depth, e * lam)
        ext = extend_residue(self.field_at(self.depth), psi)
        level = Level(phi=phi, mu=lam, e=e, f=psi.degree, psi=psi,
                      z=ext.root, resfield=ext.new_field,
                      embed_prev=ext.embed, decompose=ext.decompose,
                      q_exps=q_exps, denom=prev_den * e)
        return Tower(self.base, self.levels + (level,))

    def lift_key(self) -> Poly:
        """Key polynomial of the next stage, from the top level's psi.

        phi' = phi^(e*f') + sum_{t<f'} C_t phi^(t*e) with the C_t chosen so
        the residual polynomial of phi' along (phi, mu) is a unit multiple
        of psi; then V_new(phi') = f'*e*mu and the minimal polynomial of the
        new residue generator is psi.
        """
        lev = self.levels[-1]
        k = self.depth - 1  # lifting happens over the tower below the top
        e, lam, psi = lev.e, lev.mu, lev.psi
        fdeg = psi.degree
        units = [self.monomial_unit(k, (fdeg - t) * e * lam, lev.q_exps, t)
                 for t in range(fdeg + 1)]
        acc = lev.phi ** (e * fdeg)
        for t in range(fdeg):
            c = psi[t]
            if not c:
                continue
            target = c * units[fdeg] * (self.field_at(k).one / units[t])
            coeff = self.lift_at(k, target, (fdeg - t) * e * lam)
            acc = acc + coeff * lev.phi ** (t * e)
        return acc
