"""Rank-1 extension engine over Q and rational function fields.

Given a discrete valuation v (p-adic on Q, pi-adic on k(t)) and a monic
squarefree polynomial g, `split_extensions` enumerates the extensions of v
to K[x]/(g): one `LocalFactor` per extension, carrying (e, f, local degree)
and a human-readable certificate of the key-polynomial tower that isolated
it.  The algorithm is Newton polygon + residual factorization, refined by
MacLane augmentation whenever a residual factor repeats; a branch is
terminal when its residual factor is simple (Hensel-isolated) or the key
divides g exactly.  The supported bases are complete-residue discrete cases
(finite or rational residue field), where every extension is defectless, so
e*f = degree is validated on each factor and a violation is reported as
inconsistent data rather than silently returned.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import inf

from .funcfield import (FunctionField, _fmt_tpoly, clear_denominators,
                        primitive_gcd, split_order, t_derivative,
                        x_derivative)
from .gf import GF
from .inductive import INFINITY, Tower, phi_expansion
from .ordgroup import LexGroup
from .poly import Poly, QQ, power
from .raminv import ExtensionInvariants
from .residuefield import extend_residue, factor_over

class UnresolvedBranchError(RuntimeError):
    """A branch hit the recursion depth limit before it was isolated."""

    def __init__(self, depth_limit: int, certificate: str):
        self.depth_limit = depth_limit
        self.certificate = certificate
        super().__init__(
            f"branch not isolated within depth {depth_limit}: {certificate}")


class BaseValuation:
    """Discrete rank-one valuation: p-adic on Q or pi-adic on k(t).

    Both are the order at a prime `_pi` of a Euclidean ring R, the int p in
    Z or a monic irreducible `Poly` pi in k[t], extended to the fraction
    field.  The constructors differ only in the two maps they set: `_reduce`
    from the remainders mod pi onto the residue field R/(pi) and `_lift`
    from it back into R.  For p-adic both are the identity, since a residue
    of F_p is the code of its least nonnegative representative.

    Provides the stage-0 interface the inductive tower machinery consumes:
    `field` (domain adapter), `residue_field`, `value_of`, `shifted_reduce`
    and `lift_shifted`.  Values of nonzero elements are integers; the
    uniformizer has value 1.
    """

    def __init__(self):
        raise TypeError("use BaseValuation.padic or BaseValuation.pi_adic")

    # -- constructors --------------------------------------------------------

    @classmethod
    def _new(cls, field, pi, residue_field, reduce, lift, description):
        self = object.__new__(cls)
        self.field = field
        self._pi = pi
        self.uniformizer = field.coerce(pi)
        self.residue_field = residue_field
        self.residue_char = residue_field.characteristic
        self._reduce = reduce
        self._lift = lift
        self.description = description
        return self

    @classmethod
    def padic(cls, p: int) -> "BaseValuation":
        """The p-adic valuation on Q, with residue field F_p."""
        residue = GF(p, 1)  # validates that p is prime
        return cls._new(QQ, p, residue, _identity, _identity,
                        f"{p}-adic valuation on Q")

    @classmethod
    def pi_adic(cls, constant_field, pi) -> "BaseValuation":
        """The pi-adic valuation on k(t), pi monic irreducible in k[t].

        k is a finite field or Q.  The residue field is k[t]/(pi), with t
        mapped to the root of pi that `extend_residue` picks; over Q only
        deg pi = 1 is supported (larger residue fields of k(t)/Q would be
        number fields, which are out of scope).
        """
        if not isinstance(pi, Poly):
            pi = Poly(constant_field, [constant_field.coerce(c) for c in pi])
        if pi.field != constant_field:
            raise ValueError(f"{pi!r} is not a polynomial over "
                             f"{constant_field!r}")
        if pi.degree < 1 or not pi.is_monic():
            raise ValueError("uniformizer must be monic of degree >= 1")
        pairs = factor_over(constant_field, pi)
        if len(pairs) != 1 or pairs[0][1] != 1 or pairs[0][0] != pi:
            raise ValueError(f"{pi!r} is not irreducible over {constant_field!r}")
        ext = extend_residue(constant_field, pi)
        # split_order hands over remainders mod pi, so the evaluation at the
        # root, in the larger field, runs on fewer than deg pi coefficients
        return cls._new(
            FunctionField(constant_field), pi, ext.new_field,
            lambda f: f.map_coeffs(ext.embed, ext.new_field)(ext.root),
            lambda r: Poly(constant_field, ext.decompose(r)),
            f"({_fmt_tpoly(pi)})-adic valuation on {constant_field!r}(t)")

    def __repr__(self):
        return self.description

    # -- the valuation -------------------------------------------------------

    def value_of(self, a):
        """The value of a field element; infinity for 0."""
        a = self.field.coerce(a)
        if not a:
            return INFINITY
        return (split_order(a.numerator, self._pi)[0]
                - split_order(a.denominator, self._pi)[0])

    def shifted_reduce(self, a, v: int):
        """Residue of a / uniformizer^v; requires value_of(a) >= v."""
        a = self.field.coerce(a)
        v = _as_int(v)
        R = self.residue_field
        if not a:
            return R.zero
        m, num = split_order(a.numerator, self._pi)
        k, den = split_order(a.denominator, self._pi)
        if m - k < v:
            raise ValueError("shifted element has negative value")
        if m - k > v:
            return R.zero
        return R.mul(self._reduce(num), R.inv(self._reduce(den)))

    def lift_shifted(self, r, w: int):
        """A field element of value w whose shifted residue is r (r != 0)."""
        F = self.field
        return F.mul(F.coerce(self._lift(r)),
                     power(F, self.uniformizer, _as_int(w)))


@dataclass(frozen=True)
class NewtonPolygonSegment:
    """One edge of a lower Newton polygon.

    A segment of slope s and horizontal length l certifies l roots of
    valuation -s.  Segments of one polygon have strictly increasing slopes.
    """

    slope: Fraction
    length: int


@dataclass(frozen=True)
class LocalFactor:
    """One extension of the base valuation to K[x]/(g).

    e and f are the ramification index and residue degree over the base;
    degree is the local (henselized) degree, equal to e*f for the bases
    this engine supports.  The certificate describes the tower of key
    polynomials and polygon segments that isolated the extension.
    """

    e: int
    f: int
    degree: int
    certificate: str = ""


def _identity(x):
    return x


def _as_int(w) -> int:
    if isinstance(w, Fraction):
        if w.denominator != 1:
            raise ValueError(f"{w} is not an integer value")
        return w.numerator
    return int(w)


def _poly_over(v: BaseValuation, g) -> Poly:
    """g, a Poly or a coefficient list, over v.field (Q or k(t)), each
    coefficient coerced as a value from outside: an int is an integer."""
    coeffs = g.coeffs if isinstance(g, Poly) else g
    return Poly(v.field, [v.field.coerce(c) for c in coeffs])


def _cross(o, a, b):
    return (a[0] - o[0]) * (b[1] - o[1]) - (a[1] - o[1]) * (b[0] - o[0])


def _lower_hull(points):
    """Edges (x1, x2, slope) of the lower convex hull, points with increasing x."""
    hull = []
    for p in points:
        while len(hull) >= 2 and _cross(hull[-2], hull[-1], p) <= 0:
            hull.pop()
        hull.append(p)
    return [(x1, x2, Fraction(y2 - y1, x2 - x1))
            for (x1, y1), (x2, y2) in zip(hull, hull[1:])]


def newton_polygon(v: BaseValuation, g) -> list:
    """Lower Newton polygon of g: segments with strictly increasing slopes.

    g must be monic with nonzero constant term (split zero roots off
    first); the segment lengths then sum to deg g.
    """
    g = _poly_over(v, g)
    if g.degree < 1 or not g.is_monic():
        raise ValueError("polygon needs a monic polynomial of degree >= 1")
    if not g[0]:
        raise ValueError("zero constant term: split off the zero root first")
    points = [(j, v.value_of(c)) for j, c in enumerate(g.coeffs) if c]
    return [NewtonPolygonSegment(slope=slope, length=x2 - x1)
            for x1, x2, slope in _lower_hull(points)]


def _segment_residual(tower: Tower, digits, vals, lam: Fraction, j0: int, j1: int) -> Poly:
    """Residual polynomial of the polygon segment from j0 to j1, slope -lam.

    digits is the key-adic expansion of the current polynomial, vals maps
    the nonzero digit positions to their tower values.  The coefficient of
    T^t collects the digit at j0 + t*e, reduced at its own value and
    normalized onto the canonical monomial of the common value, so that the
    result is a well-defined polynomial over the current residue field with
    nonzero constant and leading coefficients.
    """
    k = tower.depth
    kappa = tower.field_at(k)
    e = (lam * tower.denom_at(k)).denominator
    q_exps = tower.canonical_exps(k, e * lam)
    w0 = vals[j0] + j0 * lam
    assert (j1 - j0) % e == 0, "segment width must be a multiple of e"
    coeffs = []
    for t in range((j1 - j0) // e + 1):
        j = j0 + t * e
        val = vals.get(j)
        if val is None or val + j * lam != w0:
            coeffs.append(kappa.zero)
            continue
        r = tower.reduce_at(k, digits[j])
        coeffs.append(kappa.mul(r, tower.monomial_unit(k, val, q_exps, t)))
    return Poly(kappa, coeffs)


def residual_polynomial(v: BaseValuation, g, seg: NewtonPolygonSegment) -> Poly:
    """Residual polynomial of g along one of its Newton polygon segments.

    The coefficients are residues of the lattice-point coefficients along
    the segment; factoring the result over the residue field refines the
    segment's contribution to the splitting.
    """
    g = _poly_over(v, g)
    segments = newton_polygon(v, g)
    if seg not in segments:
        raise ValueError(f"{seg} is not a segment of the polygon of {g!r}")
    # the polygon starts at x = 0 (nonzero constant term)
    x1 = sum(s.length for s in segments[:segments.index(seg)])
    digits = phi_expansion(g, Poly.x(v.field))
    vals = {j: v.value_of(d[0]) for j, d in enumerate(digits) if not d.is_zero()}
    return _segment_residual(Tower(v), digits, vals, -seg.slope,
                             x1, x1 + seg.length)


def split_extensions(v: BaseValuation, g, depth_limit: int = 16) -> list:
    """All extensions of v to K[x]/(g), for monic squarefree g.

    Returns LocalFactor records sorted by the (slope, residual factor)
    branch path that produced them, so identical inputs give identically
    ordered output.  Raises ValueError on non-monic or non-squarefree
    input and UnresolvedBranchError if a branch is still ambiguous at
    depth_limit augmentation levels.
    """
    g = _poly_over(v, g)
    if g.degree < 1:
        raise ValueError("need a polynomial of degree >= 1")
    if not g.is_monic():
        raise ValueError("input polynomial must be monic")
    if depth_limit < 1:
        raise ValueError("depth_limit must be positive")
    if not _is_squarefree(g):
        raise ValueError(
            "input polynomial is not squarefree over the base field "
            "(repeated factors, possibly of the form h(x^p))")
    found = []
    _explore(Tower(v), Poly.x(v.field), g, (), (), found, depth_limit)
    found.sort(key=lambda item: item[0])
    factors = [fac for _, fac in found]
    total = sum(fac.degree for fac in factors)
    if total != g.degree:
        raise ValueError(
            f"inconsistent data: local degrees sum to {total}, expected {g.degree}")
    return factors


def _explore(tower, key, G, path, steps, out, depth_limit):
    """Expand G in the current key and branch on polygon segments."""
    digits = phi_expansion(G, key)
    if digits[0].is_zero():
        # The key divides G: over these henselian-complete bases a key
        # polynomial is irreducible, so it is itself a local factor.
        out.append((path + ((inf, ()),), _terminal(
            tower, key.degree, tower.ramification_product(),
            tower.residue_product(),
            steps + (f"[deg {key.degree}] exact key divisor",))))
        G = G // key
        if G.degree < 1:
            return
        digits = phi_expansion(G, key)
        assert not digits[0].is_zero(), "repeated key divisor in squarefree input"
    vals = {j: tower.val(d) for j, d in enumerate(digits) if not d.is_zero()}
    if len(vals) < 2:
        raise ValueError("inconsistent data: expansion left no polygon points")
    bound = tower.val(key) if tower.depth else None
    for x1, x2, slope in _lower_hull(vals.items()):
        lam = -slope
        if bound is not None and lam <= bound:
            # This segment's roots were already peeled off at an earlier
            # branching point; only values above the key's own value are new.
            continue
        resid = _segment_residual(tower, digits, vals, lam, x1, x2)
        e_seg = (lam * tower.denom_at(tower.depth)).denominator
        for psi, mult in factor_over(tower.field_at(tower.depth), resid):
            branch = path + ((slope, psi.sort_key()),)
            step = (f"[deg {key.degree}] slope {slope}, residual factor "
                    f"{psi} (multiplicity {mult})")
            if mult == 1:
                out.append((branch, _terminal(
                    tower, key.degree * e_seg * psi.degree,
                    tower.ramification_product() * e_seg,
                    tower.residue_product() * psi.degree,
                    steps + (step,))))
                continue
            if tower.depth >= depth_limit:
                raise UnresolvedBranchError(
                    depth_limit, " -> ".join(steps + (step,)))
            deeper = tower.augment(key, lam, psi)
            _explore(deeper, deeper.lift_key(), G, branch,
                     steps + (step,), out, depth_limit)


def _terminal(tower, degree, e, f, steps) -> LocalFactor:
    if e * f != degree:
        raise ValueError(
            f"inconsistent data: factor of degree {degree} with e*f = {e * f}")
    return LocalFactor(e=e, f=f, degree=degree,
                       certificate=" -> ".join(steps))


def to_extension_invariants(v: BaseValuation, lf: LocalFactor,
                            total_degree: int) -> ExtensionInvariants:
    """Package a LocalFactor as ExtensionInvariants with Γ_ν = Z, Γ_ω = (1/e)Z."""
    return ExtensionInvariants(
        gamma_nu=LexGroup(1, [(1,)]),
        gamma_omega=LexGroup(1, [(Fraction(1, lf.e),)]),
        residue_degree=lf.f,
        local_degree=lf.degree,
        residue_char=v.residue_char,
        total_degree=total_degree,
        provenance=lf.certificate)


def _is_squarefree(g: Poly) -> bool:
    """Exact squarefreeness over Q, Q(t) or F_q(t).

    In characteristic 0 this is gcd(g, g') = 1.  In characteristic p the
    x-derivative alone misses inseparable layers (g = h(x^p)), so the
    t-derivative of the coefficients is brought in: a monic irreducible
    factor with zero x- and t-derivative would have all exponents and
    coefficients p-th powers and hence be a p-th power itself, so
    gcd(g, dg/dx, dg/dt) = 1 is equivalent to squarefreeness over these
    perfect-constant-field bases.

    The gcds are taken fraction-free, in Z[x] over Q and in k[t][x] over
    k(t), on G = L*g with L the lcm of the denominators.  By Gauss's lemma
    a gcd over the field is, up to a unit, the primitive gcd over Z or
    k[t], so the degrees agree, and no rational or k(t) element is ever
    built.  D = gcd(G, dG/dx) divides g, and dG/dt = L'*g + L*dg/dt, so
    gcd(D, dG/dt) = gcd(D, dg/dt) over k(t).
    """
    G = clear_denominators(g)
    d = primitive_gcd(G, x_derivative(G))
    if len(d) > 1 and g.field.characteristic:
        d = primitive_gcd(d, t_derivative(G))
    return len(d) == 1
