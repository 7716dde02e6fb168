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

The polygon step, with each edge's residual polynomial, is `Tower.edges`,
which `_explore` calls at every depth.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from itertools import count, islice

from .funcfield import (FunctionField, _fmt_tpoly, clear_denominators,
                        primitive_gcd, split_order)
from .gf import GF, _identity
from .inductive import INFINITY, Tower, phi_expansion
from .numtheory import isprime
from .ordgroup import LexGroup
from .poly import Poly, QQ, _derivative, _pgcd, _trim, power
from .raminv import ExtensionInvariants
from .residuefield import extend_residue, factor_over


class UnresolvedBranchError(RuntimeError):
    """A branch hit the depth limit before it was isolated: the message
    names the last step, `certificate` keeps every step."""

    def __init__(self, depth_limit: int, steps: tuple):
        self.depth_limit = depth_limit
        self.certificate = " -> ".join(steps)
        super().__init__(f"branch not isolated within depth {depth_limit}; "
                         f"last step: {steps[-1]}")


class BaseValuation:
    """Discrete rank-one valuation: p-adic on Q or pi-adic on k(t).

    Both are the order at a prime `_pi` of a Euclidean ring R, the int p in
    Z or a monic irreducible `Poly` pi in k[t], extended to the fraction
    field.  The constructors differ only in the two maps they set: `_reduce`
    from the remainders mod pi onto the residue field R/(pi) and `_lift`
    from it back into R.  For p-adic both are the identity, since a residue
    of F_p is the code of its least nonnegative representative.

    Provides the stage-0 interface the inductive tower machinery consumes:
    `field` (domain adapter), `residue_field`, `split` and `residue` (the
    value and the residue of an element, from one `split_order` each of its
    numerator and denominator) and `lift_shifted`; `value_of` and
    `shifted_reduce` are API only.  Values of nonzero elements are
    integers; the uniformizer has value 1.
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

        Valuations are shared: the first call for (k, pi) checks that pi is
        irreducible and builds the residue field, and later calls return
        that object, memoized on the `FunctionField` of k(t), so the memo
        lives and dies with `FunctionField._cache`.  A pi that fails a check
        is not stored and raises on every call.
        """
        if not isinstance(pi, Poly):
            pi = Poly(constant_field, [constant_field.coerce(c) for c in pi])
        if pi.field != constant_field:
            raise ValueError(f"{_fmt_tpoly(pi)} is not a polynomial over "
                             f"{constant_field!r}")
        if pi.degree < 1 or not pi.is_monic():
            raise ValueError("uniformizer must be monic of degree >= 1")
        field = FunctionField(constant_field)
        memo = field.pi_adic_memo
        if pi.coeffs in memo:
            return memo[pi.coeffs]
        pairs = factor_over(constant_field, pi)
        if len(pairs) != 1 or pairs[0][1] != 1 or pairs[0][0] != pi:
            raise ValueError(f"{_fmt_tpoly(pi)} is not irreducible over "
                             f"{constant_field!r}")
        ext = extend_residue(constant_field, pi)
        # split_order hands over remainders mod pi, so the evaluation at the
        # root, in the larger field, runs on fewer than deg pi coefficients
        memo[pi.coeffs] = cls._new(
            field, pi, ext.new_field,
            lambda f: f.map_coeffs(ext.embed, ext.new_field)(ext.root),
            lambda r: Poly(constant_field, ext.decompose(r)),
            f"({_fmt_tpoly(pi)})-adic valuation on {constant_field!r}(t)")
        return memo[pi.coeffs]

    def __repr__(self):
        return self.description

    # -- the valuation -------------------------------------------------------

    def value_of(self, a):
        """The value of a field element; infinity for 0."""
        a = self.field.coerce(a)
        if not a:
            return INFINITY
        return self.split(a)[0]

    def shifted_reduce(self, a, v: int):
        """Residue of a / uniformizer^v; requires value_of(a) >= v."""
        a = self.field.coerce(a)
        v = _as_int(v)
        if not a:
            return self.residue_field.zero
        m, num, den = self.split(a)
        if m < v:
            raise ValueError("shifted element has negative value")
        if m > v:
            return self.residue_field.zero
        return self.residue(num, den)

    def split(self, a):
        """(v, num, den) for a nonzero field element a: v is its value, num
        and den the remainders mod pi of its numerator and denominator
        freed of pi, one `split_order` each."""
        m, num = split_order(a.numerator, self._pi)
        k, den = split_order(a.denominator, self._pi)
        return m - k, num, den

    def residue(self, num, den):
        """Residue of a / uniformizer^v from the remainders `split` gave."""
        R = self.residue_field
        return R.mul(self._reduce(num), R.inv(self._reduce(den)))

    def lift_shifted(self, r, w: int):
        """A field element of value w whose shifted residue is r (r != 0)."""
        F = self.field
        return F.mul(F.coerce(self._lift(r)),
                     power(F, self.uniformizer, _as_int(w)))


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


# largest depth_limit: each augmentation step adds a frame to _explore, and
# about 1000 steps overflow Python's recursion limit; the tower recursions
# (grade, residue, lift_at) are at most 1 + log2(deg g) levels deep
MAX_DEPTH = 256
# the depth_limit of split_extensions, problem_invariants and `--depth` when
# none is given
DEFAULT_DEPTH = 16

# images _is_squarefree tries.  split_extensions calls it only for a walk
# that augments twice, meets a repeated key divisor or raises.  At seeds 0
# and 1 the first image to certify was the prime 2/3/5/7/11/13 on
# 10/27/19/6/4/1 and 16/21/27/12/2/3 of the 67 and 81 squarefree qp_split
# items that call it (31 blocks, 1302 items; the 31 non-squarefree items
# call it too); no ft_split (4 blocks, 144 items) or wide_residue item
# (7 blocks, 147 items) calls it
_SQUAREFREE_TRIES = 6


def split_extensions(v: BaseValuation, g,
                     depth_limit: int = DEFAULT_DEPTH) -> list:
    """All extensions of v to K[x]/(g), for monic squarefree g.

    Returns LocalFactor records in branch order, an exact key divisor
    after the segments of its key, so identical inputs give identically
    ordered output.  Raises ValueError on non-monic or non-squarefree
    input or a depth_limit outside 1..MAX_DEPTH, and UnresolvedBranchError
    if a branch is still ambiguous after depth_limit augmentation steps.

    The walk itself certifies squarefreeness: by Ore's theorem of the
    residual polynomial, a g whose residual factors are all simple and whose
    keys divide it at most once is squarefree over the completion, hence
    over K.  A g that is not squarefree cannot complete the walk, so a
    repeated residual factor at depth 0 augments untested, and such a g
    meets the test one augmentation later.  `_is_squarefree` runs at a
    repeated residual factor from depth 1 on, at a repeated key divisor, or
    before the walk raises; at most once per call, and a False from it is
    the error raised, with the same message at every depth_limit.
    """
    g = _poly_over(v, g)
    if g.degree < 1:
        raise ValueError("need a polynomial of degree >= 1")
    if not g.is_monic():
        raise ValueError("input polynomial must be monic")
    if not 1 <= depth_limit <= MAX_DEPTH:
        raise ValueError(f"depth_limit must be between 1 and {MAX_DEPTH}")
    verdict = []

    def require_squarefree():
        if not verdict:
            verdict.append(_is_squarefree(g))
        if not verdict[0]:
            raise ValueError(
                "input polynomial is not squarefree over the base field "
                "(repeated factors, possibly of the form h(x^p))")

    factors = []
    try:
        _explore(Tower(v), Poly.x(v.field), g, (), factors, depth_limit,
                 require_squarefree)
        total = sum(fac.degree for fac in factors)
        if total != g.degree:
            raise ValueError(f"inconsistent data: local degrees sum to "
                             f"{total}, expected {g.degree}")
    except (ValueError, UnresolvedBranchError, NotImplementedError):
        require_squarefree()
        raise
    return factors


def _explore(tower, key, G, steps, out, depth_limit, require_squarefree):
    """Expand G in the current key, appending its factors in branch order:
    `tower.edges` runs hull, tightness test and residual polynomial on int
    values, one Fraction per edge, and `factor_over` splits each residual.
    A repeated key divisor, or a repeated residual factor after the first
    key, calls `require_squarefree` first, since only a squarefree G lets
    either stand; at the first key a repeated residual factor augments
    untested, and a G that is not squarefree meets the call one step on."""
    digits = phi_expansion(G, key)
    divisor = ()
    if digits[0].is_zero():
        # The key divides G: over these henselian-complete bases a key
        # polynomial is irreducible, so it is itself a local factor, which
        # follows the factors of the segments.
        divisor = (_terminal(
            key.degree, tower.denom, tower.residue_product(),
            steps + (f"[deg {key.degree}] exact key divisor",)),)
        G = G // key
        if G.degree < 1:
            out.extend(divisor)
            return
        digits = digits[1:]  # phi-adic digits are unique
        if digits[0].is_zero():
            require_squarefree()
    for _, _, slope, e_seg, resid in tower.edges(digits):
        for psi, mult in factor_over(tower.field_at(tower.depth), resid):
            branch = steps + (f"[deg {key.degree}] slope {slope}, residual "
                              f"factor {psi} (multiplicity {mult})",)
            if mult == 1:
                out.append(_terminal(
                    key.degree * e_seg * psi.degree, tower.denom * e_seg,
                    tower.residue_product() * psi.degree, branch))
                continue
            if steps:
                require_squarefree()
            if len(steps) >= depth_limit:
                raise UnresolvedBranchError(depth_limit, branch)
            deeper = tower.augment(key, -slope, psi)
            _explore(deeper, deeper.lift_key(), G, branch, out, depth_limit,
                     require_squarefree)
    out.extend(divisor)


def _terminal(degree, e, f, steps) -> LocalFactor:
    if e * f != degree:
        raise ValueError(
            f"inconsistent data: factor of degree {degree} with e*f = {e * f}")
    return LocalFactor(e=e, f=f, degree=degree,
                       certificate=" -> ".join(steps))


# Γ_ν of every rank-1 base valuation, normalized to v(π) = 1
_INTEGERS = LexGroup(1, [(1,)])


def to_extension_invariants(v: BaseValuation, lf: LocalFactor,
                            total_degree: int) -> ExtensionInvariants:
    """Package a LocalFactor as ExtensionInvariants with Γ_ν = Z, Γ_ω = (1/e)Z.

    Γ_ω is built from its canonical form: den e, the one row (1,), pivot 0.
    """
    return ExtensionInvariants(
        gamma_nu=_INTEGERS,
        gamma_omega=LexGroup._canonical(1, lf.e, ((1,),), (0,)),
        residue_degree=lf.f,
        local_degree=lf.degree,
        residue_char=v.residue_char,
        total_degree=total_degree,
        provenance=lf.certificate)


def _is_squarefree(g: Poly) -> bool:
    """Exact squarefreeness over Q, Q(t) or F_q(t).

    `split_extensions` asks only where its walk leaves the question open:
    at a repeated residual factor from depth 1 on, at a repeated key
    divisor, or before it raises.

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
    gcd(D, dG/dt) = gcd(D, dg/dt) over k(t).  dG/dx is `poly._derivative`
    over g's field, whose `mul` scales by an int on Z[x] and on k[t][x]
    alike; dG/dt differentiates each coefficient in k[t].

    Before them, an image of G mod a prime or at a point t = a of a finite
    k (`_specializations`), prime to its derivative, certifies g squarefree:
    by Gauss's lemma a repeated factor of g repeats in it.  Non-squarefree
    input, g = h(x^p) such as x^p - t (its images have derivative 0) and g
    over Q(t) get none; only the gcds decide those, and only they say False.
    """
    G = clear_denominators(g)
    for F, h in islice(_specializations(G), _SQUAREFREE_TRIES):
        if len(_pgcd(F, h, _derivative(F, h))) == 1:
            return True
    d = primitive_gcd(G, _derivative(g.field, G))
    if len(d) > 1 and g.field.characteristic:
        d = primitive_gcd(d, _trim([c.derivative() for c in G]))
    return len(d) == 1


def _specializations(G: list):
    """(F, h) for the images h of G, nonzero in Z[x] or k[t][x], of G's own
    x-degree over a finite field F: G mod the primes p, over GF(p), for G in
    Z[x]; G(a, x) at the codes a of k, over k, for k finite."""
    # an image is dropped only where the leading coefficient lead vanishes,
    # so `_is_squarefree`'s first _SQUAREFREE_TRIES images cost at most that
    # many more tries: over Z, one per prime factor of lead, at most
    # log2|lead|; over k, one per root a in k of lead in k[t], at most its
    # degree, however large k.q is
    images = ()
    if isinstance(G[-1], int):
        images = ((GF(p), [c % p for c in G]) for p in count(2) if isprime(p))
    elif G[-1].field.characteristic:
        k = G[-1].field
        images = ((k, [c(a) for c in G]) for a in range(k.q))
    return ((F, h) for F, h in images if len(_trim(h)) == len(G))
