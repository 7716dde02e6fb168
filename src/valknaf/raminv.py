"""Ramification invariants of an extension of valued fields.

An extension of valuations omega | nu carries four integers: the
ramification index e = [Gamma_omega : Gamma_nu], the residue degree
f = [kappa_omega : kappa_nu], the defect d with e * f * d equal to the
degree of the henselized extension, and the initial index eps, the number
of lex-nonnegative elements of Gamma_omega lying below every lex-positive
element of Gamma_nu.

`ExtensionInvariants` bundles the data that cannot be recomputed from the
groups alone (residue degree, henselized local degree, residue
characteristic); everything else is derived.  The valuation ring of omega is
essentially of finite type over that of nu exactly when the extension is
defectless and eps = e; `knaf_decide` evaluates both halves.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import inf
from typing import Optional, Union

from .numtheory import isprime
from .ordgroup import LexGroup, initial_index, subgroup_index


@dataclass(frozen=True)
class ExtensionInvariants:
    """Declared data of a single extension omega | nu.

    gamma_nu, gamma_omega: value groups inside a common Q^r.
    residue_degree: [kappa_omega : kappa_nu].
    local_degree: degree of the henselized extension L^h / K^h.
    residue_char: 0 or a prime p (characteristic of kappa_nu).
    total_degree: [L : K] if known, else None.
    provenance: free-form label describing where the instance came from.
    """

    gamma_nu: LexGroup
    gamma_omega: LexGroup
    residue_degree: int
    local_degree: int
    residue_char: int = 0
    total_degree: Optional[int] = None
    provenance: str = ""


@dataclass(frozen=True)
class KnafVerdict:
    """Outcome of the finite-type decision for one extension."""

    e: int
    f: int
    eps: int
    d: int
    defectless: bool
    initial_condition: bool
    eft: bool


def _is_power_of(n: int, p: int) -> bool:
    if n < 1:
        return False
    while n % p == 0:
        n //= p
    return n == 1


def ramification_index(inv: ExtensionInvariants) -> int:
    """e = [Gamma_omega : Gamma_nu]; math.inf if the index is infinite."""
    return subgroup_index(inv.gamma_omega, inv.gamma_nu)


def defect(inv: ExtensionInvariants) -> int:
    """d = local_degree / (e * f); raises if the data is inconsistent."""
    return knaf_decide(inv).d


def validate(inv: ExtensionInvariants) -> list:
    """All consistency violations of the declared data, empty when clean.

    Checked: group containment and finite index, positivity of the declared
    degrees, divisibility e*f | local_degree, the defect being 1 in residue
    characteristic 0 and a power of p in residue characteristic p, and
    local_degree <= total_degree when the total degree is declared.
    """
    return _check(inv)[0]


def _check(inv: ExtensionInvariants):
    """(validate(inv), e); e is None when the groups do not give it."""
    problems, e = [], None
    if inv.gamma_nu.rank != inv.gamma_omega.rank:
        problems.append("value groups live in different ambient ranks")
        return problems, e
    try:
        e = subgroup_index(inv.gamma_omega, inv.gamma_nu)
    except ValueError:
        problems.append("gamma_nu is not a subgroup of gamma_omega")
        return problems, e
    if e is inf:
        problems.append("[gamma_omega : gamma_nu] is infinite")
        return problems, e
    if inv.residue_degree < 1:
        problems.append("residue_degree must be a positive integer")
    if inv.local_degree < 1:
        problems.append("local_degree must be a positive integer")
    if inv.residue_char != 0 and not isprime(inv.residue_char):
        problems.append("residue_char must be 0 or a prime")
    if problems:
        return problems, e
    ef = e * inv.residue_degree
    if inv.local_degree % ef != 0:
        problems.append(
            f"e*f = {ef} does not divide local_degree = {inv.local_degree}")
        return problems, e
    d = inv.local_degree // ef
    if inv.residue_char == 0 and d != 1:
        problems.append(
            f"defect {d} > 1 is impossible in residue characteristic 0")
    if inv.residue_char != 0 and not _is_power_of(d, inv.residue_char):
        problems.append(
            f"defect {d} is not a power of the residue characteristic "
            f"{inv.residue_char}")
    if inv.total_degree is not None and inv.local_degree > inv.total_degree:
        problems.append(
            f"local_degree {inv.local_degree} exceeds total_degree "
            f"{inv.total_degree}")
    return problems, e


def knaf_decide(inv: ExtensionInvariants) -> KnafVerdict:
    """Decide essential finite type: defectless and eps = e.

    Raises ValueError (with the violation list) on inconsistent data.
    """
    problems, e = _check(inv)
    if problems:
        raise ValueError("inconsistent extension data: " + "; ".join(problems))
    eps = initial_index(inv.gamma_omega, inv.gamma_nu)
    d = inv.local_degree // (e * inv.residue_degree)
    defectless = d == 1
    initial_condition = eps == e
    return KnafVerdict(e=e, f=inv.residue_degree, eps=eps, d=d,
                       defectless=defectless,
                       initial_condition=initial_condition,
                       eft=defectless and initial_condition)


def frobenius_defect(k_degree: int, gamma: Union[LexGroup, int],
                     kappa_insep_degree: int, p: int) -> int:
    """Defect of nu over its restriction to the subfield of p-th powers.

    k_degree = [K : K^p], kappa_insep_degree = [kappa_nu : kappa_nu^p].
    `gamma` is either the value group (then [Gamma : p*Gamma] is computed)
    or a declared positive integer index, for groups that are not finitely
    generated (e.g. p-divisible ones, where the declared index is 1).

    The result is k_degree / ([Gamma : p*Gamma] * kappa_insep_degree); it is
    1 exactly when nu is Abhyankar-maximal for Frobenius, and a positive
    power of p otherwise.
    """
    if not isprime(p):
        raise ValueError("p must be prime")
    if isinstance(gamma, LexGroup):
        index = subgroup_index(gamma, gamma.scale(p))
        if index is inf:
            raise ValueError("[Gamma : p*Gamma] must be finite")
    elif isinstance(gamma, int) and gamma >= 1:
        index = gamma
    else:
        raise ValueError("declared index must be a positive integer")
    if k_degree < 1 or kappa_insep_degree < 1:
        raise ValueError("degrees must be positive integers")
    denom = index * kappa_insep_degree
    if k_degree % denom != 0:
        raise ValueError(
            f"index * residue part = {denom} does not divide "
            f"[K:K^p] = {k_degree}")
    d = k_degree // denom
    if not _is_power_of(d, p):
        raise ValueError(f"Frobenius defect {d} is not a power of {p}")
    return d
