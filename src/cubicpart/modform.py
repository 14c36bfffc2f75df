"""Eta-quotient bookkeeping and Hecke action on q-expansions.

An eta-quotient is a finite product prod_{delta | N} eta(delta z)^{r_delta}.
This module decides candidacy for level N (integral weight plus the two
mod-24 exponent sums), builds the associated Kronecker-symbol character,
evaluates the order of vanishing at each cusp 1/d in exact rationals,
computes the Sturm bound for the space, and applies T_p to a truncated
q-expansion.

Everything here is metadata plus coefficient manipulation: no space of
modular forms is ever computed.  Holomorphy at the cusps together with
the candidacy conditions is accepted as membership, which is all the
congruence certificates need.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import gcd
from typing import Dict, Optional, Tuple

from .arith import is_odd_prime, kronecker
from .series import TruncatedSeries

__all__ = [
    "EtaQuotient",
    "CharacterDescriptor",
    "CandidacyReport",
    "CuspOrderTable",
    "weight",
    "check_candidacy",
    "character_eval",
    "cusp_orders",
    "sturm_bound",
    "hecke_tp",
    "hecke_tp_factored",
]


@dataclass(frozen=True)
class EtaQuotient:
    """Level N and the exponent r_delta of each eta(delta z) factor.

    The exponent map is copied on construction and keeps only the
    nonzero exponents, so every consumer sees the same factors.
    """

    level: int
    exponents: Dict[int, int]

    def __post_init__(self) -> None:
        if self.level < 1:
            raise ValueError(f"level must be positive, got {self.level}")
        for delta in self.exponents:
            if delta < 1 or self.level % delta != 0:
                raise ValueError(f"{delta} does not divide the level {self.level}")
        nonzero = {d: r for d, r in self.exponents.items() if r}
        object.__setattr__(self, "exponents", nonzero)

    def __hash__(self) -> int:
        # the generated hash would hash the dict and fail
        return hash((self.level, frozenset(self.exponents.items())))

    @property
    def delta_sum(self) -> int:
        """sum(delta * r_delta): 24 times the order at infinity."""
        return sum(d * r for d, r in self.exponents.items())

    def divisors(self) -> list[int]:
        n = self.level
        return [d for d in range(1, n + 1) if n % d == 0]

    def __str__(self) -> str:
        body = " ".join(f"{d}^{self.exponents[d]}" for d in sorted(self.exponents))
        return f"eta-quotient[N={self.level}: {body or '1'}]"


def weight(eq: EtaQuotient) -> "int | Fraction":
    """Half the exponent sum; an int when integral, else an exact Fraction."""
    w = Fraction(sum(eq.exponents.values()), 2)
    return int(w) if w.denominator == 1 else w


@dataclass(frozen=True)
class CharacterDescriptor:
    """The character d -> ((-1)^l * s | d) with s = prod delta^{r_delta}.

    s is stored as a reduced positive fraction.  Square factors of
    numerator and denominator contribute (x^2 | d) = 1 at every d coprime
    to x, and evaluation is only consumed at arguments coprime to the
    level here, so they are cleared before the Kronecker symbol is taken.
    """

    weight: int
    s_numerator: int
    s_denominator: int

    def __str__(self) -> str:
        return f"(-1)^{self.weight} * {self.s_numerator}/{self.s_denominator}"


def _squarefree_kernel(n: int) -> int:
    """Product of the primes dividing n an odd number of times (n >= 1)."""
    kernel = 1
    d = 2
    while d * d <= n:
        e = 0
        while n % d == 0:
            n //= d
            e += 1
        if e % 2:
            kernel *= d
        d += 1
    return kernel * n


def character_eval(ch: CharacterDescriptor, d: int) -> int:
    a = _squarefree_kernel(ch.s_numerator * ch.s_denominator)
    if ch.weight % 2:
        a = -a
    return kronecker(a, d)


@dataclass(frozen=True)
class CandidacyReport:
    """Outcome of the three candidacy conditions for level-N modularity.

    The exponent sums are reported mod 24; the character is present only
    when the weight is integral (it carries the sign (-1)^weight).
    """

    weight_integral: bool
    delta_sum_mod24: int
    colevel_sum_mod24: int
    character: Optional[CharacterDescriptor]

    @property
    def passes(self) -> bool:
        return (
            self.weight_integral
            and self.delta_sum_mod24 == 0
            and self.colevel_sum_mod24 == 0
        )

    def __bool__(self) -> bool:
        return self.passes


def check_candidacy(eq: EtaQuotient) -> CandidacyReport:
    """Evaluate the weight-integrality and mod-24 exponent-sum conditions.

    Failures are reported, not raised.
    """
    n = eq.level
    colevel_sum = sum((n // d) * r for d, r in eq.exponents.items())
    w = weight(eq)
    character = None
    if isinstance(w, int):
        s = Fraction(1)
        for d, r in eq.exponents.items():
            s *= Fraction(d) ** r
        character = CharacterDescriptor(w, s.numerator, s.denominator)
    return CandidacyReport(
        weight_integral=isinstance(w, int),
        delta_sum_mod24=eq.delta_sum % 24,
        colevel_sum_mod24=colevel_sum % 24,
        character=character,
    )


@dataclass(frozen=True)
class CuspOrderTable:
    """Order of vanishing at each cusp 1/d, d running over divisors of N.

    The formula depends only on the denominator d of the cusp, so one
    entry per divisor covers every cusp of Gamma_0(N).
    """

    orders: Dict[int, Fraction]

    @property
    def is_holomorphic(self) -> bool:
        return all(v >= 0 for v in self.orders.values())

    def __str__(self) -> str:
        return " ".join(f"{d}:{self.orders[d]}" for d in sorted(self.orders))


def cusp_orders(eq: EtaQuotient) -> CuspOrderTable:
    """Vanishing order (N/24) sum gcd(d,delta)^2 r_delta / (gcd(d,N/d) d delta)
    at each cusp denominator d | N, in exact rational arithmetic.
    """
    n = eq.level
    table: Dict[int, Fraction] = {}
    for d in eq.divisors():
        total = Fraction(0)
        for delta, r in eq.exponents.items():
            g = gcd(d, delta)
            total += Fraction(g * g * r, gcd(d, n // d) * d * delta)
        table[d] = Fraction(n, 24) * total
    return CuspOrderTable(table)


def sturm_bound(ell: int, n: int) -> int:
    """floor((ell*N/12) * prod_{p | N} (1 + 1/p)), exact rationals throughout."""
    if ell < 1 or n < 1:
        raise ValueError(f"need weight >= 1 and level >= 1, got ({ell}, {n})")
    bound = Fraction(ell * n, 12)
    m, p = n, 2
    while p * p <= m:
        if m % p == 0:
            bound *= 1 + Fraction(1, p)
            while m % p == 0:
                m //= p
        p += 1
    if m > 1:
        bound *= 1 + Fraction(1, m)
    return int(bound)  # Fraction.__int__ truncates toward zero; bound > 0


def hecke_tp(
    f: TruncatedSeries, p: int, ell: int, ch: CharacterDescriptor
) -> TruncatedSeries:
    """Apply T_p: b(n) = a(pn) + chi(p) p^(ell-1) a(n/p), a(n/p) = 0 for p ∤ n.

    p must be prime (2 included) and the weight ell >= 1, so that
    p^(ell-1) is an integer.  Every a(m) with m < f.order is read from
    f's coefficient array, leading zeros included.  The result keeps
    every b(n) the truncation determines: order floor((f.order - 1)/p) + 1.
    """
    if f.order < 1:
        raise ValueError("hecke_tp needs at least the constant coefficient")
    if not (p == 2 or is_odd_prime(p)):
        raise ValueError(f"p must be prime, got {p}")
    if ell < 1:
        raise ValueError(f"weight ell must be >= 1, got {ell}")
    tail = f.ring.normalize(character_eval(ch, p) * p ** (ell - 1))
    new_order = (f.order - 1) // p + 1
    a = f.coefficients()  # Python ints: tail * a(n/p) may leave int64
    out = a[::p]
    if tail:
        for n in range(0, new_order, p):
            out[n] += tail * a[n // p]
    return TruncatedSeries(f.ring, out, 0, new_order)


def hecke_tp_factored(
    g: TruncatedSeries,
    h_of_qp: TruncatedSeries,
    p: int,
    ell: int,
    ch: CharacterDescriptor,
) -> TruncatedSeries:
    """T_p of a product g*h, for h supported on exponents divisible by p.

    In a mod-p ring, (g h)|T_p = (g|T_p) * h(z/p): the contraction sends
    the coefficient of q^(pn) in h to the coefficient of q^n.  Cheaper
    than multiplying first, and the two routes cross-check each other.
    """
    if g.ring.modulus != p:
        raise ValueError(
            f"factored Hecke action is a mod-p identity; ring is {g.ring}, p = {p}"
        )
    if h_of_qp.ring != g.ring:
        raise ValueError(f"ring mismatch: {g.ring} vs {h_of_qp.ring}")
    stray = [e for e in h_of_qp.support().tolist() if e % p]
    if stray:
        e = stray[0]
        raise ValueError(
            f"h has a term q^{e} outside ZZ[[q^{p}]]: exponent {e} not divisible by {p}"
        )
    contracted = h_of_qp.extract_progression(p, 0)
    return hecke_tp(g, p, ell, ch) * contracted
