"""Exponent maps, eta-quotient bookkeeping and Hecke action on q-expansions.

A map delta -> r_delta is one type, ``EtaMap``, with its arithmetic and
its text ``1^76 2^-2``; an eta-quotient prod_{delta | N} eta(delta z)^{r_delta}
is a level and one map.  This module decides candidacy for level N
(integral weight plus the two mod-24 exponent sums), builds the
associated Kronecker-symbol character, evaluates the order of vanishing
at each cusp 1/d in exact rationals, computes the Sturm bound for the
space, and applies T_p to a truncated q-expansion.

Everything here is metadata plus coefficient manipulation: no space of
modular forms is ever computed.  Holomorphy at the cusps together with
the candidacy conditions is accepted as membership, which is all the
congruence certificates need.
"""

from __future__ import annotations

from collections.abc import Iterable, Mapping
from fractions import Fraction
from math import gcd
from operator import index
from typing import Dict, ItemsView, Iterator, NamedTuple, Optional, Tuple

from .arith import _is_prime, kronecker
from .series import TruncatedSeries

__all__ = [
    "EtaMap",
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


class EtaMap(Mapping):
    """A frozen map delta -> r_delta of integers in rising delta with no zero r, built from a
    mapping or pairs (ValueError for a non-integer, by ``operator.index``); it equals the dict
    of its entries.  +, - and n * E are entrywise; E.at(k) is E(q^k), k delta -> r_delta."""

    __slots__ = ("_map",)

    def __new__(cls, exponents: "Mapping[int, int] | Iterable[Tuple[int, int]]" = ()) -> "EtaMap":
        if type(exponents) is cls:
            return exponents
        entries = dict(exponents)
        try:
            return cls._of(sorted((index(d), index(r)) for d, r in entries.items()))
        except TypeError:
            raise ValueError(f"an exponent map holds integers, got {entries}") from None

    @classmethod
    def _of(cls, pairs: Iterable[Tuple[int, int]]) -> "EtaMap":
        """The map of integer pairs in rising delta, unchecked: the one place zeros are dropped."""
        self = object.__new__(cls)
        object.__setattr__(self, "_map", {d: r for d, r in pairs if r})
        return self

    def __getitem__(self, delta: int) -> int:
        return self._map[delta]

    def __iter__(self) -> Iterator[int]:
        return iter(self._map)

    def __len__(self) -> int:
        return len(self._map)

    def items(self) -> ItemsView[int, int]:
        return self._map.items()

    def __eq__(self, other: object) -> bool:
        return self._map == (other._map if type(other) is EtaMap else other)

    def __hash__(self) -> int:
        return hash(tuple(self._map.items()))

    def __repr__(self) -> str:
        return repr(self._map)

    def __setattr__(self, name: str, value: object) -> None:
        raise AttributeError(f"an EtaMap is frozen: cannot set {name!r}")

    def __reduce__(self):
        return EtaMap, (self._map,)

    def __add__(self, other: "EtaMap", sign: int = 1) -> "EtaMap":
        merged = dict(self._map)
        for d, r in other._map.items():
            merged[d] = merged.get(d, 0) + sign * r
        return EtaMap._of(sorted(merged.items()))

    def __sub__(self, other: "EtaMap") -> "EtaMap":
        return self.__add__(other, -1)

    def __mul__(self, n: int) -> "EtaMap":
        return EtaMap._of([(d, index(n) * r) for d, r in self._map.items()])

    __rmul__ = __mul__

    def at(self, k: int) -> "EtaMap":
        if k < 1:
            raise ValueError(f"at expects k >= 1, got {k}")
        return EtaMap._of([(k * d, r) for d, r in self._map.items()])

    def mod(self, p: int) -> Tuple[Tuple[int, int], ...]:
        """The pairs (delta, r_delta mod p) with a nonzero residue: one key for maps congruent mod p."""
        return tuple([(d, s) for d, r in self._map.items() if (s := r % p)])

    def split(self, p: int) -> Tuple["EtaMap", "EtaMap"]:
        """E = E0 + p E1, each r = p t + s with s balanced in [-p/2, p/2] (at p = 2 an odd r keeps
        its sign in s, so |r| = 1 is not split): mod a prime, prod f_d^r == prod f_d^s f_{dp}^t.
        When no entry moves, E0 is E itself."""
        if p < 2:
            raise ValueError(f"split modulus must be >= 2, got {p}")
        parts = []
        for d, r in self._map.items():
            t, s = divmod(r, p)
            if 2 * s > p or (2 * s == p and r < 0):
                t, s = t + 1, s - p
            parts.append((d, s, t))
        high = EtaMap._of([(d, t) for d, _, t in parts])
        return (EtaMap._of([(d, s) for d, s, _ in parts]) if high else self), high

    def to_text(self) -> str:
        return " ".join(f"{d}^{r}" for d, r in self._map.items())  # 1^76 2^-2; "" for no entry


# EtaQuotient's fields; a NamedTuple may not define __new__, so EtaQuotient
# subclasses this one to check them
class _EtaQuotient(NamedTuple):
    level: int
    exponents: EtaMap


class EtaQuotient(_EtaQuotient):
    """Level N and the exponent map (``EtaMap``) of its eta(delta z) factors."""

    __slots__ = ()

    def __new__(cls, level: int, exponents: Mapping[int, int]) -> "EtaQuotient":
        if level < 1:
            raise ValueError(f"level must be positive, got {level}")
        exponents = EtaMap(exponents)
        for delta in exponents:
            if delta < 1 or level % delta != 0:
                raise ValueError(f"{delta} does not divide the level {level}")
        return _EtaQuotient.__new__(cls, level, exponents)

    @property
    def delta_sum(self) -> int:
        """sum(delta * r_delta): 24 times the order at infinity."""
        return sum(d * r for d, r in self.exponents.items())

    def divisors(self) -> list[int]:
        n = self.level
        return [d for d in range(1, n + 1) if n % d == 0]

    def __str__(self) -> str:
        return f"eta-quotient[N={self.level}: {self.exponents.to_text() or '1'}]"


def weight(eq: EtaQuotient) -> "int | Fraction":
    """Half the exponent sum; an int when integral, else an exact Fraction."""
    w = Fraction(sum(eq.exponents.values()), 2)
    return int(w) if w.denominator == 1 else w


class CharacterDescriptor(NamedTuple):
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


class CandidacyReport(NamedTuple):
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


class CuspOrderTable(NamedTuple):
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
    if not _is_prime(p):
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
