"""Partition counting with colored even parts, plus the classical identities.

Two families: partitions whose even parts come in c colors, and their
overpartition variant where the first occurrence of each kind (part value
plus color) may additionally be overlined.  Counts are computed by two
independent routes -- generating-function series and a combinatorial
dynamic program -- so each can serve as the other's oracle.  Each
family's series, and the product side of each classical identity, is an
Euler quotient: a map delta -> r_delta (``modform.EtaMap``) expanded by
``qfunctions.euler_quotient``.  The map of F_c / F_{c-1} is the same for
every c >= 2 (``_COLOUR_STEP``), and mod a prime p, by Frobenius,
F_{c+p} == F_c(q) H(q^p) with H(0) = 1, H = 1 / f_2 (cubic) or
f_4 / f_2^2 (overcubic): ``engine.search_congruences`` builds on both.
"""

from __future__ import annotations

from typing import List, NamedTuple, Optional

from .arith import is_odd_prime
from .modform import EtaMap
from .series import Ring, TruncatedSeries, ZZ
from .qfunctions import _quotient_at, euler_quotient, psi

__all__ = [
    "CUBIC",
    "OVERCUBIC",
    "PartitionFamily",
    "generating_series",
    "count_direct",
    "CheckReport",
    "check_functional_equation",
    "check_lemma_product",
    "check_named_identity",
]

CUBIC = "cubic"
OVERCUBIC = "overcubic"


# PartitionFamily's fields; a NamedTuple may not define __new__, so PartitionFamily
# subclasses this one to check them
class _PartitionFamily(NamedTuple):
    kind: str
    colors: int


class PartitionFamily(_PartitionFamily):
    """A counting family: kind ('cubic' or 'overcubic') and color count c >= 1.

    kind='cubic' with c=1 is ordinary partition counting; c=2 counts
    partitions whose even parts come in two colors.
    """

    __slots__ = ()

    def __new__(cls, kind: str, colors: int) -> "PartitionFamily":
        if kind not in (CUBIC, OVERCUBIC):
            raise ValueError(f"unknown family kind {kind!r}")
        if colors < 1:
            raise ValueError(f"colors must be >= 1, got {colors}")
        return _PartitionFamily.__new__(cls, kind, colors)

    @property
    def exponents(self) -> EtaMap:
        """The nonzero r_delta of the counting series prod_delta f_delta^{r_delta}.

        cubic:     1 / (f1 * f2^(c-1))            -> {1: -1, 2: -(c-1)}
        overcubic: f4^(c-1) / (f1^2 * f2^(2c-3))  -> {1: -2, 2: -(2c-3), 4: c-1}

        For overcubic c=1 the exponent 2c-3 = -1 is taken literally, so f2
        lands in the numerator (ordinary overpartitions).
        """
        c = self.colors
        if self.kind == CUBIC:
            return EtaMap._of([(1, -1), (2, -(c - 1))])
        return EtaMap._of([(1, -2), (2, -(2 * c - 3)), (4, c - 1)])


# The map of F_c / F_{c-1}: exponents(c) - exponents(c - 1), the same for every c >= 2
_COLOUR_STEP = {kind: PartitionFamily(kind, 2).exponents - PartitionFamily(kind, 1).exponents
                for kind in (CUBIC, OVERCUBIC)}


def generating_series(fam: PartitionFamily, order: int, ring: Ring) -> TruncatedSeries:
    """Counting series of the family to the given order: ``euler_quotient`` of its
    map on every ring; colours share work only in ``engine.search_congruences``."""
    return euler_quotient(fam.exponents, order, ring)


def count_direct(fam: PartitionFamily, n: int) -> int:
    """Exact count by dynamic programming over part kinds (``_count_table``)."""
    return _count_table(fam, n)[n]


def _count_table(fam: PartitionFamily, n: int) -> List[int]:
    """The exact counts of 0..n, from one dynamic program over part kinds.

    A kind is a (part value, color) pair: odd values have one kind, even
    values have c kinds.  Equal parts of equal color are interchangeable
    (multiset semantics), handled by the unbounded-knapsack iteration
    order.  For the overcubic family each kind also contributes one
    optional overlined copy, i.e. a factor (1 + q^v) on top of the
    unbounded 1 / (1 - q^v).
    """
    if n < 0:
        raise ValueError(f"n must be >= 0, got {n}")
    ways = [0] * (n + 1)
    ways[0] = 1
    overlined = fam.kind == OVERCUBIC
    for v in range(1, n + 1):
        kinds = 1 if v % 2 else fam.colors
        for _ in range(kinds):
            for s in range(v, n + 1):
                ways[s] += ways[s - v]
            if overlined:
                for s in range(n, v - 1, -1):
                    ways[s] += ways[s - v]
    return ways


class CheckReport(NamedTuple):
    """Outcome of a coefficient-wise comparison of two series."""

    equal: bool
    order: int
    first_mismatch: Optional[int] = None
    lhs: Optional[int] = None
    rhs: Optional[int] = None

    def __bool__(self) -> bool:
        return self.equal

    def describe(self) -> str:
        if self.equal:
            return f"equal through order {self.order}"
        return (
            f"mismatch at exponent {self.first_mismatch}:"
            f" {self.lhs} != {self.rhs} (compared to order {self.order})"
        )


def _compare(a: List[int], b: List[int], order: int) -> CheckReport:
    """Compare the coefficient lists a and b through order: the report of their first difference."""
    for n, (x, y) in enumerate(zip(a, b)):
        if x != y:
            return CheckReport(False, order, n, x, y)
    return CheckReport(True, order)


def check_functional_equation(c: int, order: int) -> CheckReport:
    """Compare F_c(q) against psi(q) * psi(q^2)^(c-1) * F_c(q^2)^2.

    Both sides are expanded independently and compared coefficient-wise
    through the given order.
    """
    if c < 1:
        raise ValueError(f"colors must be >= 1, got {c}")
    if order < 1:
        raise ValueError(f"order must be >= 1, got {order}")
    fam = PartitionFamily(CUBIC, c)
    lhs = generating_series(fam, order, ZZ)
    half = -(-order // 2)
    rhs = psi(order, ZZ)
    if c > 1:
        rhs = rhs * psi(half, ZZ).substitute_power(2).pow(c - 1)
    rhs = rhs * generating_series(fam, half, ZZ).substitute_power(2).pow(2)
    return _compare(lhs.coefficients(order), rhs.coefficients(order), order)


def check_lemma_product(p: int, order: int) -> CheckReport:
    """Compare F_{p-1}(q) against psi(q) * prod_i psi(q^(2^i))^(p*2^(i-1)).

    The product is truncated at the least I with 2^I >= order; later
    factors are 1 + O(q^(2^i)) and cannot touch exponents below order.
    """
    if order < 1:
        raise ValueError(f"order must be >= 1, got {order}")
    if not is_odd_prime(p):
        raise ValueError(f"p must be an odd prime, got {p}")
    lhs = generating_series(PartitionFamily(CUBIC, p - 1), order, ZZ)
    rhs = psi(order, ZZ)
    i = 1
    while (1 << i) < order:
        step = 1 << i
        factor = psi(-(-order // step), ZZ).substitute_power(step)
        rhs = rhs * factor.pow(p * (1 << (i - 1)))
        i += 1
    return _compare(lhs.coefficients(order), rhs.coefficients(order), order)


# identity -> (family, p, r, scale, exponent map):
# sum count(p n + r) q^n == scale * prod_delta f_delta^{r_delta}
_IDENTITIES = {
    "ramanujan-p5n4": (PartitionFamily(CUBIC, 1), 5, 4, 5, {5: 5, 1: -6}),
    "chan-a2-3n2": (PartitionFamily(CUBIC, 2), 3, 2, 3, {3: 3, 6: 3, 1: -4, 2: -4}),
}


def check_named_identity(identity: str, order: int) -> CheckReport:
    """Verify one of the two classical progression identities.

    ramanujan-p5n4:  sum p(5n+4) q^n      = 5 f5^5 / f1^6
    chan-a2-3n2:     sum a_2(3n+2) q^n    = 3 f3^3 f6^3 / (f1^4 f2^4)
    """
    if order < 1:
        raise ValueError(f"order must be >= 1, got {order}")
    if identity not in _IDENTITIES:
        raise ValueError(f"unknown identity {identity!r}")
    fam, p, r, scale, exps = _IDENTITIES[identity]
    # count(p n + r) for n < order, read from the family's series at p (order + 1) terms
    lhs = _quotient_at(fam.exponents, p * (order + 1), ZZ, range(r, p * order, p))
    rhs = euler_quotient(exps, order, ZZ).scale(scale)
    return _compare(lhs, rhs.coefficients(), order)
