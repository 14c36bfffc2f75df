"""Elementary number theory for the congruence criteria.

Deterministic primality, the Legendre symbol by Euler's criterion, the
Kronecker symbol on its full domain, and the admissible-residue
computation that selects progressions pn + r: the cubic family keeps r
with 8r + 1 a quadratic nonresidue mod p, the overcubic family keeps r
itself a nonresidue.
"""

from __future__ import annotations

from typing import Dict, FrozenSet, Iterator, NamedTuple, Tuple

__all__ = [
    "is_odd_prime",
    "legendre",
    "kronecker",
    "ResidueClassReport",
    "admissible_residues",
]

_SMALL_PRIMES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37)


def _is_prime(n: int) -> bool:
    # deterministic Miller-Rabin; the base set covers n < 3.3 * 10^24
    if n < 2:
        return False
    for p in _SMALL_PRIMES:
        if n % p == 0:
            return n == p
    d, s = n - 1, 0
    while d % 2 == 0:
        d //= 2
        s += 1
    for a in _SMALL_PRIMES:
        x = pow(a, d, n)
        if x in (1, n - 1):
            continue
        for _ in range(s - 1):
            x = pow(x, 2, n)
            if x == n - 1:
                break
        else:
            return False
    return True


def is_odd_prime(p: int) -> bool:
    return p > 2 and _is_prime(p)


def _require_odd_prime(p: int) -> None:
    if not is_odd_prime(p):
        raise ValueError(f"{p} is not an odd prime")


def _euler_criterion(a: int, p: int) -> int:
    """(a|p) as a^((p-1)/2) mod p, p an odd prime that the caller has checked."""
    e = pow(a % p, (p - 1) // 2, p)
    return -1 if e == p - 1 else e


def legendre(a: int, p: int) -> int:
    """Legendre symbol (a|p) by Euler's criterion, p an odd prime."""
    _require_odd_prime(p)
    return _euler_criterion(a, p)


def kronecker(a: int, n: int) -> int:
    """Kronecker symbol (a|n) on the full domain, including n <= 0 and even n.

    Completely multiplicative in both arguments; agrees with the Legendre
    symbol when n is an odd prime.
    """
    if n == 0:
        return 1 if a in (1, -1) else 0
    if a % 2 == 0 and n % 2 == 0:
        return 0
    result = 1
    if n < 0:
        n = -n
        if a < 0:
            result = -1
    # (a | 2) per the standard extension: 0 for even a, else +-1 by a mod 8
    twos = 0
    while n % 2 == 0:
        n //= 2
        twos += 1
    if twos % 2 == 1 and a % 8 in (3, 5):
        result = -result
    # remaining n is odd and positive: Jacobi with reciprocity
    a %= n
    while a != 0:
        while a % 2 == 0:
            a //= 2
            if n % 8 in (3, 5):
                result = -result
        a, n = n, a
        if a % 4 == 3 and n % 4 == 3:
            result = -result
        a %= n
    return result if n == 1 else 0


class ResidueClassReport(NamedTuple):
    """Admissible residues for a prime and family, with the character
    value that admitted or rejected each r in [1, p-1].

    cubic criterion: 8r + 1 must be a quadratic nonresidue mod p.
    overcubic criterion: r itself must be a nonresidue.
    """

    prime: int
    family: str
    admissible: FrozenSet[int]
    justification: Dict[int, int]


def _symbols(p: int, family: str, start: int = 1) -> Iterator[Tuple[int, int]]:
    """(r, the symbol of the family's criterion at r) for r = start, ..., p - 1, as
    drawn; p and the family are checked once, at the first draw, not per symbol."""
    _require_odd_prime(p)
    criterion = {"cubic": lambda r: 8 * r + 1, "overcubic": lambda r: r}.get(family)
    if criterion is None:
        raise ValueError(f"unknown family {family!r}")
    for r in range(max(start, 1), p):
        yield r, _euler_criterion(criterion(r), p)


def admissible_residues(p: int, family: str) -> ResidueClassReport:
    """Residues r in [1, p-1] passing the family's nonresidue criterion.

    An r with criterion value 0 mod p is rejected: zero is a square, so
    the obstruction argument has no force there.
    """
    justification = dict(_symbols(p, family))
    admissible = frozenset(r for r, sym in justification.items() if sym == -1)
    return ResidueClassReport(p, family, admissible, justification)
