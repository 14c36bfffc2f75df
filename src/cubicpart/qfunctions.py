"""Canonical q-series building blocks.

Euler products f_k = (q^k; q^k)_inf, the theta series psi (triangular-
number support), the Frobenius split of an exponent map modulo a prime,
the Euler-quotient core prod_delta f_delta^{r_delta} that every family,
identity and certificate expands through, and eta-quotient q-expansions
with the leading power q^{sum delta r_delta / 24} as leading zeros.
"""

from __future__ import annotations

import threading
from collections import OrderedDict
from math import gcd
from typing import Callable, Dict, Hashable, Mapping, Tuple

import numpy as np

from .arith import is_odd_prime
from .modform import EtaQuotient
from .series import Ring, TruncatedSeries, _int64_storage, one

__all__ = ["euler_product", "psi", "frobenius_split", "euler_quotient", "eta_expansion"]


def euler_product(k: int, order: int, ring: Ring) -> TruncatedSeries:
    """The expansion of prod_{j>=1} (1 - q^{kj}) to the given order.

    Pentagonal-number support: coefficient (-1)^j at exponent k*j*(3j+-1)/2,
    zero elsewhere.  O(sqrt(order/k)) nonzero terms.
    """
    if k < 1:
        raise ValueError(f"euler_product expects k >= 1, got {k}")
    exps, signs = [0], [1]
    j = 1
    while k * j * (3 * j - 1) // 2 < order:
        sign = -1 if j % 2 else 1
        for e in (k * j * (3 * j - 1) // 2, k * j * (3 * j + 1) // 2):
            if e < order:
                exps.append(e)
                signs.append(sign)
        j += 1
    coeffs = np.zeros(max(order, 0), dtype=np.int64)
    if order > 0:
        coeffs[exps] = signs
    return TruncatedSeries(ring, coeffs, 0, order)


def psi(order: int, ring: Ring) -> TruncatedSeries:
    """Theta series with coefficient 1 at each triangular number k(k+1)/2."""
    coeffs = [0] * order
    k = 0
    while k * (k + 1) // 2 < order:
        coeffs[k * (k + 1) // 2] = 1
        k += 1
    return TruncatedSeries(ring, coeffs, 0, order)


def frobenius_split(
    exponents: Mapping[int, int], p: int
) -> Tuple[Dict[int, int], Dict[int, int]]:
    """The split E = E0 + p E1 of an exponent map, with |E0(delta)| <= p / 2.

    Each r_delta = p t + s takes the balanced s in [-p/2, p/2]; at p = 2
    an odd r keeps the s with the sign of r, so that |r| = 1 is not split.
    Zeros are dropped from both maps.  Modulo a prime p, f_delta^p ==
    f_{delta p} (Frobenius), so prod f_delta^{E(delta)} ==
    prod f_delta^{E0(delta)} f_{delta p}^{E1(delta)} (mod p).
    """
    if p < 2:
        raise ValueError(f"split modulus must be >= 2, got {p}")
    low: Dict[int, int] = {}
    high: Dict[int, int] = {}
    for delta, r in exponents.items():
        t, s = divmod(r, p)
        if 2 * s > p or (2 * s == p and r < 0):
            t, s = t + 1, s - p
        if s:
            low[delta] = s
        if t:
            high[delta] = t
    return low, high


def _frobenius_reduced(exponents: Mapping[int, int], p: int) -> Dict[int, int]:
    """The map of the split: E0(delta) at delta plus E1(delta) at delta p, summed."""
    low, high = frobenius_split(exponents, p)
    for delta, t in high.items():
        low[delta * p] = low.get(delta * p, 0) + t
    return {d: r for d, r in low.items() if r}


# The largest order euler_quotient expands, per ring kind; the costs that
# set them are in its docstring.
_MAX_ORDER_MOD = 10**7
_MAX_ORDER_ZZ = 10**6

_STORE_SIZE = 64

# key -> the longest series built so far for it: (kind, colors, modulus) for
# a family's series (engine._series_mod), ("f1-inverse", ring) for 1 / f_1
_store: "OrderedDict[tuple, TruncatedSeries]" = OrderedDict()
_store_lock = threading.Lock()


def _stored(
    key: Hashable, order: int, build: Callable[[int], TruncatedSeries]
) -> TruncatedSeries:
    """The series under key to exactly the given order; build(order) makes it.

    A shorter series is cut from the stored one as a view; a longer one is
    built and replaces it.  The least recently used keys beyond _STORE_SIZE
    go.  The lock guards the store only, never a build: callers on several
    threads get correct series but may build one key twice.
    """
    with _store_lock:
        series = _store.get(key)
        if series is not None:
            _store.move_to_end(key)
    if series is None or series.order < order:
        series = build(order)
        with _store_lock:
            held = _store.get(key)
            if held is None or held.order < order:
                _store[key] = series
            _store.move_to_end(key)
            while len(_store) > _STORE_SIZE:
                _store.popitem(last=False)
    if series.order == order:
        return series
    return series.truncate(order)


def _f1_inverse(order: int, ring: Ring) -> TruncatedSeries:
    """1 / f_1 to the given order, from the store.

    The inverse to order n is the first n terms of the inverse to any
    longer order, so a shorter request is an exact cut of the stored one.
    """
    return _stored(
        ("f1-inverse", ring), order, lambda n: euler_product(1, n, ring).inverse()
    )


def _expand(s: TruncatedSeries, k: int, order: int) -> TruncatedSeries:
    """s(q^k) known below the given order, at most k * s.order."""
    return s.substitute_power(k).truncate(order)


def euler_quotient(
    exponents: Mapping[int, int], order: int, ring: Ring
) -> TruncatedSeries:
    """prod_delta f_delta^{r_delta} to the given order; the map holds no zero r.

    Every delta must be >= 1; any other raises ValueError in every ring.
    So does an order above the ceiling of the ring kind, before anything
    is allocated; every family, identity and certificate expansion, and
    so every CLI command, passes this check.  On int64 storage (mod
    m <= 2^63) the ceiling is _MAX_ORDER_MOD = 10^7 terms, set by memory:
    at 10^6 terms mod 7 and 13 the ``verify``, ``theorem`` and ``search``
    scans peak at about 85 bytes a term above the interpreter's 29 MB,
    and so does ``series``, which prints its text in slices (linear from
    10^6 to 4*10^6), so about 0.9 GB at the ceiling.  On object storage,
    over ZZ and mod m > 2^63, it is _MAX_ORDER_ZZ = 10^6, set by time:
    ``count`` for cubic c = 2 takes 9.4 s at 10^5 and 34 s at 2*10^5 on a
    2-vCPU VM, growing about as order^1.9, so some 12 minutes at the
    ceiling.  Mod m > 2^63 the sparse steps below give the costs of ZZ:
    ``verify`` of a_3(7n+4) takes about 1.1 s at n_max = 2*10^4.

    When the ring's modulus p is prime (2 included) and some
    |r_delta| > p / 2, the map is first rewritten by ``frobenius_split``:
    f_delta^{r_delta} becomes f_delta^s f_{delta p}^t with r_delta = p t + s
    and |s| <= p / 2, and exponents that land on the same delta are summed.
    A factor at delta p then costs a power at order/(delta p) where it
    cost one at order/delta, and the balanced s keeps the powers left at
    delta small: a negative s costs one inverse and positive powers cost
    products, so nonnegative residues s in [0, p) were measured slower.
    f_delta = 1 + O(q^delta), so factors at delta >= order are dropped; at
    order 0 none is built and the result is the empty series.

    The factors are applied in descending delta.  On object storage
    (``_int64_storage`` false: ZZ, and ZZ/m for m > 2^63) a factor whose
    exponent r satisfies 2 |r| nnz(f_delta) <= order * bit_length(|r|)
    is applied as |r| sparse steps on the running product: f_delta * prod
    for r > 0 (the schoolbook product skips the zero coefficients of its
    left operand) and prod.divide(f_delta) for r < 0.  The steps cost
    |r| nnz(f_delta) order coefficient operations against about
    bit_length(|r|) dense products of order^2 / 2 for f_delta.pow(r).
    The factor 2 is measured: without it {1: -2, 2: -397, 4: 199} at
    order 400 takes 199 steps for f_4 and runs 1.9 times slower than with
    it.  f_delta has about 1.6 sqrt(order / delta) nonzero coefficients,
    all +-1 (Euler's pentagonal theorem), so steps win at small |r| and
    large order, and pow at colour counts large against the order.

    Every other factor, and every factor on int64 storage, is taken by
    stride: f_delta^r is zero off multiples of delta, so f_1^r is
    expanded by ``pow`` at order ceil(order / delta) and then q -> q^delta
    (``substitute_power``) with a cut.  For r < 0 the base is 1 / f_1,
    raised to |r|.  It comes from the one bounded series store that also
    holds the families' series (``_stored``; two kinds of key, one LRU
    bound): under ("f1-inverse", ring) it is built once per ring, by
    ``inverse``, at the longest order any negative factor of the map
    needs, and every shorter request is a read-only cut of it.  This is
    exact, because 1 / f_1 to order n is the first n terms of 1 / f_1 to
    any longer order.  The running product is kept the
    same way, as a series in q^g for g the gcd of the deltas applied so
    far, at order ceil(order / g), and multiplied with the next factor at
    that order; the final q -> q^g and cut give the order.  So every pow
    costs products of length order / delta, and a product costs length
    order / g: mod 13 the overcubic c = 25 map {1: -2, 2: -47, 4: 24}
    becomes {52: 2, 26: -4, 4: -2, 2: 5, 1: -2}, and only the inverse,
    the square and the one product of the f_1 factor run at full length.
    The sparsest factor comes first, so an exact-integer product with
    g = 1 still skips most of its left operand.
    """
    if min(exponents, default=1) < 1:
        raise ValueError(f"euler_quotient expects every delta >= 1, got {min(exponents)}")
    limit = _MAX_ORDER_MOD if _int64_storage(ring) else _MAX_ORDER_ZZ
    if order > limit:
        raise ValueError(f"series order {order} is above the ceiling {limit} over {ring}")
    p = ring.modulus
    if (
        p is not None
        and any(2 * abs(r) > p for r in exponents.values())
        and (p == 2 or is_odd_prime(p))
    ):
        exponents = _frobenius_reduced(exponents, p)
    exponents = {d: r for d, r in exponents.items() if d < order}
    steps = {}  # on object storage, delta -> f_delta for the factors taken as sparse steps
    if not _int64_storage(ring):
        for delta, r in exponents.items():
            f = euler_product(delta, order, ring)
            if 2 * abs(r) * len(f.support()) <= order * abs(r).bit_length():
                steps[delta] = f
    # 1 / f_1 once, at the longest order a negative pow-branch factor needs
    inverse_orders = [-(-order // d) for d, r in exponents.items() if r < 0 and d not in steps]
    f1_inverse = _f1_inverse(max(inverse_orders), ring) if inverse_orders else None
    prod, g = None, 0  # the product so far, as a series in q^g
    for delta in sorted(exponents, reverse=True):
        r = exponents[delta]
        if delta in steps:
            f = steps[delta]
            prod = one(ring, order) if prod is None else _expand(prod, g, order)
            g = 1
            for _ in range(abs(r)):
                prod = f * prod if r > 0 else prod.divide(f)
            continue
        n = -(-order // delta)
        base = euler_product(1, n, ring) if r > 0 else f1_inverse.truncate(n)
        factor = base.pow(abs(r))  # f_delta^r in q^delta
        if prod is None:
            prod, g = factor, delta
            continue
        h = gcd(g, delta)
        n = -(-order // h)
        prod = _expand(prod, g // h, n) * _expand(factor, delta // h, n)
        g = h
    return one(ring, order) if prod is None else _expand(prod, g, order)


def eta_expansion(eq: EtaQuotient, order: int, ring: Ring) -> TruncatedSeries:
    """q-expansion of prod_delta (q^{delta/24} f_delta)^{r_delta}.

    The leading power q^{eq.delta_sum / 24} becomes that many leading
    zero coefficients, so the result starts at q^0 like every series; its
    order is the given order, or the leading power when that is larger.
    The leading power must be a nonnegative integer and the exponent map
    must not be empty.
    """
    if not eq.exponents:
        raise ValueError("exponent map has no nonzero entry")
    total = eq.delta_sum
    if total % 24 != 0:
        raise ValueError(
            f"sum(delta * r_delta) = {total} is {total % 24} mod 24, not 0:"
            " leading power would be fractional"
        )
    lead = total // 24
    if lead < 0:
        raise ValueError(f"negative leading exponent {lead} (Laurent tails unsupported)")
    return euler_quotient(eq.exponents, max(order - lead, 0), ring).shift(lead)
