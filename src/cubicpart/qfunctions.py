"""Canonical q-series building blocks.

One table of closed forms, each an eta product with its exponent map (a
``modform.EtaMap``, as is every map here): Euler's f_k = (q^k; q^k)_inf
(pentagonal support, coefficients +-1), Jacobi's f_k^3 and the theta
series psi = f_2^2 / f_1 and psi(-q) = f_1 f_4 / f_2 (on the triangular
numbers), and phi = f_2^5 / (f_1^2 f_4^2) and phi(-q) = f_1^2 / f_2 (on
the squares).  Each entry's closed formula maps an array of term indices
to exponents and coefficients at once: ``_terms`` gives its terms in q^k
below an order as two int64 arrays.  The exact-integer steps multiply
and divide by those arrays directly (``series._term_product`` and
``series._divide_terms``); only ``euler_product``, ``jacobi_cube`` and
``psi`` scatter them into a series (``_closed_form``).  Then the
Frobenius split of an exponent map modulo a prime (``EtaMap.split``),
the Euler-quotient core prod_delta f_delta^{r_delta} that every family,
identity and certificate expands through, whose exact-integer steps
follow one chain of theta entries, each zeroing the bottom delta of what
is left, priced from the entries' term counts (``_step_plan``; cubic
c >= 2 is mostly psi(q) / f_2^(c+1), one product by psi), and whose plan
runner also reads chosen coefficients alone (``_quotient_at``, through
which the CLI's ``count`` and the left side of each named identity read
theirs: a last product by a closed form is the kernel's read at the
exponents read), the class-first read of one
residue class mod a prime through a theta core congruent to the map
(``_core_class``), and eta-quotient q-expansions with the leading power
q^{sum delta r_delta / 24} as leading zeros.  A theta core is one table
entry, or a product of two, each in q^k, found by looking up each
factor's exponent map mod p (``_theta_core``, ``EtaMap.mod``): mod 7,
1 / (f_1 f_2^2) == psi(q) f_2^3 / f_14.  Mod p the quotient is the core
times a series in q^p with constant term 1, so each class has the
verdict and first witness of the core's class, which is read from the
entries' terms, for two of them pair by pair within the class, summed
exactly in int64 under the bound that ``_class_read`` states.
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache
from math import gcd, isqrt
from typing import Callable, Dict, List, Mapping, Optional, Sequence, Tuple

import numpy as np

from .arith import _is_prime
from .modform import EtaMap, EtaQuotient
from .series import Ring, TruncatedSeries, _Holder, _divide_terms, _int64_storage, _term_product, one

__all__ = ["euler_product", "jacobi_cube", "psi", "frobenius_split", "euler_quotient", "eta_expansion"]


def _pentagonal(i: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
    """Term i of f_1 (Euler's pentagonal theorem): (-1)^j at j(3j-1)/2, j = 0, 1, -1, 2, ..."""
    j = (i + 1) // 2 * (2 * (i & 1) - 1)
    return j * (3 * j - 1) // 2, 1 - 2 * (j & 1)


_Formula = Callable[[np.ndarray], Tuple[np.ndarray, np.ndarray]]

# The closed forms by name (the public builder's, where there is one): the
# exponent map of the eta product each one is, and its closed formula for
# the terms i as (exponents, coefficients) in q, both int64 arrays over an
# int64 array of indices i, exponents strictly rising with i.  The entry
# at k is the same series in q^k.
_CLOSED_FORMS: Dict[str, Tuple[EtaMap, _Formula]] = {
    "euler_product": (EtaMap({1: 1}), _pentagonal),
    # Jacobi's identity: (-1)^i (2i+1) at i(i+1)/2
    "jacobi_cube": (EtaMap({1: 3}), lambda i: (i * (i + 1) // 2, (1 - 2 * (i & 1)) * (2 * i + 1))),
    # Gauss: 1 at each triangular number
    "psi": (EtaMap({1: -1, 2: 2}), lambda i: (i * (i + 1) // 2, np.ones_like(i))),
    # the sum of q^(n^2) over all integers n: 1 at 0, 2 at each other square
    "phi": (EtaMap({1: -2, 2: 5, 4: -2}), lambda i: (i * i, np.where(i == 0, 1, 2))),
    "phi(-q)": (EtaMap({1: 2, 2: -1}), lambda i: (i * i, np.where(i == 0, 1, 2 - 4 * (i & 1)))),
    "psi(-q)": (EtaMap({1: 1, 2: -1, 4: 1}), lambda i: (t := i * (i + 1) // 2, 1 - 2 * (t & 1))),
}


def _terms(name: str, k: int, order: int) -> Tuple[np.ndarray, np.ndarray]:
    """The closed form's terms in q^k below order: exponents, rising, and coefficients, in int64.

    Every entry's exponent at i is at least i^2 / 8 (the pentagonal
    numbers' 3 j^2 / 2 at j ~ i / 2), so the terms below n = ceil(order / k)
    lie among the first isqrt(8 n) + 2, and the formula runs once over
    those indices.  The cut below n comes before the scaling by k, so every
    exponent k e is below order: no product passes int64, and a k at or
    above the order, which may itself pass int64, leaves only e = 0.
    """
    n = max(-(-order // k), 0)
    e, c = _CLOSED_FORMS[name][1](np.arange(isqrt(8 * n) + 2, dtype=np.int64))
    cut = int(np.searchsorted(e, n))
    return (k * e[:cut] if k < order else e[:cut]), c[:cut]


def _closed_form(name: str, k: int, order: int, ring: Ring) -> TruncatedSeries:
    """The closed form in q^k to the given order, by one scatter of its terms."""
    if k < 1:
        raise ValueError(f"{name} expects k >= 1, got {k}")
    coeffs = np.zeros(max(order, 0), dtype=np.int64)
    e, c = _terms(name, k, order)
    coeffs[e] = c
    return TruncatedSeries(ring, coeffs, 0, order)


def euler_product(k: int, order: int, ring: Ring) -> TruncatedSeries:
    """f_k = prod_{j>=1} (1 - q^{kj}) to the given order.

    Pentagonal-number support: coefficient (-1)^j at exponent k*j*(3j-1)/2,
    j in ZZ, zero elsewhere.  O(sqrt(order/k)) nonzero terms, all +-1.
    """
    return _closed_form("euler_product", k, order, ring)


def jacobi_cube(k: int, order: int, ring: Ring) -> TruncatedSeries:
    """f_k^3 = prod_{j>=1} (1 - q^{kj})^3 to the given order.

    Jacobi's identity: coefficient (-1)^n (2n+1) at exponent k*n(n+1)/2,
    zero elsewhere.  About sqrt(2 order / k) nonzero terms, all distinct.
    """
    return _closed_form("jacobi_cube", k, order, ring)


def psi(order: int, ring: Ring) -> TruncatedSeries:
    """Theta series psi = f_2^2 / f_1, coefficient 1 at each triangular number."""
    return _closed_form("psi", 1, order, ring)


def frobenius_split(exponents: Mapping[int, int], p: int) -> Tuple[EtaMap, EtaMap]:
    """The balanced split E = E0 + p E1 of an exponent map, as ``EtaMap.split`` makes it."""
    return EtaMap(exponents).split(p)


# The largest order euler_quotient expands, per ring kind; the costs that
# set them are in its docstring.
_MAX_ORDER_MOD = 10**7
_MAX_ORDER_ZZ = 10**6
# The largest c_max ``search`` reads: its claims and their text grow
# linearly in c_max, 8.7 s and 576 MB at 10^6 (mod 5, n_max 100).
_MAX_COLOURS = 10**6

# the last 1 / f_1 that _f1_inverse built, keyed by its ring
_f1_holder = _Holder()


def _f1_inverse(order: int, ring: Ring) -> TruncatedSeries:
    """1 / f_1 to exactly the given order; the last one built is held (``series._Holder``).

    One is enough: ``euler_quotient`` asks once per map, and ``search``
    reads both kinds of a modulus in turn.  In the benchmark's search grid
    cubic c = 5 mod 11 cuts its 8001 terms from c = 1's.
    """
    return _f1_holder.get(ring, order, lambda: euler_product(1, order, ring).inverse())


def _expand(s: TruncatedSeries, k: int, order: int) -> TruncatedSeries:
    """s(q^k) known below the given order, at most k * s.order."""
    return s.substitute_power(k).truncate(order)


# A step plan item (name, k, n): the closed form ``name`` in q^k applied n
# times, multiplied in for n > 0 and divided out for n < 0; name None is
# f_k^n by pow, strided.
_Step = Tuple[Optional[str], int, int]


@lru_cache(maxsize=256)
def _term_count(name: str, n: int) -> int:
    """How many terms of the closed form lie below n (``_terms``), counted once per (name, n)."""
    return len(_terms(name, 1, n)[0])


def _sparse_steps(prod: TruncatedSeries, name: str, k: int, n: int) -> TruncatedSeries:
    """prod times the closed form in q^k to the power n, at prod's order, by |n| sparse steps.

    Object storage.  A step multiplies by the entry's terms (n > 0, the
    row kernel ``_term_product``) or divides by them (n < 0,
    ``_divide_terms``, past the constant term 1).
    """
    e, c = _terms(name, k, prod.order)
    ring, m = prod.ring, prod.ring.modulus
    for _ in range(abs(n)):
        if n > 0:
            prod = TruncatedSeries._wrap(ring, _term_product(e, c, prod.coeffs, prod.order, m))
        else:
            prod = TruncatedSeries(ring, _divide_terms(prod.coeffs, e[1:], c[1:], 1, m))
    return prod


def _price(plan: List[_Step], g: int, order: int) -> int:
    """Coefficient products of the plan's items, applied in turn on the product in q^g.

    g = 0 before the first item.  An item at k moves the product to q^h,
    h = gcd(g, k), at ceil(order / h) terms.  A step costs that many
    products per nonzero term of its entry at m = ceil(order / k),
    counted from the table with no series built.  f_k^r by pow costs
    bit_length(|r|) dense products of m^2 and, after the first item, one
    product of the power with the product so far, which skips the zeros
    of that product's ceil(order / g) terms: ceil(order / h) ceil(order / g).
    """
    total = 0
    for name, k, times in plan:
        h, m = gcd(g, k), -(-order // k)
        if name is None:
            total += abs(times).bit_length() * m * m + (-(-order // h) * -(-order // g) if g else 0)
        else:
            total += abs(times) * -(-order // h) * _term_count(name, m)
        g = h
    return total


def _f_steps(r: int, delta: int) -> List[_Step]:
    """f_delta^r as sparse steps: floor(|r| / 3) by f^3, then |r| mod 3 by f."""
    cubes, rest = divmod(abs(r), 3)
    sign = 1 if r > 0 else -1
    return [(name, delta, sign * t) for name, t in (("jacobi_cube", cubes), ("euler_product", rest)) if t]


def _takes_steps(r: int, delta: int, g: int, order: int) -> bool:
    """Whether f_delta^r costs no more coefficient products (``_price``) as sparse steps than by pow."""
    return _price(_f_steps(r, delta), g, order) <= _price([(None, delta, r)], g, order)


def _f_factor_plan(exponents: Mapping[int, int], g: int, order: int) -> List[_Step]:
    """Each f_delta^r of the map, in descending delta, on the product in q^g.

    f_delta^r is sparse steps where ``_takes_steps`` holds, else pow.
    """
    plan: List[_Step] = []
    for delta, r in sorted(exponents.items(), reverse=True):
        plan += _f_steps(r, delta) if _takes_steps(r, delta, g, order) else [(None, delta, r)]
        g = gcd(g, delta)
    return plan


def _step_plan(exponents: Mapping[int, int], order: int) -> List[_Step]:
    """The cheapest step plan for the map on object storage, by ``_price``, along one chain.

    The chain starts at the f-factor plan (``_f_factor_plan``).  Each link
    zeroes the bottom delta b of what is left by a theta entry whose
    bottom delta, in q^k, is b, taken n times with n r_bottom = r_b, when
    the entry's other deltas are all in what is left: the link removes a
    delta and adds none.  Every entry that fits is priced as the f factors
    of what it leaves, then its item, then the earlier links' items; the
    chain follows the one that leaves the least sum of |r_delta| / delta,
    and ends when none fits.  The cheapest plan is taken; on a tie the
    earlier one stays, the f-factor plan first and at each link the
    followed entry first.  So the overcubic map {1: -2, 2: 3 - 2c,
    4: c - 1} is 1 / (phi(-q) phi(-q^2)^(c-1)), and cubic {1: -1, 2: 1 - c}
    psi / f_2^(c+1).
    """
    thetas = [(name, entry) for name, (entry, _) in _CLOSED_FORMS.items() if max(entry) > 1]
    best = _f_factor_plan(exponents, 0, order)
    best_price = _price(best, 0, order)
    rest = EtaMap(exponents)
    tail: List[_Step] = []
    while rest:
        b = min(rest)
        fits = []
        for name, entry in thetas:
            low = min(entry)
            k, n = b // low, rest[b] // entry[low]
            if b % low or rest[b] % entry[low] or any(k * e not in rest for e in entry):
                continue
            fits.append((rest - n * entry.at(k), [(name, k, n)] + tail))
        if not fits:
            break
        fits.sort(key=lambda fit: sum(Fraction(abs(r), d) for d, r in fit[0].items()))
        for left, items in fits:
            plan = _f_factor_plan(left, 0, order) + items
            price = _price(plan, 0, order)
            if price < best_price:
                best, best_price = plan, price
        rest, tail = fits[0]
    return best


def _check_order(order: int, ring: Ring) -> None:
    """Refuse an order above the ceiling of the ring kind; ``euler_quotient`` sets out both."""
    limit = _MAX_ORDER_MOD if _int64_storage(ring) else _MAX_ORDER_ZZ
    if order > limit:
        raise ValueError(f"series order {order} is above the ceiling {limit} over {ring}")


def euler_quotient(
    exponents: Mapping[int, int], order: int, ring: Ring
) -> TruncatedSeries:
    """prod_delta f_delta^{r_delta} to the given order; the map holds no zero r.

    Every delta must be >= 1; any other raises ValueError in every ring.
    So does an order above the ceiling of the ring kind, before anything
    is allocated; every family, identity and certificate expansion, and
    so every CLI command, passes this check.  On int64 storage (mod
    m <= 2^63) the ceiling is _MAX_ORDER_MOD = 10^7 terms, set by memory:
    at 10^6 terms mod 7 and 13 a scan of the full series (``verify``,
    ``theorem``, and ``search`` for a class its prefix leaves open and no
    core reads) peaks at about 85 bytes a term above the interpreter's
    29 MB, and so does ``series``, which prints its text and its ``--json``
    array in slices (linear from 10^6 to 4*10^6), so about 0.9 GB at the
    ceiling.  On object storage, over ZZ and mod m > 2^63, it is
    _MAX_ORDER_ZZ = 10^6, set by time: ``count`` for cubic c = 2 took
    5.5-5.9 s at 10^5 (two runs) and 17 s at 2*10^5 on a 2-vCPU VM,
    growing about as order^1.6, so some 4 minutes at the ceiling by
    extrapolation.  Mod m > 2^63 the sparse steps below give the costs
    of ZZ: ``verify`` of a_3(7n+4) takes about 0.7 s at n_max = 2*10^4.

    When the ring's modulus p is prime (2 included), the map E is first
    rewritten as E0 + E1.at(p) by its split E = E0 + p E1, |E0| <= p / 2
    (``frobenius_split``); a map with every |r| <= p / 2 is left as it is.
    A factor at delta p then costs a power at order/(delta p) where it
    cost one at order/delta, and the balanced s keeps the powers left at
    delta small: a negative s costs one inverse and positive powers cost
    products, so nonnegative residues s in [0, p) were measured slower.
    f_delta = 1 + O(q^delta), so factors at delta >= order are dropped; at
    order 0 none is built and the result is the empty series.

    The map is applied as a plan, a list of items (name, k, n): the
    closed form ``name`` in q^k applied n times, or f_k^n by pow when
    name is None.  On int64 storage the plan is every f_delta^r by pow,
    in descending delta.  The running product is kept as a series in
    q^g, g the gcd of the k applied so far, at order ceil(order / g);
    the final q -> q^g and cut give the order.  An item at k first moves
    the product to q^h, h = gcd(g, k), at order ceil(order / h); the
    first item has h = k.

    On object storage (``_int64_storage`` false: ZZ, and ZZ/m for
    m > 2^63) the plan is ``_step_plan``'s, and an item with a name is
    |n| sparse steps on the product in q^h (``_sparse_steps``), each a
    product or a division by the entry's terms in q^{k/h}; the first
    item starts from 1 at ceil(order / k).  f_d^r is pow or steps, three
    at a time by Jacobi's f^3 and the |r| mod 3 left by f, whichever
    ``_takes_steps`` finds no dearer by ``_price``, which counts about
    sqrt(order / k) terms for phi(-q), sqrt(2 order / k) for f^3 and
    1.6 sqrt(order / k) for f.  So f steps win at small |r| and large
    order, and pow at colour counts large against the order.  Cubic c = 5, {2: -4, 1: -1}
    at 4001, is psi(q) / f_2^6, psi = f_2^2 / f_1: two divisions by f^3
    at 2001 terms, then one product by psi at 4001, where the f factors
    divide by f at full length; c = 251 takes 84 divisions by f^3 for
    f_2^-252, and c = 1001 pow.  Where c - 1 is a multiple of 3 and
    f_2^(1-c) goes by steps, the f factors stay.  The overcubic map
    {1: -2, 2: 3 - 2c, 4: c - 1} is 1 / (phi(-q) phi(-q^2)^(c-1)), with
    phi(-q) = f_1^2 / f_2: from a few hundred terms on it is c - 1
    divisions by phi(-q) in q^2 at ceil(order / 2) terms and one at
    order, where the f factors would divide twice by f at full length.
    Chan's product side takes phi(-q)^-2 f_2^-6 for f_1^-4 f_2^-4; cubic
    c = 1 and Ramanujan's keep their f factors.

    A pow item f_delta^r is taken by stride: it is zero off multiples of
    delta, so f_1^r is expanded by ``pow`` at order ceil(order / delta)
    and then q -> q^delta (``substitute_power``) with a cut.  For r < 0
    the base is 1 / f_1, raised to |r|.  It is asked of ``_f1_inverse``
    once, at the longest order any negative pow item needs, and cut for
    every shorter one; ``_f1_inverse`` holds the last inverse it built, so a
    map over the same ring at no higher an order builds none.  This is
    exact, because 1 / f_1 to order n is the first n terms of 1 / f_1 to
    any longer order.  The power is multiplied with the product in q^h
    at order ceil(order / h), or becomes the product when it is the
    first factor.  So every pow costs products of length order / delta,
    and a product costs length order / h: mod 13 the overcubic c = 25
    map {1: -2, 2: -47, 4: 24} becomes {52: 2, 26: -4, 4: -2, 2: 5,
    1: -2}, and only the inverse, the square and the one product of the
    f_1 factor run at full length.  The sparsest factor comes first, so
    an exact-integer product with h = 1 still skips most of its left
    operand.

    One plan runner serves this function and the read of chosen
    coefficients that ``count`` and the left side of
    ``check_named_identity`` use (``_quotient_at``), so ``count`` for
    cubic c = 5 at 4001 forms no product of 4001 terms.
    """
    return _quotient_at(exponents, order, ring)


def _quotient_at(
    exponents: Mapping[int, int], order: int, ring: Ring, at: Optional[Sequence[int]] = None
):
    """The plan runner: ``euler_quotient`` when at is None, else its coefficients at at, as ints.

    at is a range with a positive step (a progression) or a sequence of
    exponents in any order, repeats allowed; each is in [0, order).  The
    checks of ``euler_quotient`` come first, the order's ceiling
    included, so a long progression is never listed above it.  On object
    storage a read of a plan that ends in a product by a closed form runs
    every step but that last one, which is one read of the row kernel
    (``series._term_product``) at the distinct exponents of at.  A read
    of any other plan, and on int64 storage, builds the whole series and
    indexes it.
    """
    exponents = EtaMap(exponents)
    if min(exponents, default=1) < 1:
        raise ValueError(f"euler_quotient expects every delta >= 1, got {min(exponents)}")
    _check_order(order, ring)
    p = ring.modulus
    if p is not None and _is_prime(p):
        low, high = frobenius_split(exponents, p)  # E0 at delta, plus E1 at delta p
        exponents = low + high.at(p) if high else low
    if max(exponents, default=0) >= order:
        exponents = EtaMap._of((d, r) for d, r in exponents.items() if d < order)
    if _int64_storage(ring):
        plan = [(None, d, r) for d, r in reversed(exponents.items())]
    else:
        plan = _step_plan(exponents, order)
    # a read holds back the plan's last step when that is a product by a closed form
    last = None
    if at is not None and plan and plan[-1][0] is not None and plan[-1][2] > 0:
        name, k, n = plan[-1]
        plan, last = plan[:-1] + ([(name, k, n - 1)] if n > 1 else []), (name, k)
    # 1 / f_1 once, at the longest order a negative pow factor needs
    inverse_orders = [-(-order // k) for name, k, n in plan if name is None and n < 0]
    f1_inverse = _f1_inverse(max(inverse_orders), ring) if inverse_orders else None
    prod, g = None, 0  # the product so far, as a series in q^g
    for name, k, n in plan:
        h = gcd(g, k)  # k itself for the first item, as gcd(0, k)
        m = -(-order // h)
        if name is not None:
            prod = one(ring, m) if prod is None else _expand(prod, g // h, m)
            prod = _sparse_steps(prod, name, k // h, n)
        else:
            mk = -(-order // k)
            base = euler_product(1, mk, ring) if n > 0 else f1_inverse.truncate(mk)
            factor = base.pow(abs(n))  # f_k^n in q^k
            if prod is None:
                prod = factor
            else:
                prod = _expand(prod, g // h, m) * _expand(factor, k // h, m)
        g = h
    series = one(ring, order) if prod is None else _expand(prod, g, order)
    if at is None:
        return series
    at = np.asarray(at, dtype=np.int64)
    if last is None:
        return series.coeffs[at].tolist()
    # the series times the held-back step, read at the distinct exponents of at
    want, back = np.unique(at, return_inverse=True)
    return _term_product(*_terms(*last, order), series.coeffs, order, ring.modulus, want)[back].tolist()


# a theta core as its factors: (name in _CLOSED_FORMS, k) for the entry in q^k
_Core = Tuple[Tuple[str, int], ...]


@lru_cache(maxsize=256)
def _theta_core(exponents: EtaMap, p: int) -> Optional[_Core]:
    """The first core C with E == C (mod p) entrywise.

    A core is one ``_CLOSED_FORMS`` entry or a product of two, each in
    q^k for k = 1 or a delta of E (the entry's map A becomes A.at(k)),
    given as its factors (name, k).  The factors are ordered by k, then
    as in the table; the cores are the single factors in that order, then
    the pairs (i, j), i <= j, by i and then j, so a map that a single
    entry at k = 1 matches keeps that core.  Each factor's map mod p is
    one hashable key (``EtaMap.mod``), so the first core is found by
    lookup, not by forming every pair: the first factor keyed as E, else
    the first factor i for which some factor is keyed as E - (factor i),
    with the first such j.  That j is at least i, since a j below i
    would have been found with i at step j.  None when no core matches.
    The match is by the congruence, not by ``frobenius_split``'s balanced
    part, which misses cores: overcubic c = 6 at p = 7 splits to
    {1: -2, 2: -2, 4: -2}, yet its map is phi's mod 7.  Cubic c = 3 at
    p = 7, {1: -1, 2: -2}, is psi(q) f_2^3 + 7 {2: -1}.  Each (map, p) is
    matched once, the cache keyed by the map: a theorem family reads
    every class of one map.
    """
    factors = [(name, k) for k in sorted({1, *exponents}) for name in _CLOSED_FORMS]
    maps = [_CLOSED_FORMS[name][0].at(k) for name, k in factors]
    first = {m.mod(p): j for j, m in reversed(list(enumerate(maps)))}  # key -> its first factor
    # E less the empty map (the series 1) matches a single factor, and E - A a pair (A, B)
    for i, m in enumerate([EtaMap(), *maps]):
        j = first.get((exponents - m).mod(p))
        if j is not None:
            return (factors[j],) if i == 0 else (factors[i - 1], factors[j])
    return None


@lru_cache(maxsize=16)
def _residue_terms(
    name: str, k: int, order: int, p: int
) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The terms of the closed form in q^k below order whose coefficient is nonzero mod p < 2^63.

    Three read-only int64 arrays: the exponents, rising; their
    coefficients, the table's integers, not reduced mod p; and the
    exponents' residues mod p.  They are built once per (name, k, order,
    p), so the classes of one map share them.
    """
    e, c = _terms(name, k, order)
    keep = c % p != 0
    e = e[keep]
    arrays = e, c[keep], e % p
    for a in arrays:
        a.flags.writeable = False
    return arrays


# the series 1, as _residue_terms gives it: the second factor of a single-entry core
_UNIT = (np.zeros(1, dtype=np.int64), np.ones(1, dtype=np.int64), np.zeros(1, dtype=np.int64))

# the most pairs _class_read forms at once
_PAIR_BLOCK = 1 << 14


def _class_read(core: _Core, r: int, order: int, p: int) -> np.ndarray:
    """[C]_r: the core's coefficients at p m + r below order, at index m, as int64.

    C is one or two factors (``_theta_core``); a single entry is read as
    the product with the series 1.  For each residue t of the second
    factor's exponents only the first factor's exponents == r - t
    (mod p) are paired with them, in blocks of at most _PAIR_BLOCK pairs,
    and the pairs below order are summed into their exponent by
    ``np.add.at``.  So all pairs never exist at once: at the 10^7
    ceiling, psi f_2^3 has about 14 million, and mod 7 the ones of class
    4 all have a coefficient 2j + 1 == 0 of f_2^3, whose terms are
    dropped before any pair is formed.
    The sums are exact in int64.  One exponent takes at most one pair per
    term of either factor, at most 2 sqrt(N) + 1 terms below N (phi, the
    densest entry), and each pair is a product of two coefficients of
    absolute value at most sqrt(8N + 1) (f^3's 2i + 1; the others are at
    most 2), so every sum is below (2 sqrt(N) + 1)(8N + 1) < 2^39 at
    N = 10^7.  The result is not reduced mod p.
    """
    factors = [_residue_terms(name, k, order, p) for name, k in core] + [_UNIT]
    (a, ca, ra), (b, cb, rb) = factors[:2]
    out = np.zeros(-(-(order - r) // p), dtype=np.int64)
    for t in set(rb.tolist()):
        first = ra == (r - t) % p
        if not first.any():
            continue
        x, cx = a[first], ca[first]
        y, cy = b[rb == t, None], cb[rb == t, None]
        rows = max(1, _PAIR_BLOCK // len(x))
        for i in range(0, len(y), rows):
            e = x + y[i:i + rows]
            keep = e < order
            np.add.at(out, (e[keep] - r) // p, (cx * cy[i:i + rows])[keep])
    return out


def _core_class(
    exponents: Mapping[int, int], r: int, order: int, ring: Ring
) -> Optional[TruncatedSeries]:
    """[C]_r: class r of the map's theta core C mod p = ring's modulus, or None.

    [C]_r takes C's terms at exponents p m + r below order to q^m, at
    ceil((order - r) / p) terms, 0 <= r < p, read from the closed forms'
    O(sqrt(order)) terms (``_class_read``, which states its int64 bound).
    None, with nothing built, when p is not a prime (2 included) below
    2^63, the int64 storage the read sums in, or the map has no theta
    core (``_theta_core``).  An order above the ceiling is refused first,
    as by ``euler_quotient``.

    The map is E = C + p D, so mod p, by Frobenius (f_delta^p ==
    f_{delta p}), the quotient is C(q) H(q^p) with H =
    prod f_delta^{D(delta)}, and its class r is [C]_r(q) H(q).  H is a
    product of Euler products, so H(0) = 1: below any bound the class is
    zero exactly when [C]_r is, and its first nonzero value is [C]_r's,
    at the same index.  So [C]_r gives the class's verdict and first
    witness, and H is never built.  [C]_r is zero for every admissible
    class of the paper's theorems (C is psi or phi, and 8r + 1, or r, is
    a nonresidue mod p) and for a_3(7n + 4) mod 7 (C is psi(q) f_2^3).
    """
    _check_order(order, ring)
    p = ring.modulus
    if not _int64_storage(ring) or not _is_prime(p):
        return None
    core = _theta_core(EtaMap(exponents), p)
    if core is None:
        return None
    return TruncatedSeries(ring, _class_read(core, r, order, p))


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
