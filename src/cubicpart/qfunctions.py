"""Canonical q-series building blocks.

Euler products f_k = (q^k; q^k)_inf, the theta series psi (triangular-
number support), the Euler-quotient core prod_delta f_delta^{r_delta}
that every family, identity and certificate expands through, and
eta-quotient q-expansions with the fractional leading power carried in
the integer offset field.
"""

from __future__ import annotations

from typing import Mapping

from .modform import EtaQuotient
from .series import Ring, TruncatedSeries, one

__all__ = ["euler_product", "psi", "euler_quotient", "eta_expansion"]


def euler_product(k: int, order: int, ring: Ring) -> TruncatedSeries:
    """The expansion of prod_{j>=1} (1 - q^{kj}) to the given order.

    Pentagonal-number support: coefficient (-1)^j at exponent k*j*(3j+-1)/2,
    zero elsewhere.  O(sqrt(order/k)) nonzero terms.
    """
    if k < 1:
        raise ValueError(f"euler_product expects k >= 1, got {k}")
    coeffs = [0] * order
    if order > 0:
        coeffs[0] = 1
    j = 1
    while True:
        e1 = k * j * (3 * j - 1) // 2
        e2 = k * j * (3 * j + 1) // 2
        if e1 >= order:
            break
        sign = -1 if j % 2 else 1
        coeffs[e1] = sign
        if e2 < order:
            coeffs[e2] = sign
        j += 1
    return TruncatedSeries(ring, coeffs, 0, order)


def psi(order: int, ring: Ring) -> TruncatedSeries:
    """Theta series with coefficient 1 at each triangular number k(k+1)/2."""
    coeffs = [0] * order
    k = 0
    while k * (k + 1) // 2 < order:
        coeffs[k * (k + 1) // 2] = 1
        k += 1
    return TruncatedSeries(ring, coeffs, 0, order)


def euler_quotient(
    exponents: Mapping[int, int], order: int, ring: Ring
) -> TruncatedSeries:
    """prod_delta f_delta^{r_delta} to the given order; the map holds no zero r.

    The factors are applied in descending delta.  Over ZZ a factor whose
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

    Every other factor, and every factor over ZZ/m, is f_delta.pow(r),
    multiplied into the running product on its right.  f_delta^r is
    supported on multiples of delta, so with the sparsest factor first the
    exact-integer product skips most of its left operand.
    """
    prod = None
    for delta in sorted(exponents, reverse=True):
        r = exponents[delta]
        f = euler_product(delta, order, ring)
        if ring.is_exact and (
            2 * abs(r) * sum(map(bool, f.coeffs)) <= order * abs(r).bit_length()
        ):
            if prod is None:
                prod = one(ring, order)
            for _ in range(abs(r)):
                prod = f * prod if r > 0 else prod.divide(f)
        else:
            factor = f.pow(r)
            prod = factor if prod is None else prod * factor
    return one(ring, order) if prod is None else prod


def eta_expansion(eq: EtaQuotient, order: int, ring: Ring) -> TruncatedSeries:
    """q-expansion of prod_delta (q^{delta/24} f_delta)^{r_delta}.

    The result has offset eq.delta_sum / 24 and integer coefficients; its
    order is the given order (exponents of the final q-expansion, offset
    included).  The leading power must be a nonnegative integer and the
    exponent map must not be empty.
    """
    if not eq.exponents:
        raise ValueError("exponent map has no nonzero entry")
    total = eq.delta_sum
    if total % 24 != 0:
        raise ValueError(
            f"sum(delta * r_delta) = {total} is {total % 24} mod 24, not 0:"
            " leading power would be fractional"
        )
    offset = total // 24
    if offset < 0:
        raise ValueError(f"negative leading exponent {offset} (Laurent tails unsupported)")
    inner_order = order - offset
    if inner_order <= 0:
        return TruncatedSeries(ring, (), offset, max(order, offset))
    return euler_quotient(eq.exponents, inner_order, ring).shift(offset)
