"""Euler products, theta series, Euler quotients, eta-quotient expansions."""

from collections import Counter, OrderedDict
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from cubicpart import cli, engine, qfunctions
from cubicpart import series as series_module
from cubicpart.arith import is_odd_prime
from cubicpart.modform import EtaQuotient
from cubicpart.partitions import (
    CUBIC,
    OVERCUBIC,
    PartitionFamily,
    count_direct,
    generating_series,
)
from cubicpart.qfunctions import (
    eta_expansion,
    euler_product,
    euler_quotient,
    frobenius_split,
    psi,
)
from cubicpart.series import ZZ, TruncatedSeries, one, zero, zmod


def brute_euler_product(k, order, terms=None):
    # multiply out prod_{j<=terms} (1 - q^{kj}) with plain lists
    if terms is None:
        terms = order
    coeffs = [0] * order
    coeffs[0] = 1
    for j in range(1, terms + 1):
        e = k * j
        if e >= order:
            break
        nxt = coeffs[:]
        for i in range(order - e):
            nxt[i + e] -= coeffs[i]
        coeffs = nxt
    return coeffs


def test_euler_product_small_expansions():
    assert euler_product(1, 8, ZZ).coefficients() == [1, -1, -1, 0, 0, 1, 0, 1]
    assert euler_product(2, 5, ZZ).coefficients() == [1, 0, -1, 0, -1]


def test_euler_product_matches_brute_force():
    for k in (1, 2, 3, 5):
        assert euler_product(k, 120, ZZ).coefficients() == brute_euler_product(k, 120)


def test_euler_product_constant_term_and_validation():
    for k in (1, 2, 9):
        assert euler_product(k, 5, ZZ).coefficient(0) == 1
    with pytest.raises(ValueError):
        euler_product(0, 5, ZZ)


def test_euler_product_is_substitution_of_f1():
    for k in range(1, 7):
        direct = euler_product(k, 90, ZZ)
        subbed = euler_product(1, 15, ZZ).substitute_power(k)
        n = min(direct.order, subbed.order)
        assert direct.coefficients(n) == subbed.coefficients(n)


def test_psi_support():
    assert psi(11, ZZ).coefficients() == [1, 1, 0, 1, 0, 0, 1, 0, 0, 0, 1]
    triangulars = {k * (k + 1) // 2 for k in range(30)}
    s = psi(200, ZZ)
    for n in range(200):
        assert s.coefficient(n) == (1 if n in triangulars else 0)


def test_psi_product_formula():
    order = 200
    rhs = euler_product(2, order, ZZ).pow(2) * euler_product(1, order, ZZ).inverse()
    assert psi(order, ZZ) == rhs


def test_theta_series_respect_ring():
    assert psi(10, zmod(2)).coefficients() == [1, 1, 0, 1, 0, 0, 1, 0, 0, 0]


# -- Euler quotients ---------------------------------------------------------


def test_euler_quotient_matches_hand_built_product():
    order = 150
    exps = {1: -4, 2: -4, 3: 3, 6: 3}
    by_hand = one(ZZ, order)
    for delta, r in exps.items():
        by_hand = by_hand * euler_product(delta, order, ZZ).pow(r)
    assert euler_quotient(exps, order, ZZ) == by_hand
    assert euler_quotient(exps, order, zmod(7)) == by_hand.reduce_mod(7)


def test_euler_quotient_theta_identity():
    # psi(q) = f2^2 / f1
    assert euler_quotient({2: 2, 1: -1}, 200, ZZ) == psi(200, ZZ)


def test_euler_quotient_single_factor_and_empty_map():
    assert euler_quotient({3: 1}, 40, ZZ) == euler_product(3, 40, ZZ)
    assert euler_quotient({}, 5, zmod(5)) == one(zmod(5), 5)


def dense_quotient(exponents, order, ring):
    """Reference: each f_delta^r by pow, multiplied in descending delta."""
    prod = None
    for delta in sorted(exponents, reverse=True):
        factor = euler_product(delta, order, ring).pow(exponents[delta])
        prod = factor if prod is None else prod * factor
    return one(ring, order) if prod is None else prod


@settings(max_examples=60, deadline=None, derandomize=True)
@given(
    st.dictionaries(st.integers(1, 8), st.integers(-12, 12).filter(bool), max_size=4),
    st.integers(0, 400),
    st.sampled_from([2, 7, 12, 65521]),
)
def test_euler_quotient_matches_dense_powers(exps, order, m):
    exact = euler_quotient(exps, order, ZZ)
    if order == 0:  # where dense_quotient cannot invert
        assert exact == zero(ZZ, 0)
    else:
        assert exact == dense_quotient(exps, order, ZZ)
    assert exact.reduce_mod(m) == euler_quotient(exps, order, zmod(m))


def test_euler_quotient_at_order_zero_is_empty():
    for ring in (ZZ, zmod(7)):
        for exps in ({1: -1}, {1: 1}, {2: -9, 1: -2, 4: 5}, {}):
            assert euler_quotient(exps, 0, ring) == zero(ring, 0)
        for fam in (PartitionFamily(CUBIC, 3), PartitionFamily(OVERCUBIC, 25)):
            assert generating_series(fam, 0, ring) == zero(ring, 0)


@settings(max_examples=200, derandomize=True)
@given(
    st.dictionaries(st.integers(1, 40), st.integers(-200, 200), max_size=5),
    st.integers(2, 40),
)
def test_frobenius_split_is_balanced_and_exact(exps, p):
    low, high = frobenius_split(exps, p)
    assert 0 not in low.values() and 0 not in high.values()
    for delta, r in exps.items():
        s, t = low.get(delta, 0), high.get(delta, 0)
        assert r == s + p * t and 2 * abs(s) <= p
        if 2 * abs(r) <= p:
            assert t == 0  # at p = 2 an odd r keeps its sign
    assert set(low) | set(high) <= set(exps)


SPLIT_MODULI = [2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 12, 2**64 + 13]


@pytest.mark.parametrize("m", SPLIT_MODULI)
@settings(max_examples=12, deadline=None, derandomize=True)
@given(data=st.data())
def test_split_and_stride_match_dense_powers_mod_m(m, data):
    """Mod every prime p <= 31 the map is split and each factor strided.

    The exponents reach +-3p, so t = 2 and 3 occur, and delta = p, 2p
    next to delta up to 12 let delta p land on a delta of the map.  Mod 12
    (not a prime) and mod 2^64 + 13 (a prime far above twice every
    exponent) no split happens, and the factors are strided all the same.
    """
    bound = 3 * min(m, 31)
    exps = data.draw(
        st.dictionaries(
            st.integers(1, 12) | st.sampled_from([m, 2 * m]),
            st.integers(-bound, bound).filter(bool),
            max_size=4,
        )
    )
    order = data.draw(st.integers(1, 300 if m < 2**63 else 120))
    ring = zmod(m)
    with mock.patch.object(
        qfunctions, "frobenius_split", wraps=qfunctions.frobenius_split
    ) as split:
        fast = euler_quotient(exps, order, ring)
    splits = m in SPLIT_MODULI[:11] and any(2 * abs(r) > m for r in exps.values())
    assert split.called == splits
    assert fast == dense_quotient(exps, order, ring)


@pytest.fixture
def counted_steps(monkeypatch):
    """Calls of pow, as ("pow", e), and of divide, as ("divide", delta of the divisor).

    The series store starts empty, so 1 / f_1 is built, not cut from an
    earlier test's.
    """
    calls = []
    monkeypatch.setattr(qfunctions, "_store", OrderedDict())
    real_pow, real_divide = TruncatedSeries.pow, TruncatedSeries.divide

    def counting_pow(self, e):
        calls.append(("pow", e))
        return real_pow(self, e)

    def counting_divide(self, f):
        calls.append(("divide", next(i for i, c in enumerate(f.coeffs) if i and c)))
        return real_divide(self, f)

    monkeypatch.setattr(TruncatedSeries, "pow", counting_pow)
    monkeypatch.setattr(TruncatedSeries, "divide", counting_divide)
    return calls


def test_euler_quotient_takes_sparse_steps_over_zz(counted_steps):
    # 2 |r| nnz(f_delta) is far below order * bit_length(|r|) for both factors
    s = euler_quotient({2: -4, 1: -1}, 4001, ZZ)
    assert counted_steps == [("divide", 2)] * 4 + [("divide", 1)]
    fam = PartitionFamily(CUBIC, 5)
    assert s.coefficients(40) == [count_direct(fam, n) for n in range(40)]


def test_euler_quotient_takes_sparse_steps_mod_m_above_2_63(counted_steps):
    # object storage, as over ZZ: steps, not a quadratic Python-int pow
    m = 2**64 + 13
    s = euler_quotient({2: -4, 1: -1}, 4001, zmod(m))
    assert counted_steps == [("divide", 2)] * 4 + [("divide", 1)]
    assert s == euler_quotient({2: -4, 1: -1}, 4001, ZZ).reduce_mod(m)
    with pytest.raises(ValueError, match=f"order {10**6 + 1} is above the ceiling {10**6}"):
        euler_quotient({2: -4, 1: -1}, 10**6 + 1, zmod(m))


def test_euler_quotient_powers_a_huge_exponent_at_small_order(counted_steps):
    euler_quotient({2: -9999, 1: -1}, 60, ZZ)
    # f2 by pow (2 * 9999 * 9 > 60 * 14), strided: 1 / f1 at order 30 from
    # the store, built by one division by f1, to the power 9999; then f1 by
    # one step (2 * 13 <= 60)
    assert counted_steps == [("divide", 1), ("pow", 9999), ("divide", 1)]


def test_euler_quotient_mod_m_always_powers(monkeypatch):
    calls = []
    real_pow, real_sub = TruncatedSeries.pow, TruncatedSeries.substitute_power
    real_inverse, real_stored = TruncatedSeries.inverse, qfunctions._stored

    def counting_pow(self, e):
        calls.append(("pow", e, self.order))
        return real_pow(self, e)

    def counting_sub(self, k):
        calls.append(("substitute", k))
        return real_sub(self, k)

    def counting_inverse(self):
        calls.append(("inverse", self.order))
        return real_inverse(self)

    def counting_stored(key, order, build):
        calls.append(("store", key[0], order))
        return real_stored(key, order, build)

    def no_divide(self, f):
        raise AssertionError("no mod-m factor is applied by division")

    monkeypatch.setattr(TruncatedSeries, "pow", counting_pow)
    monkeypatch.setattr(TruncatedSeries, "substitute_power", counting_sub)
    monkeypatch.setattr(TruncatedSeries, "inverse", counting_inverse)
    monkeypatch.setattr(TruncatedSeries, "divide", no_divide)
    monkeypatch.setattr(qfunctions, "_stored", counting_stored)
    monkeypatch.setattr(qfunctions, "_store", OrderedDict())
    s = euler_quotient({2: -4, 1: -1}, 4001, zmod(7))
    # -4 = 7 (-1) + 3, so f2^-4 == f2^3 f14^-1 (mod 7).  1 / f1 is asked of
    # the store once, at 4001, the longest order a negative factor needs,
    # and built by one inverse (Newton).  In descending delta each factor
    # is f1^r at order ceil(4001 / delta): f14^-1 is the cut of 1 / f1 at
    # 286 to the power 1, not a pow(-1); the product of f14^-1 and f2^3 is
    # taken in q^2 at order 2001, the last product in q at 4001
    factors = [
        ("pow", 1, 286),
        ("pow", 3, 2001), ("substitute", 7), ("substitute", 1),
        ("pow", 1, 4001), ("substitute", 2), ("substitute", 1),
        ("substitute", 1),
    ]
    assert calls == [("store", "f1-inverse", 4001), ("inverse", 4001)] + factors
    # warm, the same map makes the same request and the store answers it
    calls.clear()
    assert euler_quotient({2: -4, 1: -1}, 4001, zmod(7)) == s
    assert calls == [("store", "f1-inverse", 4001)] + factors
    # a shorter quotient is cut from the stored inverse: no inverse runs
    calls.clear()
    euler_quotient({1: -1}, 1000, zmod(7))
    assert calls == [("store", "f1-inverse", 1000), ("pow", 1, 1000), ("substitute", 1)]
    monkeypatch.undo()
    assert s == dense_quotient({2: -4, 1: -1}, 4001, zmod(7))


STORE_RINGS = [ZZ] + [zmod(m) for m in (2, 3, 7, 13, 65521, 2**61 - 1, 2**64 + 13)]


@pytest.mark.parametrize("ring", STORE_RINGS, ids=str)
def test_cold_and_warm_store_give_equal_quotients(monkeypatch, ring):
    """1 / f1 built fresh, cut from a longer one, or held exactly: one result.

    Over ZZ the cubic c = 200 map takes f2 by pow (2 * 199 nnz(f2) > order
    bit_length(199)), so its f2^-199 reads 1 / f1 from the store too.
    """
    maps = [{1: -1, 2: -199}, {1: -2, 2: 3, 4: -1}, {1: -1}, {3: -2, 1: 1}]
    orders = (200, 57, 1)
    monkeypatch.setattr(qfunctions, "_store", OrderedDict())
    cold = {}
    for exps in maps:
        for order in orders:
            qfunctions._store.clear()
            cold[str(exps), order] = euler_quotient(exps, order, ring)
    qfunctions._store.clear()
    held = qfunctions._f1_inverse(200, ring)  # the longest inverse any map needs
    for exps in maps:
        for order in orders:
            assert euler_quotient(exps, order, ring) == cold[str(exps), order]
            assert qfunctions._store[("f1-inverse", ring)] is held
    assert cold[str(maps[0]), 57] == dense_quotient(maps[0], 57, ring)


def test_store_serves_a_shorter_f1_inverse_as_a_read_only_view(monkeypatch):
    monkeypatch.setattr(qfunctions, "_store", OrderedDict())
    ring = zmod(13)
    long = qfunctions._f1_inverse(3000, ring)
    short = qfunctions._f1_inverse(700, ring)
    assert np.shares_memory(short.coeffs, long.coeffs)
    with pytest.raises(ValueError, match="read-only"):
        short.coeffs[0] = 2
    assert short == one(ring, 700).divide(euler_product(1, 700, ring))
    assert qfunctions._store[("f1-inverse", ring)] is long
    # a longer request is built and replaces the held entry
    longer = qfunctions._f1_inverse(5000, ring)
    assert qfunctions._store[("f1-inverse", ring)] is longer
    assert longer.order == 5000 and longer.truncate(3000) == long


def test_family_and_f1_inverse_keys_share_the_64_key_bound(monkeypatch):
    monkeypatch.setattr(qfunctions, "_store", OrderedDict())
    moduli = [m for m in range(3, 400) if is_odd_prime(m)][:40]
    for m in moduli:
        engine._series_mod(CUBIC, 2, m, 20)  # a family key and ("f1-inverse", ZZ/m)
        assert len(qfunctions._store) <= 64
    assert len(qfunctions._store) == 64
    kinds = Counter(key[0] == "f1-inverse" for key in qfunctions._store)
    assert kinds == {True: 32, False: 32}
    # the least recently used keys went, the family key and inverse of each modulus
    assert (CUBIC, 2, moduli[7]) not in qfunctions._store
    assert ("f1-inverse", zmod(moduli[7])) not in qfunctions._store
    assert ("f1-inverse", zmod(moduli[8])) in qfunctions._store


def test_search_grid_builds_one_f1_inverse_per_modulus(monkeypatch):
    calls = []
    real = series_module._inverse_newton

    def counting_newton(f, order, m, inv0):
        calls.append((order, m))
        return real(f, order, m, inv0)

    monkeypatch.setattr(series_module, "_inverse_newton", counting_newton)
    monkeypatch.setattr(qfunctions, "_store", OrderedDict())
    assert cli.main(["search", "--cmax", "6", "--primes", "3,5,7,11", "--nmax", "8000"]) == 0
    assert sorted(calls) == [(8001, 3), (8001, 5), (8001, 7), (8001, 11)]


# -- eta expansions ----------------------------------------------------------


def test_eta_expansion_weight37_quotient():
    s = eta_expansion(EtaQuotient(8, {1: 76, 2: -2}), 40, ZZ)
    assert s.support()[0] == 3
    assert s.coefficient(3) == 1
    assert s.coefficient(0) == 0 and s.coefficient(2) == 0
    assert s.order == 40


def test_eta_expansion_weight14_quotient():
    s = eta_expansion(EtaQuotient(4, {1: 32, 2: -4}), 30, ZZ)
    assert s.support()[0] == 1
    assert s.coefficient(1) == 1


def test_eta_expansion_single_factor():
    s = eta_expansion(EtaQuotient(1, {1: 24}), 25, ZZ)
    assert s.coefficients(2) == [0, 1]
    expected = euler_product(1, 24, ZZ).pow(24).shift(1)
    assert s == expected


def test_eta_expansion_rejects_fractional_leading_power():
    with pytest.raises(ValueError, match="1 mod 24"):
        eta_expansion(EtaQuotient(1, {1: 1}), 10, ZZ)


def test_eta_expansion_rejects_negative_offset():
    with pytest.raises(ValueError, match="-1"):
        eta_expansion(EtaQuotient(1, {1: -24}), 10, ZZ)


def test_eta_request_validation():
    with pytest.raises(ValueError):
        EtaQuotient(8, {3: 1})  # 3 does not divide 8
    with pytest.raises(ValueError, match="no nonzero entry"):
        eta_expansion(EtaQuotient(8, {1: 0, 2: 0}), 10, ZZ)
    with pytest.raises(ValueError):
        EtaQuotient(0, {1: 24})


def test_eta_expansion_nonneg_exponents_unit_leading():
    for level, exps in ((1, {1: 24}), (2, {2: 12}), (3, {3: 8}), (6, {1: 24, 6: 4})):
        eq = EtaQuotient(level, exps)
        s = eta_expansion(eq, 30, ZZ)
        lead = int(s.support()[0])
        assert lead == eq.delta_sum // 24
        assert s.coefficient(lead) == 1


def test_eta_expansion_telescopes_with_negated_exponents():
    a = eta_expansion(EtaQuotient(2, {1: 48, 2: -24}), 60, ZZ)
    b = eta_expansion(EtaQuotient(2, {1: -48, 2: 24}), 60, ZZ)
    assert a.offset == 0 and b.offset == 0
    assert a * b == one(ZZ, 60)


def test_eta_expansion_mod_ring():
    eq = EtaQuotient(8, {1: 76, 2: -2})
    s = eta_expansion(eq, 40, zmod(7))
    exact = eta_expansion(eq, 40, ZZ)
    assert s == exact.reduce_mod(7)


@pytest.mark.parametrize("ring", [ZZ, zmod(7)])
@pytest.mark.parametrize("exponents", [{0: 1}, {-1: 1}, {3: 2, 0: -1}, {2: 9, -4: 1}])
def test_euler_quotient_rejects_a_delta_below_one(ring, exponents):
    for order in (0, 10):
        with pytest.raises(ValueError, match="every delta >= 1"):
            euler_quotient(exponents, order, ring)


def test_eta_expansion_order_below_offset():
    s = eta_expansion(EtaQuotient(8, {1: 76, 2: -2}), 2, ZZ)
    assert s.order == 3 and s.coefficients() == [0, 0, 0]


@pytest.mark.parametrize("ring,limit", [(ZZ, "_MAX_ORDER_ZZ"), (zmod(7), "_MAX_ORDER_MOD")])
def test_euler_quotient_refuses_an_order_above_the_ceiling_before_any_work(
    monkeypatch, ring, limit
):
    monkeypatch.setattr(qfunctions, limit, 50)
    expected = euler_product(2, 50, ring) * euler_product(1, 50, ring).inverse().pow(2)
    assert euler_quotient({1: -2, 2: 1}, 50, ring) == expected
    with mock.patch.object(qfunctions, "euler_product") as build:
        for order in (51, 10**11):
            with pytest.raises(ValueError, match=f"order {order} is above the ceiling 50"):
                euler_quotient({1: -2, 2: 1}, order, ring)
    assert not build.called


@pytest.mark.parametrize("ring,ceiling", [(ZZ, 10**6), (zmod(7), 10**7)])
def test_the_order_ceiling_is_one_per_ring_kind(ring, ceiling):
    with pytest.raises(ValueError, match=f"above the ceiling {ceiling} over {ring}"):
        euler_quotient({1: -1}, 10**11, ring)
