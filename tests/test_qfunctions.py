"""Euler products, theta series, Euler quotients, eta-quotient expansions."""

import functools
import itertools
import time
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from cubicpart import cli, engine, qfunctions
from cubicpart import series as series_module
from cubicpart.modform import EtaMap, EtaQuotient
from cubicpart.partitions import (
    CUBIC,
    OVERCUBIC,
    PartitionFamily,
    _IDENTITIES,
    count_direct,
    generating_series,
)
from cubicpart.qfunctions import (
    eta_expansion,
    euler_product,
    euler_quotient,
    frobenius_split,
    jacobi_cube,
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


@functools.lru_cache(maxsize=None)
def brute_euler_500(k):
    return brute_euler_product(k, 500)


@pytest.mark.parametrize("order", [0, 1, 2, 3, 7, 64, 281, 500])
@pytest.mark.parametrize("k", [1, 2, 5])
def test_jacobi_cube_is_the_cube_of_the_euler_product(k, order):
    """Every closed form in q^k (f, f^3, psi) is the dense product of its exponent map.

    f_{k delta}^r comes from the plain-list product and ``pow`` (an
    inverse for r < 0); at order 0 every series is empty.
    """
    for ring in (ZZ, zmod(7), zmod(2**64 + 13)):
        for name, (exponents, _) in qfunctions._CLOSED_FORMS.items():
            dense = one(ring, order)
            for delta, r in exponents.items():
                if order:
                    f = TruncatedSeries(ring, brute_euler_500(k * delta)[:order])
                    dense = dense * f.pow(r)
            assert qfunctions._closed_form(name, k, order, ring) == dense, name


@pytest.mark.parametrize("ring", [ZZ, zmod(2), zmod(3), zmod(7), zmod(13)])
@pytest.mark.parametrize("name", ["phi", "phi(-q)", "psi(-q)"])
def test_theta_entries_match_the_quotients_of_their_maps(name, ring):
    exponents = qfunctions._CLOSED_FORMS[name][0]
    assert qfunctions._closed_form(name, 1, 2000, ring) == euler_quotient(exponents, 2000, ring)


def _pentagonal_term(i):
    j = (i + 1) // 2 if i % 2 else -(i // 2)
    return j * (3 * j - 1) // 2, -1 if j % 2 else 1


# Each closed form's term i as (exponent, coefficient), one Python int at a
# time from its formula: the oracle of the table's array formulas.
TERM_ORACLE = {
    "euler_product": _pentagonal_term,
    "jacobi_cube": lambda i: (i * (i + 1) // 2, (-1) ** i * (2 * i + 1)),
    "psi": lambda i: (i * (i + 1) // 2, 1),
    "phi": lambda i: (i * i, 2 if i else 1),
    "phi(-q)": lambda i: (i * i, 2 * (-1) ** i if i else 1),
    "psi(-q)": lambda i: (i * (i + 1) // 2, (-1) ** (i * (i + 1) // 2)),
}


def oracle_terms(name, n):
    """The terms with exponent below n, by the per-term formula."""
    return list(itertools.takewhile(lambda t: t[0] < n, map(TERM_ORACLE[name], itertools.count())))


def term_pairs(name, k, order):
    e, c = qfunctions._terms(name, k, order)
    assert e.dtype == c.dtype == np.int64
    return list(zip(e.tolist(), c.tolist()))


def test_the_term_oracle_covers_the_table():
    assert set(TERM_ORACLE) == set(qfunctions._CLOSED_FORMS)


@pytest.mark.parametrize("name", sorted(TERM_ORACLE))
def test_term_arrays_match_the_per_term_formula(name):
    """At n = 0 and 1, at every exponent below 10^4 and one either side, and at 10^7."""
    terms = oracle_terms(name, 10**4)
    ns = {0, 1} | {e + d for e, _ in terms for d in (-1, 0, 1) if e + d >= 0}
    for n in sorted(ns):
        assert term_pairs(name, 1, n) == [t for t in terms if t[0] < n], n
    big = oracle_terms(name, 10**7)
    e, c = qfunctions._terms(name, 1, 10**7)
    assert len(e) == len(big) and (int(e[-1]), int(c[-1])) == big[-1]
    assert qfunctions._term_count(name, 10**7) == len(big)


@pytest.mark.parametrize("k", [1, 2, 7, 999, 1000, 1001, 2**63 - 1, 2**63, 2**64 + 13])
@pytest.mark.parametrize("order", [0, 1, 2, 1000])
def test_terms_in_q_k_are_cut_before_they_are_scaled(k, order):
    """Every exponent k e is below the order; a k at or past it, past int64 too, leaves e = 0."""
    for name in TERM_ORACLE:
        want = [(k * e, c) for e, c in oracle_terms(name, -(-order // k))]
        assert term_pairs(name, k, order) == want, name
        dense = [dict(want).get(n, 0) for n in range(order)]
        for ring in (ZZ, zmod(7), zmod(2**64 + 13)):
            assert qfunctions._closed_form(name, k, order, ring) == TruncatedSeries(ring, dense)


@pytest.mark.parametrize("p", [2, 3, 7, 13])
def test_residue_terms_keep_the_terms_nonzero_mod_p_once(p):
    """Exponents in q^2, coefficients unreduced, residues mod p; read-only, built once."""
    for name in TERM_ORACLE:
        terms = qfunctions._residue_terms(name, 2, 3001, p)
        want = [(2 * e, c) for e, c in oracle_terms(name, 1501) if c % p]
        assert list(zip(terms[0].tolist(), terms[1].tolist())) == want, name
        assert terms[2].tolist() == [e % p for e, _ in want]
        assert not any(a.flags.writeable for a in terms)
        assert qfunctions._residue_terms(name, 2, 3001, p) is terms


def test_jacobi_cube_terms_and_validation():
    assert jacobi_cube(1, 11, ZZ).coefficients() == [1, -3, 0, 5, 0, 0, -7, 0, 0, 0, 9]
    assert jacobi_cube(2, 7, zmod(5)).coefficients() == [1, 0, 2, 0, 0, 0, 0]
    with pytest.raises(ValueError, match="k >= 1"):
        jacobi_cube(0, 10, ZZ)


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
    for source in (exps, EtaMap(exps)):  # a dict, and the map type itself (EtaMap.split)
        low, high = frobenius_split(source, p)
        assert type(low) is type(high) is EtaMap
        assert 0 not in low.values() and 0 not in high.values()
        for delta, r in exps.items():
            s, t = low.get(delta, 0), high.get(delta, 0)
            assert r == s + p * t and 2 * abs(s) <= p
            if 2 * abs(r) <= p:
                assert t == 0  # at p = 2 an odd r keeps its sign
        assert set(low) | set(high) <= set(exps)
        assert low + p * high == {d: r for d, r in exps.items() if r}


SPLIT_MODULI = [2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 12, 2**64 + 13]


@pytest.mark.parametrize("m", SPLIT_MODULI)
@settings(max_examples=12, deadline=None, derandomize=True)
@given(data=st.data())
@example(data=None)  # psi's map {2: 1, 1: -1}: every 2 |r| <= p
def test_split_and_stride_match_dense_powers_mod_m(m, data):
    """Mod every prime p <= 31 the map is split and each factor strided.

    The exponents reach +-3p, so t = 2 and 3 occur, and delta = p, 2p
    next to delta up to 12 let delta p land on a delta of the map.  Mod
    2^64 + 13 (a prime far above twice every exponent), and at any prime
    where every 2 |r| <= p, the split leaves the map as it is.  Mod 12
    (not a prime) no split is made.  The factors are strided all the same.
    """
    if data is None:
        exps, order = {2: 1, 1: -1}, 200
    else:
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
    assert split.called == (m != 12)
    if m != 12 and all(2 * abs(r) <= m for r in exps.values()):
        assert frobenius_split(exps, m) == (exps, {})  # so the map is read as it is
    assert fast == dense_quotient(exps, order, ring)


@pytest.fixture
def step_factors(monkeypatch):
    """The passes and sparse steps taken, as (op, power, k, order) for a factor f_k^power.

    op is "mul" for a call of the row kernel that multiplies (a read at
    chosen exponents is no step), "divide" for a division of a running
    product by the term-array kernel, and ("pass", r) for that kernel's
    pass from 1 to the r-th power, each as ``qfunctions`` looks it up.
    The factor is the closed form whose terms in q^k below the order are
    the ones passed, the kernel's past the constant term.  power is 3 for
    ``jacobi_cube``, 1 for ``euler_product``, and the table's name for
    any other closed form.  pow and inverse may not run.
    """
    calls = []
    real_product, real_divide = qfunctions._term_product, qfunctions._divide_terms
    powers = {"jacobi_cube": 3, "euler_product": 1}

    def factor(e, c, order, skip):
        k = int(e[1 - skip])  # every entry's first term past q^0 is at k
        for name in qfunctions._CLOSED_FORMS:
            te, tc = qfunctions._terms(name, k, order)
            if np.array_equal(te[skip:], e) and np.array_equal(tc[skip:], c):
                return powers.get(name, name), k, order
        raise AssertionError(f"{e!r}, {c!r} are no step factor's terms")

    def counting_product(e, c, b, rl, m=None, at=None):
        if at is None:
            calls.append(("mul",) + factor(e, c, rl, 0))
        return real_product(e, c, b, rl, m, at)

    def counting_divide(g, e, c, r, inv0, m=None):
        if isinstance(g, int):
            calls.append((("pass", r),) + factor(e, c, g, 1))
        else:
            calls.append(("divide",) + factor(e, c, len(g), 1))
        return real_divide(g, e, c, r, inv0, m)

    def no_call(self, *args):
        raise AssertionError("a sparse step map ran pow or inverse")

    monkeypatch.setattr(qfunctions, "_term_product", counting_product)
    monkeypatch.setattr(qfunctions, "_divide_terms", counting_divide)
    monkeypatch.setattr(TruncatedSeries, "pow", no_call)
    monkeypatch.setattr(TruncatedSeries, "inverse", no_call)
    return calls


# cubic c = 5, {2: -4, 1: -1} at 4001, is psi(q) / f2^6 with psi = f2^2 / f1:
# f2^-6 is one pass of f1 to the power -6 in q^2 at 2001 terms, from 1;
# then one product by psi at 4001, after q^2 -> q, where the f factors
# would divide by f1 at 4001
CUBIC_5_STEPS = [(("pass", -6), 1, 1, 2001), ("mul", "psi", 1, 4001)]


def test_euler_quotient_takes_sparse_steps_over_zz(step_factors, monkeypatch):
    with mock.patch.object(qfunctions, "_closed_form", wraps=qfunctions._closed_form) as scatter:
        s = euler_quotient({2: -4, 1: -1}, 4001, ZZ)
    assert step_factors == CUBIC_5_STEPS
    assert scatter.call_count == 0  # the steps read the entries' terms, no dense series
    fam = PartitionFamily(CUBIC, 5)
    assert s.coefficients(40) == [count_direct(fam, n) for n in range(40)]
    # overcubic c = 3, {4: 2, 2: -3, 1: -2} at 3000, is
    # 1 / (phi(-q) phi(-q^2)^2), phi(-q) = f1^2 / f2: one pass of phi(-q)
    # to the power -2 in q^2 at 1500 terms, from 1, then one division at
    # 3000 after q^2 -> q; the f factors would take one pass and then
    # steps by f, f^3 or both at 3000
    step_factors.clear()
    s = euler_quotient(PartitionFamily(OVERCUBIC, 3).exponents, 3000, ZZ)
    assert step_factors == [(("pass", -2), "phi(-q)", 1, 1500), ("divide", "phi(-q)", 1, 3000)]
    fam = PartitionFamily(OVERCUBIC, 3)
    assert s.coefficients(40) == [count_direct(fam, n) for n in range(40)]
    # {6: 1, 5: 1} at 80: a pass of f6 in q^6 at 14 terms, then f5 moves
    # the product to q at 80 terms for its one step
    step_factors.clear()
    t = euler_quotient({6: 1, 5: 1}, 80, ZZ)
    assert step_factors == [(("pass", 1), 1, 1, 14), ("mul", 1, 5, 80)]
    monkeypatch.undo()
    assert t == dense_quotient({6: 1, 5: 1}, 80, ZZ)


def test_euler_quotient_takes_sparse_steps_mod_m_above_2_63(step_factors):
    # object storage, as over ZZ: one pass and a product, not a quadratic Python-int pow
    m = 2**64 + 13
    s = euler_quotient({2: -4, 1: -1}, 4001, zmod(m))
    assert step_factors == CUBIC_5_STEPS
    assert s == euler_quotient({2: -4, 1: -1}, 4001, ZZ).reduce_mod(m)
    with pytest.raises(ValueError, match=f"order {10**6 + 1} is above the ceiling {10**6}"):
        euler_quotient({2: -4, 1: -1}, 10**6 + 1, zmod(m))


# each delta divides the one before, or shares a proper divisor with it
STEP_CHAINS = [(6, 3, 2, 1), (12, 6, 3, 1), (12, 4, 2, 1), (9, 3, 1), (12, 8, 6, 1), (10, 4, 1)]


@pytest.mark.parametrize("ring", [ZZ, zmod(2**64 + 13)], ids=["ZZ", "mod 2^64+13"])
@settings(max_examples=40, deadline=None, derandomize=True)
@given(data=st.data())
def test_strided_and_cube_steps_match_dense_powers(ring, data):
    """Object storage: every factor is one pass or steps, strided, by f or by f^3.

    No pow runs.  Deltas from a chain, and any others up to 12, give every
    gcd case of the stride.
    """
    chain = data.draw(st.sampled_from(STEP_CHAINS))
    deltas = st.sampled_from(chain) | st.integers(1, 12)
    exps = data.draw(
        st.dictionaries(deltas, st.integers(-7, 7).filter(bool), min_size=1, max_size=4)
    )
    order = data.draw(st.integers(80, 300))
    with mock.patch.object(TruncatedSeries, "pow", side_effect=AssertionError("pow ran")):
        fast = euler_quotient(exps, order, ring)
    assert fast == dense_quotient(exps, order, ring)


@pytest.mark.parametrize("ring", [ZZ, zmod(2**64 + 13)], ids=["ZZ", "mod 2^64+13"])
@settings(max_examples=40, deadline=None, derandomize=True)
@given(
    exps=st.dictionaries(
        st.integers(1, 12), st.integers(-7, 7).filter(bool), min_size=1, max_size=4
    ),
    order=st.integers(1, 200),
)
@example(exps={4: 2, 2: -3, 1: -2}, order=200)  # overcubic c = 3, by phi(-q) steps
@example(exps={8: 3, 4: -5, 2: -2}, order=150)  # overcubic c = 4 in q^2
@example(exps={12: 4, 6: -1, 3: 2, 1: -7}, order=180)
def test_planned_steps_match_dense_powers(ring, exps, order):
    """Object storage: whatever plan ``_step_plan`` picks gives the quotient."""
    assert euler_quotient(exps, order, ring) == dense_quotient(exps, order, ring)


OVERCUBIC_ORDERS = [0, 1, 2, 3, 4, 5, 383, 1000]


@pytest.mark.parametrize("order", OVERCUBIC_ORDERS)
def test_overcubic_series_by_phi_steps_match_the_oracle(order):
    """Overcubic c = 1..40 over ZZ, against ``count_direct`` and the int64 ring.

    From 383 terms on, each map {1: -2, 2: 3 - 2c, 4: c - 1} is planned
    as 1 / (phi(-q) phi(-q^2)^(c-1)): one pass of phi(-q) in q^2, then
    one division by phi(-q); at c = 1 the division alone, as the pass.
    The int64 ring builds by strided pow, mod 65521 with no Frobenius
    split and mod 7 with one.
    """
    checked = [n for n in range(0, 61, 6) if n < order] + list(range(min(order, 6)))
    for c in range(1, 41):
        fam = PartitionFamily(OVERCUBIC, c)
        exact = euler_quotient(fam.exponents, order, ZZ)
        assert exact.order == order
        for n in checked:
            assert exact.coefficient(n) == count_direct(fam, n), (c, n)
        for m in (65521, 7):
            assert exact.reduce_mod(m) == euler_quotient(fam.exponents, order, zmod(m))
        if order >= 383:
            plan = [("phi(-q)", 2, 1 - c)] * (c > 1) + [("phi(-q)", 1, -1)]
            assert qfunctions._step_plan(fam.exponents, order) == plan


CUBIC_ORDERS = [0, 1, 2, 3, 4, 5, 383, 1000, 4001]
ABOVE_2_63 = 2**64 + 13


@pytest.mark.parametrize("order", CUBIC_ORDERS)
def test_cubic_series_by_psi_products_match_the_oracle(order):
    """Cubic c = 1..60 over ZZ and mod 2^64 + 13, against ``count_direct`` and the int64 ring.

    From 60 terms on most maps {1: -1, 2: 1 - c} are planned as
    psi(q) / f_2^(c+1), a product by psi applied last.  The int64 ring
    builds by strided pow, mod 65521 with no Frobenius split and mod 7
    with one.
    """
    checked = [n for n in range(0, 61, 6) if n < order] + list(range(min(order, 6)))
    for c in range(1, 61):
        fam = PartitionFamily(CUBIC, c)
        exact = euler_quotient(fam.exponents, order, ZZ)
        assert exact.order == order
        for n in checked:
            assert exact.coefficient(n) == count_direct(fam, n), (c, n)
        for m in (65521, 7):
            assert exact.reduce_mod(m) == euler_quotient(fam.exponents, order, zmod(m))
        assert exact.reduce_mod(ABOVE_2_63) == euler_quotient(fam.exponents, order, zmod(ABOVE_2_63))


# theta entries whose deltas in q^k all lie in {1, 2, 4, 8}, as (name, k)
BOTTOM_ENTRIES = [
    (name, k)
    for name, (entry, _) in qfunctions._CLOSED_FORMS.items()
    if len(entry) > 1
    for k in (1, 2, 4)
    if k * max(entry) <= 8
]


@st.composite
def bottom_option_maps(draw):
    """A map on deltas in {1, 2, 4, 8}, |r| <= 7, that a theta entry's bottom option fits.

    The entry in q^k has its bottom delta at the map's bottom delta k, with
    r_k a multiple of the entry's exponent there, and every other delta of
    the entry is in the map.
    """
    name, k = draw(st.sampled_from(BOTTOM_ENTRIES))
    entry = qfunctions._CLOSED_FORMS[name][0]
    exps = {k: draw(st.sampled_from([r for r in range(-7, 8) if r and r % entry[1] == 0]))}
    for d in (2 * k, 4 * k, 8 * k):
        if d <= 8 and (d // k in entry or draw(st.booleans())):
            exps[d] = draw(st.integers(-7, 7).filter(bool))
    return exps


@pytest.mark.parametrize("ring", [ZZ, zmod(ABOVE_2_63)], ids=["ZZ", "mod 2^64+13"])
@settings(max_examples=60, deadline=None, derandomize=True)
@given(exps=bottom_option_maps(), order=st.integers(1, 300))
@example(exps={1: -1, 2: -4}, order=300)  # cubic c = 5: psi(q) / f_2^6
@example(exps={1: -4, 2: -4}, order=300)  # chan's f_1^-4 f_2^-4: phi(-q)^-2 f_2^-6
@example(exps={2: -2, 4: 5, 8: -2}, order=240)  # phi in q^2, taken whole
def test_bottom_option_plans_match_dense_powers(ring, exps, order):
    """Object storage: maps where a theta entry can zero the bottom delta, last."""
    assert euler_quotient(exps, order, ring) == dense_quotient(exps, order, ring)


@pytest.mark.parametrize("order", [383, 1000, 4001, 10**5])
def test_cubic_one_every_overcubic_and_ramanujan_keep_their_plans(order):
    """No bottom option pays for these maps, so they keep the plans they had without one.

    Cubic c = 1 is one division by f at full length, overcubic c is one
    pass of phi(-q) in q^2 to the power 1 - c and one division by phi(-q)
    at full length, whatever c is, and Ramanujan's product side
    {5: 5, 1: -6} is one pass of f_1^-6, then five products by f_5.
    """
    assert qfunctions._step_plan({1: -1}, order) == [("euler_product", 1, -1)]
    for c in (*range(1, 61), 248, 255, 270, 287, 10**5):  # a pass costs the same at large c
        plan = [("phi(-q)", 2, 1 - c)] * (c > 1) + [("phi(-q)", 1, -1)]
        assert qfunctions._step_plan(PartitionFamily(OVERCUBIC, c).exponents, order) == plan, c
    assert qfunctions._step_plan(_IDENTITIES["ramanujan-p5n4"][4], order) == [
        ("euler_product", 1, -6), ("euler_product", 5, 5),
    ]


def f_factors_then(exps, order, name, k, n):
    """The f-factor plan of the map less n times the entry in q^k, then that entry."""
    rest = dict(exps)
    for d, r in qfunctions._CLOSED_FORMS[name][0].items():
        rest[k * d] -= n * r
    rest = {d: r for d, r in rest.items() if r}
    return qfunctions._f_factor_plan(rest, order) + [(name, k, n)]


@pytest.mark.parametrize("order", [1, 2, 5, 60, 383, 1000, 4001, 10**5])
def test_cubic_and_identity_maps_keep_the_f_factor_plan(order):
    """Past a bottom theta entry, applied last, every map keeps its f factors, each one item.

    From 5 terms on cubic c >= 3, {1: -1, 2: 1 - c}, is psi(q) / f_2^(c+1):
    one pass of f_2^-(c+1), whatever c is, then one product by psi.  c = 2
    divides once by f_2^3 instead: the pass by f runs two sums over f's
    terms where that division runs one over the fewer ones of f^3.  Chan's
    product side {3: 3, 6: 3, 1: -4, 2: -4} is f_3^3 f_6^3 / (phi(-q)^2 f_2^6)
    with f_2^-6 first, as the pass.  Cubic c = 1 and Ramanujan's
    {5: 5, 1: -6} have no bottom option that pays.
    """
    for c in (*range(1, 60), 251, 1001, 10**5):
        exps = {d: r for d, r in PartitionFamily(CUBIC, c).exponents.items() if d < order}
        plan = qfunctions._step_plan(exps, order)
        if c == 1 or order < 5:
            assert plan == qfunctions._f_factor_plan(exps, order)
        elif c == 2:
            assert plan == [("jacobi_cube", 2, -1), ("psi", 1, 1)]
        else:
            assert plan == f_factors_then(exps, order, "psi", 1, 1) == [
                ("euler_product", 2, -(c + 1)), ("psi", 1, 1)
            ], c
    ramanujan, chan = (
        {d: r for d, r in _IDENTITIES[i][4].items() if d < order}
        for i in ("ramanujan-p5n4", "chan-a2-3n2")
    )
    assert qfunctions._step_plan(ramanujan, order) == qfunctions._f_factor_plan(ramanujan, order)
    if order < 5:
        expected = qfunctions._f_factor_plan(chan, order)
    else:
        expected = f_factors_then(chan, order, "phi(-q)", 1, -2)
        assert expected[0] == ("euler_product", 2, -6)
    assert qfunctions._step_plan(chan, order) == expected


def test_a_map_of_sixty_deltas_plans_and_expands_at_once():
    # 60 deltas, 30 of them even: the chain has at most one link per delta
    exps = {d: 2 * (-1) ** d for d in range(1, 61)}
    start = time.perf_counter()
    s = euler_quotient(exps, 200, ZZ)
    assert time.perf_counter() - start < 5.0
    assert s.reduce_mod(2**61 - 1) == euler_quotient(exps, 200, zmod(2**61 - 1))


THETA_NAMES = {name for name, (entry, _) in qfunctions._CLOSED_FORMS.items() if max(entry) > 1}


@settings(max_examples=300, deadline=None, derandomize=True)
@given(
    exps=st.dictionaries(
        st.integers(1, 24), st.integers(-9, 9).filter(bool), min_size=1, max_size=6
    ),
    order=st.integers(1, 4001),
)
@example(exps={4: 5, 8: -1}, order=4001)  # phi(-q^4) f_4^3 zeroes its top delta, no bottom one: f factors
@example(exps={1: -2, 2: -571, 4: 286}, order=383)  # overcubic c = 287
def test_the_chain_never_prices_above_the_f_factor_plan(exps, order):
    """The chain's plan costs no more than the f factors, with one theta link per delta at most.

    Each link zeroes the bottom delta of what is left, so the theta items'
    bottom deltas, k times the entry's least delta, are distinct deltas
    of the map.
    """
    plan = qfunctions._step_plan(exps, order)
    f_plan = qfunctions._f_factor_plan(exps, order)
    assert qfunctions._price(plan, 0, order) <= qfunctions._price(f_plan, 0, order)
    bottoms = [
        k * min(qfunctions._CLOSED_FORMS[name][0]) for name, k, _ in plan if name in THETA_NAMES
    ]
    assert len(set(bottoms)) == len(bottoms)
    assert set(bottoms) <= set(exps)


def test_euler_quotient_powers_a_huge_exponent_at_small_order(step_factors, monkeypatch):
    s = euler_quotient({2: -9999, 1: -1}, 60, ZZ)
    # psi(q) / f2^10001: one pass of f1 to the power -10001 in q^2 at 30
    # terms, whose cost does not grow with the exponent; then one product
    # by psi at 60
    assert step_factors == [(("pass", -10001), 1, 1, 30), ("mul", "psi", 1, 60)]
    monkeypatch.undo()
    assert s == dense_quotient({2: -9999, 1: -1}, 60, ZZ)


def test_euler_quotient_mod_m_always_powers(monkeypatch):
    calls = []
    real_pow, real_sub = TruncatedSeries.pow, TruncatedSeries.substitute_power
    real_inverse, real_f1_inverse = TruncatedSeries.inverse, qfunctions._f1_inverse

    def counting_pow(self, e):
        calls.append(("pow", e, self.order))
        return real_pow(self, e)

    def counting_sub(self, k):
        calls.append(("substitute", k))
        return real_sub(self, k)

    def counting_inverse(self):
        calls.append(("inverse", self.order))
        return real_inverse(self)

    def counting_f1_inverse(order, ring):
        calls.append(("f1-inverse", order))
        return real_f1_inverse(order, ring)

    def no_divide(self, f):
        raise AssertionError("no mod-m factor is applied by division")

    monkeypatch.setattr(TruncatedSeries, "pow", counting_pow)
    monkeypatch.setattr(TruncatedSeries, "substitute_power", counting_sub)
    monkeypatch.setattr(TruncatedSeries, "inverse", counting_inverse)
    monkeypatch.setattr(TruncatedSeries, "divide", no_divide)
    monkeypatch.setattr(qfunctions, "_f1_inverse", counting_f1_inverse)
    monkeypatch.setattr(qfunctions._f1_holder, "held", None)
    s = euler_quotient({2: -4, 1: -1}, 4001, zmod(7))
    # -4 = 7 (-1) + 3, so f2^-4 == f2^3 f14^-1 (mod 7).  1 / f1 is asked of
    # _f1_inverse once, at 4001, the longest order a negative factor needs,
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
    assert calls == [("f1-inverse", 4001), ("inverse", 4001)] + factors
    # warm, the same map makes the same request and the held inverse answers it
    calls.clear()
    assert euler_quotient({2: -4, 1: -1}, 4001, zmod(7)) == s
    assert calls == [("f1-inverse", 4001)] + factors
    # a shorter quotient is cut from the held inverse: no inverse runs
    calls.clear()
    euler_quotient({1: -1}, 1000, zmod(7))
    assert calls == [("f1-inverse", 1000), ("pow", 1, 1000), ("substitute", 1)]
    monkeypatch.undo()
    assert s == dense_quotient({2: -4, 1: -1}, 4001, zmod(7))


STORE_RINGS = [ZZ] + [zmod(m) for m in (2, 3, 7, 13, 65521, 2**61 - 1, 2**64 + 13)]


@pytest.mark.parametrize("ring", STORE_RINGS, ids=str)
def test_cold_and_warm_store_give_equal_quotients(monkeypatch, ring):
    """1 / f1 built fresh, cut from a longer one, or held exactly: one result.

    Object storage (ZZ, mod 2^64 + 13) takes every map by passes and
    steps, so no map of it reads or replaces the held 1 / f1.
    """
    maps = [{1: -1, 2: -199}, {1: -2, 2: 3, 4: -1}, {1: -1}, {3: -2, 1: 1}]
    orders = (200, 57, 1)
    cold = {}
    for exps in maps:
        for order in orders:
            monkeypatch.setattr(qfunctions._f1_holder, "held", None)
            cold[str(exps), order] = euler_quotient(exps, order, ring)
    monkeypatch.setattr(qfunctions._f1_holder, "held", None)
    held = qfunctions._f1_inverse(200, ring)  # the longest inverse any map needs
    for exps in maps:
        for order in orders:
            assert euler_quotient(exps, order, ring) == cold[str(exps), order]
            assert qfunctions._f1_holder.held[0] == ring and qfunctions._f1_holder.held[1] is held
    assert cold[str(maps[0]), 57] == dense_quotient(maps[0], 57, ring)


def test_store_serves_a_shorter_f1_inverse_as_a_read_only_view(monkeypatch):
    monkeypatch.setattr(qfunctions._f1_holder, "held", None)
    ring = zmod(13)
    long = qfunctions._f1_inverse(3000, ring)
    short = qfunctions._f1_inverse(700, ring)
    assert np.shares_memory(short.coeffs, long.coeffs)
    with pytest.raises(ValueError, match="read-only"):
        short.coeffs[0] = 2
    assert short == one(ring, 700).divide(euler_product(1, 700, ring))
    assert qfunctions._f1_holder.held[1] is long
    # a longer request is built and replaces the held inverse
    longer = qfunctions._f1_inverse(5000, ring)
    assert qfunctions._f1_holder.held[1] is longer
    assert longer.order == 5000 and longer.truncate(3000) == long
    # so does a request over another ring, at any order
    other = qfunctions._f1_inverse(10, zmod(7))
    assert qfunctions._f1_holder.held[0] == zmod(7) and qfunctions._f1_holder.held[1] is other
    assert not np.shares_memory(qfunctions._f1_inverse(5000, ring).coeffs, longer.coeffs)
    # alternating rings, every inverse equals a cold build
    for m, order in [(7, 900), (11, 900), (7, 400), (11, 1200), (7, 900)]:
        got = qfunctions._f1_inverse(order, zmod(m))
        assert got == one(zmod(m), order).divide(euler_product(1, order, zmod(m)))
        assert got.order == order and qfunctions._f1_holder.held[0] == zmod(m)


def test_search_grid_builds_one_f1_inverse_per_modulus(monkeypatch):
    calls = []
    real = series_module._inverse_newton

    def counting_newton(f, order, m, inv0):
        calls.append((order, m))
        return real(f, order, m, inv0)

    monkeypatch.setattr(series_module, "_inverse_newton", counting_newton)
    monkeypatch.setattr(qfunctions._f1_holder, "held", None)
    monkeypatch.setattr(engine._family_holder, "held", None)
    assert cli.main(["search", "--cmax", "6", "--primes", "3,5,7,11", "--nmax", "8000"]) == 0
    # one inverse per modulus at the prefix order, built for the cubic F_1
    # and cut for its colour step and both overcubic ones; cubic c = 1 and 5
    # mod 11 survive with no theta core, so verify_claim builds their full
    # series, and mod 11 one more at 8001, held for c = 5 and the overcubic prefix
    prefixes = [(engine._PREFIX * p, p) for p in (3, 5, 7, 11)]
    assert calls == prefixes + [(8001, 11)]
    # the prefixes are never held: the held family series is a full one
    key, held = engine._family_holder.held
    assert key == (CUBIC, 5, 11) and held.order == 8001


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


@pytest.mark.parametrize("exponents", [{1: 2.0}, {1: 2.5}, {1.0: 2}, {1: "2"}, {1: None}])
def test_euler_quotient_rejects_a_non_integer_map(exponents):
    with pytest.raises(ValueError, match="an exponent map holds integers"):
        euler_quotient(exponents, 10, ZZ)


def test_frobenius_split_rejects_a_non_integer_map():
    # it once returned ({1: -0.5}, {1: 1.0})
    with pytest.raises(ValueError, match=r"^an exponent map holds integers, got \{1: 2.5\}$"):
        frobenius_split({1: 2.5}, 3)


def test_integer_like_exponents_are_read_as_ints():
    exps = {np.int64(2): np.int64(-4), np.int32(1): True}
    assert frobenius_split(exps, 3) == ({1: 1, 2: -1}, {2: -1})
    assert euler_quotient(exps, 50, ZZ) == euler_quotient({1: 1, 2: -4}, 50, ZZ)
    assert all(type(x) is int for pair in EtaMap(exps).items() for x in pair)


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


# -- reading chosen coefficients through the plan ------------------------------------

READ_MAPS = (
    [PartitionFamily(CUBIC, c).exponents for c in range(1, 13)]
    + [PartitionFamily(OVERCUBIC, c).exponents for c in range(1, 7)]
    + [exps for *_, exps in _IDENTITIES.values()]
    # a plan of one pass, and one that ends in a product by phi(-q) after a pass
    + [{1: 5}, {2: -3, 1: 2}]
)


@pytest.mark.parametrize("exps", READ_MAPS, ids=str)
def test_a_read_of_chosen_exponents_matches_the_full_series(exps):
    order = 4001
    if exps == {1: 5}:  # one pass, to the power 4 for a read
        assert qfunctions._step_plan(exps, order) == [("euler_product", 1, 5)]
    full = euler_quotient(exps, order, ZZ).coefficients()
    for at in (
        range(2, order, 3),  # chan's class, to the end
        range(4, 3000, 5),  # Ramanujan's, cut short of the order
        [4000, 0, 17, 17, 1, 2999, 0, 4000, 5],  # unsorted, with repeats and 0
    ):
        assert qfunctions._quotient_at(exps, order, ZZ, at) == [full[e] for e in at]


def test_a_read_holds_back_the_last_product_by_a_closed_form(step_factors):
    """Cubic c = 5 at 4001: the pass of f_2^-6 runs, the product by psi does not."""
    fam = PartitionFamily(CUBIC, 5)
    values = qfunctions._quotient_at(fam.exponents, 4001, ZZ, [4000, 0, 299, 7])
    assert step_factors == CUBIC_5_STEPS[:1]
    assert values[1:] == [count_direct(fam, n) for n in (0, 299, 7)]
    # a plan that ends in a division builds the series and reads it
    step_factors.clear()
    assert qfunctions._quotient_at({1: -1}, 300, ZZ, [299, 5]) == [
        count_direct(PartitionFamily(CUBIC, 1), n) for n in (299, 5)
    ]
    assert step_factors == [(("pass", -1), 1, 1, 300)]


@pytest.mark.parametrize("m", [7, 65521, 2**64 + 13])
def test_a_read_mod_m_matches_the_full_series(m):
    exps = PartitionFamily(CUBIC, 5).exponents
    full = euler_quotient(exps, 3001, zmod(m)).coefficients()
    for at in (range(10, 3001, 11), [3000, 0, 0, 12]):
        assert qfunctions._quotient_at(exps, 3001, zmod(m), at) == [full[e] for e in at]


def test_a_read_refuses_an_order_above_the_ceiling_before_listing_its_exponents():
    huge = 5 * (10**11 + 1)
    with pytest.raises(ValueError, match=f"series order {huge} is above the ceiling"):
        qfunctions._quotient_at({1: -1}, huge, ZZ, range(4, 5 * 10**11, 5))
