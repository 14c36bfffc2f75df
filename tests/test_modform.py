"""Eta-quotient metadata, characters, cusp orders, Sturm bound, Hecke action."""

import copy
import pickle
import random
from fractions import Fraction
from math import gcd

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from cubicpart.modform import (
    CharacterDescriptor,
    EtaMap,
    EtaQuotient,
    character_eval,
    check_candidacy,
    cusp_orders,
    hecke_tp,
    hecke_tp_factored,
    sturm_bound,
    weight,
)
from cubicpart.qfunctions import eta_expansion, euler_product
from cubicpart.partitions import CUBIC, PartitionFamily, generating_series
from cubicpart import series
from cubicpart.series import TruncatedSeries, ZZ, one, zmod

H = EtaQuotient(8, {1: 76, 2: -2})
G = EtaQuotient(4, {1: 32, 2: -4})

# character with chi(p) = 1 everywhere, for plain-ring Hecke checks
TRIVIAL_CH = CharacterDescriptor(weight=2, s_numerator=1, s_denominator=1)


def test_eta_quotient_validation():
    with pytest.raises(ValueError):
        EtaQuotient(8, {3: 1})
    with pytest.raises(ValueError):
        EtaQuotient(0, {1: 1})


def test_eta_quotient_copies_and_drops_zero_exponents():
    source = {1: 32, 2: -4, 4: 0}
    eq = EtaQuotient(4, source)
    assert eq.exponents == {1: 32, 2: -4}
    source[1] = 0
    source[2] = 7
    assert eq.exponents == {1: 32, 2: -4}
    assert eq.delta_sum == 24
    assert str(eq) == "eta-quotient[N=4: 1^32 2^-4]"
    assert EtaQuotient(1, {1: 0}).exponents == {}
    assert str(EtaQuotient(1, {1: 0})) == "eta-quotient[N=1: 1]"


def test_equal_eta_quotients_hash_equal():
    a = EtaQuotient(4, {1: 32, 2: -4})
    b = EtaQuotient(4, {2: -4, 4: 0, 1: 32})
    assert a == b and hash(a) == hash(b)
    assert {a: "a5-mod11"}[b] == "a5-mod11"
    assert len({a, b, EtaQuotient(8, {1: 32, 2: -4}), H}) == 3


def test_weights():
    assert weight(H) == 37
    assert weight(G) == 14
    assert weight(EtaQuotient(1, {1: 0})) == 0
    assert weight(EtaQuotient(1, {1: 1})) == Fraction(1, 2)


def test_candidacy_of_the_two_proof_quotients():
    for eq, raw_delta, raw_colevel in ((H, 72, 600), (G, 24, 120)):
        n = eq.level
        assert eq.delta_sum == raw_delta
        assert sum((n // d) * r for d, r in eq.exponents.items()) == raw_colevel
        report = check_candidacy(eq)
        assert report.passes
        assert report.delta_sum_mod24 == 0
        assert report.colevel_sum_mod24 == 0
        assert report.character is not None


def test_candidacy_failure_single_eta():
    report = check_candidacy(EtaQuotient(1, {1: 1}))
    assert not report.passes
    assert not report.weight_integral
    assert report.delta_sum_mod24 == 1
    assert report.character is None


def test_character_descriptors():
    ch_h = check_candidacy(H).character
    assert (ch_h.weight, ch_h.s_numerator, ch_h.s_denominator) == (37, 1, 4)
    ch_g = check_candidacy(G).character
    assert (ch_g.weight, ch_g.s_numerator, ch_g.s_denominator) == (14, 1, 16)


def test_character_values():
    ch_h = check_candidacy(H).character
    ch_g = check_candidacy(G).character
    assert character_eval(ch_h, 3) == -1
    assert character_eval(ch_g, 3) == 1
    assert character_eval(ch_h, 1) == 1 and character_eval(ch_g, 1) == 1
    # H's character reduces to (-1 | d)
    for d in (1, 3, 5, 7, 9, 11):
        assert character_eval(ch_h, d) == (1 if d % 4 == 1 else -1)


def test_character_multiplicativity():
    rng = random.Random(13)
    for ch in (check_candidacy(H).character, check_candidacy(G).character):
        s = ch.s_numerator * ch.s_denominator
        for _ in range(120):
            d1 = rng.randrange(1, 60)
            d2 = rng.randrange(1, 60)
            if gcd(d1 * d2, 2 * s) != 1:
                continue
            assert character_eval(ch, d1 * d2) == character_eval(
                ch, d1
            ) * character_eval(ch, d2)


def test_cusp_orders_h():
    table = cusp_orders(H)
    assert table.orders == {
        1: Fraction(25),
        2: Fraction(6),
        4: Fraction(3),
        8: Fraction(3),
    }
    assert table.is_holomorphic


def test_cusp_orders_g():
    table = cusp_orders(G)
    assert set(table.orders) == {1, 2, 4}
    assert table.is_holomorphic
    assert all(v >= 0 for v in table.orders.values())


def test_cusp_orders_delta_like():
    table = cusp_orders(EtaQuotient(1, {1: 24}))
    assert table.orders == {1: Fraction(1)}


def test_cusp_orders_against_independent_evaluation():
    # UNREDUCED re-evaluation of the same formula, term by term
    for eq in (H, G):
        n = eq.level
        table = cusp_orders(eq)
        for d, got in table.orders.items():
            expected = sum(
                Fraction(n * gcd(d, delta) ** 2 * r, 24 * gcd(d, n // d) * d * delta)
                for delta, r in eq.exponents.items()
            )
            assert got == expected
            assert (24 * n) % got.denominator == 0  # denominator bound


def test_cusp_orders_detect_nonholomorphic():
    table = cusp_orders(EtaQuotient(1, {1: -24}))
    assert table.orders == {1: Fraction(-1)}
    assert not table.is_holomorphic


def test_sturm_bounds():
    assert sturm_bound(37, 8) == 37
    assert sturm_bound(14, 4) == 7
    assert sturm_bound(12, 1) == 1
    assert sturm_bound(2, 6) == 2
    with pytest.raises(ValueError):
        sturm_bound(0, 4)


def test_hecke_tp_displayed_formula():
    f = TruncatedSeries(ZZ, [1] * 20, 0, 20)
    image = hecke_tp(f, 2, 2, TRIVIAL_CH)
    assert image.order == 10
    # b(n) = a(2n) + 2 a(n/2); equal to 3 when 2 | n, else 1
    assert image.coefficients() == [3, 1, 3, 1, 3, 1, 3, 1, 3, 1]


def test_hecke_tp_rejects_a_weight_below_one_and_a_p_that_is_not_prime():
    for ring in (ZZ, zmod(7)):
        f = euler_product(1, 30, ring)
        for p, ell in ((2, 0), (7, 0), (3, -1)):
            with pytest.raises(ValueError, match="ell must be >= 1"):
                hecke_tp(f, p, ell, CharacterDescriptor(0, 1, 1))
        for p in (-3, 0, 1, 4, 9, 15):
            with pytest.raises(ValueError, match="prime"):
                hecke_tp(f, p, 2, TRIVIAL_CH)
        assert hecke_tp(f, 2, 1, TRIVIAL_CH) == (
            f.extract_progression(2, 0) + f.substitute_power(2).truncate(15)
        )


def test_hecke_tp_linearity():
    rng = random.Random(31)
    for _ in range(120):
        ring = rng.choice([ZZ, zmod(7), zmod(11)])
        n = rng.randrange(8, 40)
        f = TruncatedSeries(ring, [rng.randrange(-9, 10) for _ in range(n)], 0, n)
        g = TruncatedSeries(ring, [rng.randrange(-9, 10) for _ in range(n)], 0, n)
        p = rng.choice([2, 3, 5, 7])
        ell = rng.randrange(2, 6)
        lhs = hecke_tp(f + g, p, ell, TRIVIAL_CH)
        rhs = hecke_tp(f, p, ell, TRIVIAL_CH) + hecke_tp(g, p, ell, TRIVIAL_CH)
        assert lhs == rhs


def test_hecke_tp_reads_python_ints_from_int64_storage(monkeypatch):
    m = 2**61 - 1  # tail * a(n/p) leaves int64
    ch = CharacterDescriptor(12, 1, 1)
    rng = random.Random(61)
    coeffs = [m - 1 - rng.randrange(100) for _ in range(200)]
    f = TruncatedSeries(zmod(m), coeffs)
    assert isinstance(f.coeffs, np.ndarray)
    seen = []
    read = TruncatedSeries.coefficients

    def recording(self, stop=None):
        out = read(self, stop)
        seen.extend(out)
        return out

    monkeypatch.setattr(TruncatedSeries, "coefficients", recording)
    image = hecke_tp(f, 3, 12, ch)
    monkeypatch.undo()
    assert len(seen) == 200 and all(type(c) is int for c in seen)
    exact = hecke_tp(TruncatedSeries(ZZ, coeffs), 3, 12, ch)
    assert image == exact.reduce_mod(m)
    monkeypatch.setattr(series, "_INT64_MAX_MODULUS", 1)  # the object storage
    assert hecke_tp(TruncatedSeries(zmod(m), coeffs), 3, 12, ch).coefficients() == (
        image.coefficients()
    )


def test_hecke_tp_mod_p_collapses_to_progression():
    rng = random.Random(37)
    for _ in range(120):
        p = rng.choice([3, 5, 7, 11])
        ring = zmod(p)
        n = rng.randrange(p + 1, 80)
        f = TruncatedSeries(ring, [rng.randrange(p) for _ in range(n)], 0, n)
        ell = rng.randrange(2, 8)
        assert hecke_tp(f, p, ell, TRIVIAL_CH) == f.extract_progression(p, 0)


def test_hecke_tp_factored_identity_factor():
    ring = zmod(7)
    g = TruncatedSeries(ring, list(range(1, 50)), 0, 49)
    assert hecke_tp_factored(g, one(ring, 49), 7, 3, TRIVIAL_CH) == hecke_tp(
        g, 7, 3, TRIVIAL_CH
    )


def test_hecke_tp_factored_support_violation():
    ring = zmod(7)
    g = one(ring, 20)
    h = TruncatedSeries(ring, [1, 0, 0, 0, 0, 0, 0, 0, 1], 0, 20)  # q^8 term
    with pytest.raises(ValueError, match="8"):
        hecke_tp_factored(g, h, 7, 3, TRIVIAL_CH)


def test_hecke_tp_factored_needs_mod_p_ring():
    g = one(ZZ, 20)
    with pytest.raises(ValueError):
        hecke_tp_factored(g, one(ZZ, 20), 7, 3, TRIVIAL_CH)
    g5 = one(zmod(5), 20)
    with pytest.raises(ValueError):
        hecke_tp_factored(g5, one(zmod(5), 20), 7, 3, TRIVIAL_CH)


def test_hecke_tp_factored_agrees_with_direct_route():
    rng = random.Random(43)
    for _ in range(120):
        p = rng.choice([3, 5, 7])
        ring = zmod(p)
        ell = rng.randrange(2, 6)
        ch = TRIVIAL_CH
        ng = rng.randrange(p + 1, 60)
        g = TruncatedSeries(ring, [rng.randrange(p) for _ in range(ng)], 0, ng)
        nh = rng.randrange(2, 20)
        h0 = TruncatedSeries(ring, [rng.randrange(p) for _ in range(nh)], 0, nh)
        h = h0.substitute_power(p)
        direct = hecke_tp(g * h, p, ell, ch)
        factored = hecke_tp_factored(g, h, p, ell, ch)
        stop = min(direct.order, factored.order)
        assert direct.coefficients(stop) == factored.coefficients(stop)


def test_hecke_image_of_h_matches_progression_product():
    # H|T7 mod 7 equals (sum a_3(7n+4) q^(n+1)) * f1^11 mod 7
    order = 7 * 60
    ring = zmod(7)
    h_exp = eta_expansion(H, order, ring)
    ch = check_candidacy(H).character
    image = hecke_tp(h_exp, 7, 37, ch)

    f3 = generating_series(PartitionFamily(CUBIC, 3), order, ring)
    lhs_counts = f3.extract_progression(7, 4).shift(1)
    rhs = lhs_counts * euler_product(1, lhs_counts.order, ring).pow(11)
    stop = min(image.order, rhs.order)
    assert stop > 40
    assert image.coefficients(stop) == rhs.coefficients(stop)


# -- the exponent-map type ---------------------------------------------------

MAPS = st.dictionaries(st.integers(1, 24), st.integers(-40, 40), max_size=6)


def nonzero(m):
    return {d: r for d, r in m.items() if r}


def plus(a, b, sign=1):
    return nonzero({d: a.get(d, 0) + sign * b.get(d, 0) for d in a.keys() | b.keys()})


@settings(max_examples=300, deadline=None, derandomize=True)
@given(a=MAPS, b=MAPS, n=st.integers(-5, 5), k=st.integers(1, 6), p=st.integers(2, 13))
def test_eta_map_matches_a_plain_dict(a, b, n, k, p):
    ea, eb = EtaMap(a), EtaMap(b)
    assert list(ea.items()) == sorted(nonzero(a).items())
    assert ea + eb == plus(a, b)
    assert ea - eb == plus(a, b, -1)
    assert n * ea == ea * n == nonzero({d: n * r for d, r in a.items()})
    assert ea.at(k) == nonzero({k * d: r for d, r in a.items()})
    assert ea.mod(p) == tuple(sorted((d, r % p) for d, r in a.items() if r % p))
    congruent = all((a.get(d, 0) - b.get(d, 0)) % p == 0 for d in a.keys() | b.keys())
    assert (ea.mod(p) == eb.mod(p)) == congruent
    for result in (ea + eb, ea - eb, n * ea, ea.at(k), ea.split(p)[0], ea.split(p)[1]):
        assert type(result) is EtaMap and 0 not in result.values()
        assert list(result) == sorted(result)


@settings(max_examples=200, deadline=None, derandomize=True)
@given(a=MAPS, zeros=st.lists(st.integers(1, 30), max_size=3), data=st.data())
def test_equal_eta_maps_hash_equal_whatever_the_order_and_zeros(a, zeros, data):
    items = data.draw(st.permutations(list(a.items())))
    shuffled = dict(items + [(d, 0) for d in zeros if d not in a])
    assert EtaMap(shuffled) == EtaMap(a) and hash(EtaMap(shuffled)) == hash(EtaMap(a))
    assert {EtaMap(a): 1}[EtaMap(shuffled)] == 1
    # a map and the dict of its entries are equal, read either way round
    assert EtaMap(a) == nonzero(a) and nonzero(a) == EtaMap(a)
    m = EtaMap(a)
    assert m == EtaMap(items) and EtaMap(m) is m  # a map is taken as it is, not copied
    if any(a.values()):
        assert EtaMap(a) != {} and {} != EtaMap(a)


def test_an_eta_map_is_frozen():
    m = EtaMap({1: 76, 2: -2})
    for name in ("_key", "_map", "note"):
        with pytest.raises(AttributeError):
            setattr(m, name, {})
    assert m == {1: 76, 2: -2} and repr(m) == "{1: 76, 2: -2}"
    assert copy.deepcopy(m) == m and pickle.loads(pickle.dumps(m)) == m
    assert hash(copy.copy(m)) == hash(m)


def test_an_eta_map_text_and_split():
    assert EtaMap({2: -2, 1: 76}).to_text() == "1^76 2^-2" and EtaMap().to_text() == ""
    # the balanced split, and at p = 2 an odd exponent keeps its sign
    assert EtaMap({1: -2, 2: -47, 4: 24}).split(13) == ({1: -2, 2: 5, 4: -2}, {2: -4, 4: 2})
    assert EtaMap({1: 1, 2: -1, 4: 3}).split(2) == ({1: 1, 2: -1, 4: 1}, {4: 1})
    with pytest.raises(ValueError, match="split modulus must be >= 2, got 1"):
        EtaMap({1: 1}).split(1)
    # q -> q^k keeps the deltas rising only for k >= 1
    assert EtaMap({1: 1, 3: -2}).at(4) == {4: 1, 12: -2}
    with pytest.raises(ValueError, match="at expects k >= 1, got 0"):
        EtaMap({1: 1}).at(0)


def test_a_balanced_map_splits_into_itself_and_the_empty_map():
    """When no entry moves, the split builds no map: E0 is the map itself."""
    for m, p in ((EtaMap({1: -2, 2: 5, 4: -2}), 13), (EtaMap({1: -1, 2: -4}), 11), (EtaMap(), 7)):
        low, high = m.split(p)
        assert low is m and high == {}
    m = EtaMap({1: -1, 2: -4})
    assert m.split(7)[0] is not m and m.split(7) == ({1: -1, 2: 3}, {2: -1})
