"""Counting families: series vs DP oracle, identities, functional equation."""

import functools
from collections import OrderedDict

import pytest

from cubicpart import engine, partitions, qfunctions
from cubicpart import series as series_module
from cubicpart.partitions import (
    _COLOUR_STEP,
    CUBIC,
    OVERCUBIC,
    PartitionFamily,
    check_functional_equation,
    check_lemma_product,
    check_named_identity,
    count_direct,
    generating_series,
)
from cubicpart.qfunctions import euler_quotient, psi
from cubicpart.series import ZZ, zmod


def test_family_validation():
    with pytest.raises(ValueError):
        PartitionFamily("cubical", 2)
    with pytest.raises(ValueError):
        PartitionFamily(CUBIC, 0)


def test_family_exponent_maps():
    assert PartitionFamily(CUBIC, 1).exponents == {1: -1}
    assert PartitionFamily(CUBIC, 5).exponents == {1: -1, 2: -4}
    assert PartitionFamily(OVERCUBIC, 1).exponents == {1: -2, 2: 1}
    assert PartitionFamily(OVERCUBIC, 3).exponents == {1: -2, 2: -3, 4: 2}


def test_known_counts_via_series():
    s = generating_series(PartitionFamily(CUBIC, 2), 6, ZZ)
    assert s.coefficient(3) == 4
    assert s.coefficient(4) == 9
    p = generating_series(PartitionFamily(CUBIC, 1), 6, ZZ)
    assert p.coefficient(4) == 5
    o = generating_series(PartitionFamily(OVERCUBIC, 2), 6, ZZ)
    assert o.coefficient(3) == 12


def test_known_counts_via_dp():
    assert count_direct(PartitionFamily(CUBIC, 2), 3) == 4
    assert count_direct(PartitionFamily(CUBIC, 2), 4) == 9
    assert count_direct(PartitionFamily(CUBIC, 1), 4) == 5
    assert count_direct(PartitionFamily(OVERCUBIC, 2), 3) == 12
    assert count_direct(PartitionFamily(CUBIC, 3), 4) == 14


def test_count_zero_is_one_for_every_family():
    for kind in (CUBIC, OVERCUBIC):
        for c in range(1, 5):
            fam = PartitionFamily(kind, c)
            assert count_direct(fam, 0) == 1
            assert generating_series(fam, 1, ZZ).coefficient(0) == 1


def test_count_one_is_fixed():
    # the only partition of 1 uses the odd part 1; overlining doubles it
    for c in range(1, 6):
        assert count_direct(PartitionFamily(CUBIC, c), 1) == 1
        assert count_direct(PartitionFamily(OVERCUBIC, c), 1) == 2


def test_count_direct_rejects_negative():
    with pytest.raises(ValueError):
        count_direct(PartitionFamily(CUBIC, 1), -1)


def test_series_matches_dp_oracle():
    # smaller sweep here; the acceptance suite runs the full grid
    # 40 and 300 colours expand f2 (and f4) by pow, the others by sparse steps
    for kind in (CUBIC, OVERCUBIC):
        for c in (1, 2, 3, 4, 40, 300):
            fam = PartitionFamily(kind, c)
            series = generating_series(fam, 41, ZZ)
            for n in range(41):
                assert series.coefficient(n) == count_direct(fam, n), (kind, c, n)


def test_more_colors_never_reduce_counts():
    for kind in (CUBIC, OVERCUBIC):
        for c in range(1, 5):
            a = generating_series(PartitionFamily(kind, c), 40, ZZ)
            b = generating_series(PartitionFamily(kind, c + 1), 40, ZZ)
            for n in range(40):
                assert b.coefficient(n) >= a.coefficient(n)


def test_overcubic_dominates_cubic():
    for c in range(1, 5):
        a = generating_series(PartitionFamily(CUBIC, c), 40, ZZ)
        o = generating_series(PartitionFamily(OVERCUBIC, c), 40, ZZ)
        for n in range(40):
            assert o.coefficient(n) >= a.coefficient(n)


def test_functional_equation_holds():
    assert check_functional_equation(2, 200)
    assert check_functional_equation(1, 200)  # degenerate psi(q^2)^0 case


def test_functional_equation_perturbed_rhs_fails():
    # wrong exponent c instead of c-1 must be caught with a small witness
    c, order = 3, 60
    fam = PartitionFamily(CUBIC, c)
    lhs = generating_series(fam, order, ZZ)
    half = -(-order // 2)
    bad = psi(order, ZZ) * psi(half, ZZ).substitute_power(2).pow(c)
    bad = bad * generating_series(fam, half, ZZ).substitute_power(2).pow(2)
    diffs = [n for n in range(order) if lhs.coefficient(n) != bad.coefficient(n)]
    assert diffs and diffs[0] <= 4


def test_functional_equation_validation():
    with pytest.raises(ValueError):
        check_functional_equation(0, 10)
    with pytest.raises(ValueError):
        check_functional_equation(2, 0)


def test_lemma_product_holds():
    assert check_lemma_product(3, 256)
    assert check_lemma_product(5, 128)
    report = check_lemma_product(7, 64)
    assert report.equal and report.describe() == "equal through order 64"


def test_lemma_product_trivial_order():
    assert check_lemma_product(3, 1)


def test_lemma_product_validation():
    with pytest.raises(ValueError):
        check_lemma_product(4, 16)
    with pytest.raises(ValueError, match="odd prime, got 9"):
        check_lemma_product(9, 16)
    with pytest.raises(ValueError):
        check_lemma_product(3, 0)


def test_named_identities_hold():
    assert check_named_identity("ramanujan-p5n4", 120)
    assert check_named_identity("chan-a2-3n2", 120)


def test_named_identities_constant_terms():
    assert check_named_identity("ramanujan-p5n4", 1)
    assert check_named_identity("chan-a2-3n2", 1)
    # the order-1 comparison pins 5*1 = p(4) and 3*1 = a_2(2)
    assert count_direct(PartitionFamily(CUBIC, 1), 4) == 5
    assert count_direct(PartitionFamily(CUBIC, 2), 2) == 3


def test_named_identity_unknown_id():
    with pytest.raises(ValueError):
        check_named_identity("rogers-ramanujan", 10)


def test_check_report_mismatch_description():
    report = check_functional_equation(2, 50)
    assert bool(report) and report.first_mismatch is None


# -- the colour ladder: F_c = F_{c-1} * step ----------------------------------


def test_colour_step_is_the_difference_of_consecutive_maps():
    # overcubic c = 1 -> 2 is where -(2c - 3) changes sign
    for kind in (CUBIC, OVERCUBIC):
        for c in range(1, 61):
            now = PartitionFamily(kind, c).exponents
            nxt = PartitionFamily(kind, c + 1).exponents
            diff = {d: nxt.get(d, 0) - now.get(d, 0) for d in now.keys() | nxt.keys()}
            assert {d: r for d, r in diff.items() if r} == _COLOUR_STEP[kind], (kind, c)


@pytest.fixture
def expanded_maps(monkeypatch):
    """An empty series store; the maps generating_series expands are recorded."""
    maps = []

    def recording(exponents, order, ring):
        maps.append(dict(exponents))
        return euler_quotient(exponents, order, ring)

    monkeypatch.setattr(partitions, "euler_quotient", recording)
    monkeypatch.setattr(qfunctions, "_store", OrderedDict())
    return maps


# 383, 384 and 385 straddle series._FFT_MIN_LEN, where products turn to the FFT
LADDER_ORDERS = [1, 383, 384, 385, 1000]


@functools.lru_cache(maxsize=None)
def direct_over_zz(kind, c):
    """The family's map expanded directly over ZZ, at the largest ladder order.

    Reduced mod m and cut, it is the direct build at every modulus and
    order, through none of the int64 kernels the ladder runs on.
    """
    return euler_quotient(PartitionFamily(kind, c).exponents, LADDER_ORDERS[-1], ZZ)


@pytest.mark.parametrize("m", [2, 3, 4, 5, 7, 12, 13, 65521, 2**61 - 1])
@pytest.mark.parametrize("kind", [CUBIC, OVERCUBIC])
def test_colour_ladder_matches_direct_builds(expanded_maps, kind, m):
    ring = zmod(m)
    for order in LADDER_ORDERS:
        qfunctions._store.clear()
        engine._series_mod(kind, 1, m, order)
        for c in range(2, 13):
            del expanded_maps[:]
            s = engine._series_mod(kind, c, m, order)
            assert s == direct_over_zz(kind, c).truncate(order).reduce_mod(m), (order, c)
            # the step is built once, at c = 2, and never the family's map
            assert expanded_maps == ([_COLOUR_STEP[kind]] if c == 2 else []), (order, c)
    # F_11 is held at 1000: F_12 below it is cut from it and takes the ladder
    del expanded_maps[:]
    fam = PartitionFamily(kind, 12)
    assert generating_series(fam, 385, ring) == euler_quotient(fam.exponents, 385, ring)
    assert expanded_maps == []
    # held only to 383: F_3 to 1000 is a direct build
    qfunctions._store.clear()
    engine._series_mod(kind, 2, m, 383)
    del expanded_maps[:]
    fam = PartitionFamily(kind, 3)
    assert generating_series(fam, 1000, ring) == euler_quotient(fam.exponents, 1000, ring)
    assert expanded_maps == [fam.exponents]


@pytest.mark.parametrize("m", [None, 2**64 + 13])
def test_object_storage_never_takes_the_colour_ladder(expanded_maps, m):
    ring = ZZ if m is None else zmod(m)
    for kind in (CUBIC, OVERCUBIC):
        for c in (2, 5):
            prev = PartitionFamily(kind, c - 1)
            qfunctions._store[(kind, c - 1, m)] = euler_quotient(prev.exponents, 300, ring)
            del expanded_maps[:]
            fam = PartitionFamily(kind, c)
            assert generating_series(fam, 200, ring) == euler_quotient(fam.exponents, 200, ring)
            assert expanded_maps == [fam.exponents]
    assert not any(key[0] == "colour-step" for key in qfunctions._store)


def test_overcubic_ladder_mod_2_takes_no_product(expanded_maps, monkeypatch):
    # f_2^2 == f_4 mod 2, so the overcubic step is the series 1 and F_c is F_{c-1}
    products = []
    mul_mod = series_module._mul_mod

    def counting(a, b, rl, m):
        products.append(rl)
        return mul_mod(a, b, rl, m)

    monkeypatch.setattr(series_module, "_mul_mod", counting)
    engine._series_mod(OVERCUBIC, 1, 2, 10**4)
    ladder = [engine._series_mod(OVERCUBIC, c, 2, 10**4) for c in range(2, 13)]
    assert products == []
    assert expanded_maps[1:] == [_COLOUR_STEP[OVERCUBIC]]
    for c, s in enumerate(ladder, 2):
        fam = PartitionFamily(OVERCUBIC, c)
        assert s == euler_quotient(fam.exponents, 10**4, zmod(2)), c
