"""Counting families: series vs DP oracle, identities, functional equation."""

import functools

import pytest

from cubicpart import partitions
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


def test_count_table_is_the_generating_series():
    for kind in (CUBIC, OVERCUBIC):
        for c in (1, 2, 5):
            fam = PartitionFamily(kind, c)
            table = partitions._count_table(fam, 80)
            assert table == generating_series(fam, 81, ZZ).coefficients(), (kind, c)
            assert [count_direct(fam, n) for n in (0, 17, 80)] == [table[n] for n in (0, 17, 80)]


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


# -- the colour step: F_c = F_{c-1} * step -----------------------------------


def test_colour_step_is_the_difference_of_consecutive_maps():
    # overcubic c = 1 -> 2 is where -(2c - 3) changes sign
    for kind in (CUBIC, OVERCUBIC):
        for c in range(1, 61):
            now = PartitionFamily(kind, c).exponents
            nxt = PartitionFamily(kind, c + 1).exponents
            diff = {d: nxt.get(d, 0) - now.get(d, 0) for d in now.keys() | nxt.keys()}
            assert {d: r for d, r in diff.items() if r} == _COLOUR_STEP[kind], (kind, c)


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
def test_colour_ladder_matches_direct_builds(kind, m):
    # the ladder search climbs on its prefixes: F_1, then F_c = F_{c-1} * step
    ring = zmod(m)
    for order in LADDER_ORDERS:
        step = euler_quotient(_COLOUR_STEP[kind], order, ring)
        s = generating_series(PartitionFamily(kind, 1), order, ring)
        for c in range(2, 13):
            s = s * step
            assert s == direct_over_zz(kind, c).truncate(order).reduce_mod(m), (order, c)
