"""Series substrate: ring handling, arithmetic, truncation bookkeeping."""

import random

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from cubicpart import series
from cubicpart.series import Ring, TruncatedSeries, ZZ, one, zero, zmod
from cubicpart.qfunctions import euler_product


def partition_numbers(n_max):
    # independent DP oracle: unbounded parts 1..n
    ways = [0] * (n_max + 1)
    ways[0] = 1
    for v in range(1, n_max + 1):
        for s in range(v, n_max + 1):
            ways[s] += ways[s - v]
    return ways


def random_series(rng, ring, max_len=12, max_offset=3):
    offset = rng.randrange(max_offset + 1)
    length = rng.randrange(1, max_len)
    coeffs = [rng.randrange(-9, 10) for _ in range(length)]
    return TruncatedSeries(ring, coeffs, offset, offset + length)


def random_unit_series(rng, ring, max_len=12):
    coeffs = [rng.randrange(-9, 10) for _ in range(rng.randrange(1, max_len))]
    coeffs[0] = rng.choice([1, -1]) if ring.is_exact else 1
    return TruncatedSeries(ring, coeffs, 0, len(coeffs))


# -- Ring -------------------------------------------------------------------


def test_ring_modulus_must_be_at_least_two():
    with pytest.raises(ValueError):
        Ring(1)
    with pytest.raises(ValueError):
        zmod(0)
    assert zmod(2).modulus == 2


def test_ring_normalization_and_units():
    assert ZZ.is_exact and ZZ.normalize(-7) == -7
    r5 = zmod(5)
    assert r5.normalize(-1) == 4
    assert r5.is_unit(3) and not r5.is_unit(0)
    assert ZZ.is_unit(-1) and not ZZ.is_unit(2)
    assert r5.invert(3) == 2
    with pytest.raises(ValueError):
        ZZ.invert(2)
    with pytest.raises(ValueError):
        zmod(6).invert(3)


def test_coefficients_below_offset_are_zero_and_beyond_order_unknown():
    s = TruncatedSeries(ZZ, [1, 2], offset=3, order=5)
    assert s.coefficient(0) == 0
    assert s.coefficient(3) == 1
    with pytest.raises(IndexError):
        s.coefficient(5)
    with pytest.raises(IndexError):
        s.coefficients(6)
    assert s.coefficients() == [0, 0, 0, 1, 2]


def test_series_is_immutable():
    s = one(ZZ, 4)
    with pytest.raises(AttributeError):
        s.order = 10


# -- mul --------------------------------------------------------------------


def test_mul_difference_of_squares():
    a = TruncatedSeries(ZZ, [1, 1], 0, 3)
    b = TruncatedSeries(ZZ, [1, -1], 0, 3)
    assert (a * b).coefficients() == [1, 0, -1]


def test_mul_identity():
    rng = random.Random(11)
    for _ in range(20):
        s = random_series(rng, ZZ)
        assert one(ZZ, s.order + s.offset) * s == s


def test_mul_euler_product_times_its_inverse_telescopes():
    f1 = euler_product(1, 50, ZZ)
    p = partition_numbers(49)
    pseries = TruncatedSeries(ZZ, p, 0, 50)  # oracle, not inverse()
    assert (f1 * pseries).coefficients() == [1] + [0] * 49


def test_mul_ring_mismatch_rejected():
    with pytest.raises(ValueError):
        one(ZZ, 3) * one(zmod(5), 3)


def test_mul_order_is_pessimistic():
    a = TruncatedSeries(ZZ, [1, 1, 1], offset=2, order=5)
    b = TruncatedSeries(ZZ, [1, 1, 1, 1], offset=0, order=4)
    prod = a * b
    assert prod.order == min(a.order, b.order) == 4
    assert prod.coefficients() == [0, 0, 1, 2]


def test_mul_numpy_path_matches_exact_reduction():
    # sizes past the fast-path threshold; exact-then-reduce is the oracle
    rng = random.Random(23)
    m = 97
    a = [rng.randrange(1000) for _ in range(160)]
    b = [rng.randrange(1000) for _ in range(150)]
    za = TruncatedSeries(ZZ, a, 0, 160)
    zb = TruncatedSeries(ZZ, b, 0, 150)
    exact = (za * zb).reduce_mod(m)
    modular = za.reduce_mod(m) * zb.reduce_mod(m)
    assert exact == modular


# -- inverse ----------------------------------------------------------------


def test_inverse_geometric_series():
    s = TruncatedSeries(ZZ, [1, -1], 0, 5)
    assert s.inverse().coefficients() == [1, 1, 1, 1, 1]


def test_inverse_of_f1_is_partition_series():
    inv = euler_product(1, 7, ZZ).inverse()
    assert inv.coefficients() == [1, 1, 2, 3, 5, 7, 11]
    assert inv.coefficients() == partition_numbers(6)


def test_inverse_rejects_non_unit_constant():
    with pytest.raises(ValueError, match="2"):
        TruncatedSeries(ZZ, [2, 1], 0, 3).inverse()


def test_inverse_rejects_positive_offset():
    with pytest.raises(ValueError):
        TruncatedSeries(ZZ, [1], 1, 2).inverse()


def test_inverse_round_trip_property():
    rng = random.Random(7)
    for _ in range(120):
        ring = rng.choice([ZZ, zmod(5), zmod(7), zmod(12)])
        s = random_unit_series(rng, ring)
        assert s.inverse().inverse() == s
        prod = s * s.inverse()
        assert prod.coefficients() == [1] + [0] * (s.order - 1)


# -- divide -----------------------------------------------------------------

DIVIDE_RINGS = {ZZ: (1, -1), zmod(7): (1, 3, 6), zmod(12): (1, 5, 7, 11)}


@st.composite
def dividend_and_sparse_divisor(draw):
    """A random series a and a sparse f with a unit constant term, f.order >= len(a)."""
    ring = draw(st.sampled_from(list(DIVIDE_RINGS)))
    length = draw(st.integers(1, 60))
    offset = draw(st.integers(0, 3))
    coeffs = draw(st.lists(st.integers(-99, 99), min_size=length, max_size=length))
    a = TruncatedSeries(ring, coeffs, offset, offset + length)
    f_order = length + draw(st.integers(0, 5))
    f_coeffs = [0] * f_order
    f_coeffs[0] = draw(st.sampled_from(DIVIDE_RINGS[ring]))
    terms = draw(
        st.dictionaries(st.integers(1, max(f_order - 1, 1)), st.integers(-3, 3), max_size=6)
    )
    for i, c in terms.items():
        if i < f_order:
            f_coeffs[i] = c
    return a, TruncatedSeries(ring, f_coeffs, 0, f_order)


@settings(max_examples=150, deadline=None, derandomize=True)
@given(dividend_and_sparse_divisor())
def test_divide_undoes_multiply_property(case):
    a, f = case
    assert (a * f).divide(f) == a.truncate(min(a.order, f.order))


def test_divide_by_f1_gives_partition_numbers():
    ones = TruncatedSeries(ZZ, [1] * 20, 0, 20)
    p = ones.divide(euler_product(1, 20, ZZ))
    # 1/((1-q) f1): partial sums of the partition numbers
    sums = [sum(partition_numbers(19)[: n + 1]) for n in range(20)]
    assert p.coefficients() == sums


def test_divide_result_order_rule():
    a = TruncatedSeries(ZZ, [1] * 10, 2, 12)
    short = a.divide(TruncatedSeries(ZZ, [1, -1], 0, 5))  # f.order = 5 < 12
    assert short.order == 5
    assert short.coefficients() == [0, 0, 1, 2, 3]
    long = a.divide(TruncatedSeries(ZZ, [1, -1], 0, 20))  # 20 > 12
    assert long.order == 12
    assert long.coefficients() == [0, 0] + list(range(1, 11))


def test_divide_rejects_non_unit_constant():
    a = one(ZZ, 4)
    with pytest.raises(ValueError, match="leading coefficient 2 is not a unit in ZZ"):
        a.divide(TruncatedSeries(ZZ, [2, 1], 0, 4))
    with pytest.raises(ValueError, match="leading coefficient 3 is not a unit in ZZ/12"):
        one(zmod(12), 4).divide(TruncatedSeries(zmod(12), [3, 1], 0, 4))
    with pytest.raises(ValueError, match="constant term not represented"):
        a.divide(TruncatedSeries(ZZ, (), 0, 0))


def test_divide_rejects_positive_offset_of_divisor():
    with pytest.raises(ValueError, match="leading coefficient 0 is not a unit in ZZ"):
        one(ZZ, 4).divide(TruncatedSeries(ZZ, [1, 1], 1, 3))


def test_divide_rejects_ring_mismatch():
    with pytest.raises(ValueError, match="ring mismatch"):
        one(ZZ, 4).divide(one(zmod(7), 4))


# -- pow --------------------------------------------------------------------


def test_pow_binomial_square():
    s = TruncatedSeries(ZZ, [1, 1], 0, 3)
    assert s.pow(2).coefficients() == [1, 2, 1]


def test_pow_zero_is_one():
    s = TruncatedSeries(ZZ, [3, 1, 4], 0, 6)
    assert s.pow(0) == one(ZZ, 6)


def test_pow_frobenius_mod_7():
    r = zmod(7)
    lhs = euler_product(1, 60, r).pow(77)
    rhs = euler_product(7, 60, r).pow(11)
    assert lhs == rhs


def test_pow_negative_one_is_inverse():
    f2 = euler_product(2, 30, ZZ)
    assert f2.pow(-1) == f2.inverse()


def test_pow_negative_requires_unit():
    with pytest.raises(ValueError):
        TruncatedSeries(ZZ, [2, 1], 0, 4).pow(-2)


# -- substitute_power -------------------------------------------------------


def test_substitute_power_spreads_exponents():
    s = TruncatedSeries(ZZ, [1, 1, 1], 0, 3)
    t = s.substitute_power(2)
    assert t.coefficients() == [1, 0, 1, 0, 1, 0]
    assert t.order == 6


def test_substitute_power_identity():
    s = TruncatedSeries(ZZ, [5, 4], 1, 3)
    assert s.substitute_power(1) is s


def test_substitute_power_rejects_nonpositive():
    with pytest.raises(ValueError):
        one(ZZ, 3).substitute_power(0)


def test_substitute_composition_property():
    rng = random.Random(3)
    for _ in range(120):
        s = random_series(rng, ZZ, max_len=8)
        j, k = rng.randrange(1, 4), rng.randrange(1, 4)
        assert s.substitute_power(j).substitute_power(k) == s.substitute_power(j * k)


# -- reduce_mod -------------------------------------------------------------


def test_reduce_mod_basic():
    s = TruncatedSeries(ZZ, [1, -1], 0, 2)
    assert s.reduce_mod(3).coefficients() == [1, 2]


def test_reduce_mod_idempotent():
    s = TruncatedSeries(ZZ, [4, 5, 6], 0, 3)
    once = s.reduce_mod(3)
    assert once.reduce_mod(3) == once


def test_reduce_mod_rejects_cross_modulus_and_bad_modulus():
    s = TruncatedSeries(ZZ, [1], 0, 1)
    with pytest.raises(ValueError):
        s.reduce_mod(3).reduce_mod(5)
    with pytest.raises(ValueError):
        s.reduce_mod(1)


def test_reduce_mod_kills_chan_progression():
    series = (euler_product(1, 300, ZZ) * euler_product(2, 300, ZZ)).inverse()
    reduced = series.reduce_mod(3)
    assert all(reduced.coefficient(3 * n + 2) == 0 for n in range(100))


def test_reduce_mod_commutes_with_mul_property():
    rng = random.Random(17)
    for _ in range(120):
        a = random_series(rng, ZZ)
        b = random_series(rng, ZZ)
        m = rng.choice([2, 3, 5, 9])
        assert (a * b).reduce_mod(m) == a.reduce_mod(m) * b.reduce_mod(m)


# -- extract_progression ----------------------------------------------------


def test_extract_progression_arithmetic_indices():
    s = TruncatedSeries(ZZ, list(range(10)), 0, 10)
    assert s.extract_progression(3, 2).coefficients() == [2, 5, 8]


def test_extract_progression_identity_case():
    s = TruncatedSeries(ZZ, [1, 2, 3], 0, 3)
    assert s.extract_progression(1, 0) is s


def test_extract_progression_range_checks():
    s = one(ZZ, 5)
    with pytest.raises(ValueError):
        s.extract_progression(0, 0)
    with pytest.raises(ValueError):
        s.extract_progression(3, 3)


def test_extract_progression_chan_zero_series():
    series = (euler_product(1, 302, ZZ) * euler_product(2, 302, ZZ)).inverse()
    out = series.extract_progression(3, 2).reduce_mod(3)
    assert out.order == 100
    assert out.coefficients() == [0] * 100


def test_extract_after_substitute_round_trip_property():
    rng = random.Random(29)
    for _ in range(120):
        s = random_series(rng, ZZ, max_len=10, max_offset=0)
        p = rng.randrange(1, 6)
        assert s.substitute_power(p).extract_progression(p, 0) == s


# -- ring axioms on sampled series -------------------------------------------


def test_ring_axioms_property():
    rng = random.Random(41)
    for _ in range(120):
        ring = rng.choice([ZZ, zmod(3), zmod(7), zmod(10)])
        a = random_series(rng, ring)
        b = random_series(rng, ring)
        c = random_series(rng, ring)
        assert a * b == b * a
        assert (a * b) * c == a * (b * c)
        lhs = a * (b + c)
        rhs = a * b + a * c
        # distributivity holds on the window both sides determine
        order = min(lhs.order, rhs.order)
        assert lhs.coefficients(order) == rhs.coefficients(order)


def test_add_and_neg():
    a = TruncatedSeries(ZZ, [1, 2, 3], 0, 3)
    b = TruncatedSeries(ZZ, [4, 5], 0, 2)
    assert (a + b).coefficients() == [5, 7]
    assert (a - a).coefficients() == [0, 0, 0]
    assert (-a).coefficients() == [-1, -2, -3]
    assert a.scale(3).coefficients() == [3, 6, 9]


def test_helpers_zero_one_monomial():
    assert zero(ZZ, 3).coefficients() == [0, 0, 0]
    assert one(ZZ, 1).coefficients() == [1]


def test_shift_and_with_zero_offset():
    s = TruncatedSeries(ZZ, [1, 2], 0, 2).shift(3)
    assert s.order == 5 and s.coefficients() == [0, 0, 0, 1, 2]
    assert s == TruncatedSeries(ZZ, [1, 2], 3, 5)  # same coefficients, same order


# -- int64 storage ------------------------------------------------------------

M61 = 2**61 - 1  # a prime whose products of residues leave int64


@pytest.mark.parametrize(
    "m,int64",
    [(2, True), (7, True), (M61, True), (2**63, True), (2**63 + 1, False), (2**64 + 13, False)],
)
def test_storage_predicate_chooses_int64_array_or_tuple(m, int64):
    s = TruncatedSeries(zmod(m), [-1, 2**64 + 3, m, 5], 0, 6)
    zz = TruncatedSeries(ZZ, [1, 2]).coeffs
    assert s.coeffs.dtype == (np.int64 if int64 else object)
    assert zz.dtype == object and type(zz[0]) is int
    assert not s.coeffs.flags.writeable and not zz.flags.writeable
    assert s.coefficients() == [(m - 1), (2**64 + 3) % m, 0, 5 % m, 0, 0]


def test_constructor_copies_a_caller_array():
    arr = np.array([3, -4, 12], dtype=np.int64)
    s = TruncatedSeries(zmod(7), arr)
    arr[0] = 6
    assert s.coefficients() == [3, 3, 5]
    assert TruncatedSeries(ZZ, arr).coefficients() == [6, -4, 12]
    assert all(type(c) is int for c in TruncatedSeries(ZZ, arr).coeffs)


def int64_results(m):
    """Series over ZZ/m from every operation that wraps an array, kernels included."""
    ring = zmod(m)
    rng = random.Random(m % 1000)
    a = TruncatedSeries(ring, [rng.randrange(m) for _ in range(700)])
    f = euler_product(1, 700, ring)
    progression = a.extract_progression(3, 1)
    return {
        "product": a * f,
        "square": a * a,
        "inverse": f.inverse(),
        "power": f.pow(-3),
        "substitute": f.substitute_power(3),
        "truncate": a.truncate(100),
        "progression": progression,
        "shift": a.shift(4),
        "from a list": a,
    }


@pytest.mark.parametrize("m", [7, M61])
def test_mod_m_coefficients_are_python_ints(m):
    for name, s in int64_results(m).items():
        assert isinstance(s.coeffs, np.ndarray), name
        assert all(type(c) is int for c in s.coefficients()), name
        assert type(s.coefficient(s.order - 1)) is int, name


@pytest.mark.parametrize("m", [7, M61])
def test_writing_to_a_stored_array_raises(m):
    for name, s in int64_results(m).items():
        with pytest.raises(ValueError, match="read-only"):
            s.coeffs[0] = 1
    a = int64_results(m)["from a list"]
    assert np.shares_memory(a.truncate(100).coeffs, a.coeffs)
    assert np.shares_memory(a.extract_progression(3, 1).coeffs, a.coeffs)


def test_object_storage_cuts_share_memory_and_are_read_only():
    s = TruncatedSeries(ZZ, [3, -1, 2**70, 0, 5, 7, -2])
    for cut in (s.truncate(4), s.extract_progression(2, 1)):
        assert cut.coeffs.dtype == object
        assert np.shares_memory(cut.coeffs, s.coeffs)
        with pytest.raises(ValueError, match="read-only"):
            cut.coeffs[0] = 1
    with pytest.raises(ValueError, match="read-only"):
        s.coeffs[0] = 1
    assert s.coefficients() == [3, -1, 2**70, 0, 5, 7, -2]


@pytest.mark.parametrize("ring", [ZZ, zmod(2**64 + 13)])
def test_object_storage_coefficients_are_python_ints(ring):
    f = euler_product(1, 60, ring)
    results = {
        "euler": f,
        "product": f * f.shift(1),
        "inverse": f.inverse(),
        "power": f.pow(-3),
        "substitute": f.substitute_power(3),
        "progression": f.extract_progression(3, 1),
        "sum": f + f,
    }
    for name, s in results.items():
        assert s.coeffs.dtype == object, name
        assert all(type(c) is int for c in s.coefficients()), name
        assert type(s.coefficient(s.order - 1)) is int, name


def as_object_storage(monkeypatch):
    """Make every modulus take the object storage, as m > 2^63 does."""
    monkeypatch.setattr(series, "_INT64_MAX_MODULUS", 1)


def test_int64_arithmetic_equals_tuple_arithmetic_at_a_61_bit_prime(monkeypatch):
    rng = random.Random(61)
    ring = zmod(M61)
    a_list = [M61 - 1 - rng.randrange(1000) for _ in range(300)]
    b_list = [rng.randrange(M61) for _ in range(250)]
    f_list = [1] + [rng.randrange(M61) for _ in range(299)]

    def results():
        a = TruncatedSeries(ring, a_list, 2, 302)
        b = TruncatedSeries(ring, b_list, 0, 250)
        f = TruncatedSeries(ring, f_list)
        out = {
            "add": a + b,
            "sub": a - b,
            "neg": -a,
            "divide": a.divide(f),
            "inverse": f.inverse(),
            "product": a * b,
            "progression": a.extract_progression(5, 3),
        }
        for k in (2, M61 - 1, 2**70 + 5, -3):
            out[f"scale {k}"] = a.scale(k)
        return {name: (s.offset, s.order, s.coefficients()) for name, s in out.items()}

    fast = results()
    as_object_storage(monkeypatch)
    assert TruncatedSeries(ring, a_list).coeffs.dtype == object
    assert fast == results()


@settings(max_examples=80, deadline=None, derandomize=True)
@given(
    st.integers(0, 6),
    st.integers(0, 40),
    st.integers(1, 7),
    st.data(),
)
def test_extract_progression_and_support_match_the_definition(offset, length, p, data):
    r = data.draw(st.integers(0, p - 1))
    coeffs = data.draw(st.lists(st.integers(-3, 3), min_size=length, max_size=length))
    for ring in (ZZ, zmod(5)):
        s = TruncatedSeries(ring, coeffs, offset, offset + length)
        dense = s.coefficients()
        prog = s.extract_progression(p, r)
        assert prog.offset == 0
        assert prog.coefficients() == dense[r::p]
        assert s.support().tolist() == [e for e, c in enumerate(dense) if c]


def test_truncate_cuts_the_order_and_keeps_the_offset_within_it():
    s = TruncatedSeries(zmod(7), [1, 2, 3], 4, 7)
    assert s.truncate(5).coefficients() == [0, 0, 0, 0, 1]
    assert s.truncate(2) == zero(zmod(7), 2)
    assert s.truncate(7) == s
    for bad in (-1, 8):
        with pytest.raises(ValueError, match="truncate"):
            s.truncate(bad)


INVARIANT_RINGS = [ZZ, zmod(7), zmod(M61), zmod(2**64 + 13)]


@settings(max_examples=60, deadline=None, derandomize=True)
@given(
    st.sampled_from(INVARIANT_RINGS),
    st.lists(st.integers(-(10**20), 10**20), max_size=30),
    st.lists(st.integers(-9, 9), min_size=1, max_size=30),
    st.integers(0, 5),
    st.integers(1, 4),
    st.integers(0, 35),
)
def test_every_result_is_its_array_from_q0(ring, a_list, f_list, k, p, n):
    a = TruncatedSeries(ring, a_list)
    f = TruncatedSeries(ring, [1] + f_list[1:])
    results = {
        "product": a * f,
        "square": f * f,
        "divide": a.divide(f),
        "inverse": f.inverse(),
        "pow": f.pow(3),
        "negative pow": f.pow(-2),
        "sum": a + f,
        "difference": a - f,
        "scale": a.scale(k - 2),
        "substitute": a.substitute_power(p),
        "truncate": a.truncate(a.order // 2),
        "progression": a.extract_progression(p, k % p),
        "shift": a.shift(k),
        "reduce": TruncatedSeries(ZZ, a_list).reduce_mod(ring.modulus or 7),
    }
    for name, s in results.items():
        assert s.order == len(s.coeffs) and s.offset == 0, name
    assert results["product"].order == min(a.order, f.order)
    assert results["divide"].order == min(a.order, f.order)
    assert TruncatedSeries(ring, a_list, k, k + n) == TruncatedSeries(ring, a_list, 0, n).shift(k)
