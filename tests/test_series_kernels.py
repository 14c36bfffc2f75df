"""Differential tests of the multiply, inverse and division kernels.

Every path, the term-array row kernel and division included, is compared
against a plain nested loop over Python ints that shares no code with
any of them, followed by reduction mod m, on adversarial inputs: all
coefficients m - 1 (the largest residue) or m // 2 (the largest balanced
digit a transform takes), lengths around powers of two and around the
steps of the transform length, and moduli on both sides of each path's
guard.
"""

import random
from functools import lru_cache
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from cubicpart import qfunctions, series
from cubicpart.qfunctions import euler_product
from cubicpart.series import TruncatedSeries, ZZ, _fft_error_bound, _fft_length, one, zmod

KERNEL_SETTINGS = settings(max_examples=40, deadline=None, derandomize=True)


def transform_length(n):
    """Transform length of the fft path for two operands of n terms."""
    return series._fft_blocks(n, n, n)[1]


def smooth_steps(limit):
    """Operand lengths n at which the transform length changes."""
    steps, last = [], None
    for n in range(series._FFT_MIN_LEN, limit):
        length = transform_length(n)
        if length != last:
            steps.append(n)
            last = length
    return steps


LENGTHS = sorted(
    {1, 2, 3, 63, 64, 65, 127, 128, 129, 255, 256, 257, 383, 384, 385, 511, 512, 513}
    | set(smooth_steps(600))
)
MODULI = [2, 3, 5, 7, 12, 13, 97, 65521, 2**31 - 1, 2**61 - 1, 2**64 + 13]


def coefficients(rng, n, m, fill):
    if fill == "max":
        return [m - 1] * n
    if fill == "half":
        return [m // 2] * n
    return [rng.randrange(m) for _ in range(n)]


def nested_loop_product(a, b, rl):
    """Reference: the first rl terms of a * b by a plain double loop over Python ints."""
    acc = [0] * rl
    for i, x in enumerate(a[:rl]):
        for j, y in enumerate(b[: rl - i]):
            acc[i + j] += x * y
    return acc


def exact_product(a, b, m):
    """Reference: the nested-loop product of two series mod m, reduced mod m."""
    rl = min(a.order, b.order)
    return TruncatedSeries(zmod(m), nested_loop_product(a.coefficients(), b.coefficients(), rl))


def path_of(a, b, m):
    rl = min(len(a), len(b))
    aa = np.array(a[:rl], dtype=np.int64)
    bb = aa if b is a else np.array(b[:rl], dtype=np.int64)
    return series._mul_path(aa, bb, rl, m)


def largest_inside(n, accept):
    """Largest m >= 2 with accept(m) true, for accept monotone decreasing in m."""
    lo, hi = 2, 2
    while accept(hi):
        lo, hi = hi, hi * 2
    while hi - lo > 1:
        mid = (lo + hi) // 2
        lo, hi = (mid, hi) if accept(mid) else (lo, mid)
    return lo


def fft_accepts_max(n):
    """accept(m): the fft bound admits two length-n operands whose digits all have size m // 2.

    Transforms take balanced digits, in [-(m // 2), m // 2]; the residue
    m // 2 is the digit m // 2 itself, so [m // 2] * n is that worst case.
    """
    length = transform_length(n)

    def accept(m):
        worst = n * (m // 2) ** 2
        return series._fft_exact(worst, worst, length)

    return accept


# -- transform length and bound -------------------------------------------


def test_fft_length_is_the_least_smooth_number_at_or_above_n():
    def smooth(x):
        for r in (2, 3, 5):
            while x % r == 0:
                x //= r
        return x == 1

    for n in range(1, 3000):
        length = _fft_length(n)
        assert length >= n and smooth(length)
        assert not any(smooth(x) for x in range(n, length))


def test_fft_error_bound_needs_a_smooth_length_and_grows_with_norms():
    with pytest.raises(ValueError):
        _fft_error_bound(1.0, 1.0, 7 * 64)
    small = _fft_error_bound(100.0, 100.0, 1024)
    assert 0 < small < _fft_error_bound(400.0, 100.0, 1024)
    assert small < _fft_error_bound(100.0, 100.0, 4096)


# -- multiply ---------------------------------------------------------------


def dense_products_around_fft_min_len(test):
    """Pin the dense products mod 65521 and 2^61 - 1 on both sides of _FFT_MIN_LEN.

    Mod 2^61 - 1 the residues m - 1 are the balanced digit -1, formed exactly
    in int64, so from _FFT_MIN_LEN on their product takes the fft path.
    """
    for n in (series._FFT_MIN_LEN - 1, series._FFT_MIN_LEN, series._FFT_MIN_LEN + 1):
        for m in (65521, 2**61 - 1):
            for fill in ("max", "half", "random"):
                test = example(n=n, m=m, fill=fill, seed=n, square=False)(test)
    return test


@KERNEL_SETTINGS
@dense_products_around_fft_min_len
@given(
    n=st.sampled_from(LENGTHS),
    m=st.sampled_from(MODULI),
    fill=st.sampled_from(["max", "half", "random"]),
    seed=st.integers(0, 2**32 - 1),
    square=st.booleans(),
)
def test_mul_matches_exact_schoolbook(n, m, fill, seed, square):
    rng = random.Random(seed)
    ring = zmod(m)
    a = TruncatedSeries(ring, coefficients(rng, n, m, fill))
    b = a if square else TruncatedSeries(ring, coefficients(rng, n, m, fill))
    assert a * b == exact_product(a, b, m)


@KERNEL_SETTINGS
@given(
    la=st.sampled_from(LENGTHS),
    lb=st.sampled_from(LENGTHS),
    offsets=st.tuples(st.integers(0, 3), st.integers(0, 3)),
    m=st.sampled_from([7, 13, 65521]),
    seed=st.integers(0, 2**32 - 1),
)
def test_mul_of_unequal_lengths_and_offsets_matches_exact(la, lb, offsets, m, seed):
    rng = random.Random(seed)
    ring = zmod(m)
    a = TruncatedSeries(ring, coefficients(rng, la, m, "random"), offsets[0], offsets[0] + la)
    b = TruncatedSeries(ring, coefficients(rng, lb, m, "random"), offsets[1], offsets[1] + lb)
    assert a * b == exact_product(a, b, m)


@KERNEL_SETTINGS
@given(
    la=st.integers(384, 900),
    lb=st.integers(384, 900),
    rl=st.integers(384, 2000),
    m=st.sampled_from([2, 7, 12, 97]),
    seed=st.integers(0, 2**32 - 1),
)
def test_fft_kernel_on_unequal_blocks_matches_schoolbook(la, lb, rl, m, seed):
    # Newton passes operands of different lengths, and result lengths
    # beyond la + lb - 1, straight to the kernel
    rng = random.Random(seed)
    a = [rng.randrange(m) for _ in range(la)]
    b = [rng.randrange(m) for _ in range(lb)]
    aa, bb = np.array(a, dtype=np.int64), np.array(b, dtype=np.int64)
    assert series._mul_path(aa[:rl], bb[:rl], rl, m) == "fft"
    expected = [c % m for c in nested_loop_product(a, b, rl)]
    assert series._mul_mod(aa, bb, rl, m).tolist() == expected


# +-1 take the kernel's add and subtract rows; the rest scale a row
KERNEL_VALUES = st.sampled_from([1, -1]) | st.integers(-(2**210), 2**210) | st.integers(-3, 3)


@st.composite
def kernel_operands(draw):
    """Coefficient lists of 0 to 40 terms: all zero, sparse (at most 4 nonzero) or dense."""
    n = draw(st.integers(0, 40))
    fill = draw(st.sampled_from(["zero", "sparse", "dense"]))
    if fill == "dense":
        return draw(st.lists(KERNEL_VALUES, min_size=n, max_size=n))
    coeffs = [0] * n
    if fill == "sparse" and n:
        for i in draw(st.lists(st.integers(0, n - 1), max_size=4)):
            coeffs[i] = draw(KERNEL_VALUES)
    return coeffs


@settings(max_examples=200, deadline=None, derandomize=True)
@given(a=kernel_operands(), b=kernel_operands(), extra=st.integers(-45, 4))
@example(a=[0] * 5, b=[3, -1, 2], extra=0)  # an all-zero operand
@example(a=[2**200 + 1, 0, -(2**201)], b=[-1, 1, 0, 5, 2**205], extra=2)
@example(a=[1, 2, 3], b=[4, 5], extra=-4)  # rl = 0
def test_schoolbook_matches_the_nested_loop(a, b, extra):
    """The row kernel on unequal sparse and dense operands, rl = la + lb - 1 + extra, at least 0.

    rl runs from 0 to below la + lb - 1, where terms are cut, and past it,
    where the product's top terms are zero.
    """
    rl = max(len(a) + len(b) - 1 + extra, 0)
    expected = nested_loop_product(a, b, rl)
    assert series._schoolbook(a, b, rl).tolist() == expected
    assert series._schoolbook(b, a, rl).tolist() == expected
    za = TruncatedSeries(ZZ, a, 0, rl)
    zb = TruncatedSeries(ZZ, b, 0, rl)
    assert (za * zb).coefficients() == expected


def closed_form_case(name, k, n, seed):
    """The closed form's terms in q^k below n, the same terms as a dense list, and n random ZZ values."""
    e, c = qfunctions._terms(name, k, n)
    dense = [0] * n
    for t, ct in zip(e.tolist(), c.tolist()):
        dense[t] = ct
    rng = random.Random(f"{name}:{k}:{n}:{seed}")
    b = [rng.randrange(-(10**30), 10**30) for _ in range(n)]
    return e, c, dense, b


@pytest.mark.parametrize("k", [1, 2, 4])
@pytest.mark.parametrize("name", list(qfunctions._CLOSED_FORMS))
def test_term_product_multiplies_every_closed_form_as_the_nested_loop(name, k):
    """rl below, at and above the product's length, the top term of the entry's terms plus len(b)."""
    for n in (1, 9, 60):
        e, c, dense, b = closed_form_case(name, k, n, 0)
        top = int(e[-1]) + n  # the product's length
        for rl in (0, 1, top // 2, top - 1, top, top + 7):
            expected = nested_loop_product(dense, b, rl)
            assert series._term_product(e, c, np.array(b, dtype=object), rl).tolist() == expected
            m = 2**64 + 13
            got = series._term_product(e, c, np.array(b, dtype=object), rl, m)
            assert got.tolist() == [x % m for x in expected]


@pytest.mark.parametrize("k", [1, 2, 4])
@pytest.mark.parametrize("name", list(qfunctions._CLOSED_FORMS))
def test_term_product_reads_every_closed_form_as_the_nested_loop(name, k):
    """Reads at unsorted exponent lists with repeats, 0 and order - 1, through their distinct values."""
    order = 80
    e, c, dense, b = closed_form_case(name, k, order, 1)
    full = nested_loop_product(dense, b, order)
    rng = random.Random(f"{name}:{k}")
    for at in (
        [order - 1, 0, 17, 17, 1, 0, order - 1, 5],
        [0],
        [order - 1],
        rng.choices(range(order), k=30),
        list(range(order - 1, -1, -3)),
    ):
        want, back = np.unique(np.array(at, dtype=np.int64), return_inverse=True)
        got = series._term_product(e, c, np.array(b, dtype=object), order, at=want)
        assert got[back].tolist() == [full[x] for x in at]
        m = 2**64 + 13
        got = series._term_product(e, c, np.array(b, dtype=object), order, m, want)
        assert got[back].tolist() == [full[x] % m for x in at]


@settings(max_examples=40, deadline=None, derandomize=True)
@given(
    m=st.sampled_from([2**61 - 1, 2**63]),
    la=st.integers(1, 60),
    lb=st.integers(1, 60),
    extra=st.integers(-30, 4),
    fill=st.sampled_from(["max", "random", "sparse"]),
    square=st.booleans(),
    seed=st.integers(0, 2**32 - 1),
)
def test_mul_mod_schoolbook_path_matches_the_nested_loop(m, la, lb, extra, fill, square, seed):
    """The int64 fallback: residues up to m - 1 < 2^63, far outside the int64 guard."""
    rng = random.Random(seed)

    def residues(n):
        if fill == "sparse":
            return [rng.randrange(m) if rng.random() < 0.2 else 0 for _ in range(n)]
        return coefficients(rng, n, m, fill)

    a = residues(la)
    b = a if square else residues(lb)
    rl = max(len(a) + len(b) - 1 + extra, 1)
    aa = np.array(a, dtype=np.int64)
    bb = aa if square else np.array(b, dtype=np.int64)
    assert series._mul_path(aa[:rl], bb[:rl], rl, m) == "schoolbook"
    out = series._mul_mod(aa, bb, rl, m)
    assert out.dtype == np.int64
    assert out.tolist() == [c % m for c in nested_loop_product(a, b, rl)]


@pytest.mark.parametrize("n", [384, 400, 512, 513])
def test_fft_bound_threshold_both_sides_exact(n):
    inside = largest_inside(n, fft_accepts_max(n))
    assert inside > 2000  # the small moduli the paper uses are far inside
    for m, expected in ((inside, "fft"), (inside + 1, "convolve")):
        a = TruncatedSeries(zmod(m), [m // 2] * n)
        b = TruncatedSeries(zmod(m), [m // 2] * n)  # equal norms, not a square
        assert path_of(a.coeffs, a.coeffs, m) == expected
        with mock.patch.object(series, "_fft_mul", wraps=series._fft_mul) as spy:
            assert a * a == exact_product(a, a, m)
            assert a * b == exact_product(a, b, m)
        assert spy.called == (expected == "fft")


@pytest.mark.parametrize("n", [256, 257])
def test_int64_guard_threshold_both_sides_exact(n):
    inside = largest_inside(n, lambda m: n * (m - 1) ** 2 < 2**62)
    for m, expected in ((inside, "convolve"), (inside + 1, "schoolbook")):
        a = TruncatedSeries(zmod(m), [m - 1] * n)
        assert path_of(a.coeffs, a.coeffs, m) == expected
        assert a * a == exact_product(a, a, m)


def test_a_square_transforms_each_block_once():
    rng = random.Random(5)
    a = TruncatedSeries(zmod(7), [rng.randrange(7) for _ in range(1000)])
    b = TruncatedSeries(zmod(7), [rng.randrange(7) for _ in range(1000)])
    with mock.patch.object(np.fft, "rfft", wraps=np.fft.rfft) as spy:
        square = a * a
        assert spy.call_count == 2  # its two half-length blocks
        a * b
        assert spy.call_count == 2 + 4
    assert square == a.pow(2) == exact_product(a, a, 7)


def test_a_short_mod_m_product_runs_mul_mod_once():
    a = TruncatedSeries(zmod(7), [1, 2, 3])
    b = TruncatedSeries(zmod(7), [4, 5, 6])
    with mock.patch.object(series, "_mul_mod", wraps=series._mul_mod) as spy, \
            mock.patch.object(series, "_schoolbook", wraps=series._schoolbook) as loop:
        product = a * b
    assert spy.call_count == 1 and not loop.called
    assert product == exact_product(a, b, 7)


def test_operands_are_cut_to_the_result_length_before_transforming():
    long = TruncatedSeries(zmod(7), [3] * 4000)
    short = TruncatedSeries(zmod(7), [5] * 900)
    with mock.patch.object(series, "_fft_mul", wraps=series._fft_mul) as spy:
        product = long * short
        direct = series._mul_mod(
            np.array(long.coeffs, dtype=np.int64), np.array(short.coeffs, dtype=np.int64), 450, 7
        )
    assert [(len(a), len(b), rl) for (a, b, rl, m), _ in spy.call_args_list] == [
        (900, 900, 900),
        (450, 450, 450),
    ]
    assert product == exact_product(long, short, 7)
    assert direct.tolist() == product.coefficients(450)


# -- inverse ----------------------------------------------------------------


def recurrence_inverse(s):
    return one(s.ring, s.order).divide(s)


@KERNEL_SETTINGS
@given(
    m=st.sampled_from([5, 7, 12, 65521]),
    n=st.sampled_from([1, 2, 3, 255, 256, 257, 300, 511, 512, 513]),
    fill=st.sampled_from(["euler", "max", "half", "random"]),
    seed=st.integers(0, 2**32 - 1),
)
def test_newton_inverse_matches_recurrence(m, n, fill, seed):
    rng = random.Random(seed)
    ring = zmod(m)
    if fill == "euler":
        s = euler_product(rng.randrange(1, 4), n, ring)
    else:
        coeffs = coefficients(rng, n, m, fill)
        coeffs[0] = rng.choice([u for u in range(1, min(m, 50)) if ring.is_unit(u)])
        s = TruncatedSeries(ring, coeffs)
    inv0 = ring.invert(s.coefficient(0))
    expected = recurrence_inverse(s)
    if series._newton_exact(n, m):  # mod 65521 the gate refuses 513 terms
        newton = series._inverse_newton(np.array(s.coeffs, dtype=np.int64), n, m, inv0)
        assert newton.tolist() == list(expected.coeffs)
    assert s.inverse() == expected


@pytest.mark.parametrize("n", [2, 64, 255])
def test_inverse_takes_newton_at_short_orders(n):
    rng = random.Random(n)
    ring = zmod(7)
    dense = TruncatedSeries(ring, [3] + [rng.randrange(7) for _ in range(n - 1)])
    for s in (euler_product(1, n, ring), dense):
        with mock.patch.object(
            series, "_inverse_newton", wraps=series._inverse_newton
        ) as spy:
            inv = s.inverse()
        assert spy.call_count == 1
        assert inv == recurrence_inverse(s)


@pytest.mark.parametrize("m,newton", [(5, True), (7, True), (12, True), (65521, False)])
def test_inverse_takes_newton_for_long_series_while_the_bound_allows(m, newton):
    s = euler_product(1, 4000, zmod(m))
    with mock.patch.object(
        series, "_inverse_newton", wraps=series._inverse_newton
    ) as spy:
        inv = s.inverse()
    assert spy.called == newton
    assert inv == recurrence_inverse(s)
    assert (s * inv).coefficients() == [1] + [0] * 3999


MIDDLE_ORDERS = [383, 384, 385, 767, 768, 769, 1000, 4001]


@lru_cache(maxsize=None)
def middle_case(m, fill):
    """A series of 4001 terms mod m and its inverse by the recurrence.

    The inverse to order n is the first n terms of this one, so each
    order below takes a cut of both.
    """
    ring = zmod(m)
    if fill == "euler":
        s = euler_product(1, 4001, ring)
    else:
        rng = random.Random(m)
        s = TruncatedSeries(ring, [3] + [rng.randrange(m) for _ in range(4000)])
    return s, recurrence_inverse(s)


def newton_of(s):
    inv0 = s.ring.invert(s.coefficient(0))
    return series._inverse_newton(s.coeffs, s.order, s.ring.modulus, inv0)


@pytest.mark.parametrize("fill", ["euler", "dense"])
@pytest.mark.parametrize("m", [7, 65521])
def test_newton_by_middle_product_matches_recurrence(m, fill):
    """Orders on both sides of _FFT_MIN_LEN and of the doublings past it.

    Mod 7 the gate admits every order and the middle product runs from
    k = 512.  Mod 65521 it admits only the orders up to 512, whose products
    are all _mul_mod's, and refuses the rest.
    """
    s, inverse = middle_case(m, fill)
    for n in MIDDLE_ORDERS:
        admitted = series._newton_exact(n, m)
        assert admitted == (m == 7 or n <= 512)
        if admitted:
            assert newton_of(s.truncate(n)).tolist() == inverse.truncate(n).coeffs.tolist()


def test_newton_runs_the_middle_product_once_k_reaches_fft_min_len():
    s, inverse = middle_case(7, "euler")
    with mock.patch.object(
        series, "_spectral_product", wraps=series._spectral_product
    ) as cyclic, mock.patch.object(series, "_mul_mod", wraps=series._mul_mod) as mul, \
            mock.patch.object(series, "_fft_exact", wraps=series._fft_exact) as gate, \
            mock.patch.object(series, "_norm2", wraps=series._norm2) as norm:
        newton = newton_of(s)
    # the caller asked the one gate: no doubling asks it again or falls back
    assert not gate.called and not norm.called
    # k = 1, 2, .., 256 take _mul_mod twice; k = 512, 1024, 2048 two cyclic
    # products each at L = _fft_length(k2): e (k2 terms kept) and g e (k2 - k)
    expected = []
    for k in (512, 1024, 2048):
        k2 = min(2 * k, s.order)
        expected += [(_fft_length(k2), k2), (_fft_length(k2), k2 - k)]
    assert [c.args[2:] for c in cyclic.call_args_list] == expected
    assert mul.call_count == 2 * 9
    assert all(len(c.args[1]) < series._FFT_MIN_LEN for c in mul.call_args_list)
    assert newton.tolist() == inverse.coeffs.tolist()


def test_a_closed_gate_sends_every_product_to_the_fallback():
    s, inverse = middle_case(7, "dense")
    a = s.truncate(1000)
    with mock.patch.object(series, "_fft_exact", return_value=False), \
            mock.patch.object(np.fft, "irfft", wraps=np.fft.irfft) as transform, \
            mock.patch.object(series, "_mul_mod", wraps=series._mul_mod) as mul, \
            mock.patch.object(
                series, "_inverse_newton", wraps=series._inverse_newton
            ) as newton_spy:
        product = a * a
        assert mul.call_count == 1
        assert s.inverse() == inverse  # the division, not Newton
        assert mul.call_count == 1
    assert not transform.called
    assert not newton_spy.called
    assert product == exact_product(a, a, 7)


def test_inverse_takes_newton_exactly_where_the_gate_admits_dense_operands():
    """At order 1125 Newton's spectral doublings go from 512 to 1024 terms
    at length 1024, and from 1024 to 1125 at 1125, a smooth number.

    Each is checked at dense operands of k2 and k terms whose balanced
    digits all have size m // 2; the threshold is the largest m both pass.
    """
    n = 1125
    doublings = [(512, 1024), (1024, 1125)]
    assert [(k, k2) for k, k2 in series._doublings(n) if k >= series._FFT_MIN_LEN] == doublings

    def accept(m):
        d2 = (m // 2) ** 2
        return all(series._fft_exact(k2 * d2, k * d2, _fft_length(k2)) for k, k2 in doublings)

    inside = largest_inside(n, accept)
    for m, newton in ((inside, True), (inside + 1, False)):
        assert series._newton_exact(n, m) == newton
        rng = random.Random(m)
        ring = zmod(m)
        dense = TruncatedSeries(ring, [1] + [rng.randrange(m) for _ in range(n - 1)])
        for s in (euler_product(1, n, ring), dense):
            with mock.patch.object(
                series, "_inverse_newton", wraps=series._inverse_newton
            ) as spy:
                inv = s.inverse()
            assert spy.called == newton
            assert inv == recurrence_inverse(s)


def test_the_gate_refuses_an_order_whose_earlier_doubling_fails():
    """At order 2099521 the doubling to 2^21 terms (length 2^21) reads 1.0028
    times the bound of the final length's check alone (dense operands of
    2099521 terms at 2109375, a smooth number).

    With whole digits no modulus falls between the two: d^2 would have to lie
    in (1100.67, 1103.71].  So the error budget is narrowed to put m = 67, of
    digit 33, in that band: the final-length check passes, the earlier
    doubling fails, and the gate refuses Newton.
    """
    n, m = 2099521, 67
    assert _fft_length(n) == 2109375
    d2 = (m // 2) ** 2
    final = series._fft_error_bound(n * d2, n * d2, _fft_length(n))
    earlier = series._fft_error_bound(2**21 * d2, 2**20 * d2, 2**21)
    assert 1.002 < earlier / final < 1.004
    assert (2**20, 2**21) in list(series._doublings(n))
    rng = np.random.default_rng(m)
    coeffs = rng.integers(0, m, n)
    coeffs[0] = 3
    s = TruncatedSeries(zmod(m), coeffs)
    with mock.patch.object(series, "_FFT_MAX_ERROR", (final + earlier) / 2):
        assert series._fft_exact(n * d2, n * d2, _fft_length(n))
        assert not series._fft_exact(2**21 * d2, 2**20 * d2, 2**21)
        assert not series._newton_exact(n, m)
        with mock.patch.object(series, "_inverse_newton") as newton, \
                mock.patch.object(TruncatedSeries, "divide") as divide:
            s.inverse()
    assert divide.called and not newton.called


def dense_unit_series(m, n):
    """n random residues mod m behind the unit 3."""
    coeffs = np.random.default_rng(m).integers(0, m, n)
    coeffs[0] = 3
    return TruncatedSeries(zmod(m), coeffs)


def gate_threshold(m):
    """An order t that the gate admits mod m while it refuses t + 1, by bisection."""
    lo, hi = 1, 2**26
    assert series._newton_exact(lo, m) and not series._newton_exact(hi, m)
    while hi - lo > 1:
        mid = (lo + hi) // 2
        lo, hi = (mid, hi) if series._newton_exact(mid, m) else (lo, mid)
    return lo


@pytest.mark.parametrize("m", [11, 13, 101, 125, 65521])
def test_newton_agrees_with_divide_on_both_sides_of_the_gate(m):
    """Random dense residues behind f_0 = 3, at the gate's threshold t and t + 1.

    At t, inverse() is Newton: it agrees with the division on its first
    2048 terms, and f g = 1 to t terms by the exact product.  At t + 1 it
    is the division; that is run where it is short (mod 65521, t = 512,
    where it must agree with Newton's t terms) and only spied on at 10^6
    terms.  Mod 11 and 13 the threshold lies above the 10^7 ceiling of
    int64 orders, so every order there takes Newton; both are checked
    at 4097 terms instead.
    """
    t = gate_threshold(m)
    if t >= qfunctions._MAX_ORDER_MOD:
        assert m in (11, 13)
        s = dense_unit_series(m, 4097)
        assert s.inverse() == recurrence_inverse(s)
        return
    assert m in (101, 125, 65521) and 512 <= t <= 2 * 10**6
    s = dense_unit_series(m, t + 1)
    head = s.truncate(t)
    with mock.patch.object(series, "_inverse_newton", wraps=series._inverse_newton) as spy:
        newton = head.inverse()
    assert spy.called
    cut = min(t, 2048)
    assert newton.truncate(cut) == recurrence_inverse(head.truncate(cut))
    assert np.array_equal((head * newton).coeffs, one(zmod(m), t).coeffs)
    if t + 1 <= 4096:
        with mock.patch.object(series, "_inverse_newton", wraps=series._inverse_newton) as spy:
            divided = s.inverse()
        assert not spy.called
        assert divided.truncate(t) == newton
    else:
        with mock.patch.object(series, "_inverse_newton") as spy, \
                mock.patch.object(TruncatedSeries, "divide") as divide:
            s.inverse()
        assert divide.called and not spy.called


@pytest.mark.parametrize("m", [2**63 - 25, 2**63])
def test_exact_inverses_at_the_largest_int64_moduli(m):
    """Up to 512 terms Newton runs with _mul_mod's Python-int products and
    the reduction mod 2^63 keeps the low 63 bits; above, the gate's digit
    m - 1 refuses it, and the inverse is the division."""
    ring = zmod(m)
    rng = random.Random(m)
    f = [3] + [rng.randrange(m) for _ in range(599)]
    for n, newton in ((300, True), (512, True), (513, False), (600, False)):
        assert series._newton_exact(n, m) == newton
        s = TruncatedSeries(ring, f[:n])
        with mock.patch.object(series, "_inverse_newton", wraps=series._inverse_newton) as spy:
            inv = s.inverse()
        assert spy.called == newton
        assert inv.coeffs.dtype == np.int64
        assert inv.coefficients() == nested_loop_quotient([1] + [0] * (n - 1), f[:n], ring)


@pytest.mark.parametrize("order", [10, 300])
def test_non_unit_constant_term_is_rejected(order):
    for ring, a0 in ((zmod(12), 2), (zmod(12), 3), (zmod(7), 0), (ZZ, 2)):
        s = TruncatedSeries(ring, [a0] + [1] * (order - 1))
        with pytest.raises(ValueError, match="not a unit"):
            s.inverse()


# -- blocked division ---------------------------------------------------------

B = series._DIVIDE_BLOCK


def nested_loop_quotient(g, f, ring):
    """Reference: g / f by out_n = f0^-1 (g_n - sum_{i=1..n} f_i out_{n-i}), a plain double loop."""
    inv0 = ring.invert(f[0])
    out = []
    for n in range(min(len(g), len(f))):
        s = g[n] - sum(f[i] * out[n - i] for i in range(1, n + 1))
        out.append(ring.normalize(inv0 * s))
    return out


def divisor(rng, ring, order, kind):
    """A unit-constant divisor whose repeated values reach past the first block.

    "euler" and "phi" are f_1 and phi(-q), whose +-1 and +-2 repeat;
    "mixed" has a few values, each at many random i up to the order, next
    to distinct values that occur once, and a unit f_0 other than 1 where
    the ring has one.
    """
    if kind == "euler":
        return euler_product(1, order, ring).coefficients()
    if kind == "phi":
        return qfunctions._closed_form("phi(-q)", 1, order, ring).coefficients()
    m = ring.modulus
    f = [0] * order
    f[0] = -1 if m is None else next(u for u in (3, 5, 2) if ring.is_unit(u))
    for i in rng.sample(range(1, order), min(order - 1, 40)):
        f[i] = rng.choice([1, -1, 5])
    for i in rng.sample(range(1, order), min(order - 1, 6)):
        f[i] = rng.randrange(10**6, 10**30)  # distinct: single terms
    return [ring.normalize(c) for c in f]


@pytest.mark.parametrize("order", [B - 1, B, B + 1, 2 * B + 1])
@pytest.mark.parametrize("m", [None, 65521, 2**64 + 13])
@pytest.mark.parametrize("kind", ["euler", "phi", "mixed"])
def test_blocked_divide_matches_the_nested_loop_recurrence(order, m, kind):
    ring = ZZ if m is None else zmod(m)
    rng = random.Random(f"{order}:{m}:{kind}")
    f = divisor(rng, ring, order, kind)
    g = [ring.normalize(rng.randrange(-(10**40), 10**40)) for _ in range(order + 3)]
    expected = nested_loop_quotient(g, f, ring)
    got = TruncatedSeries(ring, g).divide(TruncatedSeries(ring, f))
    assert got.coefficients() == expected
    # 1 / f: mod 65521 the Newton gate refuses 513 terms, so inverse is this division
    got = TruncatedSeries(ring, f).inverse()
    assert got.coefficients() == nested_loop_quotient([1] + [0] * (order - 1), f, ring)


def nonzero_terms(f):
    """The exponents from 1 on and coefficients of f's nonzero terms, as the division takes them."""
    e = [i for i in range(1, len(f)) if f[i]]
    return np.array(e, dtype=np.int64), np.array([f[i] for i in e], dtype=object)


@pytest.mark.parametrize("order", [B - 1, B, B + 1, 2 * B + 1])
@pytest.mark.parametrize("m", [None, 65521, 2**64 + 13])
@pytest.mark.parametrize("kind", ["euler", "phi", "mixed"])
def test_term_array_division_matches_the_nested_loop_recurrence(order, m, kind):
    """The blocked divide's cases on the term arrays directly; "mixed" has a unit f_0 other than 1."""
    ring = ZZ if m is None else zmod(m)
    rng = random.Random(f"terms:{order}:{m}:{kind}")
    f = divisor(rng, ring, order, kind)
    g = [ring.normalize(rng.randrange(-(10**40), 10**40)) for _ in range(order)]
    e, c = nonzero_terms(f)
    inv0 = ring.invert(f[0])
    assert series._divide_terms(g, e, c, inv0, m) == nested_loop_quotient(g, f, ring)


@pytest.mark.parametrize("k", [1, 2, 4])
@pytest.mark.parametrize("name", list(qfunctions._CLOSED_FORMS))
def test_term_array_division_by_every_closed_form_matches_the_nested_loop(name, k):
    """Division by the entry's own terms past its constant 1, as a sparse step takes them, at 2B + 1."""
    order = 2 * B + 1
    e, c, dense, g = closed_form_case(name, k, order, 2)
    for m in (None, 2**64 + 13):
        ring = ZZ if m is None else zmod(m)
        expected = nested_loop_quotient([ring.normalize(x) for x in g], dense, ring)
        assert series._divide_terms(g, e[1:], c[1:], 1, m) == expected


def test_divide_leaves_only_single_and_near_terms_to_the_recurrence():
    """Euler's f_1 at 2B + 1: its +-1 terms from B on come off as rows, one
    object-array multiply per value and block, and f^3's distinct values none."""
    order = 2 * B + 1
    f1 = euler_product(1, order, ZZ)
    f3 = qfunctions.jacobi_cube(1, order, ZZ)
    with mock.patch.object(np, "zeros", wraps=np.zeros) as zeros:
        f3_inverse = one(ZZ, order).divide(f3)
    rows_of_f3 = [c for c in zeros.call_args_list if c.kwargs.get("dtype") is object]
    assert len(rows_of_f3) == 1  # the finished outputs' array, no row
    with mock.patch.object(np, "zeros", wraps=np.zeros) as zeros:
        f1_inverse = one(ZZ, order).divide(f1)
    rows_of_f1 = [c for c in zeros.call_args_list if c.kwargs.get("dtype") is object]
    assert len(rows_of_f1) == 1 + 2 * 2  # two values, in the second and third block
    assert f1_inverse.coefficients() == nested_loop_quotient([1] + [0] * (order - 1), f1.coefficients(), ZZ)
    assert f3_inverse.coefficients() == nested_loop_quotient([1] + [0] * (order - 1), f3.coefficients(), ZZ)


# -- int64 reduction ------------------------------------------------------------


@pytest.mark.parametrize("m", [2, 7, 2**31 - 1, 2**62 + 1])
def test_reduce_by_floor_division_is_exact_at_the_int64_extremes(m):
    low, high = np.iinfo(np.int64).min, np.iinfo(np.int64).max
    extremes = [low, low + 1, -1, 0, 1, m - 1, m, -m, high - 1, high]
    a = np.array(extremes, dtype=np.int64)
    out = series._reduce(a, m)
    assert out.dtype == np.int64
    assert out.tolist() == [v % m for v in extremes]
    assert a.tolist() == extremes  # a new array; the input is kept
    assert series._residues(a, m).tolist() == [v % m for v in extremes]


def test_reduce_mod_2_63_keeps_the_low_63_bits():
    """No int64 holds 2^63, so that modulus takes the low 63 bits, for Newton's -g e too."""
    low, high = np.iinfo(np.int64).min, np.iinfo(np.int64).max
    extremes = [low, low + 1, -(2**62), -1, 0, 1, 2**62, high - 1, high]
    a = np.array(extremes, dtype=np.int64)
    out = series._reduce(a, 2**63)
    assert out.dtype == np.int64
    assert out.tolist() == [v % 2**63 for v in extremes]
    assert a.tolist() == extremes


# -- balanced digits ------------------------------------------------------------


@pytest.mark.parametrize(
    "m", [2, 3, 7, 12, 65521, 2**53 + 1, 2**61 - 1, 2**62 - 1, 2**62, 2**63 - 25, 2**63]
)
def test_digits_are_the_balanced_residues_rounded_once(m):
    """Below 2^62 a residue above m // 2 becomes r - m, formed in int64: -1 stays
    -1 at m = 2^61 - 1, where float64 cannot tell m - 1 from m.  From 2^62 on
    the residues are kept."""
    residues = sorted(r for r in {0, 1, m // 2 - 1, m // 2, m // 2 + 1, m - 2, m - 1} if 0 <= r < m)
    digits = series._digits(np.array(residues, dtype=np.int64), m)
    expected = [r - m if m < 2**62 and r > m // 2 else r for r in residues]
    assert digits.dtype == np.float64
    assert digits.tolist() == [float(x) for x in expected]
    assert max(abs(x) for x in expected) <= (m // 2 if m < 2**62 else m - 1)
