"""Exact truncated formal power series over ZZ and ZZ/mZZ.

A TruncatedSeries is a ring and one coefficient array: ``coeffs[n]`` is
the coefficient of q^n from q^0 on, and the order is the array's length.
Exponents at or above the order are *unknown* (not zero).  All values are
immutable after construction and every operation is a pure function of
its inputs, so series may be shared freely between threads.

Coefficients over the exact-integer ring are arbitrary-precision Python
ints.  Over a mod-m ring they are reduced representatives in [0, m-1].
``coeffs`` is always one read-only ndarray, and one predicate,
``_int64_storage``, chooses its dtype: over ZZ/m with m <= 2^63 every
residue fits an int64 and the array holds int64 residues; over ZZ, and
for larger moduli, it holds Python ints with dtype object.  The
constructor reduces its input once, in one vectorised pass where the
values fit an int64.  The arrays that the numpy kernels behind ``mul``,
``inverse`` and ``pow`` return are wrapped as they come, never converted
to Python ints and never reduced again, and ``truncate`` and
``extract_progression`` share their input's array as a view; ``shift``,
a product with q^k, copies it behind k zeros.  ``coefficient``,
``coefficients`` and the arithmetic that could leave int64 (``__add__``,
``__neg__``, ``scale``, ``divide``) work on Python ints, so no int64
overflow can hide in them.

Products and quotients on Python ints run over term arrays (e, c): the
rising exponents and nonzero coefficients of a sparse factor, as
``qfunctions._terms`` gives a closed form's.  The row kernel
``_term_product`` adds c_j times one shifted copy of the other operand
per term, as one object-array add with no interpreted inner loop, so a
product costs O(length len(e)) additions; given distinct rising
exponents, it reads the product there alone, one gather per term.
``_schoolbook`` is the kernel over the nonzero terms of the sparser
operand.  One kernel, ``_divide_terms``, takes the exact quotient g / f,
f = f_0 + sum_j c_j q^{e_j} with f_0 a unit (``divide`` passes f's
nonzero terms), and the power a = f^r from 1, r any integer, f_0 = 1.
With S_n = sum_j c_j a_{n-e_j} the quotient is a_n = f_0^{-1} (g_n - S_n).
The power is J. C. P. Miller's recurrence (Knuth, TAOCP vol. 2, 4.7),
n a_n = sum_j ((r + 1) e_j - n) c_j a_{n-e_j}; by e_j = n - (n - e_j) it is
a_n = r S_n - (r + 1) S'_n / n, S'_n = sum_j c_j b_{n-e_j}, b_m = m a_m, so
both sums run over f's own coefficients.  The division by n is exact over
ZZ and a product by n's inverse mod m; when m has a factor below the
length, some n has none, and the power runs over ZZ and is reduced.  r = -1 is the
quotient of 1, by S alone.  The sums run in blocks of _DIVIDE_BLOCK
exponents.  A value that occurs more than once among the c_j (Euler's
+-1, phi(-q)'s +-2) reads every finished block as object-array rows,
summed per value, and each sum multiplies once per block; its reads
within the block are summed per value before one multiplication.  A
value that occurs once (Jacobi's f^3) stays in the recurrence at every
distance: as a row it would still cost one product per output.

Every product of int64-storage series is ``_mul_mod``: both operands are
first cut to the result length, then the first of these paths whose
guard holds computes the product:

1. ``fft``.  Let n be the number of product terms needed and h =
   ceil(n / 2), and split a = a0 + q^h a1, b = b0 + q^h b1 into blocks of
   at most h terms.  The first n terms of a b are those of
   a0 b0 + q^h (a1 b0 + a0 b1).  Each of these three block products is a
   float64 real-FFT cyclic convolution (``numpy.fft.rfft`` and ``irfft``)
   of length L, the least 2^a 3^b 5^c >= 2h, so no term wraps round; each
   is rounded to the nearest integer, and their sum is reduced mod m.
   Half-length blocks halve L and the spectra held at once.  Every
   operand enters its transform as balanced digits (``_digits``): each
   residue above m // 2 is taken less m, so every digit lies in
   [-(m // 2), m // 2] and a dense operand's squared norm is about a
   quarter of that of its residues.  Results are still reduced into
   [0, m).  Moduli m >= 2^62 keep their residues as they are: no fft
   gate passes there either way.  The path runs only when the a-priori
   rounding bound (``_fft_error_bound``)

       |z' - z|_inf <= |x|_2 |y|_2 * S (1 + S),
       S = (2 + sqrt(L)) delta + mu + sqrt(L) u (1 + delta),

   taken at the l2 norms of the digits of a and b, which bound those of
   every block, is below 1/4, so rounding z' recovers each exact block
   product z.
   Here u = 2^-53, mu = 3u bounds a complex product (Higham, "Accuracy
   and Stability of Numerical Algorithms", Lemma 3.5) and delta bounds
   the relative l2 error of one transform.  The forward errors and the
   pointwise product enter through |X Y|_1 <= |X|_2 |Y|_2 = L |x|_2 |y|_2
   and the 1/L of the inverse (2 delta + mu); the inverse transform's own
   error is bounded in l2 (sqrt(L) delta); its 1/L scaling adds at most
   2u relative (sqrt(L) u).  The argument is that of
   Percival, "Rapid multiplication modulo the sum and difference of highly
   composite numbers", Math. Comp. 72 (2003), Thm 5.1, with a looser
   inverse-transform term.  Percival states it for radix-2 passes; the
   proof only needs each pass to be sqrt(r) times a unitary map (blocks of
   radix-r DFTs times unit twiddles) computed with relative l2 error at
   most eta_r.  A radix-r block output is a sum of r twiddled terms formed
   by at most 10 roundings, and its entrywise-absolute matrix has l2 norm
   at most 2r against the DFT's sqrt(r), so eta_r <= 2 sqrt(r) gamma_10
   < 32 sqrt(r) u.  The 2^a 3^b 5^c lengths need only radix-2, 3, 4 and 5
   passes; a radix-4 pass is covered by two radix-2 factors, since
   32 sqrt(4) u < (1 + 32 sqrt(2) u)^2 - 1.  Hence delta <= D (1 + D),
   D the sum of 32 sqrt(r) u over the prime factors r of L.
2. ``convolve``: an int64 ``numpy.convolve``, when the largest possible
   coefficient min(la, lb) (m-1)^2 is below 2^62.
3. ``schoolbook`` on Python ints otherwise, the row kernel above.

Every path gives bit-identical results.  One gate, ``_fft_exact``,
decides every float product: the bound above, at the product's own
operand norms and transform length L, is below 1/4.  It holds for a
cyclic product as it stands, wrap-around included.

Inversion of an int64-storage series is Newton iteration,
g <- g (2 - f g) (Brent and Kung, "Fast algorithms for manipulating
formal power series", J. ACM 25 (1978)), when one gate of the order and
m alone, ``_newton_exact``, admits it; otherwise it is the division
1 / f, the sparse recurrence above.  A doubling from k to 2k terms needs
only the terms k .. 2k - 1 of f g, since f g = 1 below q^k.  Below
_FFT_MIN_LEN its two products go to ``_mul_mod``, which is exact on
every path.  From there on g is transformed once at L = _fft_length(2k):
those terms are read off the cyclic product of f[:2k] and g (the middle
product of Hanrot, Quercia and Zimmermann, "The middle product algorithm
I", AAECC 14 (2004)), whose terms from L on wrap onto exponents below k,
and g e, fewer than L terms, reuses g's transform.  f, g and e enter
these transforms as balanced digits, and the products have no gate and
no fallback of their own: ``_newton_exact`` asks ``_fft_exact`` about
the worst case of every such doubling, dense operands of 2k and k terms
whose digits all have size m // 2, at L, and g e, of k and at most k
terms, is covered by it.  Moduli m >= 2^62 stay unbalanced, so there the
gate takes m - 1 as the digit and refuses every order with a doubling
from _FFT_MIN_LEN on, every order above 512: their inverse is the
division there.
"""

from __future__ import annotations

from functools import lru_cache
from math import gcd, sqrt
from typing import Iterable, NamedTuple, Optional

import numpy as np

__all__ = ["Ring", "ZZ", "zmod", "TruncatedSeries", "one", "zero"]

# The largest modulus whose residues, 0 .. m - 1, all fit an int64.
_INT64_MAX_MODULUS = 2**63

# Below this shorter-operand length np.convolve beats the transforms.
_FFT_MIN_LEN = 384
# The fft path runs only while its rounding bound stays below this.
_FFT_MAX_ERROR = 0.25

# ``_divide_terms`` runs its recurrence in blocks of this many exponents.
_DIVIDE_BLOCK = 256

_U = 2.0**-53  # unit roundoff of float64
_MU = 3 * _U  # relative error of one complex product, sqrt(2) gamma_2 < 3u


@lru_cache(maxsize=256)
def _fft_length(n: int) -> int:
    """The least 2^a 3^b 5^c >= n: transform length for n output terms."""
    best = 1 << max(n - 1, 0).bit_length()
    p5 = 1
    while p5 < best:
        p35 = p5
        while p35 < best:
            x = p35
            while x < n:
                x *= 2
            best = min(best, x)
            p35 *= 3
        p5 *= 5
    return best


def _fft_error_bound(norm2_a: float, norm2_b: float, length: int) -> float:
    """Bound on |z' - z|_inf for the float64 real-FFT convolution z' of a and b.

    norm2_a and norm2_b are the squared l2 norms of the operands and
    length is the transform length, a 2^a 3^b 5^c number.  The inequality
    and its sources are in the module docstring.
    """
    d = 0.0
    rest = length
    for r in (2, 3, 5):
        while rest % r == 0:
            rest //= r
            d += 32 * sqrt(r) * _U
    if rest != 1:
        raise ValueError(f"transform length {length} is not 2^a 3^b 5^c")
    delta = d * (1 + d)
    root = sqrt(length)
    s = (2 + root) * delta + _MU + root * _U * (1 + delta)
    # the factor 1 + 2^-20 covers the float64 rounding of the two norms
    return sqrt(norm2_a * norm2_b) * (1 + 2.0**-20) * s * (1 + s)


def _digits(a: np.ndarray, m: int) -> np.ndarray:
    """The residues a as float64 balanced digits, in [-(m // 2), m // 2].

    Every transform takes its operand through here: a residue above m // 2
    is taken less m within the float64 conversion that the transform would
    make anyway.  The difference is formed in int64 and then rounded, so a
    digit is exact whenever it is below 2^53; a larger one fails every fft
    gate.  Moduli m >= 2^62 are left in [0, m): no fft gate passes there.
    """
    x = a.astype(np.float64)
    if m < 2**62:
        np.subtract(a, m, out=x, where=a > m // 2)
    return x


def _norm2(a: np.ndarray, m: int) -> float:
    """Squared l2 norm of the balanced digits of a."""
    f = _digits(a, m)
    return float(np.dot(f, f))


def _fft_blocks(la: int, lb: int, rl: int) -> tuple[int, int]:
    """Block length h and transform length L of the fft path for rl terms."""
    h = (min(rl, la + lb - 1) + 1) // 2
    return h, _fft_length(2 * h)


def _fft_exact(norm2_a: float, norm2_b: float, length: int) -> bool:
    """Whether a float64 real-FFT cyclic product rounds to the exact one.

    The one gate of every float product: norm2_a and norm2_b are the
    squared l2 norms of the operands, length the transform length.
    """
    return _fft_error_bound(norm2_a, norm2_b, length) < _FFT_MAX_ERROR


def _mul_path(a: np.ndarray, b: np.ndarray, rl: int, m: int) -> str:
    """The first exact path for a * b mod m: 'fft', 'convolve' or 'schoolbook'."""
    n = min(len(a), len(b))
    if n >= _FFT_MIN_LEN:
        na = _norm2(a, m)
        nb = na if b is a else _norm2(b, m)
        if _fft_exact(na, nb, _fft_blocks(len(a), len(b), rl)[1]):
            return "fft"
    if n * (m - 1) ** 2 < 2**62:
        return "convolve"
    return "schoolbook"


def _spectral_product(fx: np.ndarray, fy: np.ndarray, length: int, n: int) -> np.ndarray:
    """First n terms of the product whose transforms are fx and fy, rounded.

    fx is overwritten; fx and fy may be one array, for a square.
    """
    fx *= fy
    z = np.fft.irfft(fx, length)[:n]
    np.rint(z, out=z)
    return z.astype(np.int64)


def _reduce(a: np.ndarray, m: int) -> np.ndarray:
    """a mod m, in [0, m), for an int64 array a and 2 <= m <= 2^63, as a new array.

    It is a - (a // m) m, formed in the one new array: numpy's floor
    division and two in-place passes run about twice as fast as its
    remainder on long arrays.  It is exact for every int64 a, INT64_MIN
    included: the product and the difference wrap modulo 2^64, and the
    true result lies in [0, m), so the wrapped one is it.  No int64 holds
    m = 2^63; a mod 2^63 is the low 63 bits of a.
    """
    if m == _INT64_MAX_MODULUS:
        return a & (_INT64_MAX_MODULUS - 1)
    q = a // m
    q *= m
    return np.subtract(a, q, out=q)


def _fft_mul(a: np.ndarray, b: np.ndarray, rl: int, m: int) -> np.ndarray:
    """First rl terms of a * b mod m by real FFT; the caller checked the bound.

    The three block products of the module docstring, each operand block
    transformed once.
    """
    h, length = _fft_blocks(len(a), len(b), rl)
    fa0 = np.fft.rfft(_digits(a[:h], m), length)
    fb0 = fa0 if b is a else np.fft.rfft(_digits(b[:h], m), length)
    top = np.zeros(min(h, rl - h), dtype=np.int64)
    if len(a) > h:
        top += _spectral_product(np.fft.rfft(_digits(a[h:], m), length), fb0, length, len(top))
    if b is a:
        top *= 2  # a1 b0 + a0 b1 = 2 a1 a0
    elif len(b) > h:
        top += _spectral_product(np.fft.rfft(_digits(b[h:], m), length), fa0, length, len(top))
    # the low block last, into the result itself: it overwrites fa0
    out = _spectral_product(fa0, fb0, length, min(2 * h, rl))
    out[h : 2 * h] += top
    if rl > len(out):  # the terms past len(a) + len(b) - 1 are zero
        out = np.concatenate((out, np.zeros(rl - len(out), dtype=np.int64)))
    return _reduce(out, m)


def _term_product(e, c, b: np.ndarray, rl: int, m: Optional[int] = None, at=None) -> np.ndarray:
    """First rl terms of sum_j c_j q^{e_j} times b, an object array, or with at its values there.

    The row kernel of the module docstring.  at is an int64 array of
    distinct rising exponents below len(b); rl is then unused.  The
    result is an object array, reduced mod m when m is given.
    """
    out = np.zeros(rl if at is None else len(at), dtype=object)
    starts = e if at is None else np.searchsorted(at, e)  # each term's first output
    for t, ct, lo in zip(e.tolist(), c.tolist(), starts.tolist()):
        if lo >= len(out):
            break
        row = b[: rl - t] if at is None else b[at[lo:] - t]
        dst = out[lo : lo + len(row)]
        if ct == 1:
            dst += row
        elif ct == -1:
            dst -= row
        else:
            dst += ct * row
    return out if m is None else out % m


def _schoolbook(a, b, rl: int, m: Optional[int] = None) -> np.ndarray:
    """First rl terms of a * b, integer sequences or arrays: the row kernel over the sparser one."""
    a = np.asarray(a, dtype=object)[:rl]
    b = np.asarray(b, dtype=object)[:rl]
    if np.count_nonzero(a) > np.count_nonzero(b):
        a, b = b, a
    e = np.flatnonzero(a)
    return _term_product(e, a[e], b, rl, m)


def _divide_terms(g, e, c, r: int, inv0: int, m: Optional[int] = None) -> list[int]:
    """g / f at r = -1, else f^r, f = f_0 + sum_j c_j q^{e_j}, e rising from 1, inv0 f_0 == 1 (mod m).

    The blocked recurrences of the module docstring.  g is the dividend, or
    an int n for the series 1 at n terms, as any r but -1 takes it, with
    f_0 = 1.  A list of Python ints, reduced mod m when m is given.
    """
    out = ([1] + [0] * (g - 1))[:g] if isinstance(g, int) else _ints(g)
    size, power = len(out), r != -1
    if power and m is not None and any(m % k == 0 for k in range(2, size)):  # some n has no n^-1
        return [v % m for v in _divide_terms(size, e, c, r, inv0)]
    cols = [out, [0] * size] if power else [out]  # a_n, and n a_n for the second sum
    outb = cols[-1]
    terms: dict[int, list[int]] = {}  # c_j -> the rising e_j holding it
    for i, v in zip(e.tolist(), c.tolist()):
        terms.setdefault(v, []).append(i)
    groups = [(v, idx) for v, idx in terms.items() if len(idx) > 1]
    singles = sorted((idx[0], v) for v, idx in terms.items() if len(idx) == 1)
    done = [np.zeros(size, dtype=object) for _ in cols]  # each column, block by block, for the rows
    for start in range(0, size, _DIVIDE_BLOCK):
        stop = min(start + _DIVIDE_BLOCK, size)
        for col, finished in zip(cols, done):
            far = None
            for v, idx in groups:
                if start == 0 or idx[0] >= stop:
                    continue
                acc = np.zeros(stop - start, dtype=object)
                for i in idx:
                    if i >= stop:
                        break
                    lo, hi = max(i, start), min(start + i, stop)  # the outputs whose n - i is finished
                    acc[lo - start : hi - start] += finished[lo - i : hi - i]
                acc *= v
                far = acc if far is None else far + acc
            if far is not None:
                col[start:stop] = (np.array(col[start:stop], dtype=object) - far).tolist()
        if not power:
            for n in range(start, stop):
                s, d = out[n], n - start
                for v, idx in groups:
                    t = 0
                    for i in idx:
                        if i > d:
                            break
                        t += out[n - i]
                    s -= v * t
                for i, v in singles:
                    if i > n:
                        break
                    s -= v * out[n - i]
                out[n] = inv0 * s if m is None else inv0 * s % m
        else:
            for n in range(max(start, 1), stop):
                s, sb, d = out[n], outb[n], n - start
                for v, idx in groups:
                    t = tb = 0
                    for i in idx:
                        if i > d:
                            break
                        t += out[n - i]
                        tb += outb[n - i]
                    s -= v * t
                    sb -= v * tb
                for i, v in singles:
                    if i > n:
                        break
                    s -= v * out[n - i]
                    sb -= v * outb[n - i]
                # a_n = r S_n - (r + 1) S'_n / n, with s = -S_n and sb = -S'_n
                a = (r + 1) * sb // n - r * s if m is None else ((r + 1) * sb * pow(n, -1, m) - r * s) % m
                out[n], outb[n] = a, n * a
        for col, finished in zip(cols, done):
            finished[start:stop] = col[start:stop]
    return out


def _mul_mod(a: np.ndarray, b: np.ndarray, rl: int, m: int) -> np.ndarray:
    """First rl terms of a * b mod m, as int64 in [0, m), by the first exact path.

    a and b are int64 arrays of residues; pass the same array twice for a
    square.  Both are cut to rl terms before any work.
    """
    square = b is a
    a = a[:rl]
    b = a if square else b[:rl]
    path = _mul_path(a, b, rl, m)
    if path == "fft":
        return _fft_mul(a, b, rl, m)
    if path == "convolve":
        return _reduce(np.convolve(a, b)[:rl], m)
    return _schoolbook(a, b, rl, m).astype(np.int64)


def _doublings(order: int):
    """Newton's steps to order terms: (k, k2), from k to k2 = min(2k, order), k = 1, 2, 4, ..."""
    k = 1
    while k < order:
        k2 = min(2 * k, order)
        yield k, k2
        k = k2


def _newton_exact(order: int, m: int) -> bool:
    """Whether ``_inverse_newton`` is exact to order terms mod m, for any f.

    The one gate of the int64 inverse: ``_fft_exact`` admits the worst
    case of every spectral doubling, dense operands of k2 and k terms
    whose digits all have size m // 2 (m - 1 for m >= 2^62, which
    ``_digits`` leaves unbalanced), at _fft_length(k2).  The other
    product of a doubling, g e, has k and k2 - k <= k terms at the same
    length, so it is admitted too.
    """
    d = m // 2 if m < 2**62 else m - 1
    return all(
        _fft_exact(k2 * d * d, k * d * d, _fft_length(k2))
        for k, k2 in _doublings(order)
        if k >= _FFT_MIN_LEN
    )


def _inverse_newton(f: np.ndarray, order: int, m: int, inv0: int) -> np.ndarray:
    """Inverse of f mod (q^order, m) by Newton iteration; f[0] * inv0 == 1 mod m.

    If g inverts f to precision k, then f g = 1 + q^k e and
    g - q^k g e inverts f to precision 2k (Brent and Kung 1978); the
    module docstring gives the products of each doubling.  The caller
    checks the one gate, ``_newton_exact(order, m)``: from
    k = _FFT_MIN_LEN on, every product is a cyclic one of balanced digits,
    each of size at most m // 2 (m - 1 for m >= 2^62, left unbalanced),
    with no gate and no fallback of its own.
    """
    out = np.empty(order, dtype=np.int64)
    out[0] = inv0 % m
    for k, k2 in _doublings(order):
        fk, g = f[:k2], out[:k]
        if k < _FFT_MIN_LEN:
            e = _mul_mod(fk, g, k2, m)[k:]
            ge = _mul_mod(g, e, k2 - k, m)
        else:
            length = _fft_length(k2)
            g_hat = np.fft.rfft(_digits(g, m), length)
            e = _reduce(
                _spectral_product(np.fft.rfft(_digits(fk, m), length), g_hat, length, k2)[k:], m
            )
            ge = _spectral_product(np.fft.rfft(_digits(e, m), length), g_hat, length, k2 - k)
        out[k:k2] = _reduce(-ge, m)
    return out


# Ring's field; a NamedTuple may not define __new__, so Ring
# subclasses this one to check it
class _Ring(NamedTuple):
    modulus: Optional[int]


class Ring(_Ring):
    """Coefficient ring: exact integers (modulus None) or integers mod m.

    The modulus, when present, must be >= 2.  Primality is not required;
    Sturm-certificate pipelines happen to use prime moduli but the ring
    does not care.
    """

    __slots__ = ()

    def __new__(cls, modulus: Optional[int] = None) -> "Ring":
        if modulus is not None and modulus < 2:
            raise ValueError(f"modulus must be >= 2, got {modulus}")
        return _Ring.__new__(cls, modulus)

    @property
    def is_exact(self) -> bool:
        return self.modulus is None

    def normalize(self, value: int) -> int:
        if self.modulus is None:
            return value
        return value % self.modulus

    def is_unit(self, value: int) -> bool:
        if self.modulus is None:
            return value in (1, -1)
        return gcd(value, self.modulus) == 1

    def invert(self, value: int) -> int:
        """Multiplicative inverse of a unit; ValueError on non-units."""
        if self.modulus is None:
            if value in (1, -1):
                return value
            raise ValueError(f"{value} is not a unit in the exact-integer ring")
        try:
            return pow(value, -1, self.modulus)
        except ValueError:
            raise ValueError(
                f"{value} is not a unit modulo {self.modulus}"
            ) from None

    def __str__(self) -> str:
        return "ZZ" if self.modulus is None else f"ZZ/{self.modulus}"


ZZ = Ring()


def zmod(m: int) -> Ring:
    """The ring of integers modulo m (m >= 2)."""
    return Ring(m)


def _int64_storage(ring: Ring) -> bool:
    """Whether series over the ring keep int64 residues, not Python objects."""
    return ring.modulus is not None and ring.modulus <= _INT64_MAX_MODULUS


def _residues(coeffs, m: int) -> np.ndarray:
    """coeffs reduced mod m (m <= 2^63) into a new int64 array.

    An int64 array is reduced in one vectorised pass; a sequence of ints
    is converted first, and only a value outside int64 sends it through a
    Python-int reduction.
    """
    if isinstance(coeffs, np.ndarray) and coeffs.dtype == np.int64:
        arr = coeffs
    else:
        cs = _ints(coeffs)
        try:
            arr = np.array(cs, dtype=np.int64)
        except OverflowError:
            arr = np.array([c % m for c in cs], dtype=np.int64)
    return _reduce(arr, m)


def _ints(coeffs) -> list[int]:
    """The coefficients as a list of Python ints."""
    return coeffs.tolist() if isinstance(coeffs, np.ndarray) else list(coeffs)


class TruncatedSeries:
    """Coefficient vector indexed by exponent, with truncation tracking.

    ``coeffs[n]`` is the coefficient of q^n, held in one read-only
    ndarray of int64 residues or of Python ints (dtype object; see the
    module docstring), and ``order`` is its length.  The truncation order
    is pessimistic: operations never fabricate coefficients beyond what
    their inputs determine.  The constructor's offset and order only pad
    or cut its input: offset zeros go in front of coeffs, and the result
    is cut, or padded with zeros, to order terms.
    """

    __slots__ = ("ring", "coeffs")

    # every series starts at q^0; bench/tracer.py still reads a.offset
    offset = 0

    def __init__(
        self,
        ring: Ring,
        coeffs: Iterable[int] = (),
        offset: int = 0,
        order: Optional[int] = None,
    ):
        if offset < 0:
            raise ValueError(f"offset must be >= 0, got {offset}")
        m = ring.modulus
        if _int64_storage(ring):
            cs = _residues(coeffs, m)
        else:
            cs = _ints(coeffs)
            if m is not None:
                cs = [c % m for c in cs]
            cs = np.array(cs, dtype=object)
        if order is None:
            order = offset + len(cs)
        if order < offset:
            raise ValueError(f"order {order} is below offset {offset}")
        cs = cs[: order - offset]
        if len(cs) < order:
            out = np.zeros(order, dtype=cs.dtype)
            out[offset : offset + len(cs)] = cs
            cs = out
        _install(self, ring, cs)

    @classmethod
    def _wrap(cls, ring: Ring, coeffs) -> TruncatedSeries:
        """A series over final coefficients: reduced, from q^0 on.

        coeffs is an ndarray of the ring's storage dtype, int64 or object
        (see ``_int64_storage``); it is kept as it is, a view included,
        and made read-only.
        """
        self = object.__new__(cls)
        _install(self, ring, coeffs)
        return self

    def __setattr__(self, name, value):
        raise AttributeError("TruncatedSeries is immutable")

    @property
    def order(self) -> int:
        """The first exponent whose coefficient is unknown."""
        return len(self.coeffs)

    # -- access ---------------------------------------------------------

    def coefficient(self, n: int) -> int:
        """Coefficient of q^n.  Exponents >= order are unknown, not zero."""
        if n >= self.order:
            raise IndexError(
                f"coefficient of q^{n} unknown: series truncated at order {self.order}"
            )
        if n < 0:
            return 0
        return int(self.coeffs[n])

    def coefficients(self, stop: Optional[int] = None) -> list[int]:
        """Coefficients of q^0 .. q^(stop-1) as a plain list."""
        if stop is None:
            stop = self.order
        if stop > self.order:
            raise IndexError(
                f"coefficients up to {stop} unknown: series truncated at {self.order}"
            )
        return _ints(self.coeffs[: max(stop, 0)])

    def support(self) -> np.ndarray:
        """The exponents of the nonzero coefficients, ascending, as int64."""
        return np.flatnonzero(self.coeffs)

    def __eq__(self, other: object) -> bool:
        """Semantic equality: same ring, same order, same coefficients."""
        if not isinstance(other, TruncatedSeries):
            return NotImplemented
        return self.ring == other.ring and bool(np.array_equal(self.coeffs, other.coeffs))

    __hash__ = None  # type: ignore[assignment]

    def __repr__(self) -> str:
        head = ", ".join(str(c) for c in self.coeffs[:8])
        tail = ", ..." if len(self.coeffs) > 8 else ""
        return f"TruncatedSeries({self.ring}, [{head}{tail}], order={self.order})"

    def __str__(self) -> str:
        terms = []
        for n, c in enumerate(self.coeffs):
            if c == 0:
                continue
            if n == 0:
                terms.append(str(c))
            else:
                cs = "" if c == 1 else ("-" if c == -1 else f"{c}*")
                terms.append(f"{cs}q^{n}" if n > 1 else f"{cs}q")
            if len(terms) > 12:
                terms.append("...")
                break
        body = " + ".join(terms) if terms else "0"
        return f"{body} + O(q^{self.order})"

    # -- arithmetic -----------------------------------------------------

    def _require_same_ring(self, other: TruncatedSeries) -> None:
        if self.ring != other.ring:
            raise ValueError(f"ring mismatch: {self.ring} vs {other.ring}")

    def __add__(self, other: TruncatedSeries) -> TruncatedSeries:
        self._require_same_ring(other)
        order = min(self.order, other.order)
        a = self.coefficients(order)
        b = other.coefficients(order)
        return TruncatedSeries(self.ring, [x + y for x, y in zip(a, b)])

    def __neg__(self) -> TruncatedSeries:
        return TruncatedSeries(self.ring, [-c for c in _ints(self.coeffs)])

    def __sub__(self, other: TruncatedSeries) -> TruncatedSeries:
        return self + (-other)

    def scale(self, k: int) -> TruncatedSeries:
        """Multiply every coefficient by the integer k."""
        return TruncatedSeries(self.ring, [k * c for c in _ints(self.coeffs)])

    def mul(self, other: TruncatedSeries) -> TruncatedSeries:
        """Product, truncated pessimistically.

        result.order = min(a.order, b.order): the first exponent either
        factor's unknown tail could pollute.
        """
        self._require_same_ring(other)
        rl = min(self.order, other.order)
        a, b = self.coeffs[:rl], other.coeffs[:rl]
        if rl and _int64_storage(self.ring):
            out = _mul_mod(a, a if other is self else b, rl, self.ring.modulus)
            return TruncatedSeries._wrap(self.ring, out)
        return TruncatedSeries._wrap(self.ring, _schoolbook(a, b, rl, self.ring.modulus))

    __mul__ = mul

    def _unit_constant_inverse(self) -> int:
        """Inverse of the constant term; requires a unit there."""
        if self.order < 1:
            raise ValueError("cannot invert: constant term not represented")
        a0 = self.coefficient(0)
        if not self.ring.is_unit(a0):
            raise ValueError(
                f"cannot invert: leading coefficient {a0} is not a unit in {self.ring}"
            )
        return self.ring.invert(a0)

    def divide(self, f: TruncatedSeries) -> TruncatedSeries:
        """self / f at min(self.order, f.order) terms, by f's nonzero terms; f_0 must be a unit."""
        self._require_same_ring(f)
        inv0 = f._unit_constant_inverse()
        size = min(self.order, f.order)
        e = np.flatnonzero(f.coeffs[1:size]) + 1
        out = _divide_terms(self.coeffs[:size], e, f.coeffs[e], -1, inv0, self.ring.modulus)
        return TruncatedSeries(self.ring, out)

    def inverse(self) -> TruncatedSeries:
        """Multiplicative inverse; requires a unit constant term.

        Over int64 storage, where the one gate ``_newton_exact`` admits
        this order and modulus (module docstring), Newton iteration;
        otherwise 1 / self by ``divide``, over the input's nonzero terms.
        """
        m = self.ring.modulus
        if _int64_storage(self.ring) and _newton_exact(self.order, m):
            inv0 = self._unit_constant_inverse()
            out = _inverse_newton(self.coeffs, self.order, m, inv0)
            return TruncatedSeries._wrap(self.ring, out)
        return one(self.ring, self.order).divide(self)

    def pow(self, e: int) -> TruncatedSeries:
        """Integer power by repeated squaring; negative e via inverse()."""
        if e == 0:
            return one(self.ring, self.order)
        if e < 0:
            return self.inverse().pow(-e)
        base = self
        result = None
        while e:
            if e & 1:
                result = base if result is None else result * base
            e >>= 1
            if e:
                base = base * base
        return result

    def __pow__(self, e: int) -> TruncatedSeries:
        return self.pow(e)

    # -- structural operations ------------------------------------------

    def substitute_power(self, k: int) -> TruncatedSeries:
        """The substitution q -> q^k (k >= 1)."""
        if k < 1:
            raise ValueError(f"substitution power must be >= 1, got {k}")
        if k == 1:
            return self
        out = np.zeros(k * len(self.coeffs), dtype=self.coeffs.dtype)
        out[::k] = self.coeffs
        return TruncatedSeries._wrap(self.ring, out)

    def truncate(self, order: int) -> TruncatedSeries:
        """The same series known only below order (0 <= order <= self.order).

        The result shares this series' storage: the array is cut as a
        view, not copied.
        """
        if not 0 <= order <= self.order:
            raise ValueError(f"cannot truncate a series of order {self.order} at {order}")
        return TruncatedSeries._wrap(self.ring, self.coeffs[:order])

    def reduce_mod(self, m: int) -> TruncatedSeries:
        """Reduce an exact-integer series into the mod-m ring.

        Reducing a series already in ZZ/m is a no-op (idempotence);
        reducing across distinct moduli is refused, information is gone.
        """
        if self.ring.modulus == m:
            return self
        if not self.ring.is_exact:
            raise ValueError(f"cannot rereduce a {self.ring} series mod {m}")
        return TruncatedSeries(Ring(m), self.coeffs)

    def extract_progression(self, p: int, r: int) -> TruncatedSeries:
        """The series of coefficients along exponents p*n + r, as a strided view.

        result.order = ceil((order - r) / p): the count of progression
        exponents whose coefficients are determined.
        """
        if p < 1:
            raise ValueError(f"progression modulus must be >= 1, got {p}")
        if not 0 <= r < p:
            raise ValueError(f"residue {r} out of range [0, {p})")
        if p == 1:
            return self
        return TruncatedSeries._wrap(self.ring, self.coeffs[r::p])

    def shift(self, k: int) -> TruncatedSeries:
        """Multiply by q^k (k >= 0): a copy behind k zeros, order raised by k."""
        if k < 0:
            raise ValueError(f"shift must be >= 0, got {k}")
        zeros = np.zeros(k, dtype=self.coeffs.dtype)
        return TruncatedSeries._wrap(self.ring, np.concatenate((zeros, self.coeffs)))


def _install(s: TruncatedSeries, ring: Ring, coeffs) -> None:
    """Set the two fields of s; the coefficient array is made read-only first."""
    coeffs.flags.writeable = False
    object.__setattr__(s, "ring", ring)
    object.__setattr__(s, "coeffs", coeffs)


class _Holder:
    """The last series built under a key, held as (key, series).

    A request for that key at no higher an order is a read-only cut of it
    (``truncate``), exact since the series to order n is the first n
    terms of any longer one; any other is built and replaces it.  One
    read and one assignment each, so threads need no lock.
    """

    __slots__ = ("held",)

    def __init__(self) -> None:
        self.held: Optional[tuple] = None

    def cut(self, key, order: int) -> Optional[TruncatedSeries]:
        """The held series under key cut to order, or None if it is not held that long."""
        held = self.held
        if held is not None and held[0] == key and held[1].order >= order:
            return held[1] if held[1].order == order else held[1].truncate(order)
        return None

    def get(self, key, order: int, build) -> TruncatedSeries:
        """The series under key to exactly order: the held one's cut, else build(), then held."""
        series = self.cut(key, order)
        if series is None:
            series = build()
            self.held = (key, series)
        return series


def one(ring: Ring, order: int) -> TruncatedSeries:
    """The constant series 1, truncated at the given order."""
    return TruncatedSeries(ring, [1], 0, order)


def zero(ring: Ring, order: int) -> TruncatedSeries:
    """The zero series, truncated at the given order."""
    return TruncatedSeries(ring, (), 0, order)
