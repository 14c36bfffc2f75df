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

Multiplication of object-storage series is schoolbook convolution on
Python ints, which skips the zero coefficients of its left operand:
f * g, with f an Euler product (about 1.6 sqrt(order) nonzero terms) as
long as g, costs O(order nnz(f)).  Exact division g / f by a series f
with a unit constant term (``divide``) is the recurrence
out_n = f0^{-1} (g_n - sum_{i>=1} f_i out_{n-i}), which skips the zero
f_i and also costs O(order nnz(f)).

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
   Half-length blocks halve L and the spectra held at once.  The path
   runs only when the a-priori rounding bound (``_fft_error_bound``)

       |z' - z|_inf <= |x|_2 |y|_2 * S (1 + S),
       S = (2 + sqrt(L)) delta + mu + sqrt(L) u (1 + delta),

   taken at the l2 norms of a and b, which bound those of every block, is
   below 1/4, so rounding z' recovers each exact block product z.
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
3. ``schoolbook`` on Python ints otherwise.

Every path gives bit-identical results.  One gate, ``_fft_exact``,
decides every float product: the bound above, at the product's own
operand norms and transform length L, is below 1/4.  It holds for a
cyclic product as it stands, wrap-around included.  Inversion of an
int64-storage series is Newton iteration, g <- g (2 - f g) (Brent and
Kung, "Fast algorithms for manipulating formal power series", J. ACM 25
(1978)), when the gate admits dense operands of the series' length at
_fft_length(order), the length of Newton's last doubling; otherwise it
is the division 1 / f, the sparse recurrence above.  A doubling from k
to 2k terms needs only the terms k .. 2k - 1 of f g, since f g = 1 below
q^k.  Below _FFT_MIN_LEN its two products go to ``_mul_mod``.  From
there on g is transformed once at L = _fft_length(2k): those terms are
read off the cyclic product of f[:2k] and g (the middle product of
Hanrot, Quercia and Zimmermann, "The middle product algorithm I", AAECC
14 (2004)), whose terms from L on wrap onto exponents below k, and g e,
fewer than L terms, reuses g's transform.  Each product runs only when
the gate admits it, and otherwise falls back to ``_mul_mod``.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from math import gcd, sqrt
from typing import Iterable, Optional, Sequence

import numpy as np

__all__ = ["Ring", "ZZ", "zmod", "TruncatedSeries", "one", "zero"]

# The largest modulus whose residues, 0 .. m - 1, all fit an int64.
_INT64_MAX_MODULUS = 2**63

# Below this shorter-operand length np.convolve beats the transforms.
_FFT_MIN_LEN = 384
# The fft path runs only while its rounding bound stays below this.
_FFT_MAX_ERROR = 0.25

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


def _norm2(a: np.ndarray) -> float:
    f = a.astype(np.float64)
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
        na = _norm2(a)
        nb = na if b is a else _norm2(b)
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


def _fft_mul(a: np.ndarray, b: np.ndarray, rl: int, m: int) -> np.ndarray:
    """First rl terms of a * b mod m by real FFT; the caller checked the bound.

    The three block products of the module docstring, each operand block
    transformed once.
    """
    h, length = _fft_blocks(len(a), len(b), rl)
    fa0 = np.fft.rfft(a[:h], length)
    fb0 = fa0 if b is a else np.fft.rfft(b[:h], length)
    out = np.zeros(rl, dtype=np.int64)
    top = out[h : 2 * h]
    if len(a) > h:
        top += _spectral_product(np.fft.rfft(a[h:], length), fb0, length, len(top))
    if b is a:
        top *= 2  # a1 b0 + a0 b1 = 2 a1 a0
    elif len(b) > h:
        top += _spectral_product(np.fft.rfft(b[h:], length), fa0, length, len(top))
    low = out[: 2 * h]
    low += _spectral_product(fa0, fb0, length, len(low))
    out %= m
    return out


def _schoolbook(a: Sequence[int], b: Sequence[int], rl: int) -> list[int]:
    """First rl terms of a * b over the integers, skipping zero terms."""
    acc = [0] * rl
    la, lb = len(a), len(b)
    if la > lb:
        a, b, la, lb = b, a, lb, la
    for i in range(min(la, rl)):
        ai = a[i]
        if ai == 0:
            continue
        for j in range(min(lb, rl - i)):
            acc[i + j] += ai * b[j]
    return acc


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
        return np.convolve(a, b)[:rl] % m
    acc = _schoolbook(a.tolist(), b.tolist(), rl)
    return np.array([c % m for c in acc], dtype=np.int64)


def _inverse_newton(f: np.ndarray, order: int, m: int, inv0: int) -> np.ndarray:
    """Inverse of f mod (q^order, m) by Newton iteration; f[0] * inv0 == 1 mod m.

    If g inverts f to precision k, then f g = 1 + q^k e and
    g - q^k g e inverts f to precision 2k (Brent and Kung 1978); the
    module docstring gives the products of each doubling and their gate.
    """
    g = np.array([inv0 % m], dtype=np.int64)
    k = 1
    while k < order:
        k2 = min(2 * k, order)
        fk = f[:k2]
        if k < _FFT_MIN_LEN:
            e = _mul_mod(fk, g, k2, m)[k:]
            ge = _mul_mod(g, e, k2 - k, m)
        else:
            length = _fft_length(k2)
            g_hat = np.fft.rfft(g, length)
            ng = _norm2(g)
            if _fft_exact(_norm2(fk), ng, length):
                e = _spectral_product(np.fft.rfft(fk, length), g_hat, length, k2)[k:] % m
            else:
                e = _mul_mod(fk, g, k2, m)[k:]
            if _fft_exact(ng, _norm2(e), length):
                ge = _spectral_product(np.fft.rfft(e, length), g_hat, length, k2 - k)
            else:
                ge = _mul_mod(g, e, k2 - k, m)
        g = np.concatenate((g, (-ge) % m))
        k = k2
    return g


@dataclass(frozen=True)
class Ring:
    """Coefficient ring: exact integers (modulus None) or integers mod m.

    The modulus, when present, must be >= 2.  Primality is not required;
    Sturm-certificate pipelines happen to use prime moduli but the ring
    does not care.
    """

    modulus: Optional[int] = None

    def __post_init__(self) -> None:
        if self.modulus is not None and self.modulus < 2:
            raise ValueError(f"modulus must be >= 2, got {self.modulus}")

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
        arr = coeffs.copy()
    else:
        cs = _ints(coeffs)
        try:
            arr = np.array(cs, dtype=np.int64)
        except OverflowError:
            arr = np.array([c % m for c in cs], dtype=np.int64)
    if m == _INT64_MAX_MODULUS:  # no int64 holds 2^63; keep the low 63 bits
        arr &= _INT64_MAX_MODULUS - 1
    else:
        np.remainder(arr, m, out=arr)
    return arr


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
        product = _schoolbook(_ints(a), _ints(b), rl)
        return TruncatedSeries(self.ring, product)

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
        """self / f; f must have a unit constant term.

        result.order = min(self.order, f.order).  The
        recurrence out_n = f0^{-1} (self_n - sum_{i>=1} f_i out_{n-i})
        skips zero coefficients of f, so dividing by a sparse series (an
        Euler product, say) costs O(order * nnz(f)).  The terms are summed
        per distinct value of f_i before one multiplication by it, so the
        +-1 of an Euler product cost two multiplications per n, not nnz.
        """
        self._require_same_ring(f)
        inv0 = f._unit_constant_inverse()
        out = _ints(self.coeffs[: f.order])
        terms: dict[int, list[int]] = {}  # f_i -> the ascending i >= 1 holding it
        for i, c in enumerate(_ints(f.coeffs[1 : len(out)]), 1):
            if c:
                terms.setdefault(c, []).append(i)
        norm = self.ring.normalize
        for n in range(len(out)):
            s = out[n]
            for c, idx in terms.items():
                t = 0
                for i in idx:
                    if i > n:
                        break
                    t += out[n - i]
                s -= c * t
            out[n] = norm(inv0 * s) if s else 0
        return TruncatedSeries(self.ring, out)

    def inverse(self) -> TruncatedSeries:
        """Multiplicative inverse; requires a unit constant term.

        Over int64 storage, when ``_fft_exact`` admits dense operands of
        this length at the transform length of Newton's last doubling,
        this is Newton iteration.  Otherwise it is 1 / self by ``divide``,
        whose recurrence skips zero coefficients of the input.
        """
        m = self.ring.modulus
        if _int64_storage(self.ring):
            worst = self.order * (m - 1) ** 2  # squared norm of a dense operand
            if _fft_exact(worst, worst, _fft_length(self.order)):
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


def one(ring: Ring, order: int) -> TruncatedSeries:
    """The constant series 1, truncated at the given order."""
    return TruncatedSeries(ring, [1], 0, order)


def zero(ring: Ring, order: int) -> TruncatedSeries:
    """The zero series, truncated at the given order."""
    return TruncatedSeries(ring, (), 0, order)
