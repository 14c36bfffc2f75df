"""Primality, Legendre and Kronecker symbols, admissible residues."""

import random

import pytest

from cubicpart import arith
from cubicpart.arith import (
    admissible_residues,
    is_odd_prime,
    kronecker,
    legendre,
)


def test_is_odd_prime():
    assert is_odd_prime(3) and is_odd_prime(97) and is_odd_prime(10**9 + 7)
    for n in (0, 1, 2, 4, 9, 15, 561, 1105):  # includes Carmichael numbers
        assert not is_odd_prime(n)


def test_nonresidue_examples():
    assert legendre(2, 5) == -1
    assert legendre(4, 5) == 1
    # zero is neither residue nor nonresidue
    assert legendre(0, 7) == 0
    assert legendre(7, 7) == 0


def test_nonresidue_requires_odd_prime():
    with pytest.raises(ValueError):
        legendre(2, 4)
    with pytest.raises(ValueError):
        legendre(2, 2)
    with pytest.raises(ValueError):
        legendre(2, 9)


def test_admissible_residue_sets():
    assert admissible_residues(3, "cubic").admissible == {2}
    assert admissible_residues(5, "cubic").admissible == {2, 4}
    assert admissible_residues(7, "cubic").admissible == {2, 4, 5}
    assert admissible_residues(11, "cubic").admissible == {2, 5, 7, 8, 9}
    assert admissible_residues(3, "overcubic").admissible == {2}


def test_admissible_report_justifications():
    report = admissible_residues(7, "cubic")
    assert set(report.justification) == {1, 2, 3, 4, 5, 6}
    # 8r+1 == 0 mod 7 at r = 6: zero is a square, so 6 must be rejected
    assert report.justification[6] == 0
    assert 6 not in report.admissible
    for r, sym in report.justification.items():
        assert (r in report.admissible) == (sym == -1)


def test_admissible_overcubic_has_half_the_classes():
    for p in (3, 5, 7, 11, 13):
        report = admissible_residues(p, "overcubic")
        assert len(report.admissible) == (p - 1) // 2


def test_admissible_rejects_bad_input():
    with pytest.raises(ValueError):
        admissible_residues(9, "cubic")
    with pytest.raises(ValueError):
        admissible_residues(5, "hexagonal")


def test_admissible_residues_test_p_once(monkeypatch):
    tested = []
    is_prime = arith._is_prime
    monkeypatch.setattr(arith, "_is_prime", lambda n: tested.append(n) or is_prime(n))
    report = admissible_residues(101, "cubic")
    assert tested == [101]
    assert report.justification == {r: legendre(8 * r + 1, 101) for r in range(1, 101)}


def test_symbols_scan_up_from_start():
    for p in (3, 5, 7, 13, 101):
        for family in ("cubic", "overcubic"):
            report = admissible_residues(p, family)
            for start in range(-1, p + 2):
                expected = [(r, sym) for r, sym in report.justification.items() if r >= start]
                assert list(arith._symbols(p, family, start)) == expected
    # p and the family are checked even where no residue is left to scan
    with pytest.raises(ValueError, match="9 is not an odd prime"):
        list(arith._symbols(9, "cubic", 20))
    with pytest.raises(ValueError, match="unknown family"):
        list(arith._symbols(5, "hexagonal", 20))


def test_kronecker_unit_denominator():
    for a in range(-6, 7):
        assert kronecker(a, 1) == 1


def test_kronecker_small_values():
    assert kronecker(-1, 3) == -1
    assert kronecker(2, 7) == 1
    assert kronecker(3, 5) == -1
    # (a|2) by a mod 8
    assert kronecker(1, 2) == 1 and kronecker(7, 2) == 1
    assert kronecker(3, 2) == -1 and kronecker(5, 2) == -1
    assert kronecker(4, 2) == 0


def test_kronecker_edge_domain():
    assert kronecker(1, 0) == 1 and kronecker(-1, 0) == 1
    assert kronecker(5, 0) == 0
    assert kronecker(6, 4) == 0  # both even
    assert kronecker(-3, -5) == -kronecker(-3, 5)  # negative n flips for a < 0
    assert kronecker(3, -5) == kronecker(3, 5)


def test_kronecker_agrees_with_euler_criterion():
    for p in (3, 5, 7, 11, 13, 17, 19, 23):
        for a in range(-30, 31):
            euler = pow(a % p, (p - 1) // 2, p)
            expected = 0 if euler == 0 else (-1 if euler == p - 1 else 1)
            assert kronecker(a, p) == expected, (a, p)
            assert legendre(a, p) == expected


def test_kronecker_multiplicative_property():
    rng = random.Random(5)
    for _ in range(150):
        a = rng.randrange(-40, 41)
        b = rng.randrange(-40, 41)
        n = rng.randrange(1, 60)
        assert kronecker(a, n) * kronecker(b, n) == kronecker(a * b, n)


def test_kronecker_multiplicative_in_denominator():
    rng = random.Random(6)
    for _ in range(150):
        a = rng.randrange(-40, 41)
        m = rng.randrange(1, 40)
        n = rng.randrange(1, 40)
        assert kronecker(a, m) * kronecker(a, n) == kronecker(a, m * n)

