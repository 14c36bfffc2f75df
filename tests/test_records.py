"""The eleven value records: repr text, immutability, hashing and validation messages."""

import re
from fractions import Fraction

import pytest

from cubicpart.arith import ResidueClassReport, admissible_residues
from cubicpart.engine import (
    CongruenceClaim,
    SturmCertificate,
    VerificationResult,
    prove_isolated,
    verify_claim,
)
from cubicpart.modform import (
    CandidacyReport,
    CharacterDescriptor,
    CuspOrderTable,
    EtaQuotient,
    check_candidacy,
    cusp_orders,
)
from cubicpart.partitions import CheckReport, PartitionFamily, check_functional_equation
from cubicpart.series import ZZ, Ring, zmod

A3 = PartitionFamily("cubic", 3)
CLAIM = CongruenceClaim(A3, 7, 7, 4)
CLAIM_TEXT = (
    "CongruenceClaim(family=PartitionFamily(kind='cubic', colors=3), modulus=7,"
    " progression=7, residue=4)"
)
CHARACTER_TEXT = "CharacterDescriptor(weight=37, s_numerator=1, s_denominator=4)"

# class: (a record made as the package makes it, one field, its repr text)
RECORDS = {
    ResidueClassReport: (
        lambda: admissible_residues(5, "cubic"),
        "prime",
        "ResidueClassReport(prime=5, family='cubic', admissible=frozenset({2, 4}),"
        " justification={1: 1, 2: -1, 3: 0, 4: -1})",
    ),
    Ring: (lambda: zmod(7), "modulus", "Ring(modulus=7)"),
    EtaQuotient: (
        lambda: EtaQuotient(8, {1: 76, 2: -2, 4: 0}),
        "level",
        "EtaQuotient(level=8, exponents={1: 76, 2: -2})",
    ),
    CharacterDescriptor: (
        lambda: check_candidacy(EtaQuotient(8, {1: 76, 2: -2})).character,
        "weight",
        CHARACTER_TEXT,
    ),
    CandidacyReport: (
        lambda: check_candidacy(EtaQuotient(8, {1: 76, 2: -2})),
        "weight_integral",
        "CandidacyReport(weight_integral=True, delta_sum_mod24=0, colevel_sum_mod24=0,"
        f" character={CHARACTER_TEXT})",
    ),
    CuspOrderTable: (
        lambda: cusp_orders(EtaQuotient(4, {1: 32, 2: -4})),
        "orders",
        "CuspOrderTable(orders={1: Fraction(5, 1), 2: Fraction(1, 1), 4: Fraction(1, 1)})",
    ),
    PartitionFamily: (lambda: A3, "colors", "PartitionFamily(kind='cubic', colors=3)"),
    CheckReport: (
        lambda: check_functional_equation(2, 20),
        "equal",
        "CheckReport(equal=True, order=20, first_mismatch=None, lhs=None, rhs=None)",
    ),
    CongruenceClaim: (lambda: CLAIM, "residue", CLAIM_TEXT),
    VerificationResult: (
        lambda: verify_claim(CongruenceClaim(A3, 7, 7, 3), 50),
        "witness",
        f"VerificationResult(claim={CLAIM_TEXT[:-2]}3), n_max=50, verdict='refuted',"
        " witness=(3, 5))",
    ),
    SturmCertificate: (
        lambda: prove_isolated("a3-mod7"),
        "verdict",
        "SturmCertificate(cert_id='a3-mod7', quotient=EtaQuotient(level=8,"
        f" exponents={{1: 76, 2: -2}}), weight=37, level=8, character={CHARACTER_TEXT},"
        " cusp_table=CuspOrderTable(orders={1: Fraction(25, 1), 2: Fraction(6, 1),"
        " 4: Fraction(3, 1), 8: Fraction(3, 1)}), bound=37, prime=7, modulus=7,"
        " window=(0, 37), verdict='proven', failure_stage=None, witness_exponent=None,"
        " witness_value=None)",
    ),
}


@pytest.mark.parametrize("cls", RECORDS, ids=lambda cls: cls.__name__)
def test_a_record_reprs_its_fields_by_keyword(cls):
    make, _, text = RECORDS[cls]
    record = make()
    assert type(record) is cls
    assert repr(record) == text


@pytest.mark.parametrize("cls", RECORDS, ids=lambda cls: cls.__name__)
def test_a_record_cannot_be_changed(cls):
    make, field, _ = RECORDS[cls]
    record = make()
    before = repr(record)
    with pytest.raises(AttributeError):
        setattr(record, field, getattr(record, field))
    with pytest.raises(AttributeError):
        record.note = "added"
    assert repr(record) == before


def test_records_build_by_keyword_and_by_position_alike():
    assert Ring(modulus=7) == Ring(7) == zmod(7)
    assert Ring() == Ring(None) == ZZ and ZZ.modulus is None
    assert PartitionFamily(kind="cubic", colors=3) == A3
    assert CongruenceClaim(family=A3, modulus=7, progression=7, residue=4) == CLAIM
    assert EtaQuotient(level=4, exponents={1: 32, 2: -4}) == EtaQuotient(4, {1: 32, 2: -4})
    assert CheckReport(False, 9, 3, 1, 2) == CheckReport(
        equal=False, order=9, first_mismatch=3, lhs=1, rhs=2
    )
    assert CheckReport(True, 9).first_mismatch is None
    assert CuspOrderTable(orders={1: Fraction(1)}).orders == {1: Fraction(1)}


@pytest.mark.parametrize(
    "a, b",
    [
        (Ring(7), zmod(7)),
        (Ring(), ZZ),
        (PartitionFamily("overcubic", 25), PartitionFamily("overcubic", 25)),
        (CongruenceClaim(A3, 7, 7, 4), CLAIM),
        (EtaQuotient(8, {1: 76, 2: -2, 4: 0}), EtaQuotient(8, {1: 76, 2: -2})),
    ],
    ids=["Ring", "ZZ", "PartitionFamily", "CongruenceClaim", "EtaQuotient"],
)
def test_equal_records_hash_equal(a, b):
    assert a == b and hash(a) == hash(b)
    assert {a: 1}[b] == 1


def test_an_eta_quotient_holds_its_map_in_rising_delta():
    # given out of order and with a zero, the map reprs and hashes as the sorted map
    eq = EtaQuotient(8, {2: -2, 4: 0, 1: 76})
    assert repr(eq) == "EtaQuotient(level=8, exponents={1: 76, 2: -2})"
    sorted_input = EtaQuotient(8, {1: 76, 2: -2, 4: 0})
    assert eq == sorted_input and hash(eq) == hash(sorted_input)
    assert str(eq) == "eta-quotient[N=8: 1^76 2^-2]"


def test_unequal_records_differ():
    assert Ring(7) != Ring(11) and Ring(7) != ZZ
    assert PartitionFamily("cubic", 3) != PartitionFamily("overcubic", 3)
    assert CongruenceClaim(A3, 7, 7, 3) != CLAIM
    assert EtaQuotient(8, {1: 76}) != EtaQuotient(4, {1: 76})


@pytest.mark.parametrize(
    "make, message",
    [
        (lambda: Ring(1), "modulus must be >= 2, got 1"),
        (lambda: PartitionFamily("x", 1), "unknown family kind 'x'"),
        (lambda: PartitionFamily("cubic", 0), "colors must be >= 1, got 0"),
        (lambda: CongruenceClaim(A3, 1, 7, 4), "modulus must be >= 2, got 1"),
        (lambda: CongruenceClaim(A3, 7, 0, 0), "progression must be >= 1, got 0"),
        (lambda: CongruenceClaim(A3, 7, 7, 7), "residue 7 out of range [0, 7)"),
        (lambda: CongruenceClaim(A3, 7, 7, -1), "residue -1 out of range [0, 7)"),
        (lambda: EtaQuotient(0, {1: 1}), "level must be positive, got 0"),
        (lambda: EtaQuotient(4, {3: 1}), "3 does not divide the level 4"),
        (lambda: EtaQuotient(4, {0: 1}), "0 does not divide the level 4"),
        (lambda: EtaQuotient(1, {1: 24.0}), "an exponent map holds integers, got {1: 24.0}"),
    ],
)
def test_a_record_refuses_invalid_fields_with_its_message(make, message):
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        make()
