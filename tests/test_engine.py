"""Claims, theorem families, certificates, and the empirical search."""

import dataclasses
import sys
import threading
import time
from collections import OrderedDict

import pytest

from cubicpart import engine
from cubicpart.engine import (
    CongruenceClaim,
    FAILED,
    HOLDS,
    PROVEN,
    REFUTED,
    build_certificate,
    prove_isolated,
    search_congruences,
    theorem_claims,
    verify_claim,
    verify_theorem_family,
)
from cubicpart.arith import admissible_residues
from cubicpart.modform import EtaQuotient
from cubicpart.partitions import (
    CUBIC,
    OVERCUBIC,
    PartitionFamily,
    count_direct,
    generating_series,
)
from cubicpart.series import TruncatedSeries, zmod

A2 = PartitionFamily(CUBIC, 2)


def test_claim_validation():
    with pytest.raises(ValueError):
        CongruenceClaim(A2, 1, 3, 2)
    with pytest.raises(ValueError):
        CongruenceClaim(A2, 3, 0, 0)
    with pytest.raises(ValueError):
        CongruenceClaim(A2, 3, 3, 3)


def test_claim_describe():
    claim = CongruenceClaim(A2, 3, 3, 2)
    assert claim.describe() == "a_2(3n+2) == 0 (mod 3)"
    over = CongruenceClaim(PartitionFamily(OVERCUBIC, 5), 3, 3, 2)
    assert over.describe() == "abar_5(3n+2) == 0 (mod 3)"


def test_verify_chan_congruence_holds():
    result = verify_claim(CongruenceClaim(A2, 3, 3, 2), 500)
    assert result.holds and result.verdict == HOLDS
    assert result.witness is None


def test_verify_chan_toh_j2_holds():
    result = verify_claim(CongruenceClaim(A2, 5, 25, 22), 500)
    assert result.holds


def test_verify_refutation_with_minimal_witness():
    result = verify_claim(CongruenceClaim(A2, 3, 3, 1), 50)
    assert result.verdict == REFUTED
    assert result.witness == (1, 1)  # a_2(1) = 1
    e, v = result.witness
    assert e % 3 == 1 and v % 3 != 0
    # minimality: no smaller progression index violates
    assert all(
        count_direct(A2, i) % 3 == 0 for i in range(1, e, 3) if i % 3 == 1 and i < e
    )


def test_verify_rejects_unreachable_bound():
    with pytest.raises(ValueError):
        verify_claim(CongruenceClaim(A2, 5, 25, 22), 10)


def test_witness_values_match_dp_oracle():
    result = verify_claim(CongruenceClaim(PartitionFamily(CUBIC, 3), 5, 5, 1), 100)
    assert result.verdict == REFUTED
    e, v = result.witness
    assert count_direct(PartitionFamily(CUBIC, 3), e) % 5 == v


def test_theorem_12_claim_counts_match_admissible_sets():
    for p in (3, 5, 7, 11):
        claims = theorem_claims("1.2", p)
        assert len(claims) == len(admissible_residues(p, CUBIC).admissible)
        assert all(c.family == PartitionFamily(CUBIC, p - 1) for c in claims)


def test_theorem_12_p5():
    results = verify_theorem_family("1.2", p=5, n_max=1000)
    assert [r.claim.residue for r in results] == [2, 4]
    assert all(r.holds for r in results)
    assert all(r.claim.family.colors == 4 for r in results)


def test_corollary_13_p3_k2():
    results = verify_theorem_family("cor-1.3", p=3, k=2, n_max=1000)
    assert len(results) == 1
    claim = results[0].claim
    assert claim.family.colors == 5 and claim.residue == 2 and claim.modulus == 3
    assert results[0].holds


def test_theorem_41_p3_k2():
    results = verify_theorem_family("4.1", p=3, k=2, n_max=500)
    assert len(results) == 1
    assert results[0].claim.family == PartitionFamily(OVERCUBIC, 5)
    assert results[0].holds


def test_remarks_p7():
    results = verify_theorem_family("remarks", p=7, n_max=1000)
    assert len(results) == 1
    claim = results[0].claim
    assert claim.family.colors == 8 and claim.progression == 7 and claim.residue == 5
    assert results[0].holds


def test_theorem_11_claims():
    claims = theorem_claims("1.1")
    assert claims == [CongruenceClaim(A2, 5, 25, 22)]


def test_theorem_15_claims_and_filter():
    claims = theorem_claims("1.5")
    assert len(claims) == 2
    only7 = theorem_claims("1.5", p=7)
    assert len(only7) == 1 and only7[0].family.colors == 3
    with pytest.raises(ValueError):
        theorem_claims("1.5", p=13)


def test_k_rejected_where_the_theorem_has_none():
    for theorem, p in (("1.1", None), ("1.2", 7), ("1.5", None)):
        assert theorem_claims(theorem, p, k=1)
        with pytest.raises(ValueError, match="takes no k"):
            theorem_claims(theorem, p, k=4)


def test_theorem_ids_validated():
    with pytest.raises(ValueError):
        theorem_claims("2.7")
    with pytest.raises(ValueError):
        theorem_claims("1.2")  # missing p
    with pytest.raises(ValueError):
        theorem_claims("remarks", p=3)
    with pytest.raises(ValueError):
        theorem_claims("cor-1.3", p=3, k=0)


# -- certificates -----------------------------------------------------------


def test_certificate_a3_mod7():
    cert = prove_isolated("a3-mod7")
    assert cert.verdict == PROVEN and cert.proven
    assert cert.weight == 37 and cert.level == 8
    assert cert.bound == 37 and cert.prime == 7 and cert.modulus == 7
    assert {d: int(v) for d, v in cert.cusp_table.orders.items()} == {
        1: 25,
        2: 6,
        4: 3,
        8: 3,
    }
    assert cert.window == (0, 37)


def test_certificate_a5_mod11():
    cert = prove_isolated("a5-mod11")
    assert cert.proven
    assert cert.weight == 14 and cert.level == 4
    assert cert.bound == 7 and cert.prime == 11 and cert.modulus == 11


def test_certificate_text_key_order():
    cert = prove_isolated("a5-mod11")
    keys = [line.split(":", 1)[0] for line in cert.to_text().strip().splitlines()]
    assert keys == [
        "id",
        "level",
        "weight",
        "exponents",
        "character",
        "cusp-orders",
        "sturm-bound",
        "prime",
        "modulus",
        "coefficients-checked",
        "verdict",
    ]
    text = cert.to_text()
    assert "exponents: 1^32 2^-4" in text
    assert "coefficients-checked: 0..7" in text
    assert "verdict: proven" in text


def test_certificate_to_dict_round_trips_values():
    cert = prove_isolated("a3-mod7")
    d = cert.to_dict()
    assert d["id"] == "a3-mod7"
    assert d["exponents"] == {"1": 76, "2": -2}
    assert d["cusp_orders"] == {"1": "25", "2": "6", "4": "3", "8": "3"}
    assert d["sturm_bound"] == 37
    assert d["witness"] is None


def test_certificate_text_and_dict_list_the_same_factors():
    cert = prove_isolated("a3-mod7")
    padded = dataclasses.replace(cert, quotient=EtaQuotient(8, {1: 76, 2: -2, 4: 0}))
    assert "exponents: 1^76 2^-2\n" in padded.to_text()
    assert padded.to_dict()["exponents"] == {"1": 76, "2": -2}


def test_certificate_oracle_agreement():
    # the proven progressions vanish under the independent DP count
    for which, fam, p, r in (
        ("a3-mod7", PartitionFamily(CUBIC, 3), 7, 4),
        ("a5-mod11", PartitionFamily(CUBIC, 5), 11, 10),
    ):
        assert prove_isolated(which).proven
        for n in range(10):
            assert count_direct(fam, p * n + r) % p == 0


def test_mutated_pipeline_fails_with_witness():
    cert = build_certificate("a3-mod7", hecke_prime=5, modulus=5)
    assert cert.verdict == FAILED and not cert.proven
    assert cert.failure_stage == "hecke-window"
    assert cert.witness_exponent is not None
    assert cert.witness_value is not None and cert.witness_value % 5 != 0
    text = cert.to_text()
    assert "verdict: failed" in text and "failure-stage: hecke-window" in text
    # and indeed no mod-5 congruence exists for a_3 on any class
    fam3 = PartitionFamily(CUBIC, 3)
    for r in range(5):
        assert any(count_direct(fam3, 5 * n + r) % 5 != 0 for n in range(12))


def test_unknown_certificate_id():
    with pytest.raises(ValueError):
        prove_isolated("a7-mod13")


# -- search -----------------------------------------------------------------


def test_search_finds_known_congruences():
    claims = search_congruences(4, {3, 5}, 2000)
    tuples = {
        (c.family.kind, c.family.colors, c.progression, c.residue) for c in claims
    }
    assert (CUBIC, 2, 3, 2) in tuples
    assert (CUBIC, 4, 5, 2) in tuples
    assert (CUBIC, 4, 5, 4) in tuples
    assert (CUBIC, 1, 5, 4) in tuples  # Ramanujan's own
    assert not any(k == CUBIC and c == 1 and p == 3 for k, c, p, _ in tuples)


def test_search_excludes_p_of_n_mod_3():
    claims = search_congruences(1, {3}, 2000)
    assert claims == []


def test_search_isolated_congruences_at_p7():
    claims = search_congruences(6, {7}, 2000)
    tuples = {
        (c.family.kind, c.family.colors, c.progression, c.residue) for c in claims
    }
    assert (CUBIC, 3, 7, 4) in tuples
    for r in (2, 4, 5):
        assert (CUBIC, 6, 7, r) in tuples


def test_search_results_sorted_and_verified():
    claims = search_congruences(4, {3, 5}, 1200)
    keys = [
        (c.family.kind, c.family.colors, c.progression, c.residue) for c in claims
    ]
    assert keys == sorted(keys)
    for claim in claims:
        assert verify_claim(claim, 1200).holds


def test_search_validates_bounds():
    with pytest.raises(ValueError):
        search_congruences(2, {5}, 40, min_confirmations=10)
    with pytest.raises(ValueError):
        search_congruences(0, {5}, 500)
    with pytest.raises(ValueError):
        search_congruences(2, {1}, 500)
    with pytest.raises(ValueError):
        search_congruences(1, {13}, 10, min_confirmations=0)


@pytest.fixture
def counted_builds(monkeypatch):
    """An empty series store whose builds are recorded as (kind, colors, modulus, order)."""
    builds = []
    build = engine.generating_series

    def counting_build(fam, order, ring):
        builds.append((fam.kind, fam.colors, ring.modulus, order))
        return build(fam, order, ring)

    monkeypatch.setattr(engine, "generating_series", counting_build)
    monkeypatch.setattr(engine, "_store", OrderedDict())
    return builds


def test_store_cuts_a_shorter_series_from_a_longer_one(counted_builds):
    long = engine._series_mod(CUBIC, 3, 7, 500)
    short = engine._series_mod(CUBIC, 3, 7, 120)
    assert counted_builds == [(CUBIC, 3, 7, 500)]
    fresh = generating_series(PartitionFamily(CUBIC, 3), 120, zmod(7))
    assert short == fresh and short.order == 120
    assert engine._series_mod(CUBIC, 3, 7, 500) is long


def test_store_builds_a_longer_series_once(counted_builds):
    engine._series_mod(OVERCUBIC, 2, 5, 100)
    longer = engine._series_mod(OVERCUBIC, 2, 5, 300)
    assert engine._series_mod(OVERCUBIC, 2, 5, 300) is longer
    engine._series_mod(OVERCUBIC, 2, 5, 200)
    assert counted_builds == [(OVERCUBIC, 2, 5, 100), (OVERCUBIC, 2, 5, 300)]
    assert longer.order == 300


def test_store_holds_at_most_64_keys(counted_builds):
    for c in range(1, 71):
        engine._series_mod(CUBIC, c, 3, 4)
        assert len(engine._store) <= 64
    assert len(engine._store) == 64
    engine._series_mod(CUBIC, 70, 3, 4)  # the most recent key is kept
    engine._series_mod(CUBIC, 1, 3, 4)  # the oldest was evicted
    assert len(counted_builds) == 71


def test_store_serves_concurrent_callers_exact_orders(monkeypatch):
    def slow_build(fam, order, ring):
        time.sleep(0.01)  # keep builds open while other threads read and write
        return TruncatedSeries(ring, [fam.colors + i for i in range(order)], 0, order)

    monkeypatch.setattr(engine, "generating_series", slow_build)
    monkeypatch.setattr(engine, "_store", OrderedDict())
    workers = 8  # more threads than cores
    start = threading.Barrier(workers, timeout=10)
    wrong = []

    def request(w):
        start.wait()
        for i in range(20):
            colors, order = 1 + (w + i) % 3, 1 + (7 * w + 5 * i) % 50
            s = engine._series_mod(CUBIC, colors, 101, order)
            if s.order != order or s.coefficients() != [colors + j for j in range(order)]:
                wrong.append((colors, order))

    threads = [threading.Thread(target=request, args=(w,)) for w in range(workers)]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=30)
    finally:
        sys.setswitchinterval(interval)
    assert not any(t.is_alive() for t in threads)
    assert wrong == []
    assert len(engine._store) == 3
    assert all(s.order == 50 for s in engine._store.values())


def test_store_keeps_the_longer_of_two_racing_builds(monkeypatch):
    short_building = threading.Event()
    long_stored = threading.Event()

    def build(fam, order, ring):
        if order == 10:
            short_building.set()
            long_stored.wait(timeout=10)  # finish after the longer build was stored
        return TruncatedSeries(ring, range(order), 0, order)

    monkeypatch.setattr(engine, "generating_series", build)
    monkeypatch.setattr(engine, "_store", OrderedDict())
    short = threading.Thread(target=engine._series_mod, args=(CUBIC, 1, 101, 10))
    short.start()
    assert short_building.wait(timeout=10)
    long = engine._series_mod(CUBIC, 1, 101, 50)
    long_stored.set()
    short.join(timeout=10)
    assert not short.is_alive()
    assert engine._store[(CUBIC, 1, 101)] is long
