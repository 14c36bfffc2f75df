"""Claims, theorem families, certificates, and the empirical search."""

import gc
import itertools
import sys
import threading
import time

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from cubicpart import engine, partitions, qfunctions
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
from cubicpart.arith import _is_prime, admissible_residues
from cubicpart.modform import EtaMap, EtaQuotient
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


def test_witness_is_a_pair_of_python_ints():
    for m in (7, 2**61 - 1):
        result = verify_claim(CongruenceClaim(PartitionFamily(CUBIC, 3), m, 7, 3), 1000)
        e, v = result.witness
        assert type(e) is int and type(v) is int
        assert v == count_direct(PartitionFamily(CUBIC, 3), e) % m


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


@pytest.mark.parametrize("theorem", ["1.2", "cor-1.3", "4.1"])
def test_theorem_without_p_needs_an_odd_prime(theorem):
    with pytest.raises(ValueError, match=f"theorem {theorem} needs an odd prime p"):
        theorem_claims(theorem)


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
    padded = cert._replace(quotient=EtaQuotient(8, {1: 76, 2: -2, 4: 0}))
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


# the certificate texts as they were when the oracle filled one table per value
CERTIFICATE_TEXT = {
    "a3-mod7": "id: a3-mod7\nlevel: 8\nweight: 37\nexponents: 1^76 2^-2\n"
    "character: (-1)^37 * 1/4\ncusp-orders: 1:25 2:6 4:3 8:3\nsturm-bound: 37\n"
    "prime: 7\nmodulus: 7\ncoefficients-checked: 0..37\nverdict: proven\n",
    "a5-mod11": "id: a5-mod11\nlevel: 4\nweight: 14\nexponents: 1^32 2^-4\n"
    "character: (-1)^14 * 1/16\ncusp-orders: 1:5 2:1 4:1\nsturm-bound: 7\n"
    "prime: 11\nmodulus: 11\ncoefficients-checked: 0..7\nverdict: proven\n",
}


@pytest.mark.parametrize("which", sorted(CERTIFICATE_TEXT))
def test_a_certificate_reads_its_oracle_values_from_one_table(monkeypatch, which):
    calls = []
    table = engine._count_table

    def counting(fam, n):
        calls.append((fam, n))
        return table(fam, n)

    monkeypatch.setattr(engine, "_count_table", counting)
    cert = build_certificate(which)
    claim = engine._ISOLATED[which][2]
    last = claim.progression * (engine._ORACLE_VALUES - 1) + claim.residue
    assert calls == [(claim.family, last)]
    assert cert.to_text() == CERTIFICATE_TEXT[which]


def test_the_oracle_stage_fails_at_the_first_nonzero_value(monkeypatch):
    """a_3(7n+3) is not 0 mod 7, though the Hecke window of a_3(7n+4) vanishes."""
    eq, p, claim = engine._ISOLATED["a3-mod7"]
    wrong = claim._replace(residue=3)
    monkeypatch.setitem(engine._ISOLATED, "a3-mod7", (eq, p, wrong))
    cert = build_certificate("a3-mod7")
    assert cert.verdict == FAILED and cert.failure_stage == "oracle-cross-check"
    assert (cert.witness_exponent, cert.witness_value) == (3, 5)
    assert count_direct(claim.family, 3) % 7 == 5


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


def test_scans_match_a_coefficient_loop():
    n_max, primes, min_conf = 63, [2, 3, 5, 7], 9
    found = {
        (c.family.kind, c.family.colors, c.progression, c.residue)
        for c in search_congruences(5, primes, n_max, min_conf)
    }
    expected = set()
    for kind in (CUBIC, OVERCUBIC):
        for c in range(1, 6):
            for p in primes:
                fam = PartitionFamily(kind, c)
                coeffs = generating_series(fam, n_max + 1, zmod(p)).coefficients()
                for r in range(p):
                    values = range(r, n_max + 1, p)
                    first = next((e for e in values if coeffs[e]), None)
                    witness = verify_claim(CongruenceClaim(fam, p, p, r), n_max).witness
                    assert witness == (None if first is None else (first, coeffs[first]))
                    if len(values) >= min_conf and first is None:
                        expected.add((kind, c, p, r))
    assert found == expected and expected


def claim_key(claim):
    return claim.family.kind, claim.family.colors, claim.modulus, claim.residue


def full_series_scan(c_max, moduli, n_max, prefix):
    """The claims of a scan of every (kind, c, p) series to n_max + 1 terms,
    and the claims whose class has no nonzero value in the first prefix p terms."""
    claims, unrefuted = [], []
    for kind in (CUBIC, OVERCUBIC):
        for c in range(1, c_max + 1):
            for p in sorted(moduli):
                support = engine._series_mod(kind, c, p, n_max + 1).support()
                seen = np.bincount(support % p, minlength=p)
                early = np.bincount(support[support < prefix * p] % p, minlength=p)
                for r in range(p):
                    claim = CongruenceClaim(PartitionFamily(kind, c), p, p, r)
                    if not seen[r]:
                        claims.append(claim)
                    if not early[r]:
                        unrefuted.append(claim)
    return claims, unrefuted


@pytest.mark.parametrize("prefix", [engine._PREFIX, 1], ids=["default-prefix", "prefix-1"])
@pytest.mark.parametrize(
    "c_max, moduli, n_max, min_conf",
    [
        (12, [2, 3, 4, 6, 9], 3000, 10),
        (30, [5, 7, 11, 13, 17], 2000, 10),
        # n_max = p K - 1: each class mod 9 has exactly K = 10 values
        (10, [2, 3, 4, 6, 9], 89, 10),
        (8, [2, 3, 5, 6, 7, 13], 12, 1),
        # the latest first witnesses of c <= 30, p <= 17: abar_22(12n+5) at 65, a_19(10n+2) at 52
        (26, [10, 12, 15], 1000, 10),
    ],
    ids=["composite-moduli", "cmax-30", "n_max-9K-1", "one-confirmation", "late-witnesses"],
)
def test_search_matches_the_full_series_scan(monkeypatch, prefix, c_max, moduli, n_max, min_conf):
    expected, unrefuted = full_series_scan(c_max, moduli, n_max, prefix)
    monkeypatch.setattr(engine, "_PREFIX", prefix)
    verified = []
    verify = engine.verify_claim

    def recording(claim, n, prefix=True):
        assert not prefix  # search's own prefix is not scanned again
        verified.append(claim)
        return verify(claim, n, prefix)

    monkeypatch.setattr(engine, "verify_claim", recording)
    assert search_congruences(c_max, moduli, n_max, min_conf) == expected
    # only the classes with no nonzero value in the prefix reach verify_claim,
    # and at a prime p only those of c <= p: above it the classes of c - p are copied
    read = [
        cl for cl in unrefuted if cl.family.colors <= cl.modulus or not _is_prime(cl.modulus)
    ]
    assert sorted(verified, key=claim_key) == sorted(read, key=claim_key)


def test_search_validates_bounds():
    with pytest.raises(ValueError):
        search_congruences(2, {5}, 40, min_confirmations=10)
    with pytest.raises(ValueError):
        search_congruences(0, {5}, 500)
    with pytest.raises(ValueError):
        search_congruences(2, {1}, 500)
    with pytest.raises(ValueError):
        search_congruences(1, {13}, 10, min_confirmations=0)
    # every class mod 3 is refuted on its prefix, yet the order is refused over ZZ/3,
    # the first modulus, as the full scan refused it, not over ZZ/5 by verify_claim
    with pytest.raises(ValueError, match=r"^series order 100000000001 .* over ZZ/3$"):
        search_congruences(1, {5, 3}, 10**11)


def test_search_refuses_c_max_above_the_ceiling_before_any_build(monkeypatch):
    # the ceiling itself is accepted: at a lowered ceiling, c_max equal to it runs
    monkeypatch.setattr(engine, "_MAX_COLOURS", 3)
    assert CongruenceClaim(A2, 3, 3, 2) in search_congruences(3, {3}, 29)

    def no_build(*args):
        raise AssertionError("a series was built")

    monkeypatch.setattr(engine, "generating_series", no_build)
    with pytest.raises(ValueError, match=r"^c_max 4 is above the ceiling 3$"):
        search_congruences(4, {3}, 29)
    monkeypatch.undo()
    with pytest.raises(ValueError, match=r"^c_max 1000001 is above the ceiling 1000000$"):
        search_congruences(10**6 + 1, {5}, 100)


def test_search_needs_n_max_of_p_k_minus_1():
    # n_max = 29 gives each class mod 3 exactly 10 values: 0..27, 1..28, 2..29
    assert CongruenceClaim(A2, 3, 3, 2) in search_congruences(2, {3}, 29)
    # one value per class mod 5 from n_max = 4: p(4) = 5
    assert CongruenceClaim(PartitionFamily(CUBIC, 1), 5, 5, 4) in search_congruences(
        1, {5}, 4, min_confirmations=1
    )
    with pytest.raises(ValueError, match="n_max 28 cannot give 10 confirmations at p = 3"):
        search_congruences(2, {3}, 28)
    with pytest.raises(ValueError, match="n_max 3 cannot give 1 confirmations at p = 5"):
        search_congruences(1, {5}, 3, min_confirmations=1)


@pytest.fixture
def counted_builds(monkeypatch):
    """No held family series; the builds are recorded as (kind, colors, modulus, order)."""
    builds = []
    build = engine.generating_series

    def counting_build(fam, order, ring):
        builds.append((fam.kind, fam.colors, ring.modulus, order))
        return build(fam, order, ring)

    monkeypatch.setattr(engine, "generating_series", counting_build)
    monkeypatch.setattr(engine._family_holder, "held", None)
    return builds


def test_a_witness_in_the_prefix_builds_no_full_series(counted_builds):
    """a_1(17n + 5) mod 17 has no theta core; its witness at n = 5 lies in the
    272-term prefix, so n_max 4 * 10^6 builds 272 terms, and the held series stays."""
    held = engine._series_mod(CUBIC, 3, 7, 100)
    claim = CongruenceClaim(PartitionFamily(CUBIC, 1), 17, 17, 5)
    result = verify_claim(claim, 4_000_000)
    assert result.describe().endswith("refuted  witness: count(5) == 7")
    assert counted_builds == [(CUBIC, 3, 7, 100), (CUBIC, 1, 17, engine._PREFIX * 17)]
    assert engine._family_holder.held == ((CUBIC, 3, 7), held)


def test_a_clean_prefix_builds_the_full_series_once_and_holds_it(counted_builds):
    """a_5(11n + 10) mod 11 holds: its prefix is clean, so the full series is
    built and held, and the next class cuts its prefix and its series from it."""
    fam = PartitionFamily(CUBIC, 5)
    assert verify_claim(CongruenceClaim(fam, 11, 11, 10), 3000).holds
    assert counted_builds == [(CUBIC, 5, 11, 176), (CUBIC, 5, 11, 3001)]
    refuted = verify_claim(CongruenceClaim(fam, 11, 11, 3), 2000)
    assert counted_builds == [(CUBIC, 5, 11, 176), (CUBIC, 5, 11, 3001)]
    assert (refuted.verdict, refuted.witness) == generic_scan(refuted.claim, 2000)
    key, held = engine._family_holder.held
    assert key == (CUBIC, 5, 11) and held.order == 3001


def test_a_prefix_above_a_sixteenth_of_the_scan_is_not_taken(counted_builds):
    """a_5(11n + 10) mod 11 at n_max 2000: 176 terms are more than 2001 / 16,
    so the full series is built at once, with no prefix before it."""
    fam = PartitionFamily(CUBIC, 5)
    assert verify_claim(CongruenceClaim(fam, 11, 11, 10), 2000).holds
    assert counted_builds == [(CUBIC, 5, 11, 2001)]
    assert 16 * engine._PREFIX * 11 > 2001 and engine._PREFIX * 11 < 2001


def test_a_prefix_is_skipped_on_request(counted_builds):
    """prefix=False goes to the full series, with the verdict of the prefix path."""
    claim = CongruenceClaim(PartitionFamily(CUBIC, 1), 17, 17, 5)
    result = verify_claim(claim, 5000, prefix=False)
    assert counted_builds == [(CUBIC, 1, 17, 5001)]
    assert result == verify_claim(claim, 5000)


def test_store_cuts_a_shorter_series_from_a_longer_one(counted_builds):
    long = engine._series_mod(CUBIC, 3, 7, 500)
    short = engine._series_mod(CUBIC, 3, 7, 120)
    assert counted_builds == [(CUBIC, 3, 7, 500)]
    fresh = generating_series(PartitionFamily(CUBIC, 3), 120, zmod(7))
    assert short == fresh and short.order == 120
    assert engine._series_mod(CUBIC, 3, 7, 500) is long


def test_store_cut_is_a_read_only_view(counted_builds):
    long = engine._series_mod(CUBIC, 3, 7, 5000)
    short = engine._series_mod(CUBIC, 3, 7, 1200)
    assert np.shares_memory(short.coeffs, long.coeffs)
    with pytest.raises(ValueError, match="read-only"):
        short.coeffs[0] = 2
    assert short == generating_series(PartitionFamily(CUBIC, 3), 1200, zmod(7))


def test_store_builds_a_longer_series_once(counted_builds):
    engine._series_mod(OVERCUBIC, 2, 5, 100)
    longer = engine._series_mod(OVERCUBIC, 2, 5, 300)
    assert engine._series_mod(OVERCUBIC, 2, 5, 300) is longer
    engine._series_mod(OVERCUBIC, 2, 5, 200)
    assert counted_builds == [(OVERCUBIC, 2, 5, 100), (OVERCUBIC, 2, 5, 300)]
    assert longer.order == 300


def test_one_family_series_is_held(counted_builds):
    first = engine._series_mod(CUBIC, 3, 7, 300)
    engine._series_mod(CUBIC, 4, 7, 300)  # another family replaces it
    assert engine._family_holder.held[0] == (CUBIC, 4, 7)
    again = engine._series_mod(CUBIC, 3, 7, 200)  # so the first is built again
    assert again == first.truncate(200) and again.order == 200
    engine._series_mod(CUBIC, 3, 11, 200)  # as is another modulus
    assert [b[:3] for b in counted_builds] == [
        (CUBIC, 3, 7), (CUBIC, 4, 7), (CUBIC, 3, 7), (CUBIC, 3, 11)
    ]


def test_store_serves_concurrent_callers_exact_orders(monkeypatch):
    def slow_build(fam, order, ring):
        time.sleep(0.01)  # keep builds open while other threads read and write
        return TruncatedSeries(ring, [fam.colors + i for i in range(order)], 0, order)

    monkeypatch.setattr(engine, "generating_series", slow_build)
    monkeypatch.setattr(engine._family_holder, "held", None)
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
    key, held = engine._family_holder.held
    assert key in {(CUBIC, c, 101) for c in (1, 2, 3)} and held.order <= 50


def test_composite_grid_search_holds_one_family_series_and_one_f1_inverse(monkeypatch):
    """A composite modulus has no colour period, so search verifies the open
    classes of every colour from full series; one of each kind stays held."""
    monkeypatch.setattr(engine._family_holder, "held", None)
    monkeypatch.setattr(qfunctions._f1_holder, "held", None)
    rings = {zmod(m) for m in (4, 6, 9)}
    assert len(search_congruences(12, [4, 6, 9], 3000)) == 36
    gc.collect()
    live = [s for s in gc.get_objects() if isinstance(s, TruncatedSeries) and s.ring in rings]
    assert len(live) <= 2
    assert [s.order for s in live if s is engine._family_holder.held[1]] == [3001]


def needs_full_series(kind, c, p):
    """True when verify_claim cuts the classes mod p from the full series:
    p is not a prime, or the family's map has no theta core mod p."""
    return qfunctions._core_class(PartitionFamily(kind, c).exponents, 0, 1, zmod(p)) is None


def test_search_builds_each_colour_from_the_previous_one(counted_builds, monkeypatch):
    steps, requested, products, verified = [], [], [], []
    quotient, series_mod, mul, verify = (
        engine.euler_quotient, engine._series_mod, TruncatedSeries.__mul__, engine.verify_claim
    )

    def counting_quotient(exponents, order, ring):
        steps.append((dict(exponents), order, ring.modulus))
        step = quotient(exponents, order, ring)
        built.append(step)
        return step

    def counting_mul(a, b):
        if any(b is step for step in built):
            products.append((a.ring.modulus, a.order))
        return mul(a, b)

    def recording_series_mod(kind, colors, modulus, order):
        requested.append(order)
        return series_mod(kind, colors, modulus, order)

    def recording_verify(claim, n, prefix=True):
        assert not prefix  # search's own prefix is not scanned again
        verified.append(claim)
        return verify(claim, n, prefix)

    built = []  # the steps search built
    monkeypatch.setattr(engine, "euler_quotient", counting_quotient)
    monkeypatch.setattr(engine, "_series_mod", recording_series_mod)
    monkeypatch.setattr(engine, "verify_claim", recording_verify)
    monkeypatch.setattr(TruncatedSeries, "__mul__", counting_mul)
    # the benchmark's search grid, then p = 2 and composite moduli
    grids = ((6, [3, 5, 7, 11], 8000, 20), (12, [2, 3, 4, 6, 9], 3000, 56))
    for c_max, moduli, n_max, found in grids:
        engine._family_holder.held = None
        for seen in (counted_builds, steps, requested, products, verified):
            del seen[:]
        claims = search_congruences(c_max, moduli, n_max)
        assert len(claims) == found
        prefix = {p: min(n_max + 1, engine._PREFIX * p) for p in moduli}
        # the colours read on a prefix: c <= p at a prime p, every c at a composite one
        read = {p: min(c_max, p) if _is_prime(p) else c_max for p in moduli}
        triples = [
            (kind, c, p) for kind in (CUBIC, OVERCUBIC) for p in moduli for c in range(1, read[p] + 1)
        ]
        survivors = {(cl.family.kind, cl.family.colors, cl.modulus) for cl in claims}
        full = [t for t in triples if t in survivors and needs_full_series(*t)]
        assert full  # cubic c = 1 and 5 mod 11 have no core; 4, 6 and 9 are composite
        # one F_1 and one step per kind and modulus at the prefix order, and
        # the full order only for a triple read on its prefix whose surviving
        # classes verify_claim cuts from the full series
        assert sorted(counted_builds) == sorted(
            [(kind, 1, p, prefix[p]) for kind in (CUBIC, OVERCUBIC) for p in moduli]
            + [(*t, n_max + 1) for t in full]
        )
        assert sorted((sorted(e.items()), n, p) for e, n, p in steps) == sorted(
            (sorted(partitions._COLOUR_STEP[kind].items()), prefix[p], p)
            for kind in (CUBIC, OVERCUBIC)
            for p in moduli
        )
        # one prefix product per colour read after the first, none above p at a prime p
        assert sorted(products) == sorted(
            (p, prefix[p]) for kind, c, p in triples if c > 1
        )
        assert {(cl.family.kind, cl.family.colors, cl.modulus) for cl in verified} <= set(triples)
        # only verify_claim asks for a family series, at the full order, never a prefix
        assert set(requested) == {n_max + 1}


def test_search_reads_a_class_by_its_colour_mod_p():
    """Mod a prime p, F_c == F_{c-p}(q) H(q^p) with H(0) = 1: the class r of
    colour c has the verdict and first witness of colour c - p."""
    for kind in (CUBIC, OVERCUBIC):
        for p in (2, 3, 5, 7, 11, 13):
            for c in range(p + 1, 2 * p + 2):
                for r in range(p):
                    claim = CongruenceClaim(PartitionFamily(kind, c), p, p, r)
                    got = verify_claim(claim, 600)
                    assert (got.verdict, got.witness) == generic_scan(claim, 600), claim
                    lower = verify_claim(
                        CongruenceClaim(PartitionFamily(kind, c - p), p, p, r), 600
                    )
                    assert (got.verdict, got.witness) == (lower.verdict, lower.witness), claim


# -- class-first scans through a theta core ----------------------------------


@pytest.fixture
def series_requests(monkeypatch):
    """No held family series; the keys _series_mod is asked for are recorded."""
    requests = []
    series_mod = engine._series_mod

    def recording(kind, colors, modulus, order):
        requests.append((kind, colors, modulus))
        return series_mod(kind, colors, modulus, order)

    monkeypatch.setattr(engine, "_series_mod", recording)
    monkeypatch.setattr(engine._family_holder, "held", None)
    return requests


def generic_scan(claim, n_max):
    """The verdict and witness of the claim, read from the family's full series."""
    values = generating_series(claim.family, n_max + 1, zmod(claim.modulus))
    values = values.extract_progression(claim.progression, claim.residue)
    hits = values.support()
    if hits.size:
        n = int(hits[0])
        return REFUTED, (claim.progression * n + claim.residue, values.coefficient(n))
    return HOLDS, None


def whole_class(exponents, r, order, ring):
    """Class r of the quotient mod p: [C]_r times H = prod f_delta^D(delta), D = (E - C) / p."""
    p = ring.modulus
    rest = dict(exponents)
    for name, k in qfunctions._theta_core(exponents, p):
        for d, e in qfunctions._CLOSED_FORMS[name][0].items():
            rest[k * d] = rest.get(k * d, 0) - e
    assert all(v % p == 0 for v in rest.values()), (exponents, p, rest)
    cofactor = {d: v // p for d, v in rest.items() if v}
    part = qfunctions._core_class(exponents, r, order, ring)
    return part * qfunctions.euler_quotient(cofactor, part.order, ring)


def assert_classes_match(fam, p, orders):
    """Every class of the family read class first equals its cut of the full series,
    and verify_claim gives the verdict and witness of the full series."""
    ring = zmod(p)
    for order in orders:
        full = generating_series(fam, order, ring)
        for r in range(p):
            got = whole_class(fam.exponents, r, order, ring)
            assert got == full.extract_progression(p, r), (fam, order, r)
            if r < order:
                claim = CongruenceClaim(fam, p, p, r)
                result = verify_claim(claim, order - 1)
                assert (result.verdict, result.witness) == generic_scan(claim, order - 1)


@pytest.mark.parametrize("p", [2, 3, 5, 7, 11, 13])
@pytest.mark.parametrize("kind", [CUBIC, OVERCUBIC])
def test_class_first_matches_the_generic_class(series_requests, kind, p):
    for k in (1, 2, 3):
        fam = PartitionFamily(kind, k * p - 1)
        assert len(qfunctions._theta_core(fam.exponents, p)) == 1, fam
        assert_classes_match(fam, p, (1, p, 997))
    assert series_requests == []


def pair_core_cases():
    """Every (family, p) with c <= 30 whose first core is a product of two closed forms."""
    return [
        (PartitionFamily(kind, c), p)
        for kind in (CUBIC, OVERCUBIC)
        for c in range(1, 31)
        for p in (2, 3, 5, 7, 11, 13)
        if len(qfunctions._theta_core(PartitionFamily(kind, c).exponents, p) or ()) == 2
    ]


def test_pair_cores_of_the_small_families():
    cases = {(fam.kind, fam.colors, p) for fam, p in pair_core_cases()}
    assert (CUBIC, 3, 7) in cases and (OVERCUBIC, 5, 7) in cases
    assert len(cases) == 104
    # 1 / (f_1 f_2^2) == psi(q) f_2^3 / f_14 (mod 7)
    assert qfunctions._theta_core(EtaMap({1: -1, 2: -2}), 7) == (("psi", 1), ("jacobi_cube", 2))
    # a_5(11n+10) mod 11 has no core of one or two factors
    assert qfunctions._theta_core(PartitionFamily(CUBIC, 5).exponents, 11) is None


def ordered_scan_core(exponents, p):
    """The first core by trying every single factor, then every pair (i, j), i <= j, in order."""
    factors = [(name, k) for k in sorted({1, *exponents}) for name in qfunctions._CLOSED_FORMS]
    singles = ((f,) for f in factors)
    for core in itertools.chain(singles, itertools.combinations_with_replacement(factors, 2)):
        rest = dict(exponents)
        for name, k in core:
            for d, e in qfunctions._CLOSED_FORMS[name][0].items():
                rest[k * d] = rest.get(k * d, 0) - e
        if all(v % p == 0 for v in rest.values()):
            return core
    return None


@settings(max_examples=1000, deadline=None, derandomize=True)
@given(
    exponents=st.dictionaries(st.integers(1, 12), st.integers(-30, 30).filter(bool), max_size=4),
    p=st.sampled_from([2, 3, 5, 7, 11, 13, 17, 23]),
)
@example(exponents={1: -1, 2: -2}, p=7)  # psi(q) f_2^3
@example(exponents={1: -2, 2: -7, 4: 4}, p=7)  # overcubic c = 5, a pair
@example(exponents={1: -2, 2: -47, 4: 24}, p=13)  # overcubic c = 25: phi
@example(exponents={1: -1, 2: -4}, p=11)  # cubic c = 5: no core
@example(exponents={}, p=3)  # the map 1: f^3 == 1 (mod 3)
def test_theta_core_lookup_matches_the_ordered_scan(exponents, p):
    assert qfunctions._theta_core(EtaMap(exponents), p) == ordered_scan_core(exponents, p)


@pytest.mark.parametrize("fam, p", pair_core_cases(), ids=lambda x: getattr(x, "colors", x))
def test_pair_cores_match_the_generic_class(series_requests, fam, p):
    assert_classes_match(fam, p, (1, p, 997))
    assert series_requests == []


@pytest.mark.parametrize("kind, p", [(CUBIC, 7), (OVERCUBIC, 13)])
def test_class_first_matches_the_generic_class_at_10_5(series_requests, kind, p):
    assert_classes_match(PartitionFamily(kind, 2 * p - 1), p, (10**5,))
    assert series_requests == []


@pytest.mark.parametrize("kind, c, p", [(CUBIC, 3, 7), (OVERCUBIC, 5, 7)])
def test_pair_cores_match_the_generic_class_at_10_5(series_requests, kind, c, p):
    fam = PartitionFamily(kind, c)
    assert len(qfunctions._theta_core(fam.exponents, p)) == 2
    assert_classes_match(fam, p, (10**5,))
    assert series_requests == []


@pytest.mark.parametrize("core", [
    (("jacobi_cube", 1), ("jacobi_cube", 2)),  # the largest coefficients
    (("phi", 1), ("euler_product", 4)),
    (("psi(-q)", 2),),
])
@pytest.mark.parametrize("p", [2, 7, 65521])
def test_class_read_sums_every_pair_in_the_class(core, p):
    order = 3001
    terms = [[(e, c) for e, c in zip(*(a.tolist() for a in qfunctions._terms(name, k, order)))
              if c % p]
             for name, k in core] + [[(0, 1)]]
    for r in range(min(p, 9)):
        want = [0] * -(-(order - r) // p)
        for a, ca in terms[0]:
            for b, cb in terms[1]:
                if a + b < order and (a + b) % p == r:
                    want[(a + b) // p] += ca * cb
        assert qfunctions._class_read(core, r, order, p).tolist() == want, r


def test_admissible_classes_build_no_cofactor(series_requests, monkeypatch):
    def no_call(*args):
        raise AssertionError("a cofactor was built")

    monkeypatch.setattr(qfunctions, "euler_quotient", no_call)
    for p in (3, 5, 7, 11, 13):
        for theorem, ks in (("1.2", (1,)), ("cor-1.3", (1, 2, 3)), ("4.1", (1, 2, 3))):
            for k in ks:
                results = verify_theorem_family(theorem, p, k, 4000)
                assert results and all(r.holds for r in results), (theorem, p, k)
    # a_3(7n+4) mod 7: psi(q) f_2^3 has no term in the class
    assert verify_claim(CongruenceClaim(PartitionFamily(CUBIC, 3), 7, 7, 4), 10**6).holds
    assert series_requests == [] and engine._family_holder.held is None


def core_claims():
    """Every claim of a family with c <= 30 at its progression p <= 13 whose map has a core."""
    return [
        CongruenceClaim(fam, p, p, r)
        for kind in (CUBIC, OVERCUBIC)
        for fam in (PartitionFamily(kind, c) for c in range(1, 31))
        for p in (2, 3, 5, 7, 11, 13)
        if qfunctions._theta_core(fam.exponents, p) is not None
        for r in range(p)
    ]


def test_class_first_claims_build_no_series(monkeypatch):
    claims = core_claims()
    want = [generic_scan(claim, 996) for claim in claims]
    assert len(want) == 846 and sum(verdict == HOLDS for verdict, _ in want) == 159

    def no_call(*args):
        raise AssertionError("a series was built")

    monkeypatch.setattr(engine._family_holder, "held", None)
    monkeypatch.setattr(qfunctions._f1_holder, "held", None)
    for module, name in [
        (qfunctions, "euler_quotient"),
        (partitions, "euler_quotient"),
        (qfunctions, "_f1_inverse"),
        (engine, "_series_mod"),
    ]:
        monkeypatch.setattr(module, name, no_call)
    # holding and refuted classes alike: a refuted one has its witness from [C]_r
    results = [verify_claim(claim, 996) for claim in claims]
    assert [(r.verdict, r.witness) for r in results] == want
    assert engine._family_holder.held is None and qfunctions._f1_holder.held is None


@pytest.mark.parametrize("claim", [
    CongruenceClaim(PartitionFamily(CUBIC, 5), 11, 11, 10),  # no core mod 11
    CongruenceClaim(PartitionFamily(CUBIC, 2), 5, 25, 22),  # theorem 1.1, progression 25
    CongruenceClaim(PartitionFamily(CUBIC, 5), 6, 6, 2),  # composite modulus
    CongruenceClaim(PartitionFamily(OVERCUBIC, 6), 7, 1, 0),  # progression 1
    # psi is a core mod 2^64 + 13, a prime above the int64 storage the read sums in
    CongruenceClaim(PartitionFamily(CUBIC, 2**64 + 12), 2**64 + 13, 2**64 + 13, 4),
])
def test_claims_without_a_prime_core_stay_generic(series_requests, claim):
    result = verify_claim(claim, 3000)
    # the full series only for a class with no witness in the prefix, which is
    # scanned only when it is at most a 1/_PREFIX share of the 3001 terms
    prefix = engine._PREFIX * claim.progression
    scanned = engine._PREFIX * prefix <= 3001
    in_prefix = scanned and result.witness is not None and result.witness[0] < prefix
    full = [(claim.family.kind, claim.family.colors, claim.modulus)]
    assert series_requests == ([] if in_prefix else full)
    assert (result.verdict, result.witness) == generic_scan(claim, 3000)


def test_theorem_11_stays_generic(series_requests):
    (result,) = verify_theorem_family("1.1", n_max=2000)
    assert result.holds and series_requests == [(CUBIC, 2, 5)]


def test_class_first_refuses_an_order_above_the_ceiling_first(monkeypatch):
    def no_call(*args):
        raise AssertionError("allocated above the ceiling")

    monkeypatch.setattr(qfunctions, "_terms", no_call)
    monkeypatch.setattr(qfunctions.np, "zeros", no_call)
    for claim in [
        CongruenceClaim(PartitionFamily(OVERCUBIC, 25), 13, 13, 11),  # one closed form
        CongruenceClaim(PartitionFamily(CUBIC, 3), 7, 7, 4),  # two closed forms
    ]:
        with pytest.raises(ValueError, match="series order 10000001 is above the ceiling"):
            verify_claim(claim, 10**7)
