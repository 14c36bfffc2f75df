"""Congruence claims, numerical verification, certificates, and search.

A CongruenceClaim says "count(family, p*n + r) == 0 (mod m) for all n".
verify_claim checks it for every progression value up to a bound by
expanding the family's generating series in a mod-m ring.  The named
theorem families instantiate claims from the admissible-residue
criteria.  prove_isolated reproduces the two Sturm-bound proofs
(a_3(7n+4) mod 7 and a_5(11n+10) mod 11) and emits a self-contained
certificate.  search_congruences scans for candidate congruences
empirically; it never calls anything proven.

The engine runs on the calling thread.  Every mod-m expansion goes
through one bounded store (``qfunctions._stored``) that keeps the
longest series built so far for each key, so a scan to a lower bound
after a higher one costs no build: the shorter series is a view of the
stored one.  The store holds two kinds of key in one LRU bound: a
family's series under (kind, colors, modulus), and 1 / f_1 under
("f1-inverse", ring), which every family's expansion cuts from.  The
scans read a progression as a strided view and find its nonzero values
in one vectorised pass.
"""

from __future__ import annotations

# unused by the package; bench/tracer.py wraps this name
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from typing import Iterable, List, Optional, Tuple

import numpy as np

from .arith import admissible_residues
from .modform import (
    CharacterDescriptor,
    CuspOrderTable,
    EtaQuotient,
    check_candidacy,
    cusp_orders,
    hecke_tp,
    sturm_bound,
    weight,
)
from .partitions import CUBIC, OVERCUBIC, PartitionFamily, count_direct, generating_series
from .qfunctions import _stored, eta_expansion
from .series import TruncatedSeries, zmod

__all__ = [
    "CongruenceClaim",
    "VerificationResult",
    "SturmCertificate",
    "verify_claim",
    "theorem_claims",
    "verify_theorem_family",
    "prove_isolated",
    "build_certificate",
    "search_congruences",
    "DEFAULT_NMAX",
]

DEFAULT_NMAX = 2000

HOLDS = "holds-up-to-bound"
REFUTED = "refuted"

# Ramanujan's progressions for p(n), inherited by the c = jp+1 families.
_CLASSICAL_RESIDUE = {5: 4, 7: 5, 11: 6}


@dataclass(frozen=True)
class CongruenceClaim:
    """count(family, progression*n + residue) == 0 (mod modulus), all n >= 0."""

    family: PartitionFamily
    modulus: int
    progression: int
    residue: int

    def __post_init__(self) -> None:
        if self.modulus < 2:
            raise ValueError(f"modulus must be >= 2, got {self.modulus}")
        if self.progression < 1:
            raise ValueError(f"progression must be >= 1, got {self.progression}")
        if not 0 <= self.residue < self.progression:
            raise ValueError(
                f"residue {self.residue} out of range [0, {self.progression})"
            )

    def describe(self) -> str:
        name = "a" if self.family.kind == CUBIC else "abar"
        return (
            f"{name}_{self.family.colors}({self.progression}n+{self.residue})"
            f" == 0 (mod {self.modulus})"
        )


@dataclass(frozen=True)
class VerificationResult:
    """Outcome of scanning one claim to n_max.

    The witness, present only on refutation, is (exponent, value mod m)
    with the exponent minimal in the progression.
    """

    claim: CongruenceClaim
    n_max: int
    verdict: str
    witness: Optional[Tuple[int, int]] = None

    @property
    def holds(self) -> bool:
        return self.verdict == HOLDS

    def describe(self) -> str:
        base = f"{self.claim.describe()}  [n <= {self.n_max}]  {self.verdict}"
        if self.witness is not None:
            base += f"  witness: count({self.witness[0]}) == {self.witness[1]}"
        return base


def _series_mod(kind: str, colors: int, modulus: int, order: int) -> TruncatedSeries:
    """The family's series mod modulus to exactly the given order, from the store.

    A shorter series is cut from the stored one as a view; a longer one is
    built and replaces it (``qfunctions._stored``).
    """
    return _stored(
        (kind, colors, modulus),
        order,
        lambda n: generating_series(PartitionFamily(kind, colors), n, zmod(modulus)),
    )


def verify_claim(claim: CongruenceClaim, n_max: int) -> VerificationResult:
    """Scan every progression value <= n_max; report the first violation."""
    if n_max < claim.residue:
        raise ValueError(
            f"n_max {n_max} does not reach the first progression value {claim.residue}"
        )
    series = _series_mod(
        claim.family.kind, claim.family.colors, claim.modulus, n_max + 1
    )
    values = series.extract_progression(claim.progression, claim.residue)
    hits = values.support()
    if hits.size:
        n = int(hits[0])
        e = claim.progression * n + claim.residue
        return VerificationResult(claim, n_max, REFUTED, (e, values.coefficient(n)))
    return VerificationResult(claim, n_max, HOLDS)


def theorem_claims(
    theorem: str, p: Optional[int] = None, k: int = 1
) -> List[CongruenceClaim]:
    """Claims instantiated by a named result.

    1.2:      cubic, c = p-1, residues with 8r+1 a nonresidue mod p.
    cor-1.3:  cubic, c = kp-1, same residues.
    4.1:      overcubic, c = kp-1, residues r that are nonresidues mod p.
    remarks:  cubic, c = kp+1 for p in {5,7,11}, the classical progression.
    1.1:      cubic c = 2, the j=2 instance 25n+22 mod 5 (j=1 is vacuous:
              the asserted modulus 5^floor(1/2) is 1).
    1.5:      the two isolated congruences, filtered by p when given.

    1.1, 1.2 and 1.5 have no k; any k other than 1 is rejected there.
    """
    if k < 1:
        raise ValueError(f"k must be >= 1, got {k}")
    if k != 1 and theorem in ("1.1", "1.2", "1.5"):
        raise ValueError(f"theorem {theorem} takes no k, got k = {k}")
    if theorem in ("1.2", "cor-1.3"):
        if p is None:
            raise ValueError(f"theorem {theorem} needs an odd prime p")
        fam = PartitionFamily(CUBIC, k * p - 1)
        residues = admissible_residues(p, CUBIC).admissible
        return [CongruenceClaim(fam, p, p, r) for r in sorted(residues)]
    if theorem == "4.1":
        if p is None:
            raise ValueError("theorem 4.1 needs an odd prime p")
        fam = PartitionFamily(OVERCUBIC, k * p - 1)
        residues = admissible_residues(p, OVERCUBIC).admissible
        return [CongruenceClaim(fam, p, p, r) for r in sorted(residues)]
    if theorem == "remarks":
        if p not in _CLASSICAL_RESIDUE:
            raise ValueError(f"remark families exist for p in {{5, 7, 11}}, got {p}")
        fam = PartitionFamily(CUBIC, k * p + 1)
        return [CongruenceClaim(fam, p, p, _CLASSICAL_RESIDUE[p])]
    if theorem == "1.1":
        if p not in (None, 5):
            raise ValueError(f"theorem 1.1 is a mod-5 statement, got p = {p}")
        return [CongruenceClaim(PartitionFamily(CUBIC, 2), 5, 25, 22)]
    if theorem == "1.5":
        claims = [claim for _, _, claim in _ISOLATED.values()]
        if p is not None:
            claims = [c for c in claims if c.modulus == p]
            if not claims:
                raise ValueError(f"no isolated congruence at p = {p}")
        return claims
    raise ValueError(f"unknown theorem id {theorem!r}")


def verify_theorem_family(
    theorem: str,
    p: Optional[int] = None,
    k: int = 1,
    n_max: int = DEFAULT_NMAX,
) -> List[VerificationResult]:
    """Verify every claim a named result instantiates, one result per claim."""
    return [verify_claim(c, n_max) for c in theorem_claims(theorem, p, k)]


# -- Sturm certificates ---------------------------------------------------

_ISOLATED = {
    "a3-mod7": (
        EtaQuotient(8, {1: 76, 2: -2}),
        7,
        CongruenceClaim(PartitionFamily(CUBIC, 3), 7, 7, 4),
    ),
    "a5-mod11": (
        EtaQuotient(4, {1: 32, 2: -4}),
        11,
        CongruenceClaim(PartitionFamily(CUBIC, 5), 11, 11, 10),
    ),
}

PROVEN = "proven"
FAILED = "failed"

_ORACLE_VALUES = 10


@dataclass(frozen=True)
class SturmCertificate:
    """A finite-check proof record for one congruence.

    verdict is 'proven' iff every T_p-image coefficient in the inclusive
    window vanished mod modulus and the combinatorial oracle agreed on
    the first progression values.  On failure the stage and witness are
    recorded; all metadata computed before the failure is kept.
    """

    cert_id: str
    quotient: EtaQuotient
    weight: int
    level: int
    character: Optional[CharacterDescriptor]
    cusp_table: CuspOrderTable
    bound: int
    prime: int
    modulus: int
    window: Tuple[int, int]
    verdict: str
    failure_stage: Optional[str] = None
    witness_exponent: Optional[int] = None
    witness_value: Optional[int] = None

    @property
    def proven(self) -> bool:
        return self.verdict == PROVEN

    def to_text(self) -> str:
        exps = " ".join(
            f"{d}^{self.quotient.exponents[d]}" for d in sorted(self.quotient.exponents)
        )
        cusps = " ".join(
            f"{d}:{self.cusp_table.orders[d]}" for d in sorted(self.cusp_table.orders)
        )
        lines = [
            f"id: {self.cert_id}",
            f"level: {self.level}",
            f"weight: {self.weight}",
            f"exponents: {exps}",
            f"character: {self.character if self.character else 'none'}",
            f"cusp-orders: {cusps}",
            f"sturm-bound: {self.bound}",
            f"prime: {self.prime}",
            f"modulus: {self.modulus}",
            f"coefficients-checked: {self.window[0]}..{self.window[1]}",
            f"verdict: {self.verdict}",
        ]
        if self.verdict == FAILED:
            lines.append(f"failure-stage: {self.failure_stage}")
            if self.witness_exponent is not None:
                lines.append(f"witness-exponent: {self.witness_exponent}")
                lines.append(f"witness-value: {self.witness_value}")
        return "\n".join(lines) + "\n"

    def to_dict(self) -> dict:
        witness = None
        if self.witness_exponent is not None:
            witness = {"exponent": self.witness_exponent, "value": self.witness_value}
        character = None
        if self.character is not None:
            character = {
                "weight": self.character.weight,
                "s_numerator": self.character.s_numerator,
                "s_denominator": self.character.s_denominator,
            }
        return {
            "id": self.cert_id,
            "level": self.level,
            "weight": self.weight,
            "exponents": {str(d): r for d, r in sorted(self.quotient.exponents.items())},
            "character": character,
            "cusp_orders": {
                str(d): str(v) for d, v in sorted(self.cusp_table.orders.items())
            },
            "sturm_bound": self.bound,
            "prime": self.prime,
            "modulus": self.modulus,
            "coefficients_checked": list(self.window),
            "verdict": self.verdict,
            "failure_stage": self.failure_stage,
            "witness": witness,
        }


def build_certificate(
    which: str,
    hecke_prime: Optional[int] = None,
    modulus: Optional[int] = None,
) -> SturmCertificate:
    """Run the certificate pipeline, optionally with a mutated operator.

    The overrides exist so the pipeline's failure path is testable: with
    hecke_prime=5 on the mod-7 quotient the coefficient window does not
    vanish and the certificate must say so.
    """
    if which not in _ISOLATED:
        raise ValueError(f"unknown certificate id {which!r}")
    eq, p0, claim = _ISOLATED[which]
    p = hecke_prime if hecke_prime is not None else p0
    m = modulus if modulus is not None else p

    report = check_candidacy(eq)
    table = cusp_orders(eq)
    ell = weight(eq)
    integral = isinstance(ell, int)
    bound = sturm_bound(ell, eq.level) if integral and ell >= 1 else 0
    base = dict(
        cert_id=which,
        quotient=eq,
        weight=ell if integral else 0,
        level=eq.level,
        character=report.character,
        cusp_table=table,
        bound=bound,
        prime=p,
        modulus=m,
        window=(0, bound),
    )
    if not report.passes:
        return SturmCertificate(verdict=FAILED, failure_stage="candidacy", **base)
    if not table.is_holomorphic:
        return SturmCertificate(verdict=FAILED, failure_stage="cusp-orders", **base)

    expansion = eta_expansion(eq, p * (bound + 1) + eq.delta_sum // 24, zmod(m))
    image = hecke_tp(expansion, p, ell, report.character)
    for n in range(bound + 1):
        v = image.coefficient(n)
        if v != 0:
            return SturmCertificate(
                verdict=FAILED,
                failure_stage="hecke-window",
                witness_exponent=n,
                witness_value=v,
                **base,
            )
    # the modular argument passed; make sure it proves the right progression
    for n in range(_ORACLE_VALUES):
        e = claim.progression * n + claim.residue
        v = count_direct(claim.family, e) % claim.modulus
        if v != 0:
            return SturmCertificate(
                verdict=FAILED,
                failure_stage="oracle-cross-check",
                witness_exponent=e,
                witness_value=v,
                **base,
            )
    return SturmCertificate(verdict=PROVEN, **base)


def prove_isolated(which: str) -> SturmCertificate:
    """Certificate for a3-mod7 (weight 37, level 8) or a5-mod11 (weight 14, level 4)."""
    return build_certificate(which)


# -- empirical search ------------------------------------------------------


def search_congruences(
    c_max: int,
    primes: Iterable[int],
    n_max: int,
    min_confirmations: int = 10,
) -> List[CongruenceClaim]:
    """Empirically surviving claims count(pn+r) == 0 mod p, sorted.

    A claim is emitted iff every progression value <= n_max vanished and
    at least min_confirmations (>= 1) values were seen.  Emitted claims
    are empirical observations, not theorems.
    """
    ps = sorted(set(primes))
    if c_max < 1:
        raise ValueError(f"c_max must be >= 1, got {c_max}")
    if min_confirmations < 1:
        raise ValueError(f"min_confirmations must be >= 1, got {min_confirmations}")
    for p in ps:
        if p < 2:
            raise ValueError(f"progression modulus must be >= 2, got {p}")
        if n_max < p * min_confirmations:
            raise ValueError(
                f"n_max {n_max} cannot give {min_confirmations} confirmations at p = {p}"
            )

    results: List[CongruenceClaim] = []
    for kind in (CUBIC, OVERCUBIC):
        for c in range(1, c_max + 1):
            for p in ps:
                series = _series_mod(kind, c, p, n_max + 1)
                # the nonzero values seen in each residue class
                seen = np.bincount(series.support() % p, minlength=p)
                for r in range(p):
                    if not seen[r]:
                        results.append(CongruenceClaim(PartitionFamily(kind, c), p, p, r))
    results.sort(
        key=lambda cl: (cl.family.kind, cl.family.colors, cl.progression, cl.residue)
    )
    return results
