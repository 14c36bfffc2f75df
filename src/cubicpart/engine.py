"""Congruence claims, numerical verification, certificates, and search.

A CongruenceClaim says "count(family, p*n + r) == 0 (mod m) for all n".
verify_claim checks it for every progression value up to a bound: mod a
prime p at which the family's map has a theta core C, the class is read
from [C]_r alone (``qfunctions._core_class``), and every other claim is
scanned on the family's generating series mod m.  The named theorem
families instantiate claims from the admissible-residue criteria.
prove_isolated reproduces the two Sturm-bound proofs (a_3(7n+4) mod 7
and a_5(11n+10) mod 11) and emits a self-contained certificate.
search_congruences scans for candidate congruences empirically; it
never calls anything proven.  It reads the colours of each modulus on a
short prefix, where almost every class meets a nonzero value, and
passes only the classes the prefix leaves open to verify_claim; mod a
prime p a class's verdict depends on c mod p alone, so the colours
above p copy the claims of c - p.

The engine runs on the calling thread.  Two series are held, each the
last one built (``series._Holder``): 1 / f_1
(``qfunctions._f1_inverse``), which every family's expansion cuts from,
and the family's series mod m (``_series_mod``), which a scan of another
class of the same family to no higher a bound cuts as a view.
``search_congruences`` reads both kinds of a modulus in turn, so they
share the held 1 / f_1.  Colour reuse lives in ``search_congruences``
alone, on local prefixes.  The scans read a progression as a strided
view and find its nonzero values in one vectorised pass.
"""

from __future__ import annotations

from typing import Iterable, List, NamedTuple, Optional, Tuple

import numpy as np

from .arith import _is_prime, _require_odd_prime, _symbols, admissible_residues
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
from .partitions import (
    _COLOUR_STEP, CUBIC, OVERCUBIC, PartitionFamily, _count_table, generating_series
)
# unused by the package; bench/tracer.py wraps this name
from .partitions import count_direct  # noqa: F401
from .qfunctions import _MAX_COLOURS, _check_order, _core_class, eta_expansion, euler_quotient
from .series import TruncatedSeries, _Holder, zmod

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


def __getattr__(name: str):
    """ThreadPoolExecutor, imported on first access and not at start-up.

    The package runs no pool; bench/tracer.py reads and replaces the name.
    """
    if name == "ThreadPoolExecutor":
        from concurrent.futures import ThreadPoolExecutor

        return ThreadPoolExecutor
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


# Ramanujan's progressions for p(n), inherited by the c = jp+1 families.
_CLASSICAL_RESIDUE = {5: 4, 7: 5, 11: 6}


# CongruenceClaim's fields; a NamedTuple may not define __new__, so CongruenceClaim
# subclasses this one to check them
class _CongruenceClaim(NamedTuple):
    family: PartitionFamily
    modulus: int
    progression: int
    residue: int


class CongruenceClaim(_CongruenceClaim):
    """count(family, progression*n + residue) == 0 (mod modulus), all n >= 0."""

    __slots__ = ()

    def __new__(
        cls, family: PartitionFamily, modulus: int, progression: int, residue: int
    ) -> "CongruenceClaim":
        if modulus < 2:
            raise ValueError(f"modulus must be >= 2, got {modulus}")
        if progression < 1:
            raise ValueError(f"progression must be >= 1, got {progression}")
        if not 0 <= residue < progression:
            raise ValueError(f"residue {residue} out of range [0, {progression})")
        return _CongruenceClaim.__new__(cls, family, modulus, progression, residue)

    def describe(self) -> str:
        name = "a" if self.family.kind == CUBIC else "abar"
        return (
            f"{name}_{self.family.colors}({self.progression}n+{self.residue})"
            f" == 0 (mod {self.modulus})"
        )


class VerificationResult(NamedTuple):
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


# search scans each series first on its _PREFIX p leading terms, and
# verify_claim a class with no theta core on its _PREFIX progression when
# that is at most a 1/_PREFIX share of the full scan
_PREFIX = 16

# the last family series that _series_mod built, keyed by (kind, colors, modulus)
_family_holder = _Holder()


def _series_mod(kind: str, colors: int, modulus: int, order: int) -> TruncatedSeries:
    """The family's series mod modulus to exactly the given order; the last one built is held.

    The holder is ``series._Holder``.  Only ``verify_claim``'s full scans
    ask, and the reuse they make is ``search``'s next open class of the
    same family.
    """
    return _family_holder.get(
        (kind, colors, modulus), order,
        lambda: generating_series(PartitionFamily(kind, colors), order, zmod(modulus)),
    )


def verify_claim(claim: CongruenceClaim, n_max: int, prefix: bool = True) -> VerificationResult:
    """Scan every progression value <= n_max; report the first violation.

    A claim whose progression is its prime modulus p and whose family's
    map E has a theta core C mod p, one closed form or a product of two
    (cubic and overcubic c = kp - 1, a_3 mod 7, among others), is read
    from the core's class [C]_r alone (``qfunctions._core_class``), at
    about (n_max + 1) / p terms.  With E = C + p D the class is
    [C]_r(q) H(q), H = prod f_delta^{D(delta)}, and H(0) = 1, so the
    class is zero up to n_max exactly when [C]_r is, and its first
    nonzero value is [C]_r's, at the same index.  Every other claim cuts
    its class from the family's series mod m.  When _PREFIX progression
    terms are at most a 1/_PREFIX share of the n_max + 1 of the full
    scan, the class is first cut from a prefix of that length: a nonzero
    value there is the first witness.  Only a class that the prefix
    leaves zero is cut from the full series (``_series_mod``); the prefix
    is a cut of the held series when that is long enough, and is never
    held itself.  prefix=False skips that scan, for a class that
    ``search_congruences`` has already read zero on the same prefix.
    """
    if n_max < claim.residue:
        raise ValueError(
            f"n_max {n_max} does not reach the first progression value {claim.residue}"
        )
    fam, ring = claim.family, zmod(claim.modulus)
    values = None
    if claim.progression == claim.modulus:
        values = _core_class(fam.exponents, claim.residue, n_max + 1, ring)
    if values is None:
        _check_order(n_max + 1, ring)  # refused as the full build would, before the prefix
        n = _PREFIX * claim.progression
        if prefix and _PREFIX * n <= n_max + 1:
            head = _family_holder.cut((fam.kind, fam.colors, claim.modulus), n)
            if head is None:
                head = generating_series(fam, n, ring)
            values = head.extract_progression(claim.progression, claim.residue)
            if not values.support().size:
                values = None
        if values is None:
            series = _series_mod(fam.kind, fam.colors, claim.modulus, n_max + 1)
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
    fam = _admissible_family(theorem, p, k)
    if fam is not None:
        residues = admissible_residues(p, fam.kind).admissible
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


def _admissible_family(theorem: str, p: Optional[int], k: int) -> Optional[PartitionFamily]:
    """The family of 1.2, cor-1.3 or 4.1, None for another theorem; k and p
    are checked as ``theorem_claims`` states, p for an odd prime before the
    family is built."""
    if k < 1:
        raise ValueError(f"k must be >= 1, got {k}")
    if k != 1 and theorem in ("1.1", "1.2", "1.5"):
        raise ValueError(f"theorem {theorem} takes no k, got k = {k}")
    if theorem not in ("1.2", "cor-1.3", "4.1"):
        return None
    if p is None:
        raise ValueError(f"theorem {theorem} needs an odd prime p")
    _require_odd_prime(p)
    return PartitionFamily(OVERCUBIC if theorem == "4.1" else CUBIC, k * p - 1)


def verify_theorem_family(
    theorem: str,
    p: Optional[int] = None,
    k: int = 1,
    n_max: int = DEFAULT_NMAX,
) -> List[VerificationResult]:
    """Verify every claim a named result instantiates, one result per claim.

    For 1.2, cor-1.3 and 4.1 the least admissible residue above n_max,
    found by a scan up from n_max + 1, is refused as ``verify_claim``
    refuses it before the p - 1 residue symbols are computed (3 s per
    10^6 on a 2-vCPU VM); an order above the ceiling is refused first.
    """
    fam = _admissible_family(theorem, p, k)
    if fam is not None:
        r = next((r for r, sym in _symbols(p, fam.kind, n_max + 1) if sym == -1), None)
        if r is not None:
            _check_order(n_max + 1, zmod(p))
            verify_claim(CongruenceClaim(fam, p, p, r), n_max)  # raises: r > n_max
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


class SturmCertificate(NamedTuple):
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
        lines = [
            f"id: {self.cert_id}",
            f"level: {self.level}",
            f"weight: {self.weight}",
            f"exponents: {self.quotient.exponents.to_text()}",
            f"character: {self.character if self.character else 'none'}",
            f"cusp-orders: {self.cusp_table}",
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
        return {
            "id": self.cert_id,
            "level": self.level,
            "weight": self.weight,
            "exponents": {str(d): r for d, r in self.quotient.exponents.items()},
            "character": None if self.character is None else self.character._asdict(),
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
    # the modular argument passed; make sure it proves the right progression,
    # on the first _ORACLE_VALUES values, all read from one table
    values = [claim.progression * n + claim.residue for n in range(_ORACLE_VALUES)]
    counts = _count_table(claim.family, values[-1])
    for e in values:
        v = counts[e] % claim.modulus
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

    Per (kind, p), F_1 and the step F_c / F_{c-1} (``_COLOUR_STEP``) are
    built once on a prefix of min(n_max + 1, _PREFIX p) terms, and F_c is
    F_{c-1} times the step, a local series never stored.  A class with a
    nonzero value in the prefix is refuted at an exponent <= n_max, as the
    full scan would refute it; every other class goes to ``verify_claim``
    to n_max, with no second prefix scan, and its claim is emitted iff it
    holds.  So the claims are those of a scan of every full series,
    whatever _PREFIX is.

    Mod a prime p (2 included), F_{c+p} == F_c(q) H(q^p) with H(0) = 1
    (``partitions``), so class r of F_{c+p} is class r of F_c times H(q),
    with its verdict and first witness: for c > p the claims of c - p are
    copied, with no product and no ``verify_claim``.  A composite modulus
    has no such period and reads every c.
    """
    ps = sorted(set(primes))
    if c_max < 1:
        raise ValueError(f"c_max must be >= 1, got {c_max}")
    if c_max > _MAX_COLOURS:
        raise ValueError(f"c_max {c_max} is above the ceiling {_MAX_COLOURS}")
    if min_confirmations < 1:
        raise ValueError(f"min_confirmations must be >= 1, got {min_confirmations}")
    for p in ps:
        if p < 2:
            raise ValueError(f"progression modulus must be >= 2, got {p}")
        # n_max = p K - 1 gives each of the p residue classes K values
        if n_max < p * min_confirmations - 1:
            raise ValueError(
                f"n_max {n_max} cannot give {min_confirmations} confirmations at p = {p}"
            )
    # the full scan's order, refused as its first build would, though no class may reach it
    for p in ps:
        _check_order(n_max + 1, zmod(p))

    results: List[CongruenceClaim] = []
    for p in ps:  # both kinds of a modulus in turn, so they share the held 1 / f_1
        for kind in (CUBIC, OVERCUBIC):
            n, ring, prime = min(n_max + 1, _PREFIX * p), zmod(p), _is_prime(p)
            prefix = generating_series(PartitionFamily(kind, 1), n, ring)
            # after F_1, whose 1 / f_1 is at least as long: the step's is a cut of it
            step = euler_quotient(_COLOUR_STEP[kind], n, ring)
            held: List[List[int]] = []  # held[c - 1]: the residues that survive at colour c
            for c in range(1, c_max + 1):
                fam = PartitionFamily(kind, c)
                if prime and c > p:
                    survivors = held[c - p - 1]
                else:
                    prefix = prefix * step if c > 1 else prefix
                    # the residue classes with no nonzero value in the prefix
                    seen = np.bincount(prefix.support() % p, minlength=p)
                    # verify_claim's own prefix would read the same terms again
                    survivors = [
                        int(r) for r in np.flatnonzero(seen == 0)
                        if verify_claim(CongruenceClaim(fam, p, p, int(r)), n_max, False).holds
                    ]
                held.append(survivors)
                results.extend(CongruenceClaim(fam, p, p, r) for r in survivors)
    results.sort(
        key=lambda cl: (cl.family.kind, cl.family.colors, cl.progression, cl.residue)
    )
    return results
