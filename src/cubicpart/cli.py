"""Command-line interface.

One executable, subcommand per task: exact counting, series expansion,
congruence verification, theorem-family verification, certificate
construction, empirical search, and the named classical identities.

Exit codes: 0 success (claim holds / certificate proven / identity
equal), 1 the checked statement is false or unproven, 2 usage error
(or a certificate file that cannot be written).
With --json all output is a single JSON document; counts and
coefficients are decimal strings since they outgrow doubles quickly.
"""

from __future__ import annotations

import argparse
import json
import sys
# unused by the package; bench/tracer.py wraps this name
from concurrent.futures import ThreadPoolExecutor
from typing import List, Optional

from . import engine
from .partitions import _IDENTITIES, PartitionFamily, check_named_identity, generating_series
from .series import ZZ, zmod

# `series` prints its text lines in slices of this many coefficients
_SERIES_CHUNK = 1 << 16

_THEOREM_IDS = {
    "1.2": "1.2",
    "cor1.3": "cor-1.3",
    "4.1": "4.1",
    "1.1": "1.1",
    "1.5": "1.5",
    "remarks": "remarks",
}


def _claim_dict(cl: engine.CongruenceClaim) -> dict:
    return {
        "kind": cl.family.kind,
        "colors": cl.family.colors,
        "modulus": cl.modulus,
        "progression": cl.progression,
        "residue": cl.residue,
    }


def _result_dict(res: engine.VerificationResult) -> dict:
    witness = None
    if res.witness is not None:
        witness = {"exponent": res.witness[0], "value": res.witness[1]}
    return {
        "claim": _claim_dict(res.claim),
        "n_max": res.n_max,
        "verdict": res.verdict,
        "witness": witness,
    }


def _emit(args: argparse.Namespace, payload: dict, text: str) -> None:
    if args.json:
        print(json.dumps(payload, indent=2, sort_keys=True))
    elif text:
        print(text)


def _cmd_count(args: argparse.Namespace) -> int:
    fam = PartitionFamily(args.family, args.colors)
    for n in args.values:
        if n < 0:
            raise ValueError(f"n must be >= 0, got {n}")
    series = generating_series(fam, max(args.values) + 1, ZZ)
    counts = [series.coefficient(n) for n in args.values]
    payload = {
        "family": args.family,
        "colors": args.colors,
        "counts": [
            {"n": n, "count": str(v)} for n, v in zip(args.values, counts)
        ],
    }
    _emit(args, payload, "\n".join(str(v) for v in counts))
    return 0


def _cmd_series(args: argparse.Namespace) -> int:
    fam = PartitionFamily(args.family, args.colors)
    if args.order < 1:
        raise ValueError(f"order must be >= 1, got {args.order}")
    ring = zmod(args.mod) if args.mod is not None else ZZ
    series = generating_series(fam, args.order, ring)
    if args.json:
        payload = {
            "family": args.family,
            "colors": args.colors,
            "order": args.order,
            "modulus": args.mod,
            "coefficients": [str(c) for c in series.coefficients()],
        }
        _emit(args, payload, "")
        return 0
    for start in range(0, series.order, _SERIES_CHUNK):
        chunk = series.coeffs[start : start + _SERIES_CHUNK].tolist()
        print("\n".join(f"{n}: {c}" for n, c in enumerate(chunk, start)))
    return 0


def _cmd_verify(args: argparse.Namespace) -> int:
    claim = engine.CongruenceClaim(
        PartitionFamily(args.family, args.colors),
        args.mod,
        args.progression,
        args.residue,
    )
    result = engine.verify_claim(claim, args.nmax)
    _emit(args, _result_dict(result), result.describe())
    return 0 if result.holds else 1


def _cmd_theorem(args: argparse.Namespace) -> int:
    results = engine.verify_theorem_family(_THEOREM_IDS[args.id], args.p, args.k, args.nmax)
    payload = {
        "theorem": args.id,
        "p": args.p,
        "k": args.k,
        "n_max": args.nmax,
        "results": [_result_dict(r) for r in results],
    }
    _emit(args, payload, "\n".join(r.describe() for r in results))
    return 0 if all(r.holds for r in results) else 1


def _cmd_prove(args: argparse.Namespace) -> int:
    cert = engine.prove_isolated(args.id)
    text = cert.to_text()
    if args.emit:
        try:
            with open(args.emit, "w", encoding="utf-8") as fh:
                fh.write(text)
        except OSError as exc:
            print(f"error: cannot write the certificate: {exc}", file=sys.stderr)
            return 2
    _emit(args, cert.to_dict(), text.rstrip("\n"))
    return 0 if cert.proven else 1


def _cmd_search(args: argparse.Namespace) -> int:
    primes = _parse_primes(args.primes)
    claims = engine.search_congruences(
        args.cmax,
        primes,
        args.nmax,
        min_confirmations=args.min_confirmations,
    )
    payload = {
        "c_max": args.cmax,
        "primes": primes,
        "n_max": args.nmax,
        "status": "empirical",
        "claims": [_claim_dict(c) for c in claims],
    }
    text = "\n".join(f"{c.describe()}  [empirical, n <= {args.nmax}]" for c in claims)
    _emit(args, payload, text)
    return 0


def _cmd_identity(args: argparse.Namespace) -> int:
    report = check_named_identity(args.id, args.order)
    payload = {
        "identity": args.id,
        "order": args.order,
        "equal": report.equal,
        "first_mismatch": report.first_mismatch,
    }
    _emit(args, payload, f"{args.id}: {report.describe()}")
    return 0 if report.equal else 1


def _parse_primes(text: str) -> List[int]:
    try:
        primes = sorted({int(tok) for tok in text.split(",") if tok.strip()})
    except ValueError:
        raise ValueError(f"--primes expects a comma-separated integer list, got {text!r}")
    if not primes:
        raise ValueError("--primes list is empty")
    return primes


def _add_common(sub: argparse.ArgumentParser) -> None:
    # also accepted after the subcommand name; SUPPRESS keeps the
    # top-level value when the flag is absent here
    sub.add_argument("--json", action="store_true", default=argparse.SUPPRESS)
    sub.add_argument(
        "--threads", type=int, default=argparse.SUPPRESS, metavar="T",
        help="accepted for compatibility; has no effect",
    )


def _add_family(sub: argparse.ArgumentParser) -> None:
    sub.add_argument("--family", choices=("cubic", "overcubic"), required=True)
    sub.add_argument("--colors", type=int, required=True, metavar="C")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="cubicpart",
        description="Partition counts with colored even parts: series, congruences, certificates.",
    )
    parser.add_argument("--json", action="store_true", help="machine-readable output")
    parser.add_argument(
        "--threads", type=int, default=1, metavar="T",
        help="accepted for compatibility; has no effect",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_count = sub.add_parser("count", help="exact counts, one per line")
    _add_family(p_count)
    p_count.add_argument("values", type=int, nargs="+", metavar="N")
    _add_common(p_count)
    p_count.set_defaults(func=_cmd_count)

    p_series = sub.add_parser("series", help="expansion coefficients 0..order-1")
    _add_family(p_series)
    p_series.add_argument("--order", type=int, required=True, metavar="O")
    p_series.add_argument("--mod", type=int, default=None, metavar="M")
    _add_common(p_series)
    p_series.set_defaults(func=_cmd_series)

    p_verify = sub.add_parser("verify", help="scan one congruence claim")
    _add_family(p_verify)
    p_verify.add_argument("--mod", type=int, required=True, metavar="M")
    p_verify.add_argument("--progression", type=int, required=True, metavar="P")
    p_verify.add_argument("--residue", type=int, required=True, metavar="R")
    p_verify.add_argument("--nmax", type=int, required=True, metavar="X")
    _add_common(p_verify)
    p_verify.set_defaults(func=_cmd_verify)

    p_theorem = sub.add_parser("theorem", help="verify a named result's claims")
    p_theorem.add_argument("--id", choices=sorted(_THEOREM_IDS), required=True)
    p_theorem.add_argument("--p", type=int, default=None)
    p_theorem.add_argument("--k", type=int, default=1)
    p_theorem.add_argument("--nmax", type=int, default=engine.DEFAULT_NMAX, metavar="X")
    _add_common(p_theorem)
    p_theorem.set_defaults(func=_cmd_theorem)

    p_prove = sub.add_parser("prove", help="build a finite-check certificate")
    p_prove.add_argument("--id", choices=tuple(engine._ISOLATED), required=True)
    p_prove.add_argument("--emit", metavar="FILE", default=None)
    _add_common(p_prove)
    p_prove.set_defaults(func=_cmd_prove)

    p_search = sub.add_parser("search", help="scan for candidate congruences")
    p_search.add_argument("--cmax", type=int, required=True, metavar="C")
    p_search.add_argument("--primes", required=True, metavar="P1,P2,...")
    p_search.add_argument("--nmax", type=int, required=True, metavar="X")
    p_search.add_argument("--min-confirmations", type=int, default=10, metavar="K")
    _add_common(p_search)
    p_search.set_defaults(func=_cmd_search)

    p_identity = sub.add_parser("identity", help="check a classical identity")
    p_identity.add_argument("--id", choices=tuple(_IDENTITIES), required=True)
    p_identity.add_argument("--order", type=int, required=True, metavar="O")
    _add_common(p_identity)
    p_identity.set_defaults(func=_cmd_identity)

    return parser


def main(argv: Optional[List[str]] = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    if args.threads < 1:
        parser.error(f"--threads must be >= 1, got {args.threads}")
    try:
        return args.func(args)
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
