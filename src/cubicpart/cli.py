"""Command-line interface.

One executable, subcommand per task: exact counting, series expansion,
congruence verification, theorem-family verification, certificate
construction, empirical search, and the named classical identities.

Exit codes: 0 success (claim holds / certificate proven / identity
equal), 1 the checked statement is false or unproven, 2 usage error
(or a certificate file that cannot be written).
With --json all output is a single JSON document; counts and
coefficients are decimal strings since they outgrow doubles quickly.

The parser is built once per process and registers every subcommand
with its help; a subcommand's own parser, with its arguments, is built
the first time it parses, so a run builds only the ones it uses.
"""

from __future__ import annotations

import argparse
import functools
import gc
import json
import sys
from typing import Iterator, List, Optional, Tuple

from . import engine
from .partitions import _IDENTITIES, PartitionFamily, check_named_identity, generating_series
from .qfunctions import _quotient_at
from .series import ZZ, TruncatedSeries, zmod

# What is imported by now (the package, numpy, argparse) lives as long as
# the process.  The collector's permanent generation holds it, so no later
# collection walks it: a command's collections are small, and cost the
# same whichever command the collector's counts happen to reach them in.
gc.freeze()

# `series` prints its text lines, or its --json array, in slices of this many terms
_SERIES_CHUNK = 1 << 16

_THEOREM_IDS = {
    "1.2": "1.2",
    "cor1.3": "cor-1.3",
    "4.1": "4.1",
    "1.1": "1.1",
    "1.5": "1.5",
    "remarks": "remarks",
}


def __getattr__(name: str):
    """ThreadPoolExecutor, imported on first access and not at start-up.

    The package runs no pool; bench/tracer.py reads and replaces the name.
    """
    if name == "ThreadPoolExecutor":
        from concurrent.futures import ThreadPoolExecutor

        return ThreadPoolExecutor
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


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
    counts = _quotient_at(fam.exponents, max(args.values) + 1, ZZ, args.values)
    payload = {
        "family": args.family,
        "colors": args.colors,
        "counts": [
            {"n": n, "count": str(v)} for n, v in zip(args.values, counts)
        ],
    }
    _emit(args, payload, "\n".join(str(v) for v in counts))
    return 0


def _slices(series: TruncatedSeries) -> Iterator[Tuple[int, List[int]]]:
    """(start, the coefficients from start on as ints), _SERIES_CHUNK at a time."""
    for start in range(0, series.order, _SERIES_CHUNK):
        yield start, series.coeffs[start : start + _SERIES_CHUNK].tolist()


def _cmd_series(args: argparse.Namespace) -> int:
    fam = PartitionFamily(args.family, args.colors)
    if args.order < 1:
        raise ValueError(f"order must be >= 1, got {args.order}")
    ring = zmod(args.mod) if args.mod is not None else ZZ
    series = generating_series(fam, args.order, ring)
    if not args.json:
        for start, chunk in _slices(series):
            print("\n".join(f"{n}: {c}" for n, c in enumerate(chunk, start)))
        return 0
    # the document of _emit, streamed: "coefficients" sorts before every
    # other key, so its array opens the object and the rest follows it
    rest = json.dumps(
        {"family": args.family, "colors": args.colors, "order": args.order, "modulus": args.mod},
        indent=2,
        sort_keys=True,
    )
    sep = '{\n  "coefficients": [\n'
    for _, chunk in _slices(series):
        print(sep + ",\n".join(f'    "{c}"' for c in chunk), end="")
        sep = ",\n"
    print("\n  ],\n" + rest[2:])
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


def _fill_count(sub: argparse.ArgumentParser) -> None:
    _add_family(sub)
    sub.add_argument("values", type=int, nargs="+", metavar="N")


def _fill_series(sub: argparse.ArgumentParser) -> None:
    _add_family(sub)
    sub.add_argument("--order", type=int, required=True, metavar="O")
    sub.add_argument("--mod", type=int, default=None, metavar="M")


def _fill_verify(sub: argparse.ArgumentParser) -> None:
    _add_family(sub)
    sub.add_argument("--mod", type=int, required=True, metavar="M")
    sub.add_argument("--progression", type=int, required=True, metavar="P")
    sub.add_argument("--residue", type=int, required=True, metavar="R")
    sub.add_argument("--nmax", type=int, required=True, metavar="X")


def _fill_theorem(sub: argparse.ArgumentParser) -> None:
    sub.add_argument("--id", choices=sorted(_THEOREM_IDS), required=True)
    sub.add_argument("--p", type=int, default=None)
    sub.add_argument("--k", type=int, default=1)
    sub.add_argument("--nmax", type=int, default=engine.DEFAULT_NMAX, metavar="X")


def _fill_prove(sub: argparse.ArgumentParser) -> None:
    sub.add_argument("--id", choices=tuple(engine._ISOLATED), required=True)
    sub.add_argument("--emit", metavar="FILE", default=None)


def _fill_search(sub: argparse.ArgumentParser) -> None:
    sub.add_argument("--cmax", type=int, required=True, metavar="C")
    sub.add_argument("--primes", required=True, metavar="P1,P2,...")
    sub.add_argument("--nmax", type=int, required=True, metavar="X")
    sub.add_argument("--min-confirmations", type=int, default=10, metavar="K")


def _fill_identity(sub: argparse.ArgumentParser) -> None:
    sub.add_argument("--id", choices=tuple(_IDENTITIES), required=True)
    sub.add_argument("--order", type=int, required=True, metavar="O")


# subcommand -> (its help, the function that adds its own arguments, its handler)
_COMMANDS = {
    "count": ("exact counts, one per line", _fill_count, _cmd_count),
    "series": ("expansion coefficients 0..order-1", _fill_series, _cmd_series),
    "verify": ("scan one congruence claim", _fill_verify, _cmd_verify),
    "theorem": ("verify a named result's claims", _fill_theorem, _cmd_theorem),
    "prove": ("build a finite-check certificate", _fill_prove, _cmd_prove),
    "search": ("scan for candidate congruences", _fill_search, _cmd_search),
    "identity": ("check a classical identity", _fill_identity, _cmd_identity),
}


class _Subcommand:
    """A subcommand's parser, built with its arguments the first time it parses.

    ``build_parser`` registers one per subcommand as the subparsers'
    ``parser_class``; argparse hands a subcommand its arguments,
    ``--help`` included, through ``parse_known_args`` alone, so a run
    builds the parsers of the subcommands it uses and no other.
    """

    def __init__(self, fill, func, **kwargs) -> None:
        self._build = (fill, func, kwargs)  # fill and func of _COMMANDS; prog from add_parser
        self.parser: Optional[argparse.ArgumentParser] = None

    def parse_known_args(self, args=None, namespace=None):
        if self.parser is None:
            fill, func, kwargs = self._build
            parser = argparse.ArgumentParser(**kwargs)
            fill(parser)
            _add_common(parser)
            parser.set_defaults(func=func)
            self.parser = parser
        return self.parser.parse_known_args(args, namespace)


@functools.lru_cache(maxsize=None)
def build_parser() -> argparse.ArgumentParser:
    """The CLI's parser, built on the first call and shared by every later one.

    Every subcommand is registered here with its help, so the top-level
    help and the choice errors list all of them; each subcommand's own
    parser is built when it first parses (``_Subcommand``).
    """
    parser = argparse.ArgumentParser(
        prog="cubicpart",
        description="Partition counts with colored even parts: series, congruences, certificates.",
    )
    parser.add_argument("--json", action="store_true", help="machine-readable output")
    parser.add_argument(
        "--threads", type=int, default=1, metavar="T",
        help="accepted for compatibility; has no effect",
    )
    sub = parser.add_subparsers(dest="command", required=True, parser_class=_Subcommand)
    for name, (help_text, fill, func) in _COMMANDS.items():
        sub.add_parser(name, help=help_text, fill=fill, func=func)
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
