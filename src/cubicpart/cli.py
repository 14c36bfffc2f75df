"""Command-line interface.

One executable, subcommand per task: exact counting, series expansion,
congruence verification, theorem-family verification, certificate
construction, empirical search, and the named classical identities.

Exit codes: 0 success (claim holds / certificate proven / identity
equal), 1 the checked statement is false or unproven, 2 usage error
(or a certificate file that cannot be written).
With --json all output is a single JSON document; counts and
coefficients are decimal strings since they outgrow doubles quickly.

Every subcommand's options are one table, ``_COMMANDS``, read in two
ways.  An argv whose every token is unambiguous (exact option spellings,
valid values, nothing repeated) is read by ``_quick_parse``, which needs
neither argparse nor its gettext and locale.  Every other argv, help and
errors included, goes to the argparse parser built from the same table
(``build_parser``), the one source of help, usage and error text.
"""

from __future__ import annotations

import gc
import json
import sys
from types import SimpleNamespace
from typing import Iterator, List, Optional, Sequence, Tuple

from . import engine
from .partitions import _IDENTITIES, PartitionFamily, check_named_identity, generating_series
from .qfunctions import _quotient_at
from .series import ZZ, TruncatedSeries, zmod

# What is imported by now (the package and numpy) lives as long as
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


def _emit(args: SimpleNamespace, payload: dict, text: str) -> None:
    if args.json:
        print(json.dumps(payload, indent=2, sort_keys=True))
    elif text:
        print(text)


def _cmd_count(args: SimpleNamespace) -> int:
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


def _cmd_series(args: SimpleNamespace) -> int:
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


def _cmd_verify(args: SimpleNamespace) -> int:
    claim = engine.CongruenceClaim(
        PartitionFamily(args.family, args.colors),
        args.mod,
        args.progression,
        args.residue,
    )
    result = engine.verify_claim(claim, args.nmax)
    _emit(args, _result_dict(result), result.describe())
    return 0 if result.holds else 1


def _cmd_theorem(args: SimpleNamespace) -> int:
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


def _cmd_prove(args: SimpleNamespace) -> int:
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


def _cmd_search(args: SimpleNamespace) -> int:
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


def _cmd_identity(args: SimpleNamespace) -> int:
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


_THREADS_HELP = "accepted for compatibility; has no effect"

# the top-level options, before the subcommand name, as (flag, add_argument keywords)
_TOP = (
    ("--json", {"action": "store_true", "help": "machine-readable output"}),
    ("--threads", {"type": int, "default": 1, "metavar": "T", "help": _THREADS_HELP}),
)

# also accepted after the subcommand name, with argparse.SUPPRESS as their
# default there, so the top-level value stays when the flag is absent
_COMMON = (
    ("--json", {"action": "store_true"}),
    ("--threads", {"type": int, "metavar": "T", "help": _THREADS_HELP}),
)

_FAMILY = (
    ("--family", {"choices": ("cubic", "overcubic"), "required": True}),
    ("--colors", {"type": int, "required": True, "metavar": "C"}),
)

# subcommand -> (its help, its own options and positional, its handler);
# each option is (flag or positional name, add_argument keywords), in the
# order of the parser's arguments, and _COMMON follows them
_COMMANDS = {
    "count": (
        "exact counts, one per line",
        _FAMILY + (("values", {"type": int, "nargs": "+", "metavar": "N"}),),
        _cmd_count,
    ),
    "series": (
        "expansion coefficients 0..order-1",
        _FAMILY + (
            ("--order", {"type": int, "required": True, "metavar": "O"}),
            ("--mod", {"type": int, "default": None, "metavar": "M"}),
        ),
        _cmd_series,
    ),
    "verify": (
        "scan one congruence claim",
        _FAMILY + (
            ("--mod", {"type": int, "required": True, "metavar": "M"}),
            ("--progression", {"type": int, "required": True, "metavar": "P"}),
            ("--residue", {"type": int, "required": True, "metavar": "R"}),
            ("--nmax", {"type": int, "required": True, "metavar": "X"}),
        ),
        _cmd_verify,
    ),
    "theorem": (
        "verify a named result's claims",
        (
            ("--id", {"choices": sorted(_THEOREM_IDS), "required": True}),
            ("--p", {"type": int, "default": None}),
            ("--k", {"type": int, "default": 1}),
            ("--nmax", {"type": int, "default": engine.DEFAULT_NMAX, "metavar": "X"}),
        ),
        _cmd_theorem,
    ),
    "prove": (
        "build a finite-check certificate",
        (
            ("--id", {"choices": tuple(engine._ISOLATED), "required": True}),
            ("--emit", {"metavar": "FILE", "default": None}),
        ),
        _cmd_prove,
    ),
    "search": (
        "scan for candidate congruences",
        (
            ("--cmax", {"type": int, "required": True, "metavar": "C"}),
            ("--primes", {"required": True, "metavar": "P1,P2,..."}),
            ("--nmax", {"type": int, "required": True, "metavar": "X"}),
            ("--min-confirmations", {"type": int, "default": 10, "metavar": "K"}),
        ),
        _cmd_search,
    ),
    "identity": (
        "check a classical identity",
        (
            ("--id", {"choices": tuple(_IDENTITIES), "required": True}),
            ("--order", {"type": int, "required": True, "metavar": "O"}),
        ),
        _cmd_identity,
    ),
}


def _dest(name: str) -> str:
    """argparse's attribute name for a flag or positional name."""
    return name.lstrip("-").replace("-", "_")


def _quick_parse(argv: Sequence[str]) -> Optional[SimpleNamespace]:
    """The namespace argparse gives for argv, when every token is unambiguous; else None.

    It takes only exact option spellings (no abbreviation, no ``--opt=value``,
    no ``-h``, ``--help`` or ``--``), no value that starts with ``-``, no option
    given twice at one level, and ``count``'s values as one run of adjacent
    tokens.  Every type and choice must pass, every required option be given,
    and ``--threads`` be at least 1 wherever it is given.  For such an argv
    argparse gives the same attributes; every other argv is left to it.
    """
    attrs = {_dest(flag): kw.get("default", False) for flag, kw in _TOP}  # store_true's is False
    attrs["command"] = None
    options = dict(_TOP)  # the exact flags of the level being read
    given = set()  # the flags given at that level
    own = ()
    positional = None  # the subcommand's (name, keywords), if it takes values
    run = []  # those values, read from adjacent tokens up to run_end
    run_end = 0
    i = 0
    while i < len(argv):
        token = argv[i]
        if token.startswith("-"):
            kw = options.get(token)
            if kw is None or token in given:
                return None
            given.add(token)
            if kw.get("action") == "store_true":
                attrs[_dest(token)] = True
                i += 1
                continue
            if i + 1 == len(argv) or argv[i + 1].startswith("-"):
                return None
            value = _convert(kw, argv[i + 1])
            if value is None or (token == "--threads" and value < 1):
                return None
            attrs[_dest(token)] = value
            i += 2
        elif attrs["command"] is None:
            if token not in _COMMANDS:
                return None
            _, own, func = _COMMANDS[token]
            attrs["command"] = token
            options = {}
            for name, kw in own:
                if name.startswith("-"):
                    options[name] = kw
                else:
                    positional = (name, kw)
                attrs[_dest(name)] = kw.get("default")
            attrs["func"] = func
            options.update(_COMMON)
            given = set()
            i += 1
        else:
            if positional is None or (run and run_end != i):
                return None
            value = _convert(positional[1], token)
            if value is None:
                return None
            run.append(value)
            i = run_end = i + 1
    if attrs["command"] is None or (positional is not None and not run):
        return None
    if any(kw.get("required") and name not in given for name, kw in own):
        return None
    if positional is not None:
        attrs[_dest(positional[0])] = run
    return SimpleNamespace(**attrs)


def _convert(kw: dict, token: str):
    """token through the option's type and choices, or None where argparse refuses it."""
    try:
        value = kw.get("type", str)(token)
    except ValueError:
        return None
    choices = kw.get("choices")
    return None if choices is not None and value not in choices else value


def build_parser():
    """The CLI's argparse parser, built from ``_COMMANDS`` with every subcommand's arguments.

    It reads every argv that ``_quick_parse`` leaves, and so gives all
    help, usage and error text.
    """
    import argparse

    parser = argparse.ArgumentParser(
        prog="cubicpart",
        description="Partition counts with colored even parts: series, congruences, certificates.",
    )
    for flag, kw in _TOP:
        parser.add_argument(flag, **kw)
    sub = parser.add_subparsers(dest="command", required=True)
    for name, (help_text, own, func) in _COMMANDS.items():
        command = sub.add_parser(name, help=help_text)
        for flag, kw in own:
            command.add_argument(flag, **kw)
        for flag, kw in _COMMON:
            command.add_argument(flag, default=argparse.SUPPRESS, **kw)
        command.set_defaults(func=func)
    return parser


def main(argv: Optional[List[str]] = None) -> int:
    if argv is None:
        argv = sys.argv[1:]
    args = _quick_parse(argv)
    if args is None:
        parser = build_parser()
        args = parser.parse_args(argv, SimpleNamespace())
        if args.threads < 1:
            parser.error(f"--threads must be >= 1, got {args.threads}")
    try:
        return args.func(args)
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
