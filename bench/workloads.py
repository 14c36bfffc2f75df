"""The benchmark's workloads and the checks on their outputs.

An op is one ``cubicpart`` CLI call: ``{"command", "argv", "threads",
"expect"}``.  ``expect`` says how the output is checked; the checker never
trusts a value the timed call produced.  Expected values come from three
places: digests recorded once from the seed commit (``expected.json``),
the package's dynamic-programming oracle ``count_direct`` for small n, and
consistency rules (a claim proven in the paper must hold at every bound, a
refuted claim must give the first witness the oracle finds).

The seed varies only choices that leave the main series sizes unchanged:
the lower rescan bound, the refuted residue, the theorem order and the
``count`` values below the fixed maximum.
"""

from __future__ import annotations

import hashlib
import json
import random

WORKLOADS = ("modp-scan", "search-grid", "exact-zz")

# count values above ORACLE_MAX are checked against recorded digests
ORACLE_MAX = 300
COUNT_MAX = 4000
LARGE_COUNT_NS = (400, 600, 800, 1000, 1500, 2000, 2500, 3000, 3500, 3999, COUNT_MAX)

THEOREM_OPS = {
    "4.1 13 2": ["theorem", "--id", "4.1", "--p", "13", "--k", "2", "--nmax", "20000",
                 "--threads", "2"],
    "1.2 7 1": ["theorem", "--id", "1.2", "--p", "7", "--nmax", "40000"],
}
SEARCH_ARGV = ["search", "--cmax", "6", "--primes", "3,5,7,11", "--nmax", "8000",
               "--threads", "2"]
SERIES_ARGV = ["series", "--family", "overcubic", "--colors", "3", "--order", "3000"]
PROVE_IDS = ("a3-mod7", "a5-mod11")
IDENTITY_IDS = ("chan-a2-3n2", "ramanujan-p5n4")

# a_3(7n+r) mod 7 for these r fails early (the seed picks one)
REFUTED_RESIDUES = (3, 5, 6)
# the bound of the rescan of a holding claim after its 40000 scan
RESCAN_RANGE = (5000, 20000)


def digest(obj) -> str:
    return hashlib.sha256(
        json.dumps(obj, sort_keys=True, separators=(",", ":")).encode()
    ).hexdigest()


def _op(argv: list, expect: dict, json_out: bool = True) -> dict:
    threads = int(argv[argv.index("--threads") + 1]) if "--threads" in argv else 1
    return {
        "command": argv[0],
        "argv": argv + (["--json"] if json_out else []),
        "threads": threads,
        "expect": expect,
    }


def _verify(residue: int, nmax: int, holds: bool) -> dict:
    argv = ["verify", "--family", "cubic", "--colors", "3", "--mod", "7",
            "--progression", "7", "--residue", str(residue), "--nmax", str(nmax)]
    claim = {"kind": "cubic", "colors": 3, "modulus": 7, "progression": 7, "residue": residue}
    return _op(argv, {"claim": claim, "n_max": nmax, "holds": holds})


def build_ops(workload: str, seed: int) -> list:
    """The op list of one pass; the same seed gives the same list."""
    rng = random.Random(f"{workload}:{seed}")
    if workload == "modp-scan":
        theorems = list(THEOREM_OPS)
        rng.shuffle(theorems)
        return [
            _verify(4, 40000, True),  # a_3(7n+4) == 0 mod 7 is a theorem of the paper
            _verify(rng.choice(REFUTED_RESIDUES), 40000, False),  # same series key
            _verify(4, rng.randint(*RESCAN_RANGE), True),  # lower bound, same claim
        ] + [_op(list(THEOREM_OPS[key]), {"theorem": key}) for key in theorems]
    if workload == "search-grid":
        return [_op(list(SEARCH_ARGV), {})]
    if workload == "exact-zz":
        small = rng.sample(range(ORACLE_MAX + 1), 3)
        large = rng.sample(LARGE_COUNT_NS[:-1], 3)
        values = small + large + [COUNT_MAX]
        rng.shuffle(values)
        count = ["count", "--family", "cubic", "--colors", "5"] + [str(n) for n in values]
        ops = [_op(count, {"values": values})]
        ops += [_op(["identity", "--id", i, "--order", "1000"], {"id": i}) for i in IDENTITY_IDS]
        ops.append(_op(list(SERIES_ARGV), {}))
        ops += [_op(["prove", "--id", i], {"id": i}, json_out=False) for i in PROVE_IDS]
        return ops
    raise ValueError(f"unknown workload {workload!r}")


def single_threaded(ops: list) -> list:
    """The same ops with every --threads set to 1."""
    out = []
    for op in ops:
        argv = list(op["argv"])
        if "--threads" in argv:
            argv[argv.index("--threads") + 1] = "1"
        out.append(dict(op, argv=argv, threads=1))
    return out


class Checker:
    """Checks one op's exit code and stdout against values it derives itself.

    ``count_direct(kind, colors, n)`` is the combinatorial oracle and
    ``expected`` the digests recorded from the seed commit.
    """

    def __init__(self, expected: dict, count_direct):
        self.expected = expected
        self.count_direct = count_direct
        self._witness: dict = {}

    def first_witness(self, claim: dict) -> dict:
        """The first progression value the oracle finds nonzero mod m."""
        key = tuple(sorted(claim.items()))
        if key not in self._witness:
            e = claim["residue"]
            while True:
                v = self.count_direct(claim["kind"], claim["colors"], e) % claim["modulus"]
                if v:
                    break
                e += claim["progression"]
            self._witness[key] = {"exponent": e, "value": v}
        return self._witness[key]

    def check(self, op: dict, code, stdout: str):
        """None if the output is right, else the reason it is not."""
        try:
            return getattr(self, "_" + op["command"])(op["expect"], code, stdout)
        except (ValueError, KeyError, TypeError, IndexError) as exc:
            return f"unreadable output: {exc!r}"

    def _verify(self, e, code, stdout):
        out = json.loads(stdout)
        if out["claim"] != e["claim"] or out["n_max"] != e["n_max"]:
            return f"wrong claim or bound: {out['claim']} n_max {out['n_max']}"
        if e["holds"]:
            want = (0, "holds-up-to-bound", None)
        else:
            want = (1, "refuted", self.first_witness(e["claim"]))
        got = (code, out["verdict"], out["witness"])
        return None if got == want else f"got {got}, want {want}"

    def _theorem(self, e, code, stdout):
        out = json.loads(stdout)
        if code != 0:
            return f"exit code {code}"
        if any(r["verdict"] != "holds-up-to-bound" or r["witness"] for r in out["results"]):
            return "a claim of the theorem did not hold"
        if digest([r["claim"] for r in out["results"]]) != self.expected["theorem"][e["theorem"]]:
            return "claim list differs from the recorded one"
        return None

    def _search(self, e, code, stdout):
        out = json.loads(stdout)
        if code != 0:
            return f"exit code {code}"
        if digest(out["claims"]) != self.expected["search"]:
            return "claim list differs from the recorded one"
        return None

    def _count(self, e, code, stdout):
        out = json.loads(stdout)
        if code != 0:
            return f"exit code {code}"
        if [c["n"] for c in out["counts"]] != e["values"]:
            return "counts are for other n"
        for c in out["counts"]:
            n = c["n"]
            if n <= ORACLE_MAX:
                if int(c["count"]) != self.count_direct("cubic", 5, n):
                    return f"count({n}) differs from count_direct"
            elif digest(c["count"]) != self.expected["count"][str(n)]:
                return f"count({n}) differs from the recorded value"
        return None

    def _series(self, e, code, stdout):
        out = json.loads(stdout)
        if code != 0:
            return f"exit code {code}"
        coeffs = out["coefficients"]
        for n in range(30):
            if int(coeffs[n]) != self.count_direct("overcubic", 3, n):
                return f"coefficient {n} differs from count_direct"
        if digest(coeffs) != self.expected["series"]:
            return "coefficients differ from the recorded ones"
        return None

    def _identity(self, e, code, stdout):
        out = json.loads(stdout)
        if (code, out["identity"], out["equal"], out["first_mismatch"]) != (0, e["id"], True, None):
            return f"identity {e['id']} not confirmed: exit {code}, {out}"
        return None

    def _prove(self, e, code, stdout):
        if code != 0 or "verdict: proven" not in stdout:
            return f"certificate not proven (exit {code})"
        if digest(stdout) != self.expected["prove"][e["id"]]:
            return "certificate text differs from the recorded one"
        return None
