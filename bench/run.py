"""Benchmark of cubicpart: time to a checked answer, end to end and per layer.

Run from the repository root:

    python3 bench/run.py --workload modp-scan --seed 1 --seconds 25 --trace 0
    python3 bench/run.py --workload all --seed 1 --seconds 25 --trace 1

Each pass runs the workload's op list through ``cubicpart.cli.main`` in a
fresh interpreter (``bench/worker.py``), so caches start cold; a closed
loop, one op after the other.  Passes repeat until ``--seconds`` have
elapsed and medians are reported.  Every op's output is checked after the
pass, outside the timed region.  With ``--trace 0`` the end-to-end metrics
are printed; with ``--trace 1`` a traced pass and an untraced pass run in
turn and the per-layer metrics are printed.  The last stdout line is one
JSON object: ``correct``, ``attempted``, ``failed`` and ``metrics``.
"""

from __future__ import annotations

import argparse
import functools
import hashlib
import json
import os
import platform
import statistics
import subprocess
import sys
import time

import workloads

BENCH = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH)
SRC = os.path.join(ROOT, "src")
WORKER = os.path.join(BENCH, "worker.py")
EXPECTED = os.path.join(BENCH, "expected.json")

SETUP_RUNS = 5
PASS_TIMEOUT_S = 150

# Times of single-threaded ops are reported in reference seconds: measured
# seconds scaled by REFERENCE_KERNEL_S over the calibration kernel's time
# next to them (see worker.py).  Ops on several threads are not scaled: the
# one-thread kernel does not predict them, and scaling doubled their spread.
# 0.026 s is the kernel's time on the 2-vCPU x86-64 virtual machine of the
# baseline in README.md, when no other tenant slowed it.
REFERENCE_KERNEL_S = 0.026

END_TO_END = {"setup_s": "s", "wall_s": "s", "peak_rss_mb": "MB"}

# per-command times, untraced; each is 0 on workloads that do not run it
COMMANDS = ("theorem", "verify", "search", "count", "series", "identity")

# per-layer metric -> (unit, how it is read from a traced pass summary)
_SPAN = "span"
_COUNTER = "counter"
_MAXIMUM = "maximum"
PER_LAYER = {
    "series.mul.calls": ("count", _SPAN, "series.mul", "calls"),
    "series.mul.self_s": ("s", _SPAN, "series.mul", "self_s"),
    "series.mul.modp_calls": ("count", _COUNTER, "series.mul.modp_calls"),
    "series.mul.zz_calls": ("count", _COUNTER, "series.mul.zz_calls"),
    "series.mul.coeff_products": ("count", _COUNTER, "series.mul.coeff_products"),
    "series.mul.max_len": ("count", _MAXIMUM, "series.mul.max_len"),
    "series.inverse.calls": ("count", _SPAN, "series.inverse", "calls"),
    "series.inverse.self_s": ("s", _SPAN, "series.inverse", "self_s"),
    "series.inverse.terms": ("count", _COUNTER, "series.inverse.terms"),
    "series.pow.calls": ("count", _SPAN, "series.pow", "calls"),
    "series.pow.self_s": ("s", _SPAN, "series.pow", "self_s"),
    "series.init.calls": ("count", _SPAN, "series.init", "calls"),
    "series.init.self_s": ("s", _SPAN, "series.init", "self_s"),
    "series.init.coeffs": ("count", _COUNTER, "series.init.coeffs"),
    "qfunctions.euler_product.calls": ("count", _SPAN, "qfunctions.euler_product", "calls"),
    "qfunctions.euler_product.self_s": ("s", _SPAN, "qfunctions.euler_product", "self_s"),
    "qfunctions.eta_expansion.self_s": ("s", _SPAN, "qfunctions.eta_expansion", "self_s"),
    "partitions.generating_series.calls": ("count", _SPAN, "partitions.generating_series", "calls"),
    "partitions.generating_series.total_s": ("s", _SPAN, "partitions.generating_series", "total_s"),
    "partitions.count_direct.self_s": ("s", _SPAN, "partitions.count_direct", "self_s"),
    "partitions.check_named_identity.self_s": (
        "s", _SPAN, "partitions.check_named_identity", "self_s"),
    "modform.hecke_tp.self_s": ("s", _SPAN, "modform.hecke_tp", "self_s"),
    "modform.metadata_s": ("s", _SPAN, "modform.metadata", "self_s"),
    "engine.verify_claim.calls": ("count", _SPAN, "engine.verify_claim", "calls"),
    "engine.verify_claim.self_s": ("s", _SPAN, "engine.verify_claim", "self_s"),
    "engine.scan.coeffs_checked": ("count", _COUNTER, "engine.scan.coeffs_checked"),
    "engine.series.requests": ("count", _COUNTER, "engine.series.requests"),
    "engine.series.builds": ("count", _COUNTER, "engine.series.builds"),
    "engine.series.duplicate_builds": ("count", _COUNTER, "engine.series.duplicate_builds"),
    "engine.search.self_s": ("s", _SPAN, "engine.search", "self_s"),
    "engine.build_certificate.total_s": ("s", _SPAN, "engine.build_certificate", "total_s"),
    "cli.main.total_s": ("s", _SPAN, "cli.main", "total_s"),
    "cli.self_s": ("s", _SPAN, "cli.main", "self_s"),
}
DERIVED = {
    "engine.series.reuse_ratio": "ratio",
    "engine.search.thread_speedup": "ratio",
    "cli.output_bytes": "bytes",
    "trace.overhead_ratio": "ratio",
    **{f"{c}_s": "s" for c in COMMANDS},
}


def layer_values(summary: dict) -> dict:
    """Per-layer metrics of one traced pass, from its span and counter summary."""
    out = {}
    for name, (unit, kind, key, *field) in PER_LAYER.items():
        if kind == _SPAN:
            out[name] = summary["spans"].get(key, {}).get(field[0], 0)
        elif kind == _COUNTER:
            out[name] = summary["counters"].get(key, 0)
        else:
            out[name] = summary["maxima"].get(key, 0)
    requests = out["engine.series.requests"]
    out["engine.series.reuse_ratio"] = 1 - out["engine.series.builds"] / requests if requests else 0.0
    return out


def command_seconds(ops: list, op_seconds: list) -> dict:
    """Sum of op times per CLI command over one pass."""
    out = {c: 0.0 for c in COMMANDS}
    for op, seconds in zip(ops, op_seconds):
        if op["command"] in out:
            out[op["command"]] += seconds
    return out


def run_pass(ops: list, trace: bool = False, setup_only: bool = False) -> dict:
    spec = {"src": SRC, "ops": ops, "trace": trace, "setup_only": setup_only}
    start = time.monotonic()
    proc = subprocess.run(
        [sys.executable, WORKER, json.dumps(spec)],
        capture_output=True, text=True, timeout=PASS_TIMEOUT_S, cwd=ROOT,
    )
    if proc.returncode != 0:
        raise RuntimeError(f"pass process failed ({proc.returncode}):\n{proc.stderr[-4000:]}")
    report = json.loads(proc.stdout.strip().splitlines()[-1])
    cal = report["calibration"]
    report["setup_s"] = (report["ready"] - start) * REFERENCE_KERNEL_S / cal[0]
    if not setup_only:
        report["op_s"] = [
            res["seconds"] * REFERENCE_KERNEL_S * 2 / (cal[i] + cal[i + 1])
            if op["threads"] == 1 else res["seconds"]
            for i, (op, res) in enumerate(zip(ops, report["ops"]))
        ]
        report["wall_s"] = sum(report["op_s"])
        report["raw_wall_s"] = sum(res["seconds"] for res in report["ops"])
    return report


class Run:
    """One workload's passes and output checks within a time budget."""

    def __init__(self, workload: str, seed: int, seconds: int, checker: workloads.Checker):
        self.workload = workload
        self.ops = workloads.build_ops(workload, seed)
        self.seconds = seconds
        self.checker = checker
        self.attempted = 0
        self.failures: list = []

    def checked_pass(self, ops: list, trace: bool = False) -> dict:
        report = run_pass(ops, trace)
        for op, res in zip(ops, report["ops"]):
            self.attempted += 1
            reason = res["error"] or self.checker.check(op, res["code"], res["stdout"])
            if reason:
                stderr = res["stderr"].strip()
                self.failures.append(
                    f"{self.workload}: {' '.join(op['argv'])}: {reason}"
                    + (f" (stderr: {stderr})" if stderr else "")
                )
        return report

    def timed(self) -> tuple:
        """End-to-end metrics from untraced passes, repeated until the budget is spent."""
        deadline = time.monotonic() + self.seconds
        setups = [run_pass(self.ops, setup_only=True)["setup_s"] for _ in range(SETUP_RUNS)]
        passes = []
        while not passes or time.monotonic() < deadline:
            passes.append(self.checked_pass(self.ops))
        setups += [p["setup_s"] for p in passes]
        metrics = {
            "setup_s": statistics.median(setups),
            "wall_s": sum(
                statistics.median(p["op_s"][i] for p in passes) for i in range(len(self.ops))
            ),
            "peak_rss_mb": statistics.median(p["peak_rss_mb"] for p in passes),
        }
        extra = self._command_medians(passes)
        extra["raw_wall_s"] = statistics.median(p["raw_wall_s"] for p in passes)
        return metrics, extra, len(passes)

    def traced(self) -> tuple:
        """Per-layer metrics from traced passes, each paired with an untraced pass."""
        deadline = time.monotonic() + self.seconds
        threaded_search = any(op["command"] == "search" and op["threads"] > 1 for op in self.ops)
        rounds = []
        while not rounds or time.monotonic() < deadline:
            traced = self.checked_pass(self.ops, trace=True)
            plain = self.checked_pass(self.ops)
            single = self.checked_pass(workloads.single_threaded(self.ops)) if threaded_search else None
            rounds.append((traced, plain, single))
        values = []
        for t, _, _ in rounds:
            scale = t["wall_s"] / t["raw_wall_s"]
            v = layer_values(t["trace"])
            values.append({k: x * scale if k.endswith("_s") else x for k, x in v.items()})
        metrics = {name: statistics.median(v[name] for v in values) for name in values[0]}
        traced_wall = statistics.median(t["wall_s"] for t, _, _ in rounds)
        plain_wall = statistics.median(p["wall_s"] for _, p, _ in rounds)
        metrics["trace.overhead_ratio"] = traced_wall / plain_wall
        # raw times: the 1-thread pass is scaled by the kernel, the 2-thread one is not
        metrics["engine.search.thread_speedup"] = (
            statistics.median(s["raw_wall_s"] for _, _, s in rounds)
            / statistics.median(p["raw_wall_s"] for _, p, _ in rounds)
            if threaded_search else 0.0
        )
        metrics["cli.output_bytes"] = sum(len(r["stdout"].encode()) for r in rounds[0][1]["ops"])
        metrics.update(self._command_medians([p for _, p, _ in rounds]))
        shares = []
        for t, _, _ in rounds:
            spans = {k: v for k, v in t["trace"]["spans"].items() if k != "trace.bookkeeping"}
            series = sum(v["self_s"] for k, v in spans.items() if k.startswith("series."))
            shares.append(series / sum(v["self_s"] for v in spans.values()))
        return metrics, {"series_self_share": statistics.median(shares)}, len(rounds)

    def _command_medians(self, passes: list) -> dict:
        per_pass = [command_seconds(self.ops, p["op_s"]) for p in passes]
        return {f"{c}_s": statistics.median(x[c] for x in per_pass) for c in COMMANDS}


def environment(seed: int, ops: list, numpy_version: str) -> dict:
    commit = None
    if os.path.isdir(os.path.join(ROOT, ".git")):
        try:
            commit = subprocess.run(
                ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                text=True, timeout=30, check=True,
            ).stdout.strip()
        except (OSError, subprocess.SubprocessError):
            pass
    h = hashlib.sha256()
    pkg = os.path.join(SRC, "cubicpart")
    for name in sorted(os.listdir(pkg)):
        if name.endswith(".py"):
            with open(os.path.join(pkg, name), "rb") as fh:
                h.update(name.encode() + b"\0" + fh.read())
    return {
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": numpy_version,
        "git_commit": commit,
        "source_sha256": h.hexdigest(),
        "seed": seed,
        "ops": [{"command": op["command"], "threads": op["threads"]} for op in ops],
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", choices=workloads.WORKLOADS + ("all",), required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds < 1:
        parser.error("--seconds must be >= 1")
    if not os.path.isfile(os.path.join(SRC, "cubicpart", "__init__.py")):
        print(f"error: no cubicpart source under {SRC}", file=sys.stderr)
        return 2

    sys.path.insert(0, SRC)
    import numpy
    from cubicpart.partitions import PartitionFamily, count_direct

    with open(EXPECTED, encoding="utf-8") as fh:
        expected = json.load(fh)
    oracle = functools.lru_cache(maxsize=None)(
        lambda kind, colors, n: count_direct(PartitionFamily(kind, colors), n)
    )
    checker = workloads.Checker(expected, oracle)

    names = workloads.WORKLOADS if args.workload == "all" else (args.workload,)
    units = dict(END_TO_END) if not args.trace else {
        **{k: v[0] for k, v in PER_LAYER.items()}, **DERIVED}
    result = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in names:
        run = Run(name, args.seed, args.seconds, checker)
        print("env " + json.dumps(environment(args.seed, run.ops, numpy.__version__)))
        metrics, extra, passes = run.traced() if args.trace else run.timed()
        failed = len(run.failures)
        for line in run.failures[:20]:
            print("FAILED " + line, file=sys.stderr)
        print(f"{name}: {passes} pass{'es' if passes > 1 else ''}, "
              f"fail_ratio {failed / run.attempted} ({failed} of {run.attempted} ops)")
        for key in sorted(metrics):
            print(f"  {key:42s} {metrics[key]:.6g} {units[key]}")
        for key, value in extra.items():
            if value:
                print(f"  ({key} {value:.6g})")
        prefix = f"{name}." if len(names) > 1 else ""
        result["attempted"] += run.attempted
        result["failed"] += failed
        result["metrics"].update(
            {prefix + k: {"value": v, "unit": units[k]} for k, v in metrics.items()}
        )
    result["correct"] = result["failed"] == 0
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
