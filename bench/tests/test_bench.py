"""Tests of the benchmark's own helpers.

    python3 -m pytest bench/tests -q
"""

import contextlib
import io
import json
import os
import random
import threading
from concurrent.futures import ThreadPoolExecutor

import pytest

import run
import tracer
import workloads
from cubicpart import cli
from cubicpart.partitions import PartitionFamily, count_direct
from cubicpart.series import ZZ, TruncatedSeries, zmod


def span(name, start, end, parent=None, task=False):
    return [name, start, end, parent, task]


def test_self_time_nested_spans_subtract_union_of_children():
    spans = [
        span("a", 0.0, 10.0),
        span("b", 1.0, 4.0, parent=0),
        span("c", 3.0, 6.0, parent=0),  # overlaps b: the union 1..6 is covered
        span("d", 4.0, 5.0, parent=2),
        span("b", 7.0, 8.0, parent=0),
    ]
    agg = tracer.aggregate(spans)
    assert agg["a"] == {"calls": 1, "total_s": 10.0, "self_s": 10.0 - 5.0 - 1.0}
    assert agg["b"]["calls"] == 2 and agg["b"]["self_s"] == pytest.approx(4.0)
    assert agg["c"]["self_s"] == pytest.approx(2.0)
    assert agg["d"]["self_s"] == pytest.approx(1.0)


def test_self_time_threaded_tasks_count_thread_seconds():
    # a search span on the main thread fans out to two pool tasks, each
    # building a series; the tasks add their own self time to the search
    spans = [
        span("search", 0.0, 10.0),
        span("search", 1.0, 9.0, parent=0, task=True),
        span("search", 2.0, 10.0, parent=0, task=True),
        span("build", 1.0, 5.0, parent=1),
        span("build", 2.0, 9.0, parent=2),
    ]
    agg = tracer.aggregate(spans)
    # main thread: 10 - |1..10| = 1; tasks: (8 - 4) + (8 - 7)
    assert agg["search"]["self_s"] == pytest.approx(1.0 + 4.0 + 1.0)
    assert agg["search"]["calls"] == 1
    assert agg["search"]["total_s"] == pytest.approx(10.0)
    assert agg["build"]["self_s"] == pytest.approx(11.0)


def test_pool_tasks_are_parented_to_the_submitting_span():
    tr = tracer.Tracer()
    pool_class = tr.pool_class(ThreadPoolExecutor)
    barrier = threading.Barrier(2)

    def work(i):
        barrier.wait(timeout=10)  # both tasks open their spans at once
        sid = tr.begin("inner")
        tr.end(sid)
        return threading.get_ident()

    outer = tr.begin("outer")
    with pool_class(max_workers=2) as pool:
        idents = list(pool.map(work, range(2)))
    tr.end(outer)
    assert len(set(idents)) == 2
    names = [s[0] for s in tr.spans]
    tasks = [i for i, s in enumerate(tr.spans) if s[4]]
    assert len(tasks) == 2 and all(tr.spans[i][0] == "outer" for i in tasks)
    assert all(tr.spans[i][3] == outer for i in tasks)
    inners = [s for s in tr.spans if s[0] == "inner"]
    assert sorted(s[3] for s in inners) == sorted(tasks)
    assert names.count("outer") == 3 and tr.current() is None


def test_truncated_products_matches_pair_count():
    for la in range(7):
        for lb in range(7):
            for rl in range(-1, 15):
                brute = sum(1 for i in range(la) for j in range(lb) if i + j < rl)
                assert tracer.truncated_products(la, lb, rl) == brute, (la, lb, rl)


def schoolbook_products(a: TruncatedSeries, b: TruncatedSeries) -> int:
    """Iterations of TruncatedSeries.mul's schoolbook loop, zero terms included."""
    rl = min(a.order + b.offset, b.order + a.offset) - a.offset - b.offset
    x, y = a.coeffs, b.coeffs
    if len(x) > len(y):
        x, y = y, x
    count = 0
    for i in range(min(len(x), rl)):
        for _ in range(min(len(y), rl - i)):
            count += 1
    return count


def test_mul_products_formula_against_brute_force():
    rng = random.Random(7)
    for _ in range(200):
        ring = rng.choice([ZZ, zmod(7)])
        a = TruncatedSeries(ring, [rng.randint(-3, 3) for _ in range(rng.randint(0, 9))],
                            offset=rng.randint(0, 3))
        b = TruncatedSeries(ring, [rng.randint(-3, 3) for _ in range(rng.randint(0, 9))],
                            offset=rng.randint(0, 3))
        assert tracer.mul_products(a, b) == schoolbook_products(a, b)


def inverse_products(s: TruncatedSeries) -> int:
    """Iterations of the inverse recurrence's inner loop."""
    nz = [(i, c) for i, c in enumerate(s.coeffs) if i > 0 and c != 0]
    count = 0
    for n in range(1, s.order):
        for i, _ in nz:
            if i > n:
                break
            count += 1
    return count


def test_inverse_terms_formula_against_brute_force():
    rng = random.Random(11)
    for _ in range(100):
        order = rng.randint(1, 30)
        coeffs = [1] + [rng.choice([0, 0, 0, 1, -1, 2]) for _ in range(order - 1)]
        s = TruncatedSeries(ZZ, coeffs)
        assert tracer.inverse_terms(s) == inverse_products(s)
        assert tracer.inverse_terms(s) <= order * sum(1 for c in coeffs[1:] if c)


def cli_output(argv):
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        code = cli.main(argv)
    return code, buf.getvalue()


@pytest.fixture(scope="module")
def checker():
    with open(run.EXPECTED, encoding="utf-8") as fh:
        expected = json.load(fh)
    return workloads.Checker(
        expected, lambda kind, colors, n: count_direct(PartitionFamily(kind, colors), n)
    )


def test_checker_accepts_correct_and_rejects_corrupted_certificate(checker):
    op = workloads.build_ops("exact-zz", 0)[-2]
    assert op["command"] == "prove"
    code, out = cli_output(op["argv"])
    assert checker.check(op, code, out) is None
    corrupted = out.replace("sturm-bound: 37", "sturm-bound: 38")
    assert corrupted != out
    assert "differs" in checker.check(op, code, corrupted)
    assert checker.check(op, 1, out) is not None


def test_checker_refuted_verify_needs_the_oracle_witness(checker):
    op = workloads._verify(3, 200, holds=False)
    code, out = cli_output(op["argv"])
    assert code == 1
    assert checker.check(op, code, out) is None
    payload = json.loads(out)
    assert payload["witness"] == {"exponent": 3, "value": 5}
    payload["witness"]["value"] = 4
    assert checker.check(op, code, json.dumps(payload)) is not None
    assert "unreadable" in checker.check(op, code, "not json")


def test_checker_small_counts_use_count_direct(checker):
    op = workloads._op(["count", "--family", "cubic", "--colors", "5", "7", "40"],
                       {"values": [7, 40]})
    code, out = cli_output(op["argv"])
    assert checker.check(op, code, out) is None
    payload = json.loads(out)
    payload["counts"][1]["count"] = str(int(payload["counts"][1]["count"]) + 1)
    assert "count_direct" in checker.check(op, code, json.dumps(payload))


def test_ops_depend_only_on_seed_and_keep_series_sizes():
    for name in workloads.WORKLOADS:
        assert workloads.build_ops(name, 3) == workloads.build_ops(name, 3)
    for seed in range(20):
        modp = workloads.build_ops("modp-scan", seed)
        assert modp[0]["expect"]["n_max"] == 40000 and modp[1]["expect"]["n_max"] == 40000
        assert modp[1]["expect"]["claim"]["residue"] in workloads.REFUTED_RESIDUES
        lo, hi = workloads.RESCAN_RANGE
        assert lo <= modp[2]["expect"]["n_max"] <= hi
        values = workloads.build_ops("exact-zz", seed)[0]["expect"]["values"]
        assert max(values) == workloads.COUNT_MAX
        assert all(n <= workloads.ORACLE_MAX or str(n) in _expected_counts() for n in values)


def _expected_counts():
    with open(run.EXPECTED, encoding="utf-8") as fh:
        return json.load(fh)["count"]


def test_single_threaded_rewrites_thread_count():
    ops = workloads.single_threaded(workloads.build_ops("search-grid", 0))
    assert ops[0]["threads"] == 1
    assert ops[0]["argv"][ops[0]["argv"].index("--threads") + 1] == "1"


def test_metric_tables_match_benchmark_json():
    with open(os.path.join(run.ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        bench = json.load(fh)
    assert {m["name"]: m["unit"] for m in bench["end_to_end"]} == run.END_TO_END
    per_layer = {k: v[0] for k, v in run.PER_LAYER.items()}
    per_layer.update(run.DERIVED)
    assert {m["name"]: m["unit"] for m in bench["per_layer"]} == per_layer
    assert [w["name"] for w in bench["workloads"]] == list(workloads.WORKLOADS)


def test_traced_worker_counts_work_at_the_use_sites():
    ops = [
        workloads._verify(4, 300, holds=True),
        workloads._verify(3, 300, holds=False),
        workloads._op(["search", "--cmax", "2", "--primes", "3,5", "--nmax", "100",
                       "--threads", "2"], {}),
        workloads._op(["prove", "--id", "a5-mod11"], {"id": "a5-mod11"}, json_out=False),
    ]
    report = run.run_pass(ops, trace=True)
    assert [r["code"] for r in report["ops"]] == [0, 1, 0, 0]
    values = run.layer_values(report["trace"])
    assert values["engine.verify_claim.calls"] == 2
    # 2 verify requests (one build, one hit) + 2 kinds x 2 colors x 2 primes
    assert values["engine.series.requests"] == 2 + 8
    assert values["engine.series.builds"] == 1 + 8
    # holds: every value 4, 11, ..., 298 scanned; refuted: stops at 3;
    # search: each residue class with >= 10 values, up to its first nonzero
    search_checked = 0
    for kind in ("cubic", "overcubic"):
        for c in (1, 2):
            for p in (3, 5):
                for r in range(p):
                    values_r = range(r, 101, p)
                    if len(values_r) < 10:
                        continue
                    nonzero = [k for k, e in enumerate(values_r)
                               if count_direct(PartitionFamily(kind, c), e) % p]
                    search_checked += nonzero[0] + 1 if nonzero else len(values_r)
    assert values["engine.scan.coeffs_checked"] == len(range(4, 301, 7)) + 1 + search_checked
    assert values["series.mul.modp_calls"] > 0 and values["series.mul.zz_calls"] == 0
    assert values["modform.metadata_s"] > 0 and values["modform.hecke_tp.self_s"] > 0
    assert values["partitions.count_direct.self_s"] > 0
    assert values["engine.search.self_s"] > 0
    assert values["series.init.coeffs"] > 0 and values["series.inverse.terms"] > 0
