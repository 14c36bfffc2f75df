"""Span tracing of cubicpart from outside the package.

The tracer replaces public functions at the sites their callers look them
up (a module attribute, or a class attribute for TruncatedSeries methods)
with wrappers that record a span per call and a few work counts.  Nothing
inside the package changes, and a pass with tracing off never imports
this module.

A span is ``[name, start, end, parent, task]``.  Each thread keeps its own
stack of open spans.  Work handed to a thread pool runs inside a *task*
span whose parent is the span that submitted it, so the self time of a
layer that fans out to threads is the sum of its main-thread self time
and its tasks' self times: thread-seconds, which with two threads can
exceed wall time.

Nothing that runs once per coefficient is wrapped; per-coefficient counts
(products formed, terms of the inverse recurrence, coefficients scanned)
come from sizes.  Counting that needs a pass over a series runs inside a
``trace.bookkeeping`` span, so it is not charged to the caller's self time.
"""

from __future__ import annotations

import inspect
import threading
from collections import defaultdict
from functools import wraps
from time import perf_counter

BOOKKEEPING = "trace.bookkeeping"


def truncated_products(la: int, lb: int, rl: int) -> int:
    """Coefficient products of a truncated product: pairs i < la, j < lb, i + j < rl."""
    if la > lb:
        la, lb = lb, la
    n = min(la, rl)
    if n <= 0:
        return 0
    # rows i <= rl - lb take all lb terms; the rest take rl - i
    full = max(0, min(n, rl - lb + 1))
    rest = n - full
    first = rl - full  # rl - i at i = full, decreasing by one per row
    return full * lb + rest * first - rest * (rest - 1) // 2


def mul_products(a, b) -> int:
    """Products TruncatedSeries.mul forms for a * b (zero terms included)."""
    rl = min(a.order + b.offset, b.order + a.offset) - a.offset - b.offset
    return truncated_products(len(a.coeffs), len(b.coeffs), rl)


def inverse_terms(s) -> int:
    """Products the inverse recurrence forms: sum over nonzero a_i, i > 0, of order - i.

    This is at most order times the number of nonzero input terms.
    """
    order = s.order
    return sum(order - i for i, c in enumerate(s.coeffs) if i and c)


def union_length(intervals, lo: float, hi: float) -> float:
    """Length of the union of the intervals, clipped to [lo, hi]."""
    total = 0.0
    cur_lo = cur_hi = None
    for a, b in sorted(intervals):
        a, b = max(a, lo), min(b, hi)
        if b <= a:
            continue
        if cur_hi is None or a > cur_hi:
            if cur_hi is not None:
                total += cur_hi - cur_lo
            cur_lo, cur_hi = a, b
        else:
            cur_hi = max(cur_hi, b)
    if cur_hi is not None:
        total += cur_hi - cur_lo
    return total


def aggregate(spans) -> dict:
    """Per-name calls, total_s and self_s from a list of closed spans.

    Self time is a span's duration minus the part of it that its child
    spans cover, on any thread.  Task spans add their self time to their
    name but are not calls.
    """
    children = defaultdict(list)
    for name, start, end, parent, task in spans:
        if parent is not None:
            children[parent].append((start, end))
    out: dict = {}
    for sid, (name, start, end, parent, task) in enumerate(spans):
        row = out.setdefault(name, {"calls": 0, "total_s": 0.0, "self_s": 0.0})
        row["self_s"] += (end - start) - union_length(children[sid], start, end)
        if not task:
            row["calls"] += 1
            row["total_s"] += end - start
    return out


class Tracer:
    """In-memory spans and counters, safe to use from several threads."""

    def __init__(self) -> None:
        self.spans: list = []
        self.counters: dict = defaultdict(int)
        self.maxima: dict = defaultdict(int)
        self._lock = threading.Lock()
        self._local = threading.local()
        self._op_builds: dict = defaultdict(int)

    def _stack(self) -> list:
        st = getattr(self._local, "stack", None)
        if st is None:
            st = self._local.stack = []
        return st

    def current(self):
        st = self._stack()
        return st[-1] if st else None

    def begin(self, name: str, parent=None, task: bool = False) -> int:
        st = self._stack()
        if parent is None and st:
            parent = st[-1]
        with self._lock:
            sid = len(self.spans)
            self.spans.append([name, perf_counter(), None, parent, task])
        st.append(sid)
        return sid

    def end(self, sid: int) -> None:
        self.spans[sid][2] = perf_counter()
        self._stack().pop()

    def count(self, key: str, n: int = 1) -> None:
        with self._lock:
            self.counters[key] += n

    def peak(self, key: str, value: int) -> None:
        with self._lock:
            if value > self.maxima[key]:
                self.maxima[key] = value

    def begin_op(self) -> None:
        """Start a new op: duplicate builds are counted within one op."""
        with self._lock:
            self._op_builds.clear()

    def record_build(self, key) -> None:
        with self._lock:
            self._op_builds[key] += 1
            if self._op_builds[key] > 1:
                self.counters["engine.series.duplicate_builds"] += 1

    def wrap(self, name: str, fn, after=None):
        """fn inside a span; after(args, kwargs, result) runs as bookkeeping."""
        tracer = self

        @wraps(fn)
        def wrapper(*args, **kwargs):
            sid = tracer.begin(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                tracer.end(sid)
            if after is not None:
                bid = tracer.begin(BOOKKEEPING)
                try:
                    after(args, kwargs, result)
                finally:
                    tracer.end(bid)
            return result

        return wrapper

    def pool_class(self, base):
        """A ThreadPoolExecutor whose tasks run in spans parented to the submitter."""
        tracer = self

        class TracedPool(base):
            def submit(self, fn, /, *args, **kwargs):
                parent = tracer.current()
                name = tracer.spans[parent][0] if parent is not None else "pool.task"

                def task(*a, **k):
                    sid = tracer.begin(name, parent=parent, task=True)
                    try:
                        return fn(*a, **k)
                    finally:
                        tracer.end(sid)

                return super().submit(task, *args, **kwargs)

        return TracedPool

    def summary(self) -> dict:
        return {
            "spans": aggregate(self.spans),
            "counters": dict(self.counters),
            "maxima": dict(self.maxima),
        }


def _search_coeffs_checked(series_by_key: dict, c_max, primes, n_max, min_conf) -> int:
    """Coefficients search_congruences inspects, found from the series it scanned."""
    total = 0
    for (kind, c, p, order), s in series_by_key.items():
        if order != n_max + 1 or c > c_max or p not in primes:
            continue
        coeffs = s.coefficients()
        for r in range(p):
            values = range(r, n_max + 1, p)
            if len(values) < min_conf:
                continue
            checked = len(values)
            for k, e in enumerate(values):
                if coeffs[e]:
                    checked = k + 1
                    break
            total += checked
    return total


def install(tracer: Tracer) -> None:
    """Wrap the public functions of every layer at the sites callers use."""
    from cubicpart import cli, engine, partitions, qfunctions, series

    ts = series.TruncatedSeries

    def after_mul(args, kwargs, result):
        a, b = args
        la, lb = len(a.coeffs), len(b.coeffs)
        tracer.count("series.mul.zz_calls" if a.ring.modulus is None else "series.mul.modp_calls")
        tracer.count("series.mul.coeff_products", mul_products(a, b))
        tracer.peak("series.mul.max_len", max(la, lb))

    mul = tracer.wrap("series.mul", ts.mul, after_mul)
    ts.mul = mul
    ts.__mul__ = mul  # an alias bound when the class was created
    ts.inverse = tracer.wrap(
        "series.inverse", ts.inverse,
        lambda args, kwargs, result: tracer.count("series.inverse.terms", inverse_terms(args[0])),
    )
    ts.pow = tracer.wrap("series.pow", ts.pow)  # __pow__ calls self.pow

    init = ts.__init__

    @wraps(init)
    def traced_init(self, ring, coeffs=(), offset=0, order=None):
        if not hasattr(coeffs, "__len__"):
            coeffs = list(coeffs)
        sid = tracer.begin("series.init")
        try:
            init(self, ring, coeffs, offset, order)
        finally:
            tracer.end(sid)
        tracer.count("series.init.coeffs", len(coeffs))

    ts.__init__ = traced_init

    euler = tracer.wrap("qfunctions.euler_product", qfunctions.euler_product)
    qfunctions.euler_product = euler  # eta_expansion looks it up here
    partitions.euler_product = euler  # imported by name
    engine.eta_expansion = tracer.wrap("qfunctions.eta_expansion", engine.eta_expansion)

    gen = partitions.generating_series
    partitions.generating_series = tracer.wrap("partitions.generating_series", gen)
    cli.generating_series = tracer.wrap("partitions.generating_series", gen)

    def after_engine_build(args, kwargs, result):
        fam, order, ring = args
        tracer.count("engine.series.builds")
        tracer.record_build((fam.kind, fam.colors, ring.modulus, order))

    engine.generating_series = tracer.wrap("partitions.generating_series", gen, after_engine_build)
    engine.count_direct = tracer.wrap("partitions.count_direct", engine.count_direct)
    cli.check_named_identity = tracer.wrap(
        "partitions.check_named_identity", cli.check_named_identity
    )

    engine.hecke_tp = tracer.wrap("modform.hecke_tp", engine.hecke_tp)
    for attr in ("check_candidacy", "cusp_orders", "sturm_bound", "weight"):
        setattr(engine, attr, tracer.wrap("modform.metadata", getattr(engine, attr)))

    def after_verify(args, kwargs, result):
        claim = result.claim
        if result.witness is None:
            scanned = len(range(claim.residue, result.n_max + 1, claim.progression))
        else:
            scanned = (result.witness[0] - claim.residue) // claim.progression + 1
        tracer.count("engine.scan.coeffs_checked", scanned)

    engine.verify_claim = tracer.wrap("engine.verify_claim", engine.verify_claim, after_verify)

    series_mod = engine._series_mod
    requested: dict = {}

    def traced_series_mod(kind, colors, modulus, order):
        tracer.count("engine.series.requests")
        s = series_mod(kind, colors, modulus, order)
        requested[(kind, colors, modulus, order)] = s
        return s

    engine._series_mod = traced_series_mod

    search = engine.search_congruences
    search_sig = inspect.signature(search)

    def after_search(args, kwargs, result):
        bound = search_sig.bind(*args, **kwargs)
        bound.apply_defaults()
        a = bound.arguments
        tracer.count(
            "engine.scan.coeffs_checked",
            _search_coeffs_checked(
                requested, a["c_max"], set(a["primes"]), a["n_max"], a["min_confirmations"]
            ),
        )

    engine.search_congruences = tracer.wrap("engine.search", search, after_search)
    engine.build_certificate = tracer.wrap("engine.build_certificate", engine.build_certificate)

    engine.ThreadPoolExecutor = tracer.pool_class(engine.ThreadPoolExecutor)
    cli.ThreadPoolExecutor = tracer.pool_class(cli.ThreadPoolExecutor)
    cli.main = tracer.wrap("cli.main", cli.main)
