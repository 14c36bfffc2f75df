"""One pass of a workload in a fresh interpreter.

Usage: ``python3 bench/worker.py SPEC_JSON``, where the spec holds
``src`` (the directory holding the ``cubicpart`` package), ``ops``,
``trace`` and ``setup_only``.  Prints one JSON object: the monotonic time
at which the first op was ready, each op's exit code, stdout and time,
the calibration times taken before the first op and after each op, the
peak RSS, and with tracing on the span and counter summary.  Checking the
outputs is left to the caller, which is untimed.

The calibration kernel is fixed code that does not use cubicpart: an int64
convolution and a pure-Python recurrence, the two kinds of work the
package does.  A virtual machine that shares physical cores with other
tenants can change speed by 1.8x from one ten seconds to the next; the
kernel's time measures that speed next to each op.
"""

import contextlib
import io
import json
import os
import resource
import sys
import time
import traceback


def kernel() -> None:
    import numpy as np  # after the set-up time is taken

    np.convolve(np.arange(20000, dtype=np.int64) % 7, np.arange(1500, dtype=np.int64) % 7)
    out = [0] * 3000
    out[0] = 1
    for n in range(1, 3000):
        s = 0
        for i in range(1, min(n, 40) + 1):
            s += i * out[n - i]
        out[n] = s % 7


def calibrate(repeats: int = 3) -> float:
    """Median time of a few runs of the kernel, in seconds."""
    times = []
    for _ in range(repeats):
        start = time.perf_counter()
        kernel()
        times.append(time.perf_counter() - start)
    return sorted(times)[repeats // 2]


def run_op(cli, argv: list):
    out, err = io.StringIO(), io.StringIO()
    error = None
    start = time.perf_counter()
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = cli.main(argv)
    except SystemExit as exc:
        code = exc.code
    except Exception:  # an op that raises is a failed op, not a failed pass
        code, error = None, traceback.format_exc()
    elapsed = time.perf_counter() - start
    return {
        "code": code,
        "seconds": elapsed,
        "stdout": out.getvalue(),
        "stderr": err.getvalue()[-2000:],
        "error": error,
    }


def main() -> int:
    spec = json.loads(sys.argv[1])
    sys.path.insert(0, spec["src"])
    import cubicpart.cli as cli

    if not os.path.abspath(cli.__file__).startswith(os.path.abspath(spec["src"]) + os.sep):
        print(f"cubicpart imported from {cli.__file__}, not {spec['src']}", file=sys.stderr)
        return 3
    argvs = [list(op["argv"]) for op in spec["ops"]]
    ready = time.monotonic()
    report = {"ready": ready, "calibration": [calibrate()]}
    if not spec["setup_only"]:
        tracer = None
        if spec["trace"]:
            import tracer as tracing

            tracer = tracing.Tracer()
            tracing.install(tracer)
        results = []
        for argv in argvs:
            if tracer is not None:
                tracer.begin_op()
            results.append(run_op(cli, argv))
            report["calibration"].append(calibrate())
        report["ops"] = results
        report["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
        if tracer is not None:
            report["trace"] = tracer.summary()
    sys.stdout.write(json.dumps(report) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
