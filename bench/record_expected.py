"""Record the digests the output checks compare against.

    python3 bench/record_expected.py > bench/expected.json

Run this only on a commit whose outputs are trusted (the digests in the
repository were recorded from the commit named in ``recorded_from``).
Re-recording on a later commit would make the checks accept whatever that
commit prints.
"""

import contextlib
import io
import json
import os
import subprocess
import sys

import workloads

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def run(cli, argv: list) -> str:
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        code = cli.main(argv)
    if code != 0:
        raise SystemExit(f"{' '.join(argv)} exited {code}")
    return buf.getvalue()


def main() -> None:
    sys.path.insert(0, os.path.join(ROOT, "src"))
    from cubicpart import cli

    commit = subprocess.run(
        ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True, check=True
    ).stdout.strip()
    theorem = {
        key: workloads.digest(
            [r["claim"] for r in json.loads(run(cli, argv + ["--json"]))["results"]]
        )
        for key, argv in workloads.THEOREM_OPS.items()
    }
    search = json.loads(run(cli, workloads.SEARCH_ARGV + ["--json"]))["claims"]
    series = json.loads(run(cli, workloads.SERIES_ARGV + ["--json"]))["coefficients"]
    count_argv = ["count", "--family", "cubic", "--colors", "5", "--json"]
    counts = json.loads(run(cli, count_argv + [str(n) for n in workloads.LARGE_COUNT_NS]))
    expected = {
        "recorded_from": commit,
        "theorem": theorem,
        "search": workloads.digest(search),
        "series": workloads.digest(series),
        "count": {str(c["n"]): workloads.digest(c["count"]) for c in counts["counts"]},
        "prove": {
            i: workloads.digest(run(cli, ["prove", "--id", i])) for i in workloads.PROVE_IDS
        },
    }
    print(json.dumps(expected, indent=2, sort_keys=True))


if __name__ == "__main__":
    main()
