"""CLI surface: subcommands, exit codes, JSON output."""

import ast
import importlib.util
import json
import os
import re
import shlex
import subprocess
import sys
import time

import pytest
from hypothesis import example, given, settings, strategies as st

from cubicpart import cli
from cubicpart.cli import main
from cubicpart.partitions import PartitionFamily, generating_series
from cubicpart.series import ZZ, zmod


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_count(capsys):
    code, out, _ = run(capsys, "count", "--family", "cubic", "--colors", "2", "3", "4")
    assert code == 0
    assert out.splitlines() == ["4", "9"]


def test_count_json_uses_decimal_strings(capsys):
    code, out, _ = run(
        capsys, "--json", "count", "--family", "overcubic", "--colors", "2", "3"
    )
    assert code == 0
    payload = json.loads(out)
    assert payload["counts"] == [{"count": "12", "n": 3}]


def test_count_rejects_negative(capsys):
    code, _, err = run(capsys, "count", "--family", "cubic", "--colors", "1", "-3")
    assert code == 2
    assert "error" in err


def test_series_text_and_mod(capsys):
    code, out, _ = run(
        capsys, "series", "--family", "cubic", "--colors", "2",
        "--order", "5", "--mod", "3",
    )
    assert code == 0
    assert out.splitlines() == ["0: 1", "1: 1", "2: 0", "3: 1", "4: 0"]


def test_series_text_across_a_chunk_boundary(capsys, monkeypatch):
    argv = ("series", "--family", "overcubic", "--colors", "3", "--order", "23", "--mod", "7")
    whole = run(capsys, *argv)
    monkeypatch.setattr(cli, "_SERIES_CHUNK", 5)
    assert run(capsys, *argv) == whole
    coeffs = generating_series(PartitionFamily("overcubic", 3), 23, zmod(7)).coefficients()
    assert whole[1] == "".join(f"{n}: {c}\n" for n, c in enumerate(coeffs))


def test_series_json(capsys):
    code, out, _ = run(
        capsys, "series", "--family", "cubic", "--colors", "1", "--order", "6", "--json"
    )
    assert code == 0
    payload = json.loads(out)
    assert payload["coefficients"] == ["1", "1", "2", "3", "5", "7"]
    assert payload["modulus"] is None


def series_document(family, colors, order, mod):
    ring = zmod(mod) if mod is not None else ZZ
    coeffs = generating_series(PartitionFamily(family, colors), order, ring).coefficients()
    payload = {
        "family": family,
        "colors": colors,
        "order": order,
        "modulus": mod,
        "coefficients": [str(c) for c in coeffs],
    }
    return json.dumps(payload, indent=2, sort_keys=True) + "\n"


@pytest.mark.parametrize("chunk", [1, 5, 23, 1 << 16])
@pytest.mark.parametrize("order, mod", [(1, None), (23, 7), (23, None), (30, 2**64 + 13)])
def test_series_json_is_streamed_in_slices_as_one_document(capsys, monkeypatch, chunk, order, mod):
    monkeypatch.setattr(cli, "_SERIES_CHUNK", chunk)
    argv = ["--json", "series", "--family", "overcubic", "--colors", "3", "--order", str(order)]
    argv += ["--mod", str(mod)] if mod is not None else []
    code, out, _ = run(capsys, *argv)
    assert code == 0
    assert out == series_document("overcubic", 3, order, mod)


def test_verify_exit_codes(capsys):
    code, out, _ = run(
        capsys, "verify", "--family", "cubic", "--colors", "2",
        "--mod", "3", "--progression", "3", "--residue", "2", "--nmax", "400",
    )
    assert code == 0 and "holds-up-to-bound" in out
    code, out, _ = run(
        capsys, "verify", "--family", "cubic", "--colors", "2",
        "--mod", "3", "--progression", "3", "--residue", "1", "--nmax", "50",
    )
    assert code == 1 and "refuted" in out and "witness" in out


def test_verify_usage_error(capsys):
    # residue out of range surfaces as exit 2, not a traceback
    code, _, err = run(
        capsys, "verify", "--family", "cubic", "--colors", "2",
        "--mod", "3", "--progression", "3", "--residue", "7", "--nmax", "50",
    )
    assert code == 2 and "error" in err


def test_missing_subcommand_exits_2():
    with pytest.raises(SystemExit) as exc:
        main([])
    assert exc.value.code == 2


def test_bad_choice_exits_2():
    with pytest.raises(SystemExit) as exc:
        main(["identity", "--id", "nope", "--order", "10"])
    assert exc.value.code == 2


def test_theorem_table(capsys):
    code, out, _ = run(capsys, "theorem", "--id", "1.2", "--p", "5", "--nmax", "600")
    assert code == 0
    lines = out.splitlines()
    assert len(lines) == 2
    assert lines[0].startswith("a_4(5n+2)") and "holds" in lines[0]


def test_theorem_cor13_id_mapping(capsys):
    code, out, _ = run(
        capsys, "theorem", "--id", "cor1.3", "--p", "3", "--k", "2", "--nmax", "400"
    )
    assert code == 0
    assert out.startswith("a_5(3n+2)")


def test_theorem_threads_same_output(capsys):
    for argv in (
        ("theorem", "--id", "1.2", "--p", "7", "--nmax", "400"),
        ("search", "--cmax", "3", "--primes", "3,5", "--nmax", "600"),
    ):
        expected = run(capsys, *argv)[:2]
        assert expected[0] == 0 and expected[1]
        assert run(capsys, "--threads", "2", *argv)[:2] == expected
        assert run(capsys, *argv, "--threads", "2")[:2] == expected
        assert run(capsys, "--threads", "3", *argv)[:2] == expected


def test_theorem_json(capsys):
    code, out, _ = run(
        capsys, "--json", "theorem", "--id", "1.5", "--nmax", "200"
    )
    assert code == 0
    payload = json.loads(out)
    assert len(payload["results"]) == 2
    assert all(r["verdict"] == "holds-up-to-bound" for r in payload["results"])


def test_theorem_usage_error(capsys):
    code, _, err = run(capsys, "theorem", "--id", "1.2", "--nmax", "100")
    assert code == 2 and "error" in err


def test_theorem_41_without_p_exits_2(capsys):
    code, out, err = run(capsys, "theorem", "--id", "4.1")
    assert code == 2 and out == ""
    assert "theorem 4.1 needs an odd prime p" in err


# p is checked before the family c = kp - 1 is built, which refuses c < 1
@pytest.mark.parametrize("p", ["1", "0", "-3", "2", "9"])
@pytest.mark.parametrize("theorem", ["1.2", "cor1.3", "4.1"])
def test_theorem_with_a_p_that_is_no_odd_prime_exits_2(capsys, theorem, p):
    code, out, err = run(capsys, "theorem", "--id", theorem, "--p", p, "--nmax", "100")
    assert (code, out, err) == (2, "", f"error: {p} is not an odd prime\n")


def test_theorem_k_on_an_id_without_k_exits_2(capsys):
    code, out, err = run(capsys, "--json", "theorem", "--id", "1.5", "--k", "4")
    assert code == 2
    assert out == ""
    assert "takes no k" in err


# the messages of the earlier path, which computed all p - 1 residue symbols
# (some 3 s at p = 100003, minutes at 10^9 + 7) and then verified the claims by
# rising residue, refusing the first order above the ceiling or residue above n_max
@pytest.mark.parametrize(
    "argv, message",
    [
        ("--id 1.2 --p 13 --nmax 5", "n_max 5 does not reach the first progression value 7"),
        ("--id 4.1 --p 13 --nmax 4", "n_max 4 does not reach the first progression value 5"),
        ("--id 1.2 --p 100003 --nmax 100", "n_max 100 does not reach the first progression value 101"),
        ("--id 4.1 --p 100003 --nmax 1000", "n_max 1000 does not reach the first progression value 1002"),
        (
            "--id 1.2 --p 1000000007 --nmax 20000000",
            "series order 20000001 is above the ceiling 10000000 over ZZ/1000000007",
        ),
        ("--id 1.2 --p 1000000008 --nmax 100", "1000000008 is not an odd prime"),
        ("--id 1.2 --p 1000000007 --k 2 --nmax 100", "theorem 1.2 takes no k, got k = 2"),
        # r = 101 is the least above 100 with 8 r + 1 a nonresidue mod 10^9 + 7
        ("--id 1.2 --p 1000000007 --nmax 100", "n_max 100 does not reach the first progression value 101"),
    ],
)
def test_theorem_refuses_the_least_residue_above_n_max_first(capsys, argv, message):
    start = time.perf_counter()
    code, out, err = run(capsys, "theorem", *argv.split())
    assert (code, out, err) == (2, "", f"error: {message}\n")
    assert time.perf_counter() - start < 5


def test_prove_writes_certificate(tmp_path, capsys):
    target = tmp_path / "cert.txt"
    code, out, _ = run(capsys, "prove", "--id", "a5-mod11", "--emit", str(target))
    assert code == 0
    text = target.read_text()
    assert text.startswith("id: a5-mod11\n")
    assert "verdict: proven" in text
    assert out.strip() == text.strip()


def test_prove_emit_to_missing_directory_exits_2(tmp_path, capsys):
    target = tmp_path / "missing" / "cert.txt"
    code, _, err = run(capsys, "prove", "--id", "a3-mod7", "--emit", str(target))
    assert code == 2
    assert err.startswith("error: ") and str(target) in err
    assert not target.exists()


def test_prove_json(capsys):
    code, out, _ = run(capsys, "--json", "prove", "--id", "a3-mod7")
    assert code == 0
    payload = json.loads(out)
    assert payload["verdict"] == "proven"
    assert payload["sturm_bound"] == 37


def test_search_text(capsys):
    code, out, _ = run(
        capsys, "search", "--cmax", "2", "--primes", "3", "--nmax", "800"
    )
    assert code == 0
    assert "a_2(3n+2) == 0 (mod 3)" in out
    assert "empirical" in out


def test_search_json_sorted(capsys):
    code, out, _ = run(
        capsys, "--json", "search", "--cmax", "4", "--primes", "5,3", "--nmax", "800",
        "--min-confirmations", "5",
    )
    assert code == 0
    payload = json.loads(out)
    assert payload["status"] == "empirical"
    assert payload["primes"] == [3, 5]
    keys = [
        (c["kind"], c["colors"], c["progression"], c["residue"])
        for c in payload["claims"]
    ]
    assert keys == sorted(keys)


def test_search_min_confirmations_below_one_exits_2(capsys):
    code, out, err = run(
        capsys, "search", "--cmax", "1", "--primes", "13", "--nmax", "10",
        "--min-confirmations", "0",
    )
    assert code == 2 and out == ""
    assert "min_confirmations must be >= 1" in err


def test_search_nmax_boundary(capsys):
    # at n_max = p K - 1 every residue class has K values
    code, out, _ = run(capsys, "search", "--cmax", "2", "--primes", "3", "--nmax", "29")
    assert code == 0 and "a_2(3n+2) == 0 (mod 3)" in out
    code, out, err = run(capsys, "search", "--cmax", "2", "--primes", "3", "--nmax", "28")
    assert code == 2 and out == ""
    assert "n_max 28 cannot give 10 confirmations at p = 3" in err


def test_search_bad_primes(capsys):
    code, _, err = run(capsys, "search", "--cmax", "2", "--primes", "3,x", "--nmax", "500")
    assert code == 2 and "comma-separated" in err


def test_search_cmax_above_the_ceiling_exits_2_at_once(capsys):
    start = time.perf_counter()
    code, out, err = run(capsys, "search", "--cmax", "1000001", "--primes", "5", "--nmax", "100")
    assert time.perf_counter() - start < 1.0
    assert code == 2 and out == ""
    assert "c_max 1000001 is above the ceiling 1000000" in err


def test_identity_exit_codes(capsys):
    code, out, _ = run(capsys, "identity", "--id", "ramanujan-p5n4", "--order", "60")
    assert code == 0 and "equal" in out
    code, out, _ = run(
        capsys, "--json", "identity", "--id", "chan-a2-3n2", "--order", "40"
    )
    assert code == 0 and json.loads(out)["equal"] is True


def test_a_well_formed_argv_builds_no_parser(capsys, monkeypatch):
    """The quick parse reads every argv here; argparse, reading the same argvs, gives the same output."""
    verify = ("verify", "--family", "cubic", "--colors", "3", "--mod", "7",
              "--progression", "7", "--residue", "4", "--nmax", "400")
    argvs = [
        ("--json", *verify),
        (*verify, "--json"),
        verify,
        ("--threads", "2", *verify),
        (*verify, "--threads", "2", "--json"),
        ("--threads", "3", *verify, "--threads", "2"),
        ("--json", "count", "--family", "overcubic", "--colors", "2", "3"),
        ("count", "--family", "overcubic", "--colors", "2", "3", "--json", "--threads", "3"),
        ("count", "3", "4", "--family", "overcubic", "--colors", "2"),
    ]
    monkeypatch.setattr(cli, "_quick_parse", lambda argv: None)
    through_argparse = [run(capsys, *argv) for argv in argvs]
    monkeypatch.undo()

    def no_parser():
        raise AssertionError("a well-formed argv built a parser")

    monkeypatch.setattr(cli, "build_parser", no_parser)
    assert [run(capsys, *argv) for argv in argvs * 2] == through_argparse * 2
    assert through_argparse[0] == through_argparse[1] != through_argparse[2]


@pytest.mark.parametrize("argv", [
    ("--threads", "0", "count", "--family", "cubic", "--colors", "1", "1"),
    ("verify", "--family", "cubic", "--colors", "3", "--mod", "7",
     "--progression", "7", "--residue", "4", "--nmax", "400", "--threads", "0"),
])
def test_threads_validation(capsys, monkeypatch, argv):
    monkeypatch.setenv("COLUMNS", "80")
    assert run_exit(capsys, argv) == (2, "", (
        "usage: cubicpart [-h] [--json] [--threads T]\n"
        "                 {count,series,verify,theorem,prove,search,identity} ...\n"
        "cubicpart: error: --threads must be >= 1, got 0\n"
    ))


HUGE = "100000000000"  # 10^11, far above every order ceiling


@pytest.mark.parametrize("argv", [
    ("verify", "--family", "cubic", "--colors", "3", "--mod", "7",
     "--progression", "7", "--residue", "4", "--nmax", HUGE),
    ("series", "--family", "cubic", "--colors", "3", "--order", HUGE),
    ("series", "--family", "cubic", "--colors", "3", "--order", HUGE, "--mod", "7"),
    ("count", "--family", "cubic", "--colors", "2", "3", HUGE),
    ("search", "--cmax", "3", "--primes", "5,7", "--nmax", HUGE),
    ("theorem", "--id", "1.2", "--p", "13", "--nmax", HUGE),
    ("identity", "--id", "chan-a2-3n2", "--order", HUGE),
    ("verify", "--family", "overcubic", "--colors", "25", "--mod", "13",
     "--progression", "13", "--residue", "11", "--nmax", HUGE),
    ("search", "--cmax", "1", "--primes", "3", "--nmax", HUGE),  # no class survives its prefix
    # progression 1 is read from the full series, and its witness count(0) lies in the prefix
    ("verify", "--family", "cubic", "--colors", "1", "--mod", "7",
     "--progression", "1", "--residue", "0", "--nmax", HUGE),
])
def test_an_oversized_order_exits_2_at_once(capsys, argv):
    start = time.perf_counter()
    code, out, err = run(capsys, *argv)
    assert time.perf_counter() - start < 1.0
    assert code == 2 and out == ""
    assert err.startswith("error: series order ") and "above the ceiling" in err


# The help, usage and error text of the parser, as (argv, exit code, stdout,
# stderr) at COLUMNS=80, recorded from the parser that added every
# subcommand's arguments when it was built.
with open(os.path.join(os.path.dirname(__file__), "cli_text.json"), encoding="utf-8") as _fh:
    CLI_TEXT = json.load(_fh)


def run_exit(capsys, argv):
    """main's exit code, stdout and stderr, through SystemExit too."""
    try:
        code = main(list(argv))
    except SystemExit as exc:
        code = exc.code
    captured = capsys.readouterr()
    return code, captured.out, captured.err


@pytest.mark.parametrize("case", CLI_TEXT, ids=lambda case: " ".join(case["argv"]) or "no-args")
def test_help_usage_and_errors_are_pinned(capsys, monkeypatch, case):
    """Top-level help, each subcommand's help and one missing-argument error each, twice over."""
    monkeypatch.setenv("COLUMNS", "80")
    want = (case["code"], case["stdout"], case["stderr"])
    assert run_exit(capsys, case["argv"]) == want
    assert run_exit(capsys, case["argv"]) == want


def test_the_pinned_text_covers_every_subcommand():
    commands = {case["argv"][0] for case in CLI_TEXT}
    assert commands == set(cli._COMMANDS) | {"--help"}
    for name in cli._COMMANDS:
        assert [name, "--help"] in [case["argv"] for case in CLI_TEXT]
        assert any(case["argv"][0] == name and case["code"] == 2 for case in CLI_TEXT)


def test_a_parser_built_from_the_table_keeps_the_argument_order():
    (action,) = cli.build_parser()._subparsers._group_actions
    assert list(action.choices) == list(cli._COMMANDS)
    assert [a.dest for a in action.choices["verify"]._actions] == [
        "help", "family", "colors", "mod", "progression", "residue", "nmax", "json", "threads",
    ]


def test_start_up_imports_no_thread_pool():
    """concurrent.futures loads only when ThreadPoolExecutor is asked of cli or engine,
    and both names stay readable and assignable."""
    code = """
import sys
from cubicpart import cli, engine
assert "concurrent.futures" not in sys.modules
from concurrent.futures import ThreadPoolExecutor
assert cli.ThreadPoolExecutor is engine.ThreadPoolExecutor is ThreadPoolExecutor
class Pool(ThreadPoolExecutor):
    pass
cli.ThreadPoolExecutor = engine.ThreadPoolExecutor = Pool
assert cli.ThreadPoolExecutor is engine.ThreadPoolExecutor is Pool
for module in (cli, engine):
    try:
        module.ProcessPoolExecutor
    except AttributeError:
        pass
    else:
        raise AssertionError(module)
"""
    subprocess.run([sys.executable, "-c", code], check=True)


def test_start_up_imports_no_dataclasses():
    """The value records are NamedTuples, so no start-up import brings in dataclasses."""
    code = """
import sys
import cubicpart.cli
assert "dataclasses" not in sys.modules, "dataclasses"
"""
    subprocess.run([sys.executable, "-c", code], check=True)


def test_a_well_formed_command_imports_no_argparse():
    """The quick parse reads a well-formed argv, so argparse, gettext and locale stay unloaded."""
    code = """
import contextlib, io, sys
from cubicpart.cli import main
with contextlib.redirect_stdout(io.StringIO()):
    assert main(["--json", "verify", "--family", "cubic", "--colors", "3", "--mod", "7",
                 "--progression", "7", "--residue", "4", "--nmax", "400", "--threads", "2"]) == 0
for name in ("argparse", "gettext", "locale"):
    assert name not in sys.modules, name
"""
    subprocess.run([sys.executable, "-c", code], check=True)


# Tokens for the edits of cli_argvs: an abbreviation, --opt=value, negative
# and signed numbers, an empty value, --, help, unknown flags, and flags and
# subcommand names out of their place.
ODD_TOKENS = ["--prog", "--mod=7", "--nmax=40", "-3", " -3", "+7", "7_0", "", "--", "-h",
              "--help", "--bogus", "-", "-x", "--js", "x", "0", "verify", "count", "--threads",
              "--json", "--family", "--colors", "--id"]


def _value(kw):
    if "choices" in kw:
        return st.sampled_from(list(kw["choices"]))
    if kw.get("type") is int:
        return st.integers(0, 400).map(str)
    return st.sampled_from(["3,5", "7", "cert.txt"])


@st.composite
def cli_argvs(draw):
    """(an argv drawn from the option table, whether it is left well formed).

    The argv gives every required option and each other one or not, in any
    order at its level, with valid values; --threads may be 0.  Then up to
    four edits insert odd tokens, delete, swap or repeat tokens, which can
    drop a required option, split count's values or repeat an option.
    """
    name = draw(st.sampled_from(list(cli._COMMANDS)))

    def pieces(table):
        out = []
        for flag, kw in table:
            if not flag.startswith("-"):
                out.append([draw(_value(kw)) for _ in range(draw(st.integers(1, 3)))])
            elif kw.get("required") or draw(st.booleans()):
                if kw.get("action") == "store_true":
                    out.append([flag])
                elif flag == "--threads":
                    out.append([flag, draw(st.sampled_from(["0", "1", "2"]))])
                else:
                    out.append([flag, draw(_value(kw))])
        return [token for piece in draw(st.permutations(out)) for token in piece]

    argv = pieces(cli._TOP) + [name] + pieces(cli._COMMANDS[name][1] + cli._COMMON)
    well_formed = "0" not in (argv[i + 1] for i, t in enumerate(argv) if t == "--threads")
    for _ in range(draw(st.integers(0, 4))):
        well_formed = False
        at = draw(st.integers(0, len(argv)))
        edit = draw(st.sampled_from(["insert", "delete", "swap", "repeat"]))
        if edit == "insert":
            argv.insert(at, draw(st.sampled_from(ODD_TOKENS + list(cli._COMMANDS))))
        elif edit == "delete" and at < len(argv):
            del argv[at]
        elif edit == "swap" and at + 1 < len(argv):
            argv[at], argv[at + 1] = argv[at + 1], argv[at]
        elif edit == "repeat":
            start = draw(st.integers(0, len(argv) - 1))
            argv[at:at] = argv[start : start + draw(st.integers(1, 2))]
    return argv, well_formed


@settings(max_examples=400, deadline=None, derandomize=True)
@given(cli_argvs())
@example((["count", "--family", "cubic", "--colors", "2", "3", "--json", "4"], False))
@example((["count", "--family", "cubic", "--colors", "2", " -3", "+7", "7_0"], False))
@example((["count", "--family", "cubic", "--colors", "2", "-3"], False))
@example((["theorem", "--id", "1.2", "--p", "-3"], False))
@example((["verify", "--family", "cubic", "--colors", "3", "--mod", "7", "--prog", "7",
           "--residue", "4", "--nmax=40"], False))
@example((["--threads", "0", "theorem", "--id", "1.5", "--threads", "2"], False))
@example((["theorem", "--id", "1.5", "--threads", "0"], False))
@example((["theorem", "--id", "1.5", "--k", "2", "--k", "3"], False))
@example((["search", "--cmax", "3", "--primes", "", "--nmax", "100"], True))
@example((["prove", "--id", "verify"], False))
@example((["--json", "--json", "identity", "--id", "chan-a2-3n2", "--order", "9"], False))
@example((["identity", "--id", "chan-a2-3n2", "--order", "9", "--", "--json"], False))
def test_the_quick_parse_gives_argparse_namespace(case):
    argv, well_formed = case
    quick = cli._quick_parse(argv)
    if well_formed:
        assert quick is not None, argv
    if quick is not None:
        assert vars(quick) == vars(cli.build_parser().parse_args(argv)), argv


def _workload_argvs():
    path = os.path.join(os.path.dirname(__file__), os.pardir, "bench", "workloads.py")
    spec = importlib.util.spec_from_file_location("bench_workloads", path)
    workloads = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(workloads)
    return [op["argv"] for w in workloads.WORKLOADS for seed in range(4)
            for op in workloads.build_ops(w, seed)]


def _ci_argvs():
    """The argv of every cubicpart command in the CI workflow, up to its pipe or redirection."""
    path = os.path.join(os.path.dirname(__file__), os.pardir, ".github", "workflows", "tests.yml")
    with open(path, encoding="utf-8") as fh:
        text = fh.read().replace("\\\n", " ")
    calls = re.findall(
        r"(?:^[ \t]*|\$\(|timeout \d+ )cubicpart((?:[ \t]+(?!2>)[^\s|>)]+)+)", text, re.M)
    lists = re.findall(r"\['cubicpart', [^\]]*\]", text)
    return [shlex.split(call) for call in calls] + [ast.literal_eval(argv)[1:] for argv in lists]


def test_every_workload_and_ci_argv_takes_the_quick_path(capsys):
    """Every argv of the benchmark's workloads and CI's smoke steps that argparse
    accepts is read by the quick parse, unless it spells an option otherwise
    than exactly (CI runs one such call, for the argparse path)."""
    flags = {flag for flag, _ in cli._TOP}
    flags |= {flag for _, own, _ in cli._COMMANDS.values() for flag, _ in own if flag[0] == "-"}
    workload_argvs, ci_argvs = _workload_argvs(), _ci_argvs()
    assert len(workload_argvs) == 4 * (5 + 1 + 6) and len(ci_argvs) >= 45
    quick = fallback = 0
    for argv in workload_argvs + ci_argvs:
        try:
            want = vars(cli.build_parser().parse_args(argv))
        except SystemExit:
            capsys.readouterr()
            continue
        got = cli._quick_parse(argv)
        if all(t in flags for t in argv if t.startswith("-")):
            assert got is not None and vars(got) == want, argv
            quick += 1
        else:
            assert got is None, argv
            fallback += 1
    assert quick >= len(workload_argvs) + 40 and fallback >= 1
