"""CLI surface: subcommands, exit codes, JSON output."""

import json
import time

import pytest

from cubicpart import cli
from cubicpart.cli import main
from cubicpart.partitions import PartitionFamily, generating_series
from cubicpart.series import zmod


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


def test_theorem_k_on_an_id_without_k_exits_2(capsys):
    code, out, err = run(capsys, "--json", "theorem", "--id", "1.5", "--k", "4")
    assert code == 2
    assert out == ""
    assert "takes no k" in err


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


def test_search_bad_primes(capsys):
    code, _, err = run(capsys, "search", "--cmax", "2", "--primes", "3,x", "--nmax", "500")
    assert code == 2 and "comma-separated" in err


def test_identity_exit_codes(capsys):
    code, out, _ = run(capsys, "identity", "--id", "ramanujan-p5n4", "--order", "60")
    assert code == 0 and "equal" in out
    code, out, _ = run(
        capsys, "--json", "identity", "--id", "chan-a2-3n2", "--order", "40"
    )
    assert code == 0 and json.loads(out)["equal"] is True


def test_threads_validation():
    with pytest.raises(SystemExit) as exc:
        main(["--threads", "0", "count", "--family", "cubic", "--colors", "1", "1"])
    assert exc.value.code == 2


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
])
def test_an_oversized_order_exits_2_at_once(capsys, argv):
    start = time.perf_counter()
    code, out, err = run(capsys, *argv)
    assert time.perf_counter() - start < 1.0
    assert code == 2 and out == ""
    assert err.startswith("error: series order ") and "above the ceiling" in err
