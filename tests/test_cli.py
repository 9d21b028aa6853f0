"""CLI surface: JSON schemas, exit codes, formats, determinism."""

import concurrent.futures
import json
import math
import os
import subprocess
import sys
from fractions import Fraction as F
from pathlib import Path

import pytest

import bqec
from bqec.arith import format_rational
from bqec.cli import main
from bqec.curves import Curve
from bqec.quad import trapezoid

DATA = Path(__file__).parent / "data"


def run_cli(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr().out
    return code, out


def run_json(capsys, *argv):
    code, out = run_cli(capsys, *argv)
    lines = [json.loads(line) for line in out.splitlines() if line.strip()]
    return code, lines


def test_curve_info(capsys):
    code, lines = run_json(capsys, "curve", "--a", "10")
    assert code == 0
    (payload,) = lines
    assert payload["A"] == "5761"
    assert payload["B"] == "160000"
    assert payload["torsion"]["shape"] == "Z/8"
    assert payload["torsion"]["proven"] is True
    assert payload["full_two_torsion"] is False
    orders = sorted(entry["order"] for entry in payload["torsion_points"])
    assert orders == [2, 4, 4, 8, 8, 8, 8]


def test_curve_full_two_torsion(capsys):
    code, lines = run_json(capsys, "curve", "--a", "6")
    assert code == 0
    assert lines[0]["torsion"]["shape"] == "Z/2xZ/8"
    assert lines[0]["full_two_torsion"] is True


def test_curve_singular_parameter(capsys):
    code, lines = run_json(capsys, "curve", "--a", "1")
    assert code == 2
    assert lines[0]["error"] == "singular-parameter"


def test_quad_from_sides(capsys):
    code, lines = run_json(capsys, "quad", "--sides", "21,28,12,5")
    assert code == 0
    payload = lines[0]
    assert payload["N"] == "99/40"
    assert payload["a"] == "21/5"
    assert payload["u"] == "1764"
    assert F(payload["v"]) in (F(366912, 5), F(-366912, 5))


def test_quad_from_point(capsys):
    code, lines = run_json(capsys, "quad", "--a", "21/5", "--u", "756/125", "--v", "532224/3125")
    assert code == 0
    payload = lines[0]
    assert payload["s"] == "69/13"
    assert payload["sides"] == ["273", "280", "72", "65"]


def test_quad_unrealizable(capsys):
    code, lines = run_json(
        capsys, "quad", "--a", "21/5", "--u", "9604/225", "--v", "7990528/16875"
    )
    assert code == 3
    payload = lines[0]
    assert payload["error"] == "not-realizable"
    assert payload["side"] == "c"
    assert payload["value"] == "-8/15"
    code, lines = run_json(capsys, "quad", "--a", "10", "--u", "0", "--v", "0")
    assert code == 3
    assert lines[0]["error"] == "zero-u"


def test_quad_irrational(capsys):
    code, lines = run_json(capsys, "quad", "--sides", "1,1,1,1")
    assert code == 3
    assert lines[0]["error"] == "irrational-n"


def test_quad_invalid_inputs(capsys):
    code, lines = run_json(capsys, "quad", "--sides", "1,2,1,1")
    assert code == 2  # incircle condition violated
    assert lines[0]["error"] == "not-pitot"
    code, lines = run_json(capsys, "quad", "--sides", "1,2,x,1")
    assert code == 2
    code, lines = run_json(capsys, "quad", "--sides", "1,2,1")
    assert code == 2


def test_search_quads_json(capsys):
    code, lines = run_json(capsys, "search-quads", "--max-side", "28")
    assert code == 0
    assert {"sides": [5, 12, 28, 21], "N": "99/40"} in lines


def test_search_quads_csv(capsys):
    code, out = run_cli(capsys, "search-quads", "--max-side", "12", "--format", "csv")
    assert code == 0
    lines = out.splitlines()
    assert lines[0] == "a,b,c,d,N"
    assert all(line.count(",") == 4 for line in lines[1:])


def test_search_quads_pinned_output(capsys):
    # 300 was recorded from the triple-loop search that the residue masks
    # replaced, 1000 before the moduli past 31, which only the larger uses
    for max_side in (300, 1000):
        expected = (DATA / f"search_quads_{max_side}.jsonl").read_text(encoding="utf-8")
        _, out = run_cli(capsys, "search-quads", "--max-side", str(max_side))
        assert out == expected


def test_search_quads_cap_exit_code(capsys):
    code, lines = run_json(capsys, "search-quads", "--max-side", "2001")
    assert code == 4
    assert lines == [
        {"error": "size-cap-exceeded", "detail": "max side 2001 exceeds the cap 2000"}
    ]


def test_quad_sides_longer_than_int_str_limit(capsys, monkeypatch):
    # a valid trapezoid with 2404-digit sides: its output passes the
    # interpreter's 4300-digit int<->str limit, but not the digit cap
    quad, n = trapezoid(F(10 ** 600 + 1, 3 * 10 ** 600 + 7))
    sides = ",".join(format_rational(side) for side in quad.sides)
    assert max(len(format_rational(side)) for side in quad.sides) == 2404
    limit = sys.get_int_max_str_digits()
    code, lines = run_json(capsys, "quad", "--sides", sides)
    assert code == 0
    assert lines[0]["N"] == format_rational(n)
    assert sys.get_int_max_str_digits() == limit
    monkeypatch.setenv("BQEC_DIGIT_CAP", "1000")
    code, lines = run_json(capsys, "quad", "--sides", sides)
    assert code == 4
    assert lines[0]["error"] == "digit-cap-exceeded"
    assert sys.get_int_max_str_digits() == limit


def test_negative_rational_as_separate_argument(capsys):
    code, joined = run_cli(capsys, "curve", "--a=-7/3")
    assert code == 0
    code, separate = run_cli(capsys, "curve", "--a", "-7/3")
    assert code == 0
    assert separate == joined
    code, lines = run_json(capsys, "regulator", "--a", "10", "--point", "-32,-864")
    assert code == 0
    assert lines[0]["points"] == 1


def test_curve_factoring_cap_exit_code(capsys):
    # a = 1/N with N = nextprime(10^35) * nextprime(3 * 10^35): the integral
    # model needs N factored, and both primes are far beyond Pollard rho
    N = 30000000000000000000000000000000040600000000000000000000000000000013731
    code, lines = run_json(capsys, "curve", f"--a=1/{N}")
    assert code == 4
    assert lines[0]["error"] == "size-cap-exceeded"
    assert "71-digit" in lines[0]["detail"]
    assert str(N) not in lines[0]["detail"]


def test_cli_loads_only_the_standard_library():
    # -S keeps site-packages hooks out of the fresh process, so every module
    # outside the standard library that it holds was imported by bqec
    script = "\n".join([
        "import sys",
        "from bqec.cli import main",
        "code = main(['curve', '--a', '10'])",
        "print(sorted({m.split('.')[0] for m in sys.modules} - set(sys.stdlib_module_names)))",
        "sys.exit(code)",
    ])
    src = Path(bqec.__file__).resolve().parent.parent
    path = os.pathsep.join(filter(None, [str(src), os.environ.get("PYTHONPATH")]))
    result = subprocess.run([sys.executable, "-S", "-c", script], capture_output=True,
                            text=True, env=dict(os.environ, PYTHONPATH=path), timeout=60)
    assert result.returncode == 0, result.stderr
    curve, loaded = result.stdout.splitlines()
    assert json.loads(curve)["torsion"]["shape"] == "Z/8"
    assert loaded == "['__main__', 'bqec']"


def test_parser_is_built_once_and_reused_without_leaking_state(capsys):
    import bqec.cli

    bqec.cli._make_parser.cache_clear()  # the next call builds the parser
    code, out = run_cli(capsys, "search-quads", "--max-side", "28", "--format", "csv")
    assert code == 0 and out.splitlines()[0] == "a,b,c,d,N"
    code, lines = run_json(capsys, "search-quads", "--max-side", "28")
    assert code == 0 and lines and all(set(line) == {"sides", "N"} for line in lines)

    code, out = run_cli(capsys, "sieve", "--subfamily", "1", "--k", "257/134", "--format", "csv")
    assert code == 0 and out.startswith("subfamily,k,")
    code, lines = run_json(capsys, "sieve", "--subfamily", "1", "--k", "257/134")
    assert code == 0 and [line["k"] for line in lines] == ["257/134"]

    code, normal = run_cli(capsys, "curve", "--a=10")
    assert code == 0
    with pytest.raises(SystemExit) as rejected:
        main(["curve"])  # --a is required
    assert rejected.value.code == 2
    capsys.readouterr()
    assert run_cli(capsys, "curve", "--a=10") == (0, normal)

    assert bqec.cli._make_parser.cache_info().misses == 1
    assert bqec.cli.build_parser() is bqec.cli.build_parser()


def test_sieve_json(capsys):
    code, lines = run_json(capsys, "sieve", "--subfamily", "4", "--k", "115/28")
    assert code == 0
    payload = lines[0]
    assert payload["subfamily"] == 4
    assert payload["k"] == "115/28"
    assert payload["passed"] is True
    assert payload["S523"] > 8 and payload["S1979"] > 10


def test_sieve_csv_columns(capsys):
    code, out = run_cli(
        capsys, "sieve", "--subfamily", "1", "--k", "257/134",
        "--thresholds", "523:10,1979:14", "--format", "csv",
    )
    assert code == 0
    lines = out.splitlines()
    assert lines[0] == "subfamily,k,S523,S1979,passed"
    assert lines[1].startswith("1,257/134,") and lines[1].endswith(",true")


def test_sieve_singular_record(capsys):
    code, lines = run_json(capsys, "sieve", "--subfamily", "1", "--k", "2,257/134")
    assert code == 0
    assert lines[0]["singular"] is True and lines[0]["passed"] is False
    assert lines[1]["passed"] is True


def test_sieve_k_file(tmp_path, capsys):
    path = tmp_path / "k.txt"
    path.write_text("115/28\n301/396\n")
    code, lines = run_json(capsys, "sieve", "--subfamily", "4", "--k-file", str(path))
    assert code == 0
    assert [line["k"] for line in lines] == ["115/28", "301/396"]


def test_sieve_thresholds_repeated_or_non_finite(capsys):
    # a repeated bound is ambiguous, and no score beats nan or inf
    for text, part in (("523:10,523:11", "523:11"), ("523:nan", "523:nan"),
                       ("523:inf", "523:inf"), ("1979:14,523:-inf", "523:-inf")):
        code, lines = run_json(
            capsys, "sieve", "--subfamily", "1", "--k", "257/134", "--thresholds", text
        )
        assert code == 2
        assert lines[0]["error"] == "value-error"
        assert repr(part) in lines[0]["detail"]


def test_sieve_thresholds_prime_bound_below_five(capsys):
    # the sums skip p <= 3, so a bound below 5 would be scored over no prime
    for text in ("2:1", "4:1", "0:1", "-5:1"):
        code, lines = run_json(
            capsys, "sieve", "--subfamily=1", "--k=257/134", f"--thresholds={text}"
        )
        assert code == 2
        assert lines[0]["error"] == "value-error"
        assert repr(text) in lines[0]["detail"]
    # 5 is the least bound that scores a prime: #E(F_5) = 8 here
    code, lines = run_json(capsys, "sieve", "--subfamily=4", "--k=3/11", "--thresholds=5:0")
    assert code == 0
    assert lines == [{"subfamily": 4, "k": "3/11", "S5": (1 - 4 / 8) * math.log(5),
                      "passed": True}]


def test_sieve_prime_bound_cap_exit_code(capsys):
    code, lines = run_json(
        capsys, "sieve", "--subfamily=1", "--k=257/134", "--thresholds=10007:1"
    )
    assert code == 4
    assert lines == [
        {"error": "size-cap-exceeded", "detail": "prime bound 10007 exceeds the cap 10000"}
    ]


def test_sieve_requires_one_k_source(capsys):
    code, lines = run_json(capsys, "sieve", "--subfamily", "1")
    assert code == 2


def test_height_command(capsys):
    code, lines = run_json(
        capsys, "height", "--A", "10334", "--B", "9150625", "--x", "625", "--y", "100000"
    )
    assert code == 0
    assert abs(lines[0]["height"] - 2.34275900093414) < 1e-3
    assert lines[0]["doublings"] == 8


def test_regulator_command(capsys):
    code, lines = run_json(capsys, "regulator", "--a", "10", "--point=-32,-864")
    assert code == 0
    assert lines[0]["regulator"] > 0
    assert lines[0]["independent"] is True
    assert lines[0]["points"] == 1


def test_regulator_command_computes_heights_once(capsys, monkeypatch):
    import bqec.analysis

    calls = []
    height = bqec.analysis.canonical_height

    def counting(*args):
        calls.append(args)
        return height(*args)

    monkeypatch.setattr(bqec.analysis, "canonical_height", counting)
    code, lines = run_json(
        capsys, "regulator", "--a", "10", "--point=-32,-864", "--point=40,3960"
    )
    assert code == 0
    assert lines[0]["independent"] is False  # the second point is torsion
    assert len(calls) == 3  # h(P), h(Q) and h(P + Q), once each


def test_curve_command_group_law_calls(capsys, monkeypatch):
    calls = []
    add = Curve.add

    def counting(self, P, Q, check=True):
        calls.append((P, Q))
        return add(self, P, Q, check)

    monkeypatch.setattr(Curve, "add", counting)
    # 35 calls screen the seven hints by repeated addition; the group table
    # makes one per unordered pair of non-identity elements: 28 for Z/8 and
    # 120 for Z/2xZ/8.  Closing the hints under ordered pairs and finding
    # orders by repeated addition took 134 and 484.
    for a, shape, cap in (("10", "Z/8", 63), ("1312/207", "Z/2xZ/8", 155)):
        calls.clear()
        code, lines = run_json(capsys, "curve", f"--a={a}")
        assert code == 0
        assert (lines[0]["torsion"]["shape"], lines[0]["torsion"]["proven"]) == (shape, True)
        assert len(calls) <= cap


def test_verify_command(capsys):
    code, lines = run_json(capsys, "verify", "progressions")
    assert code == 0
    assert all(line["status"] in ("pass", "paper-discrepancy") for line in lines)
    assert all(set(line) == {"item", "status", "detail"} for line in lines)


def test_verify_deterministic_output(capsys):
    _, first = run_cli(capsys, "verify", "table3")
    _, second = run_cli(capsys, "verify", "table3")
    assert first == second


def test_digit_cap_exit_code(capsys, monkeypatch):
    monkeypatch.setenv("BQEC_DIGIT_CAP", "50")
    code, lines = run_json(
        capsys, "height", "--A", "10334", "--B", "9150625", "--x", "625", "--y", "100000"
    )
    assert code == 4
    assert lines[0]["error"] == "digit-cap-exceeded"


def test_digit_cap_out_of_range_is_invalid_input(capsys, monkeypatch):
    # 2147483648 is past the C int that sys.set_int_max_str_digits takes
    limit = sys.get_int_max_str_digits()
    for value in ("2147483648", "0"):
        monkeypatch.setenv("BQEC_DIGIT_CAP", value)
        code, lines = run_json(capsys, "curve", "--a", "10")
        assert code == 2
        assert lines[0]["error"] == "value-error"
        assert "BQEC_DIGIT_CAP" in lines[0]["detail"]
        assert sys.get_int_max_str_digits() == limit


def test_search_quads_has_no_jobs_option(capsys):
    # the search runs in one process; --jobs is an unknown option there
    with pytest.raises(SystemExit) as excinfo:
        main(["search-quads", "--max-side", "20", "--jobs", "2"])
    assert excinfo.value.code == 2
    assert capsys.readouterr().out == ""


def test_sieve_two_processes_match_serial(capsys):
    # passing (115/28, 301/396, 12/233), failing (3/11) and singular (1) rows
    args = ("sieve", "--subfamily", "4", "--k", "115/28,301/396,12/233,3/11,1", "--format", "csv")
    _, serial = run_cli(capsys, *args)
    _, pooled = run_cli(capsys, *args, "--jobs", "2")
    assert pooled == serial
    assert serial.splitlines()[-2:] == ["4,3/11,5.44892518378023,6.0705749603440715,false",
                                        "4,1,,,false"]


class _RecordingPool:
    """Stands in for ProcessPoolExecutor: records max_workers, maps in process."""

    sizes: list = []

    def __init__(self, max_workers):
        self.sizes.append(max_workers)

    def __enter__(self):
        return self

    def __exit__(self, *exc_info):
        return False

    def map(self, fn, iterable):
        return map(fn, iterable)


def test_jobs_clamped_to_cpu_count(capsys, monkeypatch):
    monkeypatch.setattr(os, "cpu_count", lambda: 2)
    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", _RecordingPool)
    monkeypatch.setattr(_RecordingPool, "sizes", [])
    sieve_args = ("sieve", "--subfamily", "4", "--k", "115/28,3/11", "--thresholds", "523:8")
    _, serial = run_cli(capsys, *sieve_args)
    _, pooled = run_cli(capsys, *sieve_args, "--jobs", "1000000")
    assert pooled == serial
    assert _RecordingPool.sizes == [2]
