"""Command line surface: dispatch, formats, exit codes, determinism."""

import cmath
import csv
import io
import json
import math
from unittest import mock

import pytest

from kloosterlab import arith, cli, experiments, vaughan
from kloosterlab.cli import build_parser, main
from kloosterlab.expsums import moduli_blocks


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


def csv_rows(text):
    return list(csv.reader(io.StringIO(text)))


def test_every_subcommand_is_registered():
    parser = build_parser()
    subactions = [
        a for a in parser._actions if a.__class__.__name__ == "_SubParsersAction"
    ]
    names = set(subactions[0].choices)
    assert names == {
        "sum", "max-sum", "avg-max", "fixed-a-avg", "kloosterman", "short-sum",
        "weil-ratio", "bilinear", "jcount", "jcount-avg", "unitfrac", "squarefull",
        "vaughan-check", "prime-power-gap", "theorem2-root", "baker-root",
        "ternary", "garaev", "compare-bounds", "exponent-fit", "choose-u",
    }


def test_sum_csv(capsys):
    code, out, _ = run(capsys, "sum", "1", "7", "10", "--format", "csv")
    assert code == 0
    rows = csv_rows(out)
    assert rows[0] == ["a", "q", "x", "weight", "real", "imag", "magnitude",
                       "terms", "error_bound"]
    assert rows[1][:4] == ["1", "7", "10", "unit"]
    assert int(rows[1][7]) == 4


def test_kloosterman_csv_value_format(capsys):
    code, out, _ = run(capsys, "kloosterman", "1", "1", "5", "--format", "csv")
    assert code == 0
    rows = csv_rows(out)
    # 12 significant digits of (3 - sqrt 5) / 2
    assert rows[1] == ["1", "1", "5", "0.38196601125"]


def test_json_structure_and_params_roundtrip(capsys):
    from kloosterlab.counting import count_congruence_solutions

    code, out, _ = run(capsys, "jcount", "2", "8", "13", "--format", "json")
    assert code == 0
    doc = json.loads(out)
    assert doc["params"] == {"k": 2, "M": 8, "q": 13}
    assert doc["meta"]["tool"] == "kloosterlab"
    assert doc["meta"]["subcommand"] == "jcount"
    assert "workers" not in doc["meta"]
    [row] = doc["results"]
    assert row["count"] == count_congruence_solutions(2, 8, 13)


def test_theorem2_root_output(capsys):
    code, out, _ = run(capsys, "theorem2-root", "--format", "csv")
    assert code == 0
    rows = csv_rows(out)
    assert rows[0] == ["root", "residual", "iterations"]
    root = float(rows[1][0])
    assert abs(root - 1.188) < 1e-3
    assert float(rows[1][1]) < 1e-8


def test_baker_root_accepts_fractions(capsys):
    code, out, _ = run(capsys, "baker-root", "23/21", "--format", "csv")
    assert code == 0
    general = float(csv_rows(out)[1][1])
    code, out, _ = run(capsys, "theorem2-root", "--format", "csv")
    special = float(csv_rows(out)[1][0])
    assert abs(general - special) < 1e-8


def test_choose_u_pretty(capsys):
    code, out, _ = run(capsys, "choose-u", "avg-max", "100", "100")
    assert code == 0
    assert "U=4.64158883361" in out


def test_output_file(tmp_path, capsys):
    target = tmp_path / "out.csv"
    code, _, _ = run(capsys, "squarefull", "100", "--format", "csv",
                     "--output", str(target))
    assert code == 0
    rows = csv_rows(target.read_text())
    assert rows[1] == ["100", "14"]


def test_parameter_errors_exit_2(capsys):
    assert run(capsys, "sum", "1", "1", "10")[0] == 2          # modulus < 2
    assert run(capsys, "unitfrac", "9", "5")[0] == 2           # k out of range
    assert run(capsys, "choose-u", "avg-max", "100", "2")[0] == 2
    assert run(capsys, "exponent-fit", "2:4", "4;16", "8:64")[0] == 2
    assert run(capsys, "nonsense")[0] == 2                     # unknown command
    assert run(capsys, "sum", "1", "7")[0] == 2                # missing argument


@pytest.mark.parametrize("argv", [("sum", "1", "7", "inf"), ("max-sum", "7", "inf")])
def test_infinite_window_exits_2(capsys, argv):
    code, out, err = run(capsys, *argv)
    assert code == 2
    assert out == ""
    assert err == "error: sieve size inf is not finite\n"


def test_infinite_bilinear_range_exits_2(capsys):
    code, out, err = run(capsys, "bilinear", "inf", "1", "1", "7")
    assert code == 2
    assert out == ""
    assert err == "error: need a positive finite range start, got inf\n"


@pytest.mark.parametrize("command", ["short-sum", "weil-ratio"])
def test_infinite_interval_exits_2(capsys, command):
    # a parameter error, not a capacity refusal of an infinitely long interval
    code, out, err = run(capsys, command, "1", "7", "0", "inf")
    assert code == 2
    assert out == ""
    assert err == "error: need finite bounds, got (0.0, inf)\n"


@pytest.mark.parametrize("argv", [
    ("sum", "1", "3000000000", "1000"),
    ("kloosterman", "1", "1", "3000000000"),
    ("jcount", "2", "10", "3000000000"),
    ("bilinear", "2", "2", "1", "3000000000"),
])
def test_modulus_at_or_above_2_31_exits_3(capsys, argv):
    code, out, err = run(capsys, *argv)
    assert code == 3
    assert out == ""
    assert err == "capacity: modulus 3000000000 is not below 2147483648\n"


@pytest.mark.parametrize("argv", [
    ("kloosterman", "1", "1", "2000000000"),
    # 40,000 units give 1.6e9 sums, over the enumeration cap: the FFT route
    ("jcount", "2", "100000", "2000000000"),
    # 800 units give 5.12e8 triple sums, over the enumeration cap: the FFT route
    ("jcount", "3", "2000", "2000000000"),
    ("garaev", "100", "2000000000", "3"),
    ("max-sum", "2000000000", "10", "--max-q-scan", "2000000000"),
])
def test_length_q_tables_over_budget_exit_3(capsys, argv):
    code, out, err = run(capsys, *argv)
    assert code == 3
    assert out == ""
    assert err.startswith("capacity: tables mod 2000000000 need about ")


def test_bilinear_below_2_31_builds_no_length_q_table(capsys):
    # four pairs, one of them a unit mod 2 * 10**9: its root by unit_roots_at
    code, out, err = run(capsys, "bilinear", "2", "2", "1", "2000000000", "--format", "csv")
    assert (code, err) == (0, "")
    row = csv_rows(out)[1]
    assert row[-2] == "1"
    assert complex(float(row[5]), float(row[6])) == pytest.approx(
        cmath.exp(2j * math.pi * pow(9, -1, 2 * 10 ** 9) / (2 * 10 ** 9)), abs=1e-11)


def test_prime_sum_below_2_31_builds_no_length_q_table(capsys):
    # a length-q unit-root table would need 32 GB; the roots are gathered per term
    code, out, _ = run(capsys, "sum", "1", "2000000000", "1000", "--format", "csv")
    assert code == 0
    row = dict(zip(*csv_rows(out)))
    q = 2000000000
    primes = [p for p in range(1000, 2000) if all(p % d for d in range(2, math.isqrt(p) + 1))]
    direct = sum(cmath.exp(2j * math.pi * pow(p, -1, q) / q) for p in primes)
    assert int(row["terms"]) == len(primes) == 135
    assert float(row["magnitude"]) == pytest.approx(abs(direct), abs=1e-9)


def test_baker_root_zero_denominator_exits_2(capsys):
    code, out, err = run(capsys, "baker-root", "1/0")
    assert code == 2
    assert out == ""
    assert err == "error: alpha '1/0' has a zero denominator\n"


def test_main_reuses_one_parser(capsys, monkeypatch):
    # a process builds each command's parser at most once, however many
    # calls it serves, and the full parser once, for help, --version, no
    # command or an unknown one
    cli._parser.cache_clear()
    built = []

    def counted(commands=cli.COMMANDS):
        built.append(tuple(cmd.name for cmd in commands))
        return build_parser(commands)

    monkeypatch.setattr(cli, "build_parser", counted)
    try:
        for _ in range(2):
            assert run(capsys, "kloosterman", "1", "1", "5")[0] == 0
            assert run(capsys, "squarefull", "100")[0] == 0
            assert run(capsys, "sum", "1", "7")[0] == 2
            assert run(capsys, "-h")[0] == 0
            assert run(capsys, "--version")[0] == 0
            assert run(capsys)[0] == 2
            assert run(capsys, "no-such-command")[0] == 2
        assert built == [("kloosterman",), ("squarefull",), ("sum",),
                         tuple(cmd.name for cmd in cli.COMMANDS)]
    finally:
        cli._parser.cache_clear()


def _parse_output(parser, argv, capsys):
    code = None
    try:
        parser.parse_args(argv)
    except SystemExit as exc:
        code = exc.code
    out = capsys.readouterr()
    return code, out.out, out.err


@pytest.mark.parametrize("name", [cmd.name for cmd in cli.COMMANDS])
def test_one_command_parser_prints_the_full_parsers_bytes(name, capsys, monkeypatch):
    # main() parses a known command with a parser holding only that command:
    # its help and its errors read as the full parser's, at the goldens' width
    monkeypatch.setenv("COLUMNS", "80")
    one, full = build_parser((cli._BY_NAME[name],)), build_parser()
    for argv in ([name, "-h"], [name, "--no-such-flag"], [name, "--workers"]):
        want = _parse_output(full, argv, capsys)
        assert want[0] in (0, 2) and want[1] + want[2]
        assert _parse_output(one, argv, capsys) == want


def test_capacity_errors_exit_3(capsys):
    code, _, err = run(capsys, "sum", "1", "7", "1000000", "--max-sieve", "1000")
    assert code == 3
    assert "capacity" in err
    assert run(capsys, "max-sum", "50000", "10", "--max-q-scan", "1000")[0] == 3


def test_help_and_version_exit_0(capsys):
    assert run(capsys, "--help")[0] == 0
    assert run(capsys, "--version")[0] == 0
    assert run(capsys, "sum", "--help")[0] == 0


def test_exponent_fit_command(capsys):
    code, out, _ = run(capsys, "exponent-fit", "2:4", "4:16", "8:64",
                       "--format", "csv")
    assert code == 0
    rows = csv_rows(out)
    assert rows[0] == ["points", "slope", "intercept", "residual_norm"]
    assert float(rows[1][1]) == pytest.approx(2.0, abs=1e-9)


def test_vaughan_check_command(capsys):
    code, out, _ = run(capsys, "vaughan-check", "1", "7", "200", "--format", "csv")
    assert code == 0
    rows = csv_rows(out)
    header = rows[0]
    row = dict(zip(header, rows[1]))
    assert float(row["rel_error"]) <= 1e-9
    assert float(row["U"]) == pytest.approx(200 ** (1 / 3))


def test_weil_ratio_headers(capsys):
    code, out, _ = run(capsys, "weil-ratio", "1", "101", "0", "50",
                       "--format", "csv")
    assert code == 0
    rows = csv_rows(out)
    assert rows[0] == ["a", "q", "lower", "upper", "lhs",
                       "gcd(a,q)*((Z-Y)/q+1)", "sqrt(q)", "rhs_total",
                       "ratio", "trivial"]
    assert float(dict(zip(rows[0], rows[1]))["sqrt(q)"]) == pytest.approx(
        math.sqrt(101), rel=1e-11
    )


def test_garaev_command(capsys):
    code, out, _ = run(capsys, "garaev", "100", "7", "3", "--format", "csv")
    assert code == 0
    rows = csv_rows(out)
    assert rows[0] == ["x", "q", "lam", "count", "pi_x"]
    assert int(rows[1][4]) == 25


def test_ternary_command(capsys):
    code, out, _ = run(capsys, "ternary", "10", "1.2", "--format", "csv")
    assert code == 0
    row = dict(zip(*csv_rows(out)))
    assert int(row["total"]) == 64


@pytest.mark.parametrize("budget", ["1000000", "900000"])
def test_ternary_route_fits_a_small_budget(capsys, monkeypatch, budget):
    # the largest-factor table to 12 * 100**2 would take 1.14e6 bytes, so
    # both budgets take the per-value route, with the same bytes
    argv = ("ternary", "100", "1.2", "--format", "csv")
    want = run(capsys, *argv)
    assert want[0] == 0
    monkeypatch.setenv("KLOOSTERLAB_MAX_BYTES", budget)
    assert run(capsys, *argv) == want


def test_worker_flag_does_not_change_bytes(tmp_path, capsys):
    outs = []
    for workers in ("1", "4"):
        target = tmp_path / f"w{workers}.csv"
        code, _, _ = run(capsys, "avg-max", "16", "16", "--format", "csv",
                         "--workers", workers, "--output", str(target))
        assert code == 0
        outs.append(target.read_bytes())
    assert outs[0] == outs[1]


def test_fixed_a_avg_bytes_do_not_depend_on_workers(tmp_path, capsys):
    # 100 moduli at 32 per block: four blocks, fanned out at 8 workers
    assert len(moduli_blocks(100, 200, 21)) == 4
    outs = []
    for workers in ("1", "8"):
        target = tmp_path / f"w{workers}.csv"
        code, _, _ = run(capsys, "fixed-a-avg", "1", "100", "100", "--format", "csv",
                         "--workers", workers, "--output", str(target))
        assert code == 0
        outs.append(target.read_bytes())
    assert outs[0] == outs[1]


def test_avg_max_bytes_do_not_depend_on_workers(tmp_path, capsys):
    # 100 moduli at 32 per block: four blocks of twist scans at 8 workers
    assert len(moduli_blocks(100, 200, 21, scan=True)) == 4
    outs = []
    for workers in ("1", "8"):
        target = tmp_path / f"w{workers}.csv"
        code, _, _ = run(capsys, "avg-max", "100", "100", "--format", "csv",
                         "--workers", workers, "--output", str(target))
        assert code == 0
        outs.append(target.read_bytes())
    assert outs[0] == outs[1]


def test_bilinear_command_with_restriction(capsys):
    code, out, _ = run(capsys, "bilinear", "4", "8", "1", "7",
                       "--restrict-lm", "45", "--format", "csv")
    assert code == 0
    row = dict(zip(*csv_rows(out)))
    assert row["restrict_lm"] == "45"
    assert int(row["terms"]) > 0


def _table_builds(monkeypatch):
    """The limits of the multiplicative tables built from here on."""
    limits = []
    build = arith.build_multiplicative_tables
    for module in (arith, vaughan):
        monkeypatch.setattr(module, "build_multiplicative_tables",
                            lambda limit: limits.append(limit) or build(limit))
    return limits


def test_fresh_table_stops_at_max_sieve(capsys):
    # the primes up to x are sieved per call, and refused when x + 1 passes
    # --max-sieve
    assert run(capsys, "garaev", "500", "7", "3", "--max-sieve", "1000")[0] == 0
    code, out, err = run(capsys, "garaev", "1000", "7", "3", "--max-sieve", "1000")
    assert code == 3 and out == ""
    assert "needs a sieve to 1001, over --max-sieve 1000" in err


def test_table_growth_stops_at_max_sieve(capsys):
    assert run(capsys, "garaev", "70000", "7", "3", "--max-sieve", "75000")[0] == 0
    code, out, err = run(capsys, "garaev", "75000", "7", "3", "--max-sieve", "75000")
    assert code == 3 and out == ""
    assert "needs a sieve to 75001, over --max-sieve 75000" in err


def test_garaev_sieves_once(capsys, monkeypatch):
    # pi_x and the count come from the same primes
    window = mock.Mock(wraps=arith.prime_window)
    monkeypatch.setattr(experiments, "prime_window", window)
    code, out, _ = run(capsys, "garaev", "1000", "7", "3", "--format", "csv")
    assert code == 0
    window.assert_called_once_with(2, 1001)
    assert csv_rows(out)[1][-1] == "168"


@pytest.mark.parametrize("argv", [
    ("sum", "1", "7", "100000"),
    ("sum", "1", "7", "100000", "--weight", "von_mangoldt"),
    ("prime-power-gap", "1", "7", "100000"),
    ("max-sum", "7", "100000"),
    ("avg-max", "64", "500"),
    ("fixed-a-avg", "1", "64", "200"),
    ("ternary", "50", "1.1"),
])
def test_window_commands_build_no_table(capsys, monkeypatch, argv):
    limits = _table_builds(monkeypatch)
    assert run(capsys, *argv)[0] == 0
    assert limits == []


@pytest.mark.parametrize("argv", [
    ("sum", "1", "7", "1000000"),
    ("vaughan-check", "1", "7", "1000000"),
    ("prime-power-gap", "1", "7", "1000000"),
    ("max-sum", "7", "1000000"),
    ("avg-max", "16", "1000000"),
    ("fixed-a-avg", "1", "16", "1000000"),
    ("ternary", "1000000", "1.1"),
])
def test_max_sieve_still_bounds_the_window_top(capsys, argv):
    code, out, err = run(capsys, *argv, "--max-sieve", "1000")
    assert code == 3 and out == ""
    assert "needs a sieve to 2000000, over --max-sieve 1000" in err


def test_vaughan_check_tables_stop_below_2x(capsys, monkeypatch):
    # decompose reads mu and Lambda up to U = 100 and over its a4 windows,
    # the highest of which ends at 25,599
    limits = _table_builds(monkeypatch)
    assert run(capsys, "vaughan-check", "1", "7", "1000000", "--format", "csv")[0] == 0
    assert limits == [25599]


def test_prime_power_gap_fits_a_budget_below_a_table_to_2x(capsys, monkeypatch):
    # a table to 4,000,000 would need about 22,000,000 bytes
    argv = ("prime-power-gap", "1", "7", "2000000", "--format", "csv")
    code, free, _ = run(capsys, *argv)
    assert code == 0
    monkeypatch.setenv(arith.MEMORY_ENV_VAR, "16000000")
    code, budgeted, err = run(capsys, *argv)
    assert (code, err) == (0, "")
    assert budgeted == free
    assert csv_rows(budgeted)[1] == ["1", "7", "2000000", "269.895530331", "640.040642932", "91"]


def test_max_sum_fits_a_budget_below_a_table_to_2x(capsys, monkeypatch):
    # a table to 2,000,000 would need about 11,000,000 bytes
    monkeypatch.setenv(arith.MEMORY_ENV_VAR, "8000000")
    code, out, err = run(capsys, "max-sum", "1009", "1000000", "--format", "csv")
    assert (code, err) == (0, "")
    assert csv_rows(out) == [["q", "x", "a_star", "magnitude"],
                             ["1009", "1000000", "82", "527.371153253"]]


def test_vaughan_check_refuses_its_windows_over_the_budget(capsys, monkeypatch):
    # the check holds one block's sides and one chunk of its pair stream at
    # a time, so x = 4,000,000 fits 100 MB, with the row of an unbudgeted run
    argv = ("vaughan-check", "1", "7", "1000000", "--format", "csv")
    monkeypatch.setenv(arith.MEMORY_ENV_VAR, "100000000")
    code, out, err = run(capsys, *argv)
    assert code == 0
    assert csv_rows(out)[1] == ["1", "7", "1000000", "100", "-166944.896274", "164.010353463",
                                "-166944.896274", "164.010353463", "8.732044671e-11",
                                "5.23049260685e-16", "77"]
    code, out, err = run(capsys, "vaughan-check", "1", "7", "4000000", "--format", "csv")
    assert code == 0
    assert csv_rows(out)[1] == ["1", "7", "4000000", "158.740105197", "-665480.333465", "-3062.17936976",
                                "-665480.333465", "-3062.17936976", "1.1644729186e-10",
                                "1.74980466335e-16", "87"]
    # a3's first log window, with a chunk of the stream beside it, passes 10 MB
    monkeypatch.setenv(arith.MEMORY_ENV_VAR, "10000000")
    code, out, err = run(capsys, "vaughan-check", "1", "7", "4000000")
    assert code == 3 and out == ""
    assert "coefficient windows of the decomposition" in err


def test_bilinear_stream_past_its_modulus_fits_without_the_roots_table(capsys, monkeypatch):
    # the length-q roots table, 32,000,096 bytes, does not fit the budget,
    # so each chunk of 2**16 pairs takes its roots by unit_roots_at
    argv = ("bilinear", "1000", "1000", "1", "1000003", "--format", "csv")
    code, want, _ = run(capsys, *argv)
    assert code == 0
    monkeypatch.setenv(arith.MEMORY_ENV_VAR, "10000000")
    code, out, err = run(capsys, *argv)
    assert (code, out, err) == (0, want, "")


def test_bilinear_refuses_its_pair_stream_over_the_budget(capsys, monkeypatch):
    # at q > L*M every pair has its own term: a stream of 10**6 pairs, built
    # 2**16 at a time, 64 bytes each, with 64 bytes per l and per m of a
    # chunk: 4,322,304 bytes
    argv = ("bilinear", "1000", "1000", "1", "1000003", "--format", "csv")
    code, out, _ = run(capsys, *argv)
    assert code == 0 and csv_rows(out)[1][-2] == "1000000"
    monkeypatch.setenv(arith.MEMORY_ENV_VAR, "4000000")
    code, out, err = run(capsys, *argv)
    assert code == 3 and out == ""
    assert "a stream of 1000000 (l, m) pairs needs" in err
