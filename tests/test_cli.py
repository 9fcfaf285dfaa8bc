import errno
import hashlib
import io
import json
import os
import shlex
import subprocess
import sys
from contextlib import redirect_stderr, redirect_stdout
from decimal import Decimal
from fractions import Fraction
from pathlib import Path
from typing import NamedTuple

import pytest

import slucas
from slucas.cli import main
from slucas.generation import GenOutcome
from slucas.kernel import unlimited_digits
from slucas.lucas import select_d

from conftest import LATE_D_PRIME, mr_oracle


class Result(NamedTuple):
    exit_code: int
    output: str          # stdout, then stderr
    exception: BaseException | None


@pytest.fixture
def run():
    """Call main(argv) in this process, the way `slucas ARGS...` would run."""
    def invoke(*args):
        out, err = io.StringIO(), io.StringIO()
        exit_code, exception = 0, None
        with redirect_stdout(out), redirect_stderr(err):
            try:
                main([str(a) for a in args])
            except SystemExit as exc:
                exit_code = exc.code or 0
                exception = exc if exit_code else None
            except Exception as exc:  # a defect: reported as exit 1
                exit_code, exception = 1, exc
        return Result(exit_code, out.getvalue() + err.getvalue(), exception)

    return invoke


def test_version_is_pinned(run):
    res = run("--version")
    assert res.exit_code == 0
    assert res.output == "slucas, version 0.1.0\n"


def test_test_accepts_prime(run):
    res = run("test", 104729)
    assert res.exit_code == 0
    assert res.output.startswith("probable prime")


def test_test_rejects_composite(run):
    res = run("test", 104730 + 1, "--seed", 3)   # 104731 = 31 * 31 * 109
    assert res.exit_code == 1
    assert res.output.startswith("composite")


def test_test_accepts_hex_input(run):
    assert run("test", "0x10001").exit_code == 0          # 65537
    assert run("test", "0xdeadbeef").exit_code == 1


def test_test_usage_errors(run):
    assert run("test", 4).exit_code == 2
    assert run("test", 3, "--rounds", 0).exit_code == 2
    assert run("test", "notanumber").exit_code == 2


def test_test_all_methods_agree_on_primes(run):
    for method in ("lucas", "strong-lucas", "miller-rabin", "fermat", "bpsw"):
        res = run("test", 65537, "--method", method, "--seed", 1)
        assert res.exit_code == 0, (method, res.output)


def test_test_fixed_discriminant(run):
    res = run("test", 1009, "--d", 5, "--seed", 9)
    assert res.exit_code == 0
    assert "d=5" in res.output


@pytest.mark.parametrize("d", ["-3", "-0x3", "-0b11"])
def test_test_negative_discriminant_is_a_value(run, d):
    # a word after --d that starts "-<digit>" is its value, not an option
    res = run("test", 1009, "--d", d, "--seed", 9)
    assert res.output == "probable prime method=strong-lucas rounds=1 d=-3\n"
    assert res.exit_code == 0


@pytest.mark.parametrize("n, d, factor", [(5, 5, 5), (7, 21, 7), (13, 13, 13)])
def test_test_discriminant_sharing_a_factor_is_usage_error(run, n, d, factor):
    # a prime dividing D is not a composite verdict: the D is unusable
    res = run("test", n, "--d", d)
    assert res.exit_code == 2
    assert "composite" not in res.output
    assert f"factor {factor}" in res.output
    assert "Traceback" not in res.output


@pytest.mark.parametrize("n, d, fault", [
    (21, 4, "square"),          # one round used to pass 21 = 3 * 7 with D = 4
    (7, 9, "square"),
    (11, 7, "0 or 1 mod 4"),    # no P, Q have P^2 - 4Q = 7
])
def test_test_unusable_discriminant_is_usage_error(run, n, d, fault):
    # the same discriminants generate --d and the survey refuse
    res = run("test", n, "--d", d, "--seed", 5)
    assert res.exit_code == 2
    assert fault in res.output
    assert "probable prime" not in res.output and "composite" not in res.output
    assert "Traceback" not in res.output


@pytest.mark.parametrize("method", ["miller-rabin", "fermat", "bpsw"])
def test_test_discriminant_with_non_lucas_method_is_usage_error(run, method):
    # these methods never use --d, so a verdict line naming d= would mislead
    res = run("test", 15, "--d", 5, "--method", method)
    assert res.exit_code == 2
    assert "--d" in res.output and method in res.output
    assert "composite" not in res.output and "d=5" not in res.output
    assert "Traceback" not in res.output


@pytest.mark.parametrize("method", ["strong-lucas", "bpsw"])
def test_test_accepts_prime_with_late_discriminant(run, method):
    res = run("test", LATE_D_PRIME, "--method", method, "--seed", 1)
    assert res.exit_code == 0, res.output
    assert res.output.startswith("probable prime")


def test_test_sweeps_discriminant_once(run, monkeypatch):
    # every round shares the one D; the sweep for this prime is 68 long
    calls = []

    def counting_select_d(n):
        calls.append(n)
        return select_d(n)

    # run_rounds looks select_d up in slucas.classical
    monkeypatch.setattr("slucas.classical.select_d", counting_select_d)
    res = run("test", LATE_D_PRIME, "-t", 5, "--seed", 1)
    assert res.output == "probable prime method=strong-lucas rounds=5\n"
    assert res.exit_code == 0
    assert calls == [LATE_D_PRIME]


# `slucas test` output for each method and a spread of round counts,
# seeds and discriminants: rounds= is the round that rejected
PINNED_TESTS = [
    (("104729", "-t", 3, "--seed", 1),
     0, "probable prime method=strong-lucas rounds=3"),
    (("104731", "-t", 5, "--seed", 3),                  # 31^2 * 109
     1, "composite method=strong-lucas rounds=1"),
    ((LATE_D_PRIME, "-t", 3, "--seed", 2),
     0, "probable prime method=strong-lucas rounds=3"),
    (("1009", "--d", 5, "-t", 5, "--seed", 9),
     0, "probable prime method=strong-lucas rounds=5 d=5"),
    (("1369", "--seed", 1),                             # 37^2: no D exists
     1, "composite method=strong-lucas rounds=1"),
    (("1369", "--method", "lucas", "-t", 3, "--seed", 1),
     1, "composite method=lucas rounds=1"),
    (("5459", "--method", "lucas", "-t", 5, "--seed", 4),
     1, "composite method=lucas rounds=2"),
    (("5777", "-t", 3, "--d", 5, "--seed", 4),
     1, "composite method=strong-lucas rounds=1 d=5"),
    (("3215031751", "--method", "miller-rabin", "-t", 5, "--seed", 4),
     1, "composite method=miller-rabin rounds=1"),
    (("561", "--method", "fermat", "-t", 3, "--seed", 5),
     1, "composite method=fermat rounds=2"),
    (("65537", "--method", "fermat", "-t", 5, "--seed", 5),
     0, "probable prime method=fermat rounds=5"),
    (("3825123056546413051", "--method", "bpsw"),
     1, "composite method=bpsw rounds=1"),
]


@pytest.mark.parametrize("args, code, line", PINNED_TESTS,
                         ids=[" ".join(map(str, a))[:40] for a, _, _
                              in PINNED_TESTS])
def test_test_output_is_pinned(run, args, code, line):
    res = run("test", *args)
    assert (res.exit_code, res.output) == (code, line + "\n")

def test_generate_uniform(run):
    res = run("generate", "--bits", 32, "--rounds", 2, "--seed", 42)
    assert res.exit_code == 0
    n = int(res.output.strip())
    assert n.bit_length() == 32 and mr_oracle(n)


def test_generate_incremental_with_transcript(run, tmp_path):
    path = tmp_path / "trace.jsonl"
    res = run("generate", "--bits", 32, "--mode", "incremental", "--seed", 7,
              "--transcript", path)
    assert res.exit_code == 0
    recs = [json.loads(line) for line in path.read_text().splitlines()]
    assert recs[-1]["stage"] == "accepted"
    assert int(recs[-1]["n"], 16) == int(res.output.strip())


def test_generate_fail_exit_code(run):
    # window of 1 over a barren stretch eventually fails for some seed
    for seed in range(100):
        res = run("generate", "--bits", 7, "--mode", "incremental",
                  "--window", 1, "--seed", seed)
        if res.exit_code == 1:
            assert res.output.strip() == "FAIL"
            return
    pytest.fail("no FAIL observed")


def test_generate_uniform_fail_exit_code(run):
    # no 5-bit prime passes the Jacobi filter of -17*19*23*29*31
    res = run("generate", "--bits", 5, "--d", -6678671, "--seed", 1,
              "--window", 1000)
    assert (res.exit_code, res.output) == (1, "FAIL\n")
    assert isinstance(res.exception, SystemExit)     # not a traceback


@pytest.mark.parametrize("mode", ["uniform", "incremental"])
def test_generate_zero_discriminant_is_usage_error(run, mode):
    # 0 = 0^2 is a square discriminant: no candidate could ever pass
    res = run("generate", "--bits", 64, "--d", 0, "--mode", mode, "--seed", 1)
    assert res.exit_code == 2
    assert "square" in res.output and "Traceback" not in res.output


def test_generate_usage_error(run):
    assert run("generate", "--bits", 3).exit_code == 2
    res = run("generate", "--bits", 32, "--screen", 200)
    assert res.exit_code == 2
    assert "screen" in res.output and "Traceback" not in res.output
    assert run("generate", "--bits", 32, "--screen", 166).exit_code == 0


def test_count_subcommand(run):
    assert run("count", 323, "--what", "sl", "--d", 5).output.strip() == "145"
    assert run("count", 561, "--what", "f").output.strip() == "320"
    out = run("count", 15251, "--what", "alpha", "--d", 5).output.split()
    assert out[0] == "1201/15000"
    # without --d the Lucas counts take method A's D, 5 for 323
    assert run("count", 323, "--what", "sl").output.strip() == "145"
    assert run("count", 10, "--what", "f").exit_code == 2


@pytest.mark.parametrize("what", ["sl", "l", "alpha"])
def test_count_of_a_square_without_d_is_usage_error(run, what):
    # 1369 = 37^2: no D has (D/n) = -1, so method A has none to give
    res = run("count", 1369, "--what", what)
    assert res.exit_code == 2
    assert isinstance(res.exception, SystemExit)
    assert "square" in res.output and "--d" in res.output
    assert run("count", 1369, "--what", what, "--d", 5).exit_code == 0


@pytest.mark.parametrize("what", ["f", "mr"])
def test_count_of_bases_rejects_a_discriminant(run, what):
    # the base counts take no D, as `slucas test` takes none for its
    # base methods
    res = run("count", 561, "--what", what, "--d", 5)
    assert res.exit_code == 2
    assert "--d applies to the Lucas counts only" in res.output
    assert "Traceback" not in res.output


# 10^4400 + 1 = (10^16)^275 + 1, a multiple of 10^16 + 1 = 353 * 449 * ...:
# 4,401 decimal digits, past the interpreters' default limit of 4,300
LONG_DECIMAL = "1" + "0" * 4399 + "1"
# 10^4400 + 3 is 3 mod 4, 5 mod 7; 7 times it is 1 mod 4 and no square
LONG_BAD_D = "1" + "0" * 4399 + "3"
with unlimited_digits():
    LONG_D = str(7 * int(LONG_BAD_D))


def test_test_prints_a_discriminant_past_the_digit_limit(run):
    res = run("test", 1009, "--d", LONG_D, "--seed", 9)
    assert res.output == (
        f"probable prime method=strong-lucas rounds=1 d={LONG_D}\n")
    assert res.exit_code == 0


@pytest.mark.parametrize("d, fault", [(LONG_D, "shares the factor 7"),
                                      (LONG_BAD_D, "0 or 1 mod 4")],
                         ids=["shares-7", "3-mod-4"])
def test_test_refuses_a_long_discriminant_by_name(run, d, fault):
    res = run("test", 7, "--d", d)
    assert res.exit_code == 2
    assert isinstance(res.exception, SystemExit)
    assert fault in res.output


def test_generate_prints_a_result_past_the_digit_limit(run, monkeypatch):
    # cmd_generate imports strong_luc_generate from slucas.generation
    monkeypatch.setattr("slucas.generation.strong_luc_generate",
                        lambda cfg: GenOutcome(10 ** 4400 + 1, 1, 1))
    res = run("generate", "--bits", 64)
    assert (res.exit_code, res.output) == (0, LONG_DECIMAL + "\n")


def test_test_reads_a_decimal_past_the_digit_limit(run):
    decimal, hexadecimal = (run("test", text, "--method", "bpsw")
                            for text in (LONG_DECIMAL, hex(10 ** 4400 + 1)))
    assert decimal.output == hexadecimal.output == (
        "composite method=bpsw rounds=1\n")
    assert decimal.exit_code == hexadecimal.exit_code == 1


def test_count_of_a_long_decimal_is_the_ceiling_error(run):
    res = run("count", LONG_DECIMAL, "--what", "mr")
    assert res.exit_code == 2
    assert "must be below 2^52" in res.output
    assert "invalid integer value" not in res.output


@pytest.mark.parametrize("what", ["sl", "mr", "alpha"])
def test_count_above_factor_ceiling_is_usage_error(run, what):
    # n = 2^52 + 1 is past the trial-division ceiling of every count;
    # only the Lucas counts take a discriminant
    d = () if what == "mr" else ("--d", 7)
    res = run("count", 4503599627370497, "--what", what, *d)
    assert res.exit_code == 2
    assert res.exception is None or isinstance(res.exception, SystemExit)
    assert "2^52" in res.output and "Traceback" not in res.output
    # just below the ceiling the count runs: 2^52 - 1 = 3 * 5 * ...
    assert run("count", 4503599627370495, "--what", what, *d).exit_code == 0


def test_bounds_single(run):
    res = run("bounds", "--single", 60, 1, "--l", 8)
    assert res.exit_code == 0
    assert abs(float(res.output.strip()) - 0.204541) < 5e-6


def test_bounds_table_tsv(run):
    res = run("bounds", "--table", 1)
    lines = res.output.strip().split("\n")
    assert lines[0] == "k\tprimes\tbound_floor"
    assert lines[1] == "8\t23\t22"
    assert len(lines) == 14


def test_bounds_table_json(run):
    res = run("bounds", "--table", 4, "--format", "json")
    rows = json.loads(res.output)
    assert rows[0]["k"] == 30
    assert rows[-1]["M2"] is None


def test_bounds_survey(run):
    res = run("bounds", "--survey-k", 6)
    blob = json.loads(res.output)
    assert blob["k"] == 6
    assert blob["argmax_d"] == 5


def test_bounds_survey_k16_emits_exact_fractions(run):
    res = run("bounds", "--survey-k", 16)
    assert res.exit_code == 0, res.output
    blob = json.loads(res.output)
    assert blob["k"] == 16 and len(blob["per_d"]) == 12
    # the exact fractions run to ~7,900 digits, past the default str-to-int
    # limit of interpreters that have one
    limit = getattr(sys, "get_int_max_str_digits", lambda: 0)()
    if limit:
        sys.set_int_max_str_digits(0)
    try:
        for row in blob["per_d"]:
            assert float(Fraction(row["q_exact"])) == row["q"]
    finally:
        if limit:
            sys.set_int_max_str_digits(limit)


# SHA-256 of the stdout of `slucas bounds --survey-k K`, taken before the
# survey was rebuilt on integer liar counts; any change to a digit of an
# exact fraction changes the hash
SURVEY_STDOUT_SHA256 = {
    13: "07c8bebb4f20aa9dbe064df5d08bf0404ca4294fc3ce65418d96cddac7cbb953",
    14: "9fa32e50f083cf1f562bbf487794ac1ef847e4b0fdd57e5e3af46e76039356ed",
    15: "7e1f242ace66a7ad326ec4a3fea28569bbbe1d9db85c8598843213e60be61c12",
    16: "306eb483e42fec726d5fa6fc99decc333e15993eee077f4f0d5af2b4894f7990",
}


@pytest.mark.parametrize("k", sorted(SURVEY_STDOUT_SHA256))
def test_bounds_survey_stdout_is_pinned(run, k):
    res = run("bounds", "--survey-k", k)
    assert res.exit_code == 0
    digest = hashlib.sha256(res.output.encode()).hexdigest()
    assert digest == SURVEY_STDOUT_SHA256[k]


# SHA-256 of the stdout of `slucas bounds --table T --format F`, taken
# before q_bound and table_rows were folded into one engine chain
TABLE_STDOUT_SHA256 = {
    ("tsv", 1): "7180c0f5514a3f8c78453f4f38a1732a6c6c6f5a5eb8a312ee5c652bdea7e758",
    ("tsv", 2): "fea0943e7c2f7d66df0e2f2c3a64617f1b5cb3940252e31366c4317b3c763ffb",
    ("tsv", 3): "89bf62fce6c3a69b57567aa3accfb1b64b691059c99092e2d8e94f1bfb931cf9",
    ("tsv", 4): "65a5c0d727290993a35918046ee4abff2578f22f9322ff1d9817625b646b876a",
    ("tsv", 5): "4d992921123883bc5b8f00416e06d6010bff5200e98ef3cb5fc39aa165be67bd",
    ("tsv", 6): "3a477e5e278e1ebaff0cb2bc6ec27c2f2529027d5aa646b91ac6a3cc20da5485",
    ("json", 1): "81223c18d16d06b9672bebb2c7eb3ae2ff0ecab846bf0041c135eb141d8ab739",
    ("json", 2): "e3dc098c844e633b52ed161fc584167b72468e411a8a0e87cb56f9f79775fa38",
    ("json", 3): "6330a97e9510c9ee5a3cce9ee9ac21336d0bd92c9015b6a2ba1877feb9cf0a2c",
    ("json", 4): "adec58e7935348575f409c7b5654d87d4014c55cf59418332aef1f9ba31a0812",
    ("json", 5): "dbca67c024d191e1cfaec53e6dbeb1fc49f956b5eda2794456bf45739e8cca5f",
    ("json", 6): "8d971f25a73bfd1b916de4eeb30bef6f7d48d91da20b1b003debab14ca34666b",
}


@pytest.mark.parametrize("fmt, table", sorted(TABLE_STDOUT_SHA256),
                         ids=[f"{f}-{t}" for f, t in sorted(TABLE_STDOUT_SHA256)])
def test_bounds_table_stdout_is_pinned(run, fmt, table):
    res = run("bounds", "--table", table, "--format", fmt)
    assert res.exit_code == 0
    digest = hashlib.sha256(res.output.encode()).hexdigest()
    assert digest == TABLE_STDOUT_SHA256[fmt, table]


# SHA-256 of the stdout of `slucas bounds --single K R`, one per engine
# and round count, taken at the same point as the table digests; (17, 1),
# (17, 2), (29, 2), (33, 2) and (41, 1) were retaken when --single moved
# from the tables' one-family q_bound to error_bound, which sums both
# gcd-split class families: (33, 2) printed 5.55257e-05 and prints 0.005202
SINGLE_STDOUT_SHA256 = {
    (17, 1): "ce65d7cff7fc09233d4b86a6f771c4c32dc16d182dea717eda45cb6638221aad",
    (17, 2): "ce807f5f5afc570d278d6747b3f827fa196e06373284fd487386c4d418cd0856",
    (29, 2): "ec2f65701a0dd2f05843dcab4a06b5dad2c8cb0f5889c1c8e7ea156abe87df84",
    (33, 2): "7aea145bfda98151923abcf7375613faac9eef8920b779418acdf713d8f4d5ef",
    (41, 1): "0cc96f3323b77c15511d6849c37528784d7494d730f09fbca891eb16c53f03c1",
    (59, 1): "1cc8cfbea4d03a6d2dbd1b16c93be8574d2bc3ad0723f5f30a67bca39e8b9c53",
    (100, 1): "9654fd6c18df366d5ed2c09b5e311fd1982ed013254d7e18175863afa355d789",
}


@pytest.mark.parametrize("k, r", sorted(SINGLE_STDOUT_SHA256))
def test_bounds_single_stdout_is_pinned(run, k, r):
    res = run("bounds", "--single", k, r)
    assert res.exit_code == 0
    digest = hashlib.sha256(res.output.encode()).hexdigest()
    assert digest == SINGLE_STDOUT_SHA256[k, r]


@pytest.mark.parametrize("args", [
    (1024, 1), (1024, 3), (2048, 3), (4096, 1), (8192, 3),  # mass past 2^1024
    (17, 1024), (17, 1100), (60, 1100), (17, 10000),        # weights below 2^-1074
    (500, 2),                                               # once printed 0.000000
    (30, 2, "--l", 166), (30, 1, "--l", 160),               # classes past the
    (8192, 3, "--l", 166),                                  # 167th odd prime
])
def test_bounds_single_prints_nonzero_q_at_every_size(run, args):
    res = run("bounds", "--single", *args)
    assert res.exit_code == 0, res.output
    q = Decimal(res.output.strip())     # exact, also below the smallest double
    assert 0 < q <= 1
    if q < Decimal("1e-4"):
        mantissa = res.output.split("e")[0]
        assert len(mantissa.replace(".", "")) <= 6


@pytest.mark.parametrize("k", [8193, 100000000])
def test_bounds_single_past_max_k_is_usage_error(run, k):
    res = run("bounds", "--single", k, 3)
    assert res.exit_code == 2
    assert isinstance(res.exception, SystemExit)
    assert "bounds stop at k = 8192" in res.output


def test_bounds_single_below_engines_names_the_survey(run):
    res = run("bounds", "--single", 16, 1)
    assert res.exit_code == 2
    assert ("the bound engines start at k = 17; the exact survey "
            "(--survey-k) covers smaller k") in res.output
    assert "Traceback" not in res.output


@pytest.mark.parametrize("k", [1, 17])
def test_bounds_survey_out_of_range_is_usage_error(run, k):
    res = run("bounds", "--survey-k", k)
    assert res.exit_code == 2
    assert "2 <= k <= 16" in res.output


def test_bounds_survey_defect_is_not_a_usage_error(run, monkeypatch):
    # only bad input (ValueError) becomes a usage error; a fault inside
    # the survey must surface as one
    def broken(k):
        raise ZeroDivisionError("defect")

    # cmd_bounds imports exact_qk1 from slucas.survey in its survey branch
    monkeypatch.setattr("slucas.survey.exact_qk1", broken)
    res = run("bounds", "--survey-k", 8)
    assert res.exit_code == 1
    assert isinstance(res.exception, ZeroDivisionError)


def test_interrupt_is_reported_without_traceback(run, monkeypatch):
    def interrupted(k):
        raise KeyboardInterrupt

    monkeypatch.setattr("slucas.survey.exact_qk1", interrupted)
    res = run("bounds", "--survey-k", 8)
    assert res.exit_code == 1
    assert res.output == "Aborted!\n"


@pytest.mark.parametrize("args", [
    ("--l", 200, "--table", 2),
    ("--l", 0, "--table", 2),
    ("--l", 167, "--single", 60, 1),
    ("--table", 6, "--c", 0),
    ("--table", 6, "--c", -1),
    ("--table", 6, "--c", "nan"),
    ("--table", 6, "--c", "inf"),
    ("--table", 6, "--c", "1e300"),
    ("--table", 6, "--c", "1e308"),
])
def test_bounds_bad_screen_depth_or_window_is_usage_error(run, args):
    res = run("bounds", *args)
    assert res.exit_code == 2
    assert res.exception is None or isinstance(res.exception, SystemExit)
    assert "Traceback" not in res.output


def test_bounds_screen_depth_limits_accepted(run):
    assert run("bounds", "--l", 166, "--single", 60, 1).exit_code == 0
    assert run("bounds", "--l", 1, "--single", 60, 1).exit_code == 0


@pytest.mark.parametrize("args", [("--single", 17, 1), ("--table", 5)])
def test_bounds_exact_census_at_deepest_screen(run, args):
    # the exact censuses (k <= 29) count the screened set at l = 166 too
    res = run("bounds", "--l", 166, *args)
    assert res.exit_code == 0, res.output


def test_bounds_option_exclusivity(run):
    assert run("bounds").exit_code == 2
    assert run("bounds", "--table", 1, "--single", 60, 1).exit_code == 2


def test_bounds_help_shows_the_one_required_choice(run):
    res = run("bounds", "--help")
    assert res.exit_code == 0
    assert ("(--table {1,2,3,4,5,6} | --single K R | --survey-k SURVEY_K)"
            in " ".join(res.output.split()))


def test_bounds_out_file(run, tmp_path):
    path = tmp_path / "t1.tsv"
    res = run("bounds", "--table", 1, "--out", path)
    assert res.exit_code == 0
    assert path.read_text().startswith("k\tprimes\tbound_floor\n")


@pytest.mark.parametrize("option, args", [
    ("--out", ("bounds", "--table", 1)),
    ("--transcript", ("generate", "--bits", 64, "--seed", 1)),
])
@pytest.mark.parametrize("where", ["missing-dir", "directory"])
def test_unwritable_output_path_is_usage_error(run, tmp_path, option, args,
                                               where):
    # the path is opened before any work, so a bad one costs no prime
    path = tmp_path / "missing" / "x" if where == "missing-dir" else tmp_path
    res = run(*args, option, path)
    assert res.exit_code == 2
    assert isinstance(res.exception, SystemExit)
    assert f"{option}: cannot write {str(path)!r}" in res.output
    assert "Traceback" not in res.output
    assert not any(line.isdigit() for line in res.output.splitlines())


@pytest.mark.skipif(not os.path.exists("/dev/full"),
                    reason="needs /dev/full, a device every write to fails")
@pytest.mark.parametrize("args, prog, where", [
    (("bounds", "--table", "1", "--out", "/dev/full"), "slucas bounds",
     "'/dev/full'"),
    (("generate", "--bits", "5", "--transcript", "/dev/full"),
     "slucas generate", "'/dev/full'"),
    (("bounds", "--table", "1"), "slucas bounds", "stdout"),
    (("generate", "--bits", "64"), "slucas generate", "stdout"),
    (("--version",), "slucas", "stdout"),
    (("test", "--help"), "slucas test", "stdout"),
], ids=["out", "transcript", "bounds-stdout", "generate-stdout", "version",
        "help"])
def test_failed_write_is_an_error_without_traceback(args, prog, where):
    # run as `slucas ARGS > /dev/full` would: the shutdown flush of stdout
    # must not fail again after the error is reported
    env = dict(os.environ, PYTHONPATH=str(Path(slucas.__file__).parents[1]))
    with open("/dev/full", "w") as full:
        proc = subprocess.run(
            [sys.executable, "-c", "from slucas.cli import main; main()",
             *args], stdout=full, stderr=subprocess.PIPE, env=env, text=True,
            timeout=60)
    assert proc.returncode == 2
    assert proc.stderr == (f"{prog}: error: cannot write {where}: "
                           f"{os.strerror(errno.ENOSPC)}\n")


README = Path(__file__).resolve().parent.parent / "README.md"


def _readme_examples():
    """(command, output lines) for each `$ slucas ...` line of the README
    that output lines follow, up to the next command or the block's end."""
    examples, current = [], None
    for line in README.read_text().splitlines():
        if line.startswith("```"):
            current = None
        elif line.startswith("$ slucas "):
            current = (line[len("$ slucas "):], [])
            examples.append(current)
        elif current is not None:
            current[1].append(line)
    return [(command, out) for command, out in examples if out]


README_EXAMPLES = _readme_examples()


@pytest.mark.parametrize("command, expected", README_EXAMPLES,
                         ids=[c.split("#")[0].strip() for c, _ in README_EXAMPLES])
def test_readme_example_prints_what_it_shows(run, monkeypatch, tmp_path,
                                             command, expected):
    monkeypatch.chdir(tmp_path)         # for the files an example writes
    command, echo, _ = command.partition("; echo $?")
    res = run(*shlex.split(command, comments=True))
    lines = res.output.splitlines()
    if echo:
        lines.append(str(res.exit_code))
    assert lines == expected
