import hashlib
import json
import math
import random
from fractions import Fraction

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from slucas import bounds, kernel
from slucas.bounds import (ENGINES, MAX_BOUND_K, PRIME_DENSITY,
                           TABLE_K_ROWS, BoundReport, _engine_q, chain_rule,
                           error_bound, format_json, format_q, format_tsv,
                           m_split_range, n1_bound_coarse, n1_bound_refined,
                           nr_bound_split, prime_count_exact,
                           prime_lower_bound, qk1_analytic, rho,
                           screen_census, table_rows, ykts_bound,
                           ykts_table_cell)
from slucas.counting import (SUM_BLOCK, _exact_sum, _survey_window,
                             alpha_bar, exact_qk1, is_twin_prime_product,
                             method_a_discriminants, slpsp_bruteforce)
from slucas.kernel import (MAX_BOUND_ROUNDS, MAX_ROUNDS, MIN_BOUND_K,
                           CapacityError, factorize, jacobi)

from conftest import mr_oracle

# Number of k-bit primes, 2^(k-1) <= p < 2^k, for k = 2..33; from k = 3 on
# this is OEIS A036378 (primes in (2^(k-1), 2^k]); k = 2 also counts 2.
K_BIT_PRIMES = (2, 2, 2, 5, 7, 13, 23, 43, 75, 137, 255, 464, 872, 1612,
                3030, 5709, 10749, 20390, 38635, 73586, 140336, 268216,
                513708, 985818, 1894120, 3645744, 7027290, 13561907,
                26207278, 50697537, 98182656, 190335585)


def test_rho_values():
    assert rho(2) == 8 / 7
    assert rho(8) == 30 / 29
    # strictly decreasing toward 1
    vals = [rho(l) for l in range(2, 12)]
    assert all(a > b > 1 for a, b in zip(vals, vals[1:]))
    assert rho(166) == 998 / 997
    for l in (0, 1, 167, 200):  # the screen depths are 2..166
        with pytest.raises(ValueError):
            rho(l)
    # the float is the double nearest the exact ratio (p + 1)/p
    primes = [p for p in range(3, 1000, 2) if mr_oracle(p)]
    assert all(rho(l) == float(Fraction(primes[l] + 1, primes[l]))
               for l in range(2, 167))


def test_prime_count_exact_matches_known_counts():
    # the exact censuses of the k = 17..29 table rest on these counts; the
    # prime count reaches 2^33, so k = 30..33 count too, and k = 34 is past
    assert [prime_count_exact(k) for k in range(2, 34)] == list(K_BIT_PRIMES)
    with pytest.raises(CapacityError, match="at most 8589934592"):
        prime_count_exact(34)


def test_census_at_the_deepest_screen():
    # l = 166: the odd 22-bit integers the first 166 odd primes leave
    # unmarked, counted by a sieve, and the k = 29 row behind table 5
    screen = kernel.sieve_primes(1000)[1:167]
    marked = kernel.sieve_window((1 << 21) + 1, 1 << 20, screen)
    c = screen_census(22, 166, exact=True)
    assert c.screened == marked.count(0) == 161245
    assert (c.survivors, c.twins, c.primes) == (161230, 15, K_BIT_PRIMES[20])
    assert screen_census(29, 166, exact=True) == (
        29, 166, 21944160, 21944059, K_BIT_PRIMES[27], 101)


def test_prime_bounds():
    # the analytic floor stays below the true dyadic prime count
    for k in range(8, 21):
        assert prime_count_exact(k) > prime_lower_bound(k)
    assert prime_count_exact(8) == 23
    assert prime_count_exact(20) == 38635
    assert prime_count_exact(1) == 0
    assert math.floor(prime_lower_bound(8)) == 22
    with pytest.raises(CapacityError):
        prime_count_exact(64)


def test_screen_census_exact_small():
    c = screen_census(8, l=2, exact=True)
    assert c.survivors + c.twins == c.screened
    # 8-bit odds coprime to 15: quick independent recount
    direct = [n for n in range(129, 256, 2) if n % 3 and n % 5]
    assert c.screened == len(direct)
    twins = [n for n in direct
             if _is_prime(_root(n)) and _is_prime(_root(n) + 2)
             and _root(n) * (_root(n) + 2) == n]
    assert twins == [143]
    assert c.twins == len(twins)
    assert c.primes == len([n for n in range(129, 256) if _is_prime(n)])


def _root(n):
    return math.isqrt(n + 1) - 1


def _is_prime(n):
    return n > 1 and all(n % d for d in range(2, math.isqrt(n) + 1))


def test_screen_census_analytic_bracket():
    # bracket-only mode leaves the counts unfilled
    assert screen_census(48, l=2).screened is None


@pytest.mark.parametrize("l", [2, 8, 20, 166])
def test_screened_count_matches_direct_count(l):
    # the Legendre recursion against a plain sweep of the odd k-bit integers
    screen = [p for p in kernel.sieve_primes(1000) if p > 2][:l]
    for k in range(2, 17):
        direct = sum(all(n % p for p in screen)
                     for n in range((1 << (k - 1)) | 1, 1 << k, 2))
        assert screen_census(k, l, exact=True).screened == direct, k


@pytest.mark.parametrize("k", [1027, 4096, 8192])
def test_screen_census_returns_at_any_size(k):
    assert screen_census(k) == (k, 2, None, None, None, None)


@pytest.mark.parametrize("l", [-1, 0, 1, 167, 400])
def test_screen_census_refuses_screen_depth_out_of_range(l):
    # l = -1 would slice the screen to all but its last prime, l = 400
    # would read past the prime table; at l = 1 the engines' 2^(k - 2.9)
    # is below the screened set's size
    with pytest.raises(ValueError, match="l <="):
        screen_census(20, l, exact=True)


def test_census_deeper_screen_is_smaller():
    shallow = screen_census(14, l=2, exact=True)
    deep = screen_census(14, l=8, exact=True)
    assert deep.screened < shallow.screened
    assert deep.primes <= shallow.primes


def test_single_round_bound_reports():
    rep = _engine_q(60, 1, 8)
    assert isinstance(rep, BoundReport)
    assert rep.m_opt == 9
    assert abs(rep.value - 0.204541) < 5e-6
    assert rep.value < 4 / 19
    assert set(rep.terms) >= {"log2", "liar_mass_log2", "prime_mass_log2"}
    assert rep.terms["log2"] == pytest.approx(math.log2(rep.value), rel=1e-12)


def test_refined_beats_coarse_where_defined():
    for k in (42, 50, 59):
        ref = n1_bound_refined(k)
        coarse = n1_bound_coarse(k)
        assert ref.value <= coarse.value * 1.05


def test_optimizer_is_exhaustive():
    # the reported optimum really is the minimum over the whole M range,
    # also where the liar mass itself is past 2^1024
    for k in (45, 60, 85, 1024, 4096):
        rep = n1_bound_coarse(k)
        sweep = [n1_bound_coarse(k, M=m).terms["log2"] for m in m_split_range(k)]
        assert rep.terms["log2"] == min(sweep)
        assert rep.m_opt == list(m_split_range(k))[sweep.index(min(sweep))]
    assert n1_bound_coarse(4096).value == math.inf


def test_multi_round_bound_drops_fast():
    one = nr_bound_split(30, 1).value
    two = nr_bound_split(30, 2).value
    assert two < one ** 1.5


def test_class_card_split_monotone_in_m():
    # the gcd-split class families, summed over m = 2..M, grow with M; the
    # small-gcd family is empty until m = 4
    def families(M):
        terms = nr_bound_split(40, 1, 8, M=M).terms
        return terms["large_gcd_log2"], terms["small_gcd_log2"]

    large3, small3 = families(3)
    large5, small5 = families(5)
    assert small3 == -math.inf and math.isfinite(small5)
    assert large3 < large5
    only_large = nr_bound_split(40, 1, 8, M=5, parts="large-gcd")
    assert set(only_large.terms) == {"log2", "tail_log2", "large_gcd_log2"}
    assert only_large.terms["large_gcd_log2"] == large5
    # weights of 2^-(10000 m) and less still leave both families nonzero
    far = nr_bound_split(40, 10000, 8, M=5).terms
    assert math.isfinite(far["large_gcd_log2"] + far["small_gcd_log2"])
    with pytest.raises(ValueError):
        nr_bound_split(40, 1, 8, M=13)     # M beyond the split range


@settings(max_examples=60, deadline=None)
@given(st.integers(17, MAX_BOUND_K),
       st.one_of(st.integers(1, 10), st.sampled_from([1100, 10000])))
def test_q_bound_is_a_probability_at_every_size(k, r):
    # the liar mass passes 2^1024 from k of about 1020 on and the r-round
    # weights fall below 2^-1074 from r of about 1024 on; q stays a
    # probability with a finite log2 either way
    rep = _engine_q(k, r, 8)
    log2 = rep.terms["log2"]
    assert math.isfinite(log2) and log2 <= 0
    assert 0 <= rep.value <= 1
    assert rep.value == pytest.approx(2.0 ** log2, rel=1e-12, abs=1e-323)
    assert math.isfinite(rep.terms["liar_mass_log2"])


def test_every_k_falls_in_exactly_one_engine_row():
    # the last row's engine runs on past its table's rows to MAX_BOUND_K
    last = ENGINES[-1]
    for k in range(MIN_BOUND_K, MAX_BOUND_K + 1):
        rows = [e for e in ENGINES
                if k in e.ks or e is last and k >= e.ks.start]
        assert len(rows) == 1, k
    with pytest.raises(ValueError, match="--survey-k"):
        _engine_q(MIN_BOUND_K - 1, 1, 8)


def test_engine_rows_are_the_q_tables_k_rows():
    assert sorted(e.table for e in ENGINES) == [2, 3, 4, 5]
    for e in ENGINES:
        assert TABLE_K_ROWS[e.table] == e.ks
        assert [row[0] for row in table_rows(e.table)[1]] == list(e.ks)


def test_q_bound_changes_engine_exactly_at_the_row_edges():
    def route(k):
        # the one-round engine, and whether P is the exact prime count
        rep = _engine_q(k, 1, 8)
        analytic = math.log2(PRIME_DENSITY) + k - math.log2(k)
        return (rep.source,
                rep.terms["prime_mass_log2"] != pytest.approx(analytic))

    assert route(17) == ("multi-round split (small-gcd)", True)
    assert route(MAX_BOUND_K) == ("single-round coarse", False)
    assert [k for k in range(18, 200) if route(k) != route(k - 1)] == [
        30, 42, 60]
    for k in (17, 30, 42, 60, 1000):
        assert _engine_q(k, 2, 8).source == "multi-round split (large-gcd)"


@settings(max_examples=40, deadline=None)
@given(st.one_of(st.integers(17, 129), st.integers(17, MAX_BOUND_K)),
       st.integers(1, 9))
@example(MAX_BOUND_K, 1)
@example(MAX_BOUND_K, 9)
def test_error_bound_is_a_probability_at_least_q_bound(k, r):
    # it may rise with k at the row edges, so only r is checked for order
    rep, more = error_bound(k, r), error_bound(k, r + 1)
    for b in (rep, more):
        assert math.isfinite(b.terms["log2"])
        assert 0 <= b.value <= 1
    assert rep.value >= _engine_q(k, r, 8).value
    assert more.value <= rep.value
    assert more.terms["log2"] <= rep.terms["log2"]


def test_q_bound_stops_at_max_k():
    assert _engine_q(MAX_BOUND_K, 3, 166).value > 0
    for k in (MAX_BOUND_K + 1, 10 ** 8):
        with pytest.raises(ValueError, match=f"k = {MAX_BOUND_K}"):
            _engine_q(k, 3, 8)
    with pytest.raises(ValueError, match=f"k = {MAX_BOUND_K}"):
        nr_bound_split(MAX_BOUND_K + 1, 2)


@pytest.mark.parametrize("engine", [
    n1_bound_coarse, n1_bound_refined, lambda k: nr_bound_split(k, 1),
    lambda k: ykts_bound(k, 1, 1.0), qk1_analytic, error_bound,
], ids=["n1_bound_coarse", "n1_bound_refined", "nr_bound_split",
        "ykts_bound", "qk1_analytic", "error_bound"])
def test_every_engine_refuses_k_outside_its_range(monkeypatch, engine):
    # one check refuses k before any split range or float work, so a huge k
    # can neither overflow a double nor run for hours
    def no_work(*args):
        raise AssertionError("worked on a refused k")
    monkeypatch.setattr(bounds, "m_split_range", no_work)
    monkeypatch.setattr(bounds, "_power", no_work)
    for k in (-5, 0, MIN_BOUND_K - 1, MAX_BOUND_K + 1, 10 ** 30, 10 ** 400):
        with pytest.raises(ValueError, match=f"start at k = {MIN_BOUND_K};"
                           f"|bounds stop at k = {MAX_BOUND_K}$"):
            engine(k)


def test_format_q():
    def fmt(q):
        return format_q(BoundReport(q, 3, {"log2": math.log2(q)}, ""))

    # every digit rounds up, so a bound never prints below itself
    assert fmt(0.2045404367) == "0.204541"
    assert fmt(0.25) == "0.250000"              # exact values stay put
    assert fmt(1e-4) == "0.000101"              # the double is above 10^-4
    assert fmt(5.552569e-05) == "5.55257e-05"
    assert fmt(5.552561e-05) == "5.55257e-05"
    assert fmt(9.9999999e-05) == "1e-04"       # the mantissa rounds up to 10
    assert fmt(2.5e-300) == "2.5e-300"          # the double is below it
    assert fmt(1e-300) == "1.00001e-300"        # and this one above
    # below the smallest double only the log2 is left to print from:
    # 2^-9029 = 1.000389558e-2718
    tiny = BoundReport(0.0, 3, {"log2": -9029.0}, "")
    assert format_q(tiny) == "1.00039e-2718"
    # an exact 0 has no digits to read off its log2
    zero = BoundReport(0.0, 3, {"log2": -math.inf}, "")
    assert format_q(zero) == "0.000000"


def test_table_cells_round_up():
    # the tsv q cells round up as format_q does; json keeps the double
    x = 0.2045404367
    assert format_tsv(["q"], [[x], [0.25], [0.0]]) == (
        "q\n0.204541\n0.250000\n0.000000\n")
    assert json.loads(format_json(["q"], [[x]])) == [{"q": x}]
    header, rows = table_rows(3)
    for row, line in zip(rows, format_tsv(header, rows).splitlines()[1:]):
        printed = Fraction(line.split("\t")[2])
        assert 0 <= printed - Fraction(row[2]) < Fraction(1, 10 ** 6)


def test_chain_rule_at_threshold():
    # q_1 = 4/19 makes the chain collapse to (4/15)^t exactly
    q1 = 4 / 19
    for t in range(2, 8):
        assert chain_rule(q1, 1, t) == pytest.approx((4 / 15) ** t)
    # one extra round from q_r = 1/2 contributes a bare 4/15 factor
    assert chain_rule(0.5, 3, 4) == pytest.approx(4 / 15)


@given(st.floats(1e-9, 4 / 19), st.integers(1, 6), st.integers(2, 8))
def test_chain_rule_monotone(q, r, extra):
    t = r + extra
    assert chain_rule(q, r, t) <= chain_rule(q, r, t - 1)


def test_chain_rule_validates():
    with pytest.raises(ValueError):
        chain_rule(0.1, 3, 2)


@pytest.mark.parametrize("args", [(0.1, 0, 5), (0.1, 1, 10 ** 400),
                                  (0.1, 1, 565)])
def test_chain_rule_refuses_rounds_outside_one_to_max(args):
    # r = 0 once gave 1.5e-4, t = 10^400 an OverflowError and t = 565 a
    # bound of 0.0
    with pytest.raises(ValueError) as info:
        chain_rule(*args)
    assert type(info.value) is ValueError
    assert "\n" not in str(info.value)
    assert chain_rule(0.1, 1, MAX_ROUNDS) > 0


@pytest.mark.parametrize("k", [1, 4, 6, 7, -3, 0, 10 ** 400, 1035])
def test_prime_lower_bound_refuses_k_outside_its_range(k):
    with pytest.raises(ValueError) as info:
        prime_lower_bound(k)
    assert type(info.value) is ValueError
    assert "\n" not in str(info.value)


def test_prime_lower_bound_range_is_where_it_holds():
    # below k = 8 the analytic count exceeds the true one at k = 1, 4, 6
    # and 7 (2.87 against 2 at k = 4); past k = 1034 it is no finite double
    for k in (1, 4, 6, 7):
        assert float(bounds._prime_mass(k)) > prime_count_exact(k), k
    assert prime_lower_bound(1034) < math.inf
    assert float(bounds._prime_mass(1035)) == math.inf


def test_qk1_analytic_profile():
    v100 = qk1_analytic(100)
    v400 = qk1_analytic(400)
    assert 0 < v400 < v100 < 1
    assert math.log2(qk1_analytic(1024)) < -30


@pytest.mark.parametrize("l, first", [(2, 153), (4, 118), (8, 101),
                                      (166, 89)])
def test_qk1_analytic_decreases_and_crosses_four_nineteenths(l, first):
    # the first k with q <= 4/19 at each l, and a strict fall on 17..8192;
    # sqrt(k) times d(ln q)/dk at the largest rho, 8/7, is negative at 17
    qs = [qk1_analytic(k, l) for k in range(MIN_BOUND_K, MAX_BOUND_K + 1)]
    assert all(a > b for a, b in zip(qs, qs[1:]))
    assert qk1_analytic(first - 1, l) > 4 / 19 >= qk1_analytic(first, l)
    k, r = MIN_BOUND_K, rho(2)
    assert r == max(rho(j) for j in range(2, 167)) == 8 / 7
    assert 2 / k - math.log(4) / (2 * math.sqrt(k)) + \
        math.log(r) / math.sqrt(k - 1) < 0


def test_ykts_known_cells():
    assert ykts_table_cell(100, 1, 1) == 0
    assert ykts_table_cell(1024, 1, 1) == 31
    assert ykts_table_cell(4096, 10, 10) == 359
    assert ykts_table_cell(512, 3, 5) == 46


def test_ykts_bound_is_a_probability():
    # above 1 the bound is vacuous: clamped, named, its log2 kept
    for k in (17, 20, 23, 24, 40, 41, 100, 112, 113, 200, 1024, 8192):
        for t in range(1, 11):
            rep = ykts_bound(k, t, 1.0)
            vacuous = rep.terms["log2"] > 0
            assert 0 <= rep.value <= 1, (k, t)
            assert rep.source == ("incremental window (vacuous)" if vacuous
                                  else "incremental window"), (k, t)
            if vacuous:
                assert rep.value == 1.0
            else:
                assert rep.value == pytest.approx(2 ** rep.terms["log2"])
    assert ykts_bound(20, 1, 1.0).terms["log2"] == pytest.approx(
        math.log2(54.1), abs=0.01)
    assert ykts_bound(112, 1, 1.0).value == 1.0
    assert ykts_bound(113, 1, 1.0).value < 1
    assert ykts_bound(23, 3, 1.0).value == 1.0
    assert ykts_bound(24, 3, 1.0).value < 1


@pytest.mark.parametrize("bound", [
    lambda r: error_bound(17, r), lambda r: error_bound(29, r),
    lambda r: error_bound(8192, r), lambda r: ykts_bound(17, r, 1.0),
], ids=["error_bound-17", "error_bound-29", "error_bound-8192", "ykts_bound"])
def test_bound_rounds_ceiling(monkeypatch, bound):
    # at the ceiling log2 q still fits a double to 10^-10 relative; past it
    # the count of rounds is refused, at any size, before any float work
    # and before the census the engines read up to EXACT_CENSUS_MAX_K
    assert -2e6 < bound(MAX_BOUND_ROUNDS).terms["log2"] < -9e5

    def no_census(*args, **kwargs):
        raise AssertionError("built the census for a refused r")
    monkeypatch.setattr(bounds, "screen_census", no_census)
    for r in (0, MAX_BOUND_ROUNDS + 1, 10 ** 400):
        with pytest.raises(ValueError, match=f"<= {MAX_BOUND_ROUNDS}"):
            bound(r)
    # so is a split point outside the range at k
    with pytest.raises(ValueError, match="split point M=99"):
        _engine_q(29, 1, 8, M=99)


# sha256 over repr((value, m_opt, terms, source)) of every report that
# grid_reports makes: each bit of every value and term, not 6 digits
GRID_SHA256 = "72ac73b647e26e30210290aafb591c17dce36ab6ad1d6d6feb43fca9f5aeb7c7"


def grid_reports():
    """error_bound, _engine_q and the three engines across every ENGINES
    row edge, past double range in k and r, and at three screen depths."""
    for k in (17, 20, 29, 30, 41, 42, 59, 60, 100, 1024, 8192):
        for l in (2, 8, 166):
            for r in (1, 2, 3, 1100):
                yield error_bound(k, r, l)
                yield _engine_q(k, r, l)
                yield nr_bound_split(k, r, l)
            yield n1_bound_coarse(k, l)
            yield n1_bound_refined(k, l)


def test_grid_reports_keep_every_bit():
    digest = hashlib.sha256()
    for rep in grid_reports():
        digest.update(repr((rep.value, rep.m_opt, rep.terms,
                            rep.source)).encode())
    assert digest.hexdigest() == GRID_SHA256


def _log2_sum(logs):
    top = max(logs)
    if top == -math.inf:
        return top
    return top + math.log2(sum(2.0 ** (x - top) for x in logs))


def test_class_terms_sum_to_their_family():
    for rep in grid_reports():
        if rep.source.startswith("single-round coarse"):
            assert rep.class_log2 == {}
            continue
        assert rep.class_log2
        for name, logs in rep.class_log2.items():
            assert len(logs) == rep.m_opt - 1  # classes m = 2..m_opt
            assert _log2_sum(logs) == pytest.approx(
                rep.terms[f"{name}_log2"], abs=1e-9, rel=0)
    assert ykts_bound(100, 1, 1.0).class_log2 == {}


def test_class_log2_default_is_empty_and_immutable():
    rep = BoundReport(0.0, 3, {"log2": -math.inf}, "x")
    assert rep.class_log2 == {}
    with pytest.raises(TypeError):
        rep.class_log2["x"] = ()


@pytest.mark.parametrize("m_size", [math.nan, math.inf, -math.inf, -1, -0.5,
                                    "5", 1j])
def test_nr_bound_split_refuses_a_size_that_is_no_finite_count(m_size):
    with pytest.raises(ValueError, match="need a finite m_size >= 0"):
        nr_bound_split(20, 1, m_size=m_size)


def test_nr_bound_split_reads_a_size_of_any_length():
    # an int reads as its nearest double, a float as itself, and an int past
    # double range through its top bits: the tail scales with it
    assert (nr_bound_split(20, 1, m_size=10 ** 5)
            == nr_bound_split(20, 1, m_size=1e5))
    small = nr_bound_split(20, 1, M=3, m_size=1)
    huge = nr_bound_split(20, 1, M=3, m_size=1 << 2000)
    assert huge.value == math.inf
    assert huge.terms["tail_log2"] == small.terms["tail_log2"] + 2000
    assert nr_bound_split(20, 1, M=3, m_size=0).terms["tail_log2"] == -math.inf


def test_ykts_bound_past_float_range_is_value_error():
    with pytest.raises(ValueError, match="c \\* k"):
        ykts_bound(100, 1, 1e308)          # c * k overflows
    with pytest.raises(ValueError, match="past float range"):
        ykts_bound(100, 1, 1e300)          # the bound overflows
    # at c = 1e155 some split points overflow, the minimum does not
    assert ykts_bound(100, 1, 1e155).terms["log2"] < 1024


def test_method_a_discriminant_sequence():
    ds = method_a_discriminants(12)
    assert ds == [5, -7, -11, 13, -15, 17, -19, 21, -23, -27, 29, -31]
    assert 9 not in ds and 25 not in ds
    assert all(d % 4 in (0, 1) for d in ds)


def test_exact_survey_tiny_sizes():
    for k in (2, 3, 4, 5):
        s = exact_qk1(k)
        assert s.best.q == 0
    s = exact_qk1(6)
    assert s.best.q == pytest.approx(1 / 48)
    assert s.best.liar_mass == Fraction(7, 47)
    assert s.best.d == 5
    with pytest.raises(CapacityError):
        exact_qk1(40)


def test_exact_survey_rounds_ceiling(monkeypatch):
    # refused before the window is built, as run_rounds refuses them
    assert len(exact_qk1(6, MAX_ROUNDS).per_d) == 12
    monkeypatch.setattr("slucas.counting._survey_window", None)
    for r in (0, MAX_ROUNDS + 1, 10 ** 6):
        with pytest.raises(ValueError,
                           match=f"need rounds >= 1 and at most {MAX_ROUNDS}"):
            exact_qk1(6, r)


@pytest.mark.parametrize("k, d_scan, message", [
    (8, [], "need at least one discriminant"),
    (16, [5, -7, 13, 7], "discriminant must be 0 or 1 mod 4: 7"),
], ids=["empty", "bad-last"])
def test_exact_survey_scan_refused_before_window(monkeypatch, k, d_scan,
                                                 message):
    # every d is checked before the window is built or any d is priced
    monkeypatch.setattr("slucas.counting._survey_window", None)
    with pytest.raises(ValueError, match=f"^{message}$"):
        exact_qk1(k, 1, d_scan)


def test_survey_window_is_the_census_set():
    # the survey factors the very set the census counts: the odd k-bit n
    # coprime to 3 and 5, twin products dropped; its primes are the k-bit
    # primes but for 3 and 5 themselves, which fall at k = 2 and 3
    for k in range(2, 17):
        rows = _survey_window(k)
        census = screen_census(k, 2, exact=True)
        assert len(rows) == census.survivors, k
        if k >= 4:
            assert sum(n_prime for _, _, n_prime in rows) == census.primes, k


def _trial_division(n):
    # ascending (p, r) pairs, dividing by every d from 2 up to sqrt(n)
    factors, d = [], 2
    while d * d <= n:
        r = 0
        while n % d == 0:
            n //= d
            r += 1
        if r:
            factors.append((d, r))
        d += 1
    return factors + [(n, 1)] * (n > 1)


def test_survey_window_matches_trial_division():
    # the window is factored off kernel's least-factor table; plain trial
    # division must give the same rows: every odd k-bit n coprime to 15,
    # twin-prime products p(p+2) dropped, each with its factorization and
    # primality
    for k in range(2, 13):
        expected = []
        for n in range((1 << (k - 1)) | 1, 1 << k, 2):
            if n % 3 == 0 or n % 5 == 0:
                continue
            factors = _trial_division(n)
            twin = (len(factors) == 2 and factors[0][1] == factors[1][1] == 1
                    and factors[1][0] == factors[0][0] + 2)
            if not twin:
                expected.append((n, factors, mr_oracle(n)))
        rows = _survey_window(k)
        assert [n for n, _, _ in rows] == [n for n, _, _ in expected], k
        for (n, f, n_prime), (_, factors, ref_prime) in zip(rows, expected):
            assert f.factors == factors, n
            assert f.n == n and n_prime == ref_prime, n


@pytest.mark.parametrize("k", [10, 11, 12])
def test_exact_survey_mass_equals_sequential_sum(k):
    # the survey adds integer liar ratios in blocks and the blocks pairwise;
    # a running Fraction sum over the same window must give the same value
    # for every discriminant: the method-A scan, and one with
    # non-fundamental (-27, 45), 0 mod 4 (8, -4) and window-coprime (-3) d
    window = []
    for n in range((1 << (k - 1)) | 1, 1 << k, 2):
        f = factorize(n)
        if n % 3 and n % 5 and not is_twin_prime_product(f):
            window.append((n, f))
    for d_scan in (None, [-27, 21, 8, -4, -3, 45]):
        for r in (1, 2, 3):
            survey = exact_qk1(k, r, d_scan)
            for row in survey.per_d:
                mass = Fraction(0)
                composites = 0
                for n, f in window:
                    if math.gcd(n, 2 * row.d) == 1 and f.factors != [(n, 1)]:
                        mass += alpha_bar(f, row.d) ** r
                        composites += 1
                assert row.liar_mass == mass, (k, r, row.d)
                assert row.composites == composites


@pytest.mark.parametrize("k", [8, 9])
def test_exact_survey_matches_bruteforce_counts(k):
    # ground truth that does not use the closed-form count: each term is
    # the number of accepting (P, Q) pairs found by running the test on
    # every P mod n, over n - (d/n) - 1
    window = [n for n in range((1 << (k - 1)) | 1, 1 << k, 2)
              if n % 3 and n % 5 and not mr_oracle(n)
              and not is_twin_prime_product(n)]
    surveys = {r: exact_qk1(k, r) for r in (1, 2, 3)}
    for i, d in enumerate(method_a_discriminants(12)):
        ratios = [Fraction(slpsp_bruteforce(n, d), n - jacobi(d, n) - 1)
                  for n in window if math.gcd(n, 2 * d) == 1]
        for r, survey in surveys.items():
            row = survey.per_d[i]
            assert row.d == d
            assert row.liar_mass == sum(x ** r for x in ratios), (k, r, d)
            assert row.composites == len(ratios)


@pytest.mark.parametrize("size", [0, 1, 2, SUM_BLOCK - 1, SUM_BLOCK,
                                  SUM_BLOCK + 1, 2 * SUM_BLOCK + 3])
def test_exact_sum_equals_fraction_sum(size):
    # block edges: empty, one term, a block short, full, one over, a tail
    rng = random.Random(size)
    ratios = [(rng.randrange(0, 10 ** 6), rng.randrange(1, 10 ** 6))
              for _ in range(size)]
    total = _exact_sum(ratios)
    assert total == sum((Fraction(a, b) for a, b in ratios), Fraction(0))
    assert isinstance(total, Fraction)


def test_exact_survey_reproducible_from_transcript():
    s = exact_qk1(8)
    for row in s.per_d:
        # q must recompute exactly from the carried exact pieces
        if row.liar_mass == 0:
            assert row.q == 0
        else:
            assert row.q == row.liar_mass / (row.liar_mass + row.primes)
        assert row.q <= Fraction(4, 15)
        assert row.q is row.q          # computed once per row
    assert s.best is s.best


def test_table_shapes():
    header, rows = table_rows(1)
    assert header == ["k", "primes", "bound_floor"]
    assert rows[0] == [8, 23, 22]
    assert len(rows) == 13
    header, rows = table_rows(2)
    assert [r[0] for r in rows] == list(range(60, 101))
    header, rows = table_rows(3)
    assert [r[0] for r in rows] == list(range(42, 60))
    header, rows = table_rows(4)
    assert header == ["k", "M1", "q1", "M2", "q2"]
    assert rows[-1][0] == 41 and rows[-1][3] is None
    header, rows = table_rows(5)
    assert [r[0] for r in rows] == list(range(17, 30))
    header, rows = table_rows(6)
    assert len(rows) == 7 and len(rows[0]) == 11


def test_table_formats_round_trip():
    header, rows = table_rows(1)
    tsv = format_tsv(header, rows)
    lines = tsv.strip().split("\n")
    assert lines[0] == "k\tprimes\tbound_floor"
    assert lines[1] == "8\t23\t22"
    blob = json.loads(format_json(header, rows))
    assert blob[0] == {"k": 8, "primes": 23, "bound_floor": 22}


def test_bound_engine_stays_under_thresholds():
    for k in range(42, 101):
        assert _engine_q(k, 1, 8).value < 4 / 19
    for k in range(30, 34):
        assert _engine_q(k, 2, 8).value < 16 / 241
    # the paper's claim through error_bound, from screen depth 8 on: one
    # prime less in the screen and the smallest k lose both routes
    assert _claim_routes(8) == ([*range(17, 27), *range(30, 34)], [])
    assert _claim_routes(7)[1] == [17, 18, 19]


def _claim_routes(l):
    """The k in 17..100 whose error_bound at screen depth l reaches the
    paper's claim q_t <= (4/15)^t for every t only by the two-round route,
    and those it reaches by neither.  Either q1 <= 4/19, so that chain_rule
    from one round gives it, or q1 < 4/15 and q2 <= (4/15)^2 / (1 +
    (4/15)^2), so that chain_rule from two rounds does."""
    second, neither = [], []
    for k in range(17, 101):
        q1 = error_bound(k, 1, l).value
        if q1 <= 4 / 19:
            assert all(chain_rule(q1, 1, t) <= (4 / 15) ** t
                       for t in range(2, 11)), k
            continue
        q2 = error_bound(k, 2, l).value
        if q1 < 4 / 15 and q2 <= (4 / 15) ** 2 / (1 + (4 / 15) ** 2):
            assert all(chain_rule(q2, 2, t) <= (4 / 15) ** t
                       for t in range(3, 11)), k
            second.append(k)
        else:
            neither.append(k)
    return second, neither
