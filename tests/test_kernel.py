import argparse
import math
import random
from bisect import bisect_right

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from slucas import generation, kernel
from slucas.bounds import (chain_rule, error_bound, n1_bound_coarse,
                           prime_count_exact, prime_lower_bound,
                           qk1_analytic, rho, screen_census, ykts_bound)
from slucas.classical import baillie_psw, fermat_round, run_rounds
from slucas.cli import UsageError, cmd_count
from slucas.counting import (exact_qk1, fermat_count, lucas_uv_mod,
                             mr_count, phi_d, sl_count, slpsp_bruteforce)
from slucas.generation import GenConfig
from slucas.kernel import (MAX_BOUND_K, MAX_ROUNDS, TRIAL_REACH, CapacityError,
                           Factorization, check_discriminant, check_odd,
                           check_screen_depth, count_primes_in_range,
                           factorize, is_perfect_square, jacobi,
                           least_factor, odd_primes, primes_in,
                           sieve_primes, split_power_of_two)
from slucas.lucas import (LucasParams, sample_params, select_d,
                          strong_lucas_round)

from conftest import mr_oracle


def ref_jacobi(a, n):
    # textbook recursion, slow but independent
    assert n > 0 and n % 2 == 1
    a %= n
    if n == 1:
        return 1
    if a == 0:
        return 0
    if a == 1:
        return 1
    if a % 2 == 0:
        return ref_jacobi(a // 2, n) * (1 if n % 8 in (1, 7) else -1)
    flip = -1 if (a % 4 == 3 and n % 4 == 3) else 1
    return flip * ref_jacobi(n % a, a)


@given(st.integers(-10**6, 10**6), st.integers(1, 10**5))
def test_jacobi_matches_reference(a, n):
    n = 2 * n + 1
    assert jacobi(a, n) == ref_jacobi(a, n)


@given(st.integers(-10**9, 10**9), st.integers(-10**9, 10**9),
       st.integers(1, 10**5))
def test_jacobi_multiplicative_in_top(a, b, n):
    n = 2 * n + 1
    assert jacobi(a, n) * jacobi(b, n) == jacobi(a * b, n)


def test_jacobi_rejects_even_modulus():
    with pytest.raises(ValueError):
        jacobi(3, 10)


def test_check_discriminant_accepts_exactly_non_square_p2_minus_4q():
    # P^2 - 4Q takes every value it can with P in {0, 1}; a square D has
    # (D/n) = +1 for every n coprime to it, so no round could use it
    forms = {P * P - 4 * Q for P in (0, 1) for Q in range(-60, 60)}
    for d in range(-200, 200):
        if d in forms and not (d >= 0 and math.isqrt(d) ** 2 == d):
            check_discriminant(d)
        else:
            fault = "square" if d in forms else "0 or 1 mod 4"
            with pytest.raises(ValueError, match=fault):
                check_discriminant(d)
    # 4,401 digits, past the interpreters' default limit on decimal text
    with pytest.raises(ValueError, match="0 or 1 mod 4"):
        check_discriminant(10 ** 4400 + 3)
    with pytest.raises(ValueError, match="square"):
        check_discriminant(10 ** 4400)


def test_split_power_of_two():
    assert split_power_of_two(1) == (0, 1)
    assert split_power_of_two(12) == (2, 3)
    assert split_power_of_two(2**20) == (20, 1)
    kappa, q = split_power_of_two(3 * 2**37)
    assert kappa == 37 and q == 3
    with pytest.raises(ValueError):
        split_power_of_two(0)


@given(st.integers(0, 2**128))
def test_perfect_square_detection(r):
    assert is_perfect_square(r * r)
    if r > 1:
        assert not is_perfect_square(r * r + 1)


def test_sieve_small():
    assert sieve_primes(1) == []
    assert sieve_primes(2) == [2]
    assert sieve_primes(30) == [2, 3, 5, 7, 11, 13, 17, 19, 23, 29]
    assert len(sieve_primes(10**6)) == 78498


def test_sieve_matches_trial_division_at_every_small_limit(monkeypatch):
    # from a fresh table, every limit below 5,000 puts each prime, each odd
    # square and both parities at the last index of the window
    monkeypatch.setattr(kernel, "_table", [2])
    monkeypatch.setattr(kernel, "_table_limit", 2)
    reference = [p for p in range(2, 5000)
                 if all(p % d for d in range(2, math.isqrt(p) + 1))]
    for limit in range(-2, 5000):
        assert sieve_primes(limit) == reference[:bisect_right(reference,
                                                              limit)], limit


@pytest.mark.parametrize("limit", [1 << 16, 1 << 22])
def test_sieve_length_matches_sympy_primepi(limit):
    sympy = pytest.importorskip("sympy")
    primes = sieve_primes(limit)
    assert len(primes) == int(sympy.primepi(limit))
    assert primes[-1] == sympy.prevprime(limit + 1)


def test_sieve_limit_raises_before_sieving(monkeypatch):
    # the sieve's memory grows with its limit, so past the cap it must
    # refuse without building anything; the library's deepest trial
    # division still fits under the cap
    def no_sieve(*args):
        raise AssertionError("sieved past SIEVE_LIMIT")
    monkeypatch.setattr(kernel, "sieve_window", no_sieve)
    table = list(kernel._table), kernel._table_limit
    with pytest.raises(CapacityError):
        sieve_primes(kernel.SIEVE_LIMIT + 1)
    assert (kernel._table, kernel._table_limit) == table
    assert kernel.SIEVE_LIMIT >= generation.trial_bound(MAX_BOUND_K)


# 4,401 decimal digits, past the interpreters' default limit of 4,300: an
# error message that printed the value could not be built
HUGE = 10 ** 4400 + 1


@pytest.mark.parametrize("call, limit", [
    (lambda: factorize(HUGE), kernel.FACTOR_LIMIT),
    (lambda: mr_count(HUGE), kernel.FACTOR_LIMIT),
    (lambda: sieve_primes(HUGE - 1), kernel.SIEVE_LIMIT),
    (lambda: count_primes_in_range(0, HUGE - 1), kernel._PI_LIMIT),
], ids=["factorize", "mr_count", "sieve_primes", "count_primes_in_range"])
def test_capacity_error_names_the_limit_not_the_value(call, limit):
    with pytest.raises(CapacityError, match=f" {limit}"):
        call()


def _least_factor_oracle(n, lo, hi):
    return min((p for p in sieve_primes(hi) if p > lo and n % p == 0),
               default=1)


# each side of the block edges 2^5, 2^12, 2^14 and 2^16, and a head alone
LEAST_FACTOR_RANGES = [(1, 999), (2, 991), (1, 31), (1, 32), (31, 33),
                       (32, 4097), (1000, 4096), (1000, 16385), (4095, 70000)]


@pytest.mark.parametrize("lo, hi", LEAST_FACTOR_RANGES)
def test_least_factor_matches_plain_loop(lo, hi):
    primes = sieve_primes(hi)
    assert primes_in(lo, hi) == [p for p in primes if p > lo]
    for n in range(1, 1 << 14, 2):
        want = 1
        for p in primes:
            if p > n:   # a prime above n cannot divide it
                break
            if p > lo and n % p == 0:
                want = p
                break
        assert least_factor(n, lo, hi) == want, n


def test_least_factor_edge_cases():
    for lo, hi in [(5, 5), (10, 3), (0, 1), (1000, 999), (2, 2)]:
        assert primes_in(lo, hi) == []
        assert least_factor(15, lo, hi) == 1
    cases = [(29 * 31, 1, 999), (13 * 17, 1, 999), (31 * 37, 1, 999),
             (4093 * 4099, 1000, 1 << 16), (4093 * 4099, 4093, 1 << 16),
             (4093 * 4099, 1000, 4098), (16381 * 16411 * 7, 2, 1 << 16),
             (997, 1, 999), (997, 1, 996), (4099, 1000, 4099),
             (2 ** 61 - 1, 1, 1 << 16), (3 * (2 ** 61 - 1), 3, 1 << 16)]
    for n, lo, hi in cases:
        assert least_factor(n, lo, hi) == _least_factor_oracle(n, lo, hi), n


def test_count_primes_in_range():
    # pi(10^6) and a couple of dyadic windows
    assert count_primes_in_range(2, 10**6) == 78498
    assert count_primes_in_range(2**7, 2**8) == 23
    assert count_primes_in_range(2**19, 2**20) == 38635
    ps = sieve_primes(10**4)
    assert count_primes_in_range(1000, 5000) == len(
        [p for p in ps if 1000 <= p <= 5000])
    with pytest.raises(CapacityError):
        count_primes_in_range(0, (1 << 33) + 1)


def test_count_primes_in_range_edges():
    ps = sieve_primes(2000)

    def ref(lo, hi):
        return len([p for p in ps if lo <= p < hi])

    # empty and inverted ranges
    assert count_primes_in_range(100, 100) == 0
    assert count_primes_in_range(101, 100) == 0
    assert count_primes_in_range(10**6, 10) == 0
    # hi <= 3: only 2 can be counted
    for lo in range(-5, 4):
        for hi in range(-5, 4):
            assert count_primes_in_range(lo, hi) == ref(lo, hi), (lo, hi)
    # lo <= 2 counts from 2 whatever lies below it
    for lo in (-10**9, -1, 0, 1, 2):
        assert count_primes_in_range(lo, 1000) == 168
    # prime ends: lo is included, hi is not
    assert count_primes_in_range(2, 3) == 1
    assert count_primes_in_range(3, 5) == 1
    assert count_primes_in_range(997, 1009) == 1
    assert count_primes_in_range(997, 1010) == 2
    assert count_primes_in_range(998, 1009) == 0
    for lo, hi in ((1009, 1999), (11, 1997), (1013, 1019), (7, 7 + 1)):
        assert count_primes_in_range(lo, hi) == ref(lo, hi), (lo, hi)
    # every range over a small interval, both ends prime or not
    for lo in range(0, 200, 7):
        for hi in range(lo, 1500, 37):
            assert count_primes_in_range(lo, hi) == ref(lo, hi), (lo, hi)


def test_count_primes_in_range_matches_sympy():
    sympy = pytest.importorskip("sympy")

    @settings(max_examples=60, deadline=None)
    @given(st.integers(0, 10**7), st.integers(0, 10**7))
    def check(lo, hi):
        expected = (int(sympy.primepi(hi - 1) - sympy.primepi(lo - 1))
                    if hi > lo else 0)
        assert count_primes_in_range(lo, hi) == expected

    check()


def test_prime_table_grows_past_its_end(monkeypatch):
    # each larger limit sieves only the odd numbers past the table's end
    # as it stands after the primes up to sqrt(limit) are read: at 2000
    # that read grows the table from 10 to 44 first
    sympy = pytest.importorskip("sympy")
    monkeypatch.setattr(kernel, "_table", [2])
    monkeypatch.setattr(kernel, "_table_limit", 2)
    for limit in (10, 2000, 2001, 4_000_000):
        assert sieve_primes(limit) == list(sympy.primerange(limit + 1)), limit
        assert kernel._table_limit == limit


def test_odd_primes_reads_each_count_off_a_fresh_table(monkeypatch):
    # counts across the table's doublings from SCREEN_REACH: the deepest
    # screen (166) and the prime after it, pi(2^11) = 309 for the prime
    # count's phi, 345 for the gcd-split classes at l = 166 and k = 8192
    monkeypatch.setattr(kernel, "_table", [2])
    monkeypatch.setattr(kernel, "_table_limit", 2)
    odd = [n for n in range(3, 5000, 2)
           if all(n % d for d in range(3, math.isqrt(n) + 1, 2))]
    for count in (0, 1, 166, 167, 309, 345, 600):
        assert odd_primes(count) == odd[:count], count
    assert len(set(kernel._table)) == len(kernel._table)
    # phi reads past the 564 primes up to 2^12: all it counts above 1 is
    # the primes in (p_600, 10^6], as p_601^2 > 10^6
    assert kernel._phi(10 ** 6, 600) == 1 + 78498 - 600


def test_phi_matches_a_direct_count():
    # Legendre's phi(x, a), the n in 1..x that none of the first a primes
    # divides, against a running count for every x < 3000 and a <= 20
    primes = sieve_primes(71)
    for a in range(21):
        count = 0
        for x in range(3000):
            count += x > 0 and all(x % p for p in primes[:a])
            assert kernel._phi(x, a) == count, (x, a)
    # from 17^3 = 4913 on, terms are expanded in turn: against a sieve
    primes, top = sieve_primes(541), 10 ** 6  # the first 100 primes
    for a in (7, 20, 100):
        marked = bytearray(top + 1)
        for p in primes[:a]:
            marked[p::p] = b"\x01" * (top // p)
        for x in (4913, 65537, top):
            assert kernel._phi(x, a) == marked.count(0, 1, x + 1), (x, a)


def test_prime_pi_known_values():
    assert count_primes_in_range(0, 10**9 + 1) == 50_847_534
    assert count_primes_in_range(0, 2**32 + 1) == 203_280_221


@pytest.mark.parametrize("r", [0, MAX_ROUNDS + 1])
@pytest.mark.parametrize("call", [
    lambda r: run_rounds(1000003, "strong-lucas", r, random.Random(1)),
    lambda r: GenConfig(bits=64, rounds=r),
    lambda r: exact_qk1(6, r),
], ids=["run_rounds", "GenConfig", "exact_qk1"])
def test_rounds_ceiling_refused_alike(monkeypatch, call, r):
    # one check and one message, before any parameter search or window
    monkeypatch.setattr("slucas.classical.select_d", None)
    monkeypatch.setattr("slucas.counting._survey_window", None)
    with pytest.raises(ValueError, match="^need rounds >= 1 and at most 128$"):
        call(r)


@pytest.mark.parametrize("call", [
    lambda: error_bound(60.5), lambda: error_bound(60, 1.5),
    lambda: error_bound(60, 1, 8.0), lambda: n1_bound_coarse(60, M=3.0),
    lambda: ykts_bound(100.5, 1, 1.0), lambda: ykts_bound(100, 1.5, 1.0),
    lambda: qk1_analytic(60.5), lambda: chain_rule(0.1, 1, 2.5),
    lambda: rho(8.5), lambda: exact_qk1(8.0), lambda: exact_qk1(6, 2.0),
    lambda: GenConfig(bits=64.0), lambda: GenConfig(bits=64, rounds=1.5),
    lambda: GenConfig(bits=64, screen=8.5),
    lambda: GenConfig(bits=64, window=10.5),
    lambda: GenConfig(bits=64, window="10"),
    lambda: prime_count_exact(20.5), lambda: prime_lower_bound(20.5),
    lambda: screen_census(20.5), lambda: factorize(10.0),
    lambda: run_rounds(15.0, "fermat", 1, random.Random(1)),
    lambda: sl_count(15.0, 5), lambda: phi_d(21.0, 5),
], ids=["error_bound-k", "error_bound-r", "error_bound-l", "coarse-M",
        "ykts_bound-k", "ykts_bound-t", "qk1_analytic", "chain_rule", "rho",
        "exact_qk1-k", "exact_qk1-r", "GenConfig-bits", "GenConfig-rounds",
        "GenConfig-screen", "GenConfig-window", "GenConfig-window-str",
        "prime_count_exact", "prime_lower_bound", "screen_census",
        "factorize", "run_rounds-fermat", "sl_count", "phi_d"])
def test_non_integer_sizes_and_counts_are_refused(call):
    # a float that passes the range check is refused there, not answered
    # and not a TypeError when the run starts
    with pytest.raises(ValueError, match=" must be an int, not "):
        call()


@pytest.mark.parametrize("least", [3, 5])
def test_check_odd_boundaries(least):
    for n in (least - 2, least - 1, least + 1):
        with pytest.raises(ValueError, match=f"^need odd n >= {least}$"):
            check_odd(n, least)
    check_odd(least, least)
    check_odd(least + 2, least)


def test_check_screen_depth_boundaries():
    for l in (1, 167):
        with pytest.raises(ValueError,
                           match="^need screen depth 2 <= l <= 166$"):
            check_screen_depth(l)
    check_screen_depth(2)
    check_screen_depth(166)


@pytest.mark.parametrize("call, least", [
    (lambda n: strong_lucas_round(n, LucasParams(1, -1)), 5),
    (lambda n: sample_params(n, 5, random.Random(1)), 5),
    (select_d, 3),
    (lambda n: fermat_round(n, 2), 3),
    (lambda n: run_rounds(n, "strong-lucas", 1, random.Random(1)), 5),
    (baillie_psw, 3),
    (lambda n: lucas_uv_mod(1, 1, -1, n), 3),
    (lambda n: slpsp_bruteforce(n, 5), 3),
    (fermat_count, 3),
    (lambda n: cmd_count(argparse.Namespace(n=n, what="sl", d=None)), 3),
], ids=["lucas._check_args", "sample_params", "select_d", "_base_round",
        "run_rounds", "baillie_psw", "lucas_uv_mod", "_check_bruteforce",
        "_base_parts", "cmd_count"])
def test_odd_n_refused_alike(call, least):
    # one check, kernel.check_odd, and one message that names no function
    for n in (least - 1, least + 1):
        with pytest.raises((ValueError, UsageError),
                           match=f"^need odd n >= {least}$"):
            call(n)
    # an odd n in range, but a float: refused by the same check
    with pytest.raises((ValueError, UsageError),
                       match=r"^n must be an int, not 15\.0$"):
        call(15.0)


def test_factorize_roundtrip():
    rnd = random.Random(99)
    for _ in range(200):
        n = rnd.randrange(2, 10**9)
        f = factorize(n)
        prod = 1
        for p, e in f:
            assert mr_oracle(p)
            prod *= p**e
        assert prod == n == f.n


@pytest.mark.parametrize("n", [
    4503599627370449,           # the largest prime below 2^52
    3 ** 32,
    67108837 * 67108859,        # two primes near 2^26
    131101 ** 3,
    65537 * 65539 * 65543,      # three primes just past the trial reach
    65537 ** 2 * 1048517,
])
def test_factorize_splits_what_trial_division_leaves(monkeypatch, n):
    # only the primes up to TRIAL_REACH are sieved, whatever n is
    asked = []
    sieve = kernel.sieve_primes
    monkeypatch.setattr(kernel, "sieve_primes",
                        lambda limit: asked.append(limit) or sieve(limit))
    kernel._prime_blocks.cache_clear()  # so the blocks ask for their primes
    f = factorize(n)
    assert f.factors == sorted(f.factors)
    assert math.prod(p ** r for p, r in f) == n == f.n
    assert all(mr_oracle(p) for p, _ in f.factors)
    assert asked and max(asked) <= TRIAL_REACH == 1 << 16


@pytest.mark.parametrize("n, reaches", [
    (1000003, [1 << 12]),             # a prime below 2^24
    (3 * 65537, [1 << 12, 1 << 12]),  # and both cofactors of this one
    (2 ** 31 - 1, [1 << 16]),         # a prime past 2^28
    (4093 ** 2, [1 << 12]),           # the primes around 2^12 and 2^14,
    (4093 * 4099, [1 << 12]),         # where the reach steps: 4093 * 4099
    (4099 ** 2, [1 << 14]),           # < 2^24 < 4099^2 and 16381^2 < 2^28
    (16381 ** 2, [1 << 14]),          # < 16381 * 16411
    (16381 * 16411, [1 << 16]),
])
def test_factorize_stops_its_gcd_blocks_past_the_root(monkeypatch, n,
                                                      reaches):
    # past the table, least_factor reaches the first of 2^12, 2^14 and
    # TRIAL_REACH whose square exceeds the cofactor
    sympy = pytest.importorskip("sympy")
    asked = []
    least_factor = kernel.least_factor
    monkeypatch.setattr(kernel, "least_factor", lambda m, lo, hi:
                        asked.append(hi) or least_factor(m, lo, hi))
    assert factorize(n).factors == sorted(sympy.factorint(n).items())
    assert asked == reaches


def test_rho_splits_every_small_odd_composite():
    # 62 of them, 21 the first, need a second c: from c = 1 the walk
    # closes on g = n
    for n in range(9, 10 ** 4, 2):
        if not mr_oracle(n):
            d = kernel._rho(n)
            assert 1 < d < n and n % d == 0, n


# each side of TRIAL_REACH: squares, a product and a cube of the primes
# around it, and 2^52 - 1 = 3 * 5 * 53 * 157 * 1613 * 2731 * 8191
TRIAL_REACH_EDGES = [65521 ** 2, 65537 ** 2, 65521 * 65537, 65537 ** 3,
                     2 ** 52 - 1]


def test_factorize_matches_sympy_factorint():
    sympy = pytest.importorskip("sympy")
    rnd = random.Random(20240515)
    wide = [rnd.randrange(2, 1 << 52) for _ in range(2000)]
    for n in [*range(2, 1 << 17), *wide, *TRIAL_REACH_EDGES]:
        assert factorize(n).factors == sorted(sympy.factorint(n).items()), n


def test_factorization_views():
    f = factorize(2**3 * 3 * 7**2)
    assert list(f) == f.factors == [(2, 3), (3, 1), (7, 2)]
    assert repr(f) == "Factorization(1176 = 2^3 * 3 * 7^2)"
    assert f == Factorization(1176, [(2, 3), (3, 1), (7, 2)])
    assert f != factorize(105)
