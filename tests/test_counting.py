import math
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from slucas.counting import (BRUTEFORCE_LIMIT, _pair_parts, alpha, alpha_bar,
                             fermat_bruteforce, fermat_count,
                             is_twin_prime_product, lpsp_bruteforce,
                             lucas_count, mr_bruteforce, mr_count, phi_d,
                             psp_to_lpsp_compose, sl_count, slpsp_bruteforce,
                             worst_case_ceiling)
from slucas.classical import fermat_round
from slucas.kernel import factorize, jacobi
from slucas.lucas import lucas_round

from conftest import mr_oracle

odd_composites = [n for n in range(9, 700, 2) if not mr_oracle(n)]


def test_phi_d_multiplicative_pieces():
    # p - (D/p) on primes, multiplied across prime powers
    assert phi_d(7, 5) == 7 - jacobi(5, 7)
    assert phi_d(7 * 11, 5) == (7 - jacobi(5, 7)) * (11 - jacobi(5, 11))
    assert phi_d(49, 5) == 7 * (7 - jacobi(5, 7))


def test_sl_count_known_small_cases():
    # hand-checked: the brute-force scan is the ground truth here
    for n, D in [(323, 5), (343, 5), (377, 5), (159, -7), (529, 13)]:
        assert sl_count(n, D) == slpsp_bruteforce(n, D)


@pytest.mark.parametrize("n, D", [
    (3 ** 5, 5), (3 ** 4, 5), (3 ** 4, -7), (3 ** 6, 17),
    (7 ** 2 * 11, 5), (7 ** 2 * 11, 13), (7 ** 2 * 11, -3),
    (5 ** 3 * 7, -3), (5 ** 3 * 7, 13), (5 ** 3 * 7, -11),
    (7 ** 3, -3), (11 ** 2 * 13, 5), (3 ** 2 * 5 ** 2 * 7, -11),
])
def test_sl_count_on_prime_powers_and_squareful_n(n, D):
    # eps(n) = prod (D/p)^r: an even power drops a (D/p) = -1, an odd one
    # keeps it, so these cases need the exponent's parity; the base counts
    # share the same product and 2-adic sum
    assert math.gcd(n, 2 * D) == 1
    count = slpsp_bruteforce(n, D)
    assert sl_count(n, D) == count
    assert alpha_bar(n, D) == Fraction(count, n - jacobi(D, n) - 1)
    assert lucas_count(n, D) == lpsp_bruteforce(n, D)
    assert fermat_count(n) == fermat_bruteforce(n)
    assert mr_count(n) == mr_bruteforce(n)


@settings(max_examples=60, deadline=None)
@given(st.integers(BRUTEFORCE_LIMIT, 1 << 40),
       st.sampled_from([5, -7, 13, -11, 17, 21, -3, 8, 12]))
def test_counts_on_primes_past_the_bruteforce_limit(start, D):
    # every admissible pair and every unit base passes a round on a prime
    n = start | 1
    while not mr_oracle(n):
        n += 2
    f = factorize(n)
    assert sl_count(f, D) == lucas_count(f, D) == n - jacobi(D, n) - 1
    assert fermat_count(f) == mr_count(f) == n - 1


def test_sl_count_zero_when_sharing_a_factor():
    assert sl_count(15, 5) == 0      # gcd(15, 10) > 1
    assert sl_count(21, -7) == 0
    assert sl_count(9, 5) > 0        # coprime case is positive


def test_pair_parts_prices_a_list_in_order():
    # a prime power, an n sharing 5 with 2D and a three-prime n: only the
    # sharing n is dropped, and the others keep their order and get their
    # own sl_count over n - (D/n) - 1
    kept = (7 ** 3, 7 * 23 * 41)
    fs = [factorize(n) for n in (kept[0], 45, kept[1])]
    assert _pair_parts(fs, 5, True) == [
        (sl_count(n, 5), n - jacobi(5, n) - 1) for n in kept]
    assert [count for count, _ in _pair_parts(fs, 5, True)] == [7, 1095]
    assert alpha_bar(45, 5) == Fraction(0)


def test_counts_accept_factorization_inputs():
    f = factorize(323)
    assert sl_count(f, 5) == sl_count(323, 5)
    assert lucas_count(f, 5) == lucas_count(323, 5)
    assert fermat_count(f) == fermat_count(323)
    assert mr_count(f) == mr_count(323)


def test_fermat_count_on_carmichael_numbers():
    # every base coprime to n passes, so the count equals phi(n)
    for n in (561, 1105, 1729):
        f = factorize(n)
        phi = 1
        for p, r in f:
            phi *= (p - 1) * p ** (r - 1)
        assert fermat_count(n) == phi
        assert fermat_bruteforce(n) == fermat_count(n)


def test_mr_count_oracle_window():
    for n in odd_composites[:80]:
        assert mr_count(n) == mr_bruteforce(n)


def test_alpha_upper_bound_quarter():
    # twin-prime products and 9 are the known exceptions; everything else
    # composite keeps alpha at or below 1/4
    for n in odd_composites:
        if n == 9 or is_twin_prime_product(n):
            continue
        for D in (5, -7, 13):
            if n % (2 * abs(D)) and jacobi(D, n) != 0:
                a = alpha(n, D)
                assert a <= Fraction(1, 4), (n, D, a)


def test_alpha_exceptions_stay_below_half():
    assert alpha(9, 5) == Fraction(1, 4)            # boundary case
    assert alpha(323, 5) == Fraction(145, 324)      # twin product above 1/4
    for n in (15, 35, 143, 323):
        for D in (5, -7, 13):
            if jacobi(D, n) != 0:
                assert alpha(n, D) <= Fraction(1, 2), (n, D)


def test_alpha_bar_matches_definition():
    for n, D in [(323, 5), (1891, 5), (119, -7)]:
        eps = jacobi(D, n)
        assert alpha_bar(n, D) == Fraction(sl_count(n, D), n - eps - 1)


def test_twin_prime_product_detection():
    assert is_twin_prime_product(3 * 5)
    assert is_twin_prime_product(5 * 7)
    assert is_twin_prime_product(29 * 31)
    assert not is_twin_prime_product(7 * 11)
    assert not is_twin_prime_product(25)
    assert not is_twin_prime_product(3 * 5 * 7)


def test_worst_case_ceiling_values():
    assert worst_case_ceiling(35) == Fraction(35, 2)
    assert worst_case_ceiling(323) == Fraction(323, 2)   # 17*19
    assert worst_case_ceiling(25) == Fraction(4 * 25, 15)
    assert worst_case_ceiling(21) == Fraction(4 * 21, 15)
    with pytest.raises(ValueError):
        worst_case_ceiling(9)


@settings(max_examples=60, deadline=None)
@given(st.sampled_from(odd_composites), st.sampled_from([5, -7, 13, 17]))
def test_sl_count_matches_bruteforce(n, D):
    if jacobi(D, n) == 0 or n % 2 == 0:
        return
    assert sl_count(n, D) == slpsp_bruteforce(n, D)


@settings(max_examples=40, deadline=None)
@given(st.sampled_from(odd_composites), st.sampled_from([5, -7, 13]))
def test_lucas_count_matches_bruteforce(n, D):
    if jacobi(D, n) == 0:
        return
    assert lucas_count(n, D) == lpsp_bruteforce(n, D)


def test_fermat_to_lucas_composition():
    # a Fermat liar pair (b, c) for n lifts to Lucas parameters with
    # P = b + c, Q = b*c that make the weak Lucas round accept n
    checked = 0
    for n in odd_composites:
        liars = [a for a in range(2, min(n - 1, 40))
                 if n % a and fermat_round(n, a)]
        for b in liars:
            for c in liars:
                if b == c or math.gcd(n, (b - c) * (b + c)) != 1:
                    continue
                params = psp_to_lpsp_compose(n, b, c)
                D = params.D
                if D == 0 or jacobi(D, n) == 0:
                    continue
                assert lucas_round(n, params), (n, b, c)
                checked += 1
    assert checked > 50
