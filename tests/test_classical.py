import itertools
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from slucas import classical, kernel
from slucas.classical import (baillie_psw, fermat_round, miller_rabin_round,
                              run_rounds)
from slucas.kernel import (MAX_ROUNDS, SCREEN_REACH, SIEVE_LIMIT,
                           CapacityError, factorize, is_perfect_square,
                           sieve_primes)
from slucas.lucas import (PROBABLE_PRIME, LucasParams, RoundResult, Verdict,
                          select_d, strong_lucas_round)

from conftest import LATE_D_PRIME, mr_oracle


def test_fermat_round_basics():
    assert fermat_round(341, 2)          # classic base-2 pseudoprime
    assert fermat_round(341, 3) == RoundResult(Verdict.COMPOSITE, "fermat")
    assert fermat_round(561, 2) and fermat_round(561, 5)  # Carmichael
    res = fermat_round(561, 3)           # shared factor detected via gcd
    assert res.verdict is Verdict.COMPOSITE and res.factor == 3


def test_miller_rabin_round_basics():
    assert miller_rabin_round(2047, 2)   # smallest strong pseudoprime base 2
    assert miller_rabin_round(2047, 3) == RoundResult(Verdict.COMPOSITE,
                                                      "miller-rabin")
    assert not miller_rabin_round(561, 2)
    assert not miller_rabin_round(341, 2)


def test_strong_is_subset_of_fermat():
    for n in range(9, 20000, 2):
        for a in (2, 3, 5):
            if n % a == 0:
                continue
            if miller_rabin_round(n, a):
                assert fermat_round(n, a)


def test_rounds_accept_primes():
    for p in sieve_primes(10**4):
        if p < 5:
            continue
        assert miller_rabin_round(p, 2)
        assert fermat_round(p, 2)


def test_round_input_validation():
    with pytest.raises(ValueError):
        miller_rabin_round(10, 3)
    with pytest.raises(ValueError):
        fermat_round(9, 0)


def test_bpsw_agrees_with_oracle_on_a_window(is_prime):
    for n in range(3, 40000, 2):
        assert bool(baillie_psw(n)) == is_prime(n), n


def test_bpsw_rejects_even_or_tiny_input():
    assert baillie_psw(3)
    assert baillie_psw(3, trial_limit=3)    # no trial prime reaches 3
    for bad in (1, 2, 4, 10**6):
        with pytest.raises(ValueError):
            baillie_psw(bad)


def test_bpsw_variants_reject_classic_pseudoprimes():
    # trial_limit=3 disables the small-prime screen so the base-2 and
    # Lucas stages do the actual work
    for n in (341, 561, 645, 1105, 1729, 2047, 2465, 3277, 5459, 5777):
        assert not baillie_psw(n, trial_limit=3)


def test_bpsw_large_known_values():
    assert baillie_psw(2**61 - 1)
    assert baillie_psw(2**89 - 1)
    assert not baillie_psw((2**31 - 1) * (2**61 - 1))
    assert baillie_psw(10**18 + 9)


@pytest.mark.parametrize("p", [1093, 3511])
def test_bpsw_rejects_the_square_of_a_wieferich_prime(p):
    # 2^(p-1) = 1 mod p^2 makes p^2 a base-2 strong probable prime, and it
    # has no factor below 1000, so only the square check rejects it
    assert baillie_psw(p * p) == RoundResult(Verdict.COMPOSITE,
                                             "perfect-square")


def test_bpsw_accepts_prime_with_late_discriminant():
    # its method-A sweep needs 68 candidates; a 64-candidate cap used to
    # turn that into a "d-search" composite verdict
    assert baillie_psw(LATE_D_PRIME)


def _bpsw_reference(n, trial_limit):
    # the plain trial loop, then the same base-2 and Lucas stages
    if n == 3:
        return PROBABLE_PRIME
    for p in sieve_primes(trial_limit - 1):
        if n == p:
            return PROBABLE_PRIME
        if n % p == 0:
            return RoundResult(Verdict.COMPOSITE, "trial-division", p)
    base2 = miller_rabin_round(n, 2)
    if not base2:
        return base2
    if is_perfect_square(n):
        return RoundResult(Verdict.COMPOSITE, "perfect-square")
    d = select_d(n)
    return strong_lucas_round(n, LucasParams(1, (1 - d) // 4))


@pytest.mark.parametrize("trial_limit", [3, 30, 1000])
def test_bpsw_matches_plain_trial_loop(trial_limit):
    # small n, and 4,096 consecutive odd n at the size the sweep benchmark runs
    for n in itertools.chain(range(3, 10 ** 5, 2),
                             range(2 ** 63 + 1, 2 ** 63 + 1 + 2 * 4096, 2)):
        assert baillie_psw(n, trial_limit=trial_limit) == \
            _bpsw_reference(n, trial_limit), n


def test_bpsw_trial_stage_edge_cases():
    # trial primes themselves pass; a product of trial primes past the
    # one-by-one head (29 * 31 = 899) is not taken for one of them
    for p in sieve_primes(999)[1:]:
        assert baillie_psw(p) == PROBABLE_PRIME
    for n, factor in ((899, 29), (23 * 23, 23), (997 * 991, 991),
                      (3 * 997, 3), (19 * 23, 19), (997 * 1009, 997)):
        assert baillie_psw(n) == RoundResult(
            Verdict.COMPOSITE, "trial-division", factor)


def test_bpsw_trial_rejections_stay_bounded():
    # a factor past SCREEN_REACH is reported but not kept
    assert baillie_psw(1009 * 1013, trial_limit=2000) == RoundResult(
        Verdict.COMPOSITE, "trial-division", 1009)
    assert all(p < SCREEN_REACH for p in classical._trial_rejections)
    assert len(classical._trial_rejections) <= len(sieve_primes(SCREEN_REACH))


def test_bpsw_trial_rejections_by_one_prime_agree():
    first, second = baillie_psw(7 * 10007), baillie_psw(7 * 10009)
    assert first == second == RoundResult(Verdict.COMPOSITE,
                                          "trial-division", 7)
    assert classical._trial_rejections[7] == first


def test_bpsw_trial_rejections_are_built_at_import():
    # one for each prime below SCREEN_REACH, and no call adds or replaces one
    before = dict(classical._trial_rejections)
    assert sorted(before) == sieve_primes(SCREEN_REACH - 1)
    assert baillie_psw(1009 * 1013, trial_limit=2000).factor == 1009
    assert baillie_psw(7 * 10007) is before[7]
    assert classical._trial_rejections == before


# strong pseudoprimes to base 2 that no prime below 1000 divides
_BASE2_STRONG_PSEUDOPRIMES = (
    3825123056546413051,           # 149491 * 747451 * 34233211
    318665857834031151167461,      # 399165290221 * 798330580441
    3317044064679887385961981,     # 1287836182261 * 2575672364521
)


def test_bpsw_rejects_large_base2_strong_pseudoprimes():
    for n in _BASE2_STRONG_PSEUDOPRIMES:
        assert miller_rabin_round(n, 2)
        assert not baillie_psw(n)


@given(st.data())
@settings(max_examples=40, deadline=None)
def test_bpsw_agrees_with_sympy(data):
    sympy = pytest.importorskip("sympy")
    bits = data.draw(st.integers(64, 1024))
    start = st.integers(2 ** (bits - 1), 2 ** bits)
    kind = data.draw(st.sampled_from(["odd", "prime", "near-square"]))
    if kind == "odd":
        n = data.draw(start) | 1
    elif kind == "prime":
        n = sympy.nextprime(data.draw(start))
    else:
        # p * q with p and q next to each other: a Fermat-factorable
        # composite that no small prime divides
        half = st.integers(2 ** (bits // 2 - 1), 2 ** (bits // 2))
        p = sympy.nextprime(data.draw(half))
        n = p * sympy.nextprime(p)
    assert bool(baillie_psw(n)) == sympy.isprime(n), n


ROUND_METHODS = ("strong-lucas", "lucas", "miller-rabin", "fermat")


@pytest.mark.parametrize("method", ROUND_METHODS)
def test_run_rounds_counts_rounds(method):
    assert run_rounds(104729, method, 4, random.Random(1)) == (
        PROBABLE_PRIME, 4)
    assert run_rounds(LATE_D_PRIME, method, 2, random.Random(1)) == (
        PROBABLE_PRIME, 2)
    # 2^32 + 1 = 641 * 6700417: every method rejects in its first round
    res, spent = run_rounds(2**32 + 1, method, 5, random.Random(1))
    assert not res and spent == 1


def test_oversized_trial_limit_leaves_the_prime_table_whole(monkeypatch):
    # A fresh process: the shared table holds only 2 until something asks.
    monkeypatch.setattr(kernel, "_table", [2])
    monkeypatch.setattr(kernel, "_table_limit", 2)
    with pytest.raises(CapacityError):
        baillie_psw(1_000_003, trial_limit=SIEVE_LIMIT + 2)
    assert (kernel._table, kernel._table_limit) == ([2], 2)
    assert factorize(15).factors == [(3, 1), (5, 1)]
    assert baillie_psw(15).verdict is Verdict.COMPOSITE
    assert sieve_primes(2000) == [p for p in range(2, 2001) if mr_oracle(p)]


def test_run_rounds_stops_at_the_rejecting_round():
    # 5459 = 53 * 103 passes some Lucas rounds, 561 some Fermat rounds
    res, spent = run_rounds(5459, "lucas", 5, random.Random(4))
    assert (res.reason, spent) == ("u-nonzero", 2)
    res, spent = run_rounds(561, "fermat", 3, random.Random(5))
    assert (res.verdict, spent) == (Verdict.COMPOSITE, 2)


@pytest.mark.parametrize("method", ["strong-lucas", "lucas"])
def test_run_rounds_square_fails_the_discriminant_sweep(method):
    # no D has (D/37^2) = -1; a fixed D still runs the rounds
    assert run_rounds(37 ** 2, method, 3, random.Random(1)) == (
        RoundResult(Verdict.COMPOSITE, "d-search"), 1)
    # nor for a square of 4,401 digits, past the interpreters' default
    # limit of 4,300, which the sweep's refusal used to print
    square = (10 ** 2200 + 3) ** 2
    assert run_rounds(square, method, 3, random.Random(1)) == (
        RoundResult(Verdict.COMPOSITE, "d-search"), 1)
    res, _ = run_rounds(37 ** 2, method, 3, random.Random(1), d=5)
    assert res.reason not in ("", "d-search")


class _FixedDraw(random.Random):
    def randrange(self, *args):
        return 2


@pytest.mark.parametrize("method", ["strong-lucas", "lucas"])
def test_run_rounds_param_search_rejects(method):
    # D = -11, P = 2 gives Q = (4 + 11)/4 = 0 mod 15 on every draw
    assert run_rounds(15, method, 3, _FixedDraw(), d=-11) == (
        RoundResult(Verdict.COMPOSITE, "param-search"), 1)


def test_run_rounds_rejects_unknown_method():
    with pytest.raises(ValueError, match="bpsw"):
        run_rounds(104729, "bpsw", 1, random.Random(1))


@pytest.mark.parametrize("rounds", [0, -3])
@pytest.mark.parametrize("method", ROUND_METHODS)
def test_run_rounds_refuses_fewer_than_one_round(method, rounds):
    # no round runs, so no verdict on the composite 15 could be given
    with pytest.raises(ValueError, match="rounds"):
        run_rounds(15, method, rounds, random.Random(1))


@pytest.mark.parametrize("method", ROUND_METHODS)
def test_run_rounds_refuses_rounds_past_the_ceiling(method):
    # refused before any round runs (the CLI tests try 10^20 rounds in a
    # process of their own, so that a regression cannot hang the suite)
    with pytest.raises(ValueError, match=f"at most {MAX_ROUNDS}"):
        run_rounds(1000003, method, MAX_ROUNDS + 1, random.Random(1))
    assert run_rounds(1000003, method, MAX_ROUNDS, random.Random(1)) == (
        PROBABLE_PRIME, MAX_ROUNDS)


@pytest.mark.parametrize("d", [0, 4, 9])
@pytest.mark.parametrize("method", ["strong-lucas", "lucas"])
def test_run_rounds_refuses_a_square_discriminant(method, d):
    # (d/21) is never -1 for a square d, so the composite 21 would pass
    # some seeds' rounds
    with pytest.raises(ValueError, match="square"):
        run_rounds(21, method, 1, random.Random(1), d)


@pytest.mark.parametrize("method", ["miller-rabin", "fermat"])
def test_run_rounds_refuses_d_with_a_base_method(method):
    with pytest.raises(ValueError, match="Lucas methods only"):
        run_rounds(104729, method, 1, random.Random(1), 5)


@pytest.mark.parametrize("n", [-5, 3, 4])
@pytest.mark.parametrize("method", ROUND_METHODS)
def test_run_rounds_refuses_n_outside_its_domain(method, n):
    # checked first: run_rounds(3, "miller-rabin", ...) used to fail on the
    # base it had drawn itself
    with pytest.raises(ValueError, match="odd n >= 5"):
        run_rounds(n, method, 0, random.Random(1))


@pytest.mark.parametrize("method", ["strong-lucas", "lucas"])
def test_run_rounds_refuses_d_sharing_a_factor_with_n(method):
    # the factor, not a verdict: a prime n = 7 shares it with d = 21 too
    for n in (7, 35):
        with pytest.raises(ValueError, match="shares the factor 7"):
            run_rounds(n, method, 1, random.Random(1), 21)


def _rfc3526_prime() -> int:
    """The 2048-bit MODP group prime of RFC 3526, a safe prime."""
    mpmath = pytest.importorskip("mpmath")
    with mpmath.workdps(700):
        frac = int(mpmath.floor(mpmath.mpf(2) ** 1918 * mpmath.pi))
    return 2 ** 2048 - 2 ** 1984 - 1 + 2 ** 64 * (frac + 124476)


@pytest.mark.parametrize("bits", [64, 128, 256, 512, 1024, 2048])
def test_run_rounds_agrees_with_sympy(bits):
    sympy = pytest.importorskip("sympy")
    rng = random.Random(bits)

    def prime(size):
        return sympy.nextprime(rng.getrandbits(size) | 1 << (size - 1))

    if bits == 2048:
        # sympy.nextprime takes seconds here; take a known prime pair
        p = _rfc3526_prime()
        primes = [p, (p - 1) // 2]
    else:
        primes = [prime(bits), prime(bits)]
    products = [prime(bits // 2) * prime(bits // 2) for _ in range(2)]
    for n in primes + products:
        res, spent = run_rounds(n, "strong-lucas", 3, random.Random(n))
        assert bool(res) == sympy.isprime(n), hex(n)
        assert spent == (3 if res else 1)
    assert all(map(sympy.isprime, primes))
