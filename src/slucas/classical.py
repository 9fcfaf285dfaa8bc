"""Fermat and Miller-Rabin rounds plus the combined Baillie-PSW check."""

from __future__ import annotations

from .kernel import gcd, is_perfect_square, sieve_primes, split_power_of_two
from .lucas import (LucasParams, RoundResult, Verdict,
                    PROBABLE_PRIME, lucas_round, params_for_d, select_d,
                    strong_lucas_round)


def fermat_round(n: int, a: int) -> RoundResult:
    """One Fermat round: does a**(n-1) = 1 mod n?

    A base sharing a factor with n certifies compositeness outright, so
    that case returns Composite carrying the factor rather than a verdict
    about the congruence.
    """
    if n < 3 or n % 2 == 0:
        raise ValueError("fermat_round expects odd n >= 3")
    if not 2 <= a <= n - 2:
        raise ValueError("base must satisfy 2 <= a <= n-2")
    g = gcd(a, n)
    if g > 1:
        return RoundResult(Verdict.COMPOSITE, "bad-base", g)
    if pow(a, n - 1, n) == 1:
        return PROBABLE_PRIME
    return RoundResult(Verdict.COMPOSITE, "fermat")


def miller_rabin_round(n: int, a: int) -> RoundResult:
    """One Miller-Rabin round at base a.

    With n - 1 = 2**kappa * q (q odd): pass iff a**q = 1 or
    a**(2**i * q) = -1 for some 0 <= i < kappa.
    """
    if n < 3 or n % 2 == 0:
        raise ValueError("miller_rabin_round expects odd n >= 3")
    if not 2 <= a <= n - 2:
        raise ValueError("base must satisfy 2 <= a <= n-2")
    g = gcd(a, n)
    if g > 1:
        return RoundResult(Verdict.COMPOSITE, "bad-base", g)
    kappa, q = split_power_of_two(n - 1)
    x = pow(a, q, n)
    if x == 1 or x == n - 1:
        return PROBABLE_PRIME
    for _ in range(kappa - 1):
        x = (x * x) % n
        if x == n - 1:
            return PROBABLE_PRIME
    return RoundResult(Verdict.COMPOSITE, "miller-rabin")


DEFAULT_TRIAL_LIMIT = 1000

_trial_cache: dict[int, list[int]] = {}


def _trial_primes(limit: int) -> list[int]:
    if limit not in _trial_cache:
        _trial_cache[limit] = sieve_primes(limit - 1)
    return _trial_cache[limit]


def baillie_psw(n: int, method: str = "A", strong: bool = True,
                trial_limit: int = DEFAULT_TRIAL_LIMIT) -> RoundResult:
    """Combined base-2 + Lucas probable-prime check.

    Steps: trial division by primes below trial_limit; base-2 Fermat round
    (or Miller-Rabin when strong); perfect-square rejection; then a Lucas
    round (strong or weak) with parameters from the chosen discriminant
    sweep.  Deterministic: repeated calls always agree.
    """
    if n < 3 or n % 2 == 0:
        raise ValueError("baillie_psw expects odd n >= 3")
    for p in _trial_primes(trial_limit):
        if n == p:
            return PROBABLE_PRIME
        if n % p == 0:
            return RoundResult(Verdict.COMPOSITE, "trial-division", p)
    base2 = miller_rabin_round(n, 2) if strong else fermat_round(n, 2)
    if not base2:
        return base2
    if is_perfect_square(n):
        return RoundResult(Verdict.COMPOSITE, "perfect-square")
    # n is not a square, so the discriminant sweep ends
    params = params_for_d(n, select_d(n, method), method)
    check = strong_lucas_round if strong else lucas_round
    return check(n, params)
