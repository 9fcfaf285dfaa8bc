"""Fermat and Miller-Rabin rounds, the multi-round driver for every round
method, and the Baillie-PSW check: trial division, a base-2 strong test
and one strong Lucas round with Selfridge's method-A parameters
(Baillie and Wagstaff, "Lucas Pseudoprimes", Math. Comp. 1980)."""

from __future__ import annotations

import functools
import math

from .kernel import _primes_to, is_perfect_square, split_power_of_two
from .lucas import (LucasParams, ParamSearchError, RoundResult, Verdict,
                    PROBABLE_PRIME, lucas_round, sample_params, select_d,
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
    g = math.gcd(a, n)
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
    g = math.gcd(a, n)
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


def run_rounds(n: int, method: str, rounds: int, rng,
               d: int | None = None) -> tuple[RoundResult, int]:
    """Up to ``rounds`` rounds of ``method`` on odd n >= 5, stopping at the
    first rejection.

    ``method`` is "strong-lucas", "lucas", "miller-rabin" or "fermat".
    Each round draws a fresh base, or fresh (P, Q) with discriminant d
    from ``sample_params``; the Lucas methods sweep for d once by method A
    when it is None.  Returns (PROBABLE_PRIME, rounds), or the rejecting
    round's result and number.  A failed sweep (n a square) or parameter
    search (no unit Q) rejects with reason "d-search" or "param-search";
    neither happens for a prime.
    """
    if method in ("miller-rabin", "fermat"):
        check = miller_rabin_round if method == "miller-rabin" else fermat_round
        draw = lambda: rng.randrange(2, n - 1) if n > 5 else 2
    elif method in ("strong-lucas", "lucas"):
        check = strong_lucas_round if method == "strong-lucas" else lucas_round
        if d is None:
            try:
                d = select_d(n)
            except ParamSearchError:
                return RoundResult(Verdict.COMPOSITE, "d-search"), 1
        draw = lambda: sample_params(n, d, rng)
    else:
        raise ValueError(f"unknown method {method!r}")
    for i in range(1, rounds + 1):
        try:
            res = check(n, draw())
        except ParamSearchError:
            res = RoundResult(Verdict.COMPOSITE, "param-search")
        if not res:
            return res, i
    return PROBABLE_PRIME, rounds


DEFAULT_TRIAL_LIMIT = 1000
# the first few primes divide most composites, so they are tried one by
# one; the rest share one gcd against their product
TRIAL_HEAD = 8


@functools.lru_cache(maxsize=8)
def _trial_primes(limit: int) -> tuple[tuple[int, ...], tuple[int, ...], int]:
    """Primes below limit: the first TRIAL_HEAD, the rest, and their product."""
    primes = _primes_to(limit - 1)
    tail = tuple(primes[TRIAL_HEAD:])
    return tuple(primes[:TRIAL_HEAD]), tail, math.prod(tail)


def baillie_psw(n: int, trial_limit: int = DEFAULT_TRIAL_LIMIT) -> RoundResult:
    """Baillie-PSW: base-2 strong test plus a method-A strong Lucas round.

    Steps: trial division by primes below trial_limit; a base-2
    Miller-Rabin round; perfect-square rejection; then one strong Lucas
    round with P = 1, Q = (1 - D)/4 for the first D of 5, -7, 9, ...
    with (D/n) = -1.  Deterministic: repeated calls always agree.
    """
    if n < 3 or n % 2 == 0:
        raise ValueError("baillie_psw expects odd n >= 3")
    if n == 3:
        return PROBABLE_PRIME  # the base-2 round below needs n >= 5
    head, tail, product = _trial_primes(trial_limit)
    for p in head:
        if n == p:
            return PROBABLE_PRIME
        if n % p == 0:
            return RoundResult(Verdict.COMPOSITE, "trial-division", p)
    g = math.gcd(n, product)
    if g > 1:
        # g == n also when n is a product of tail primes, such as 29 * 31
        if g == n and n in tail:
            return PROBABLE_PRIME
        factor = next(p for p in tail if g % p == 0)
        return RoundResult(Verdict.COMPOSITE, "trial-division", factor)
    base2 = miller_rabin_round(n, 2)
    if not base2:
        return base2
    if is_perfect_square(n):
        return RoundResult(Verdict.COMPOSITE, "perfect-square")
    # n is not a square, so the discriminant sweep ends
    d = select_d(n)
    return strong_lucas_round(n, LucasParams(1, (1 - d) // 4))
