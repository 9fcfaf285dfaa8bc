"""Fermat and Miller-Rabin rounds, the multi-round driver for every round
method, and Baillie-PSW (Baillie and Wagstaff, "Lucas Pseudoprimes", Math.
Comp. 1980): trial division by the primes below 1000 (SCREEN_REACH, which
no parameter moves; ``kernel.least_factor``, the generators' screen), a
base-2 strong test and one strong Lucas round with method-A parameters."""

from __future__ import annotations

import math

from .kernel import (SCREEN_REACH, check_discriminant, check_odd,
                     check_rounds, is_strong_probable_prime, least_factor,
                     sieve_primes)
from .lucas import (COMPOSITE, PROBABLE_PRIME, LucasParams, ParamSearchError,
                    RoundResult, lucas_round, sample_params, select_d,
                    strong_lucas_round)

# The rejections that carry no factor, built once (see lucas.PROBABLE_PRIME).
MILLER_RABIN = RoundResult(COMPOSITE, "miller-rabin")
FERMAT = RoundResult(COMPOSITE, "fermat")
PERFECT_SQUARE = RoundResult(COMPOSITE, "perfect-square")
D_SEARCH = RoundResult(COMPOSITE, "d-search")
PARAM_SEARCH = RoundResult(COMPOSITE, "param-search")

# baillie_psw's trial-division rejection for each prime below SCREEN_REACH
_trial_rejections = {p: RoundResult(COMPOSITE, "trial-division", p)
                     for p in sieve_primes(SCREEN_REACH)}


def _base_round(n: int, a: int, passes, rejection: RoundResult) -> RoundResult:
    # a base sharing a factor with n certifies compositeness outright, so
    # that case returns the factor rather than a verdict on ``passes``
    check_odd(n, 3)
    if not 2 <= a <= n - 2:
        raise ValueError("base must satisfy 2 <= a <= n-2")
    g = math.gcd(a, n)
    if g > 1:
        return RoundResult(COMPOSITE, "bad-base", g)
    return PROBABLE_PRIME if passes(n, a) else rejection


def fermat_round(n: int, a: int) -> RoundResult:
    """One Fermat round: does a**(n-1) = 1 mod n?"""
    return _base_round(n, a, lambda n, a: pow(a, n - 1, n) == 1, FERMAT)


def miller_rabin_round(n: int, a: int) -> RoundResult:
    """One Miller-Rabin round at base a (kernel.is_strong_probable_prime)."""
    return _base_round(n, a, is_strong_probable_prime, MILLER_RABIN)


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
    neither happens for a prime.  Before any round runs, a ValueError
    refuses any other n, rounds outside 1..MAX_ROUNDS (128), a d that
    ``kernel.check_discriminant`` refuses, a d sharing a factor with n
    and any d with a base method.

    It is ``draw_rounds``, ``round_result`` and ``first_rejection`` with
    each round run as it is drawn; the generators' worker pool runs the
    same three with its rounds drawn up front.
    """
    check, draws = draw_rounds(n, method, rounds, rng, d)
    return first_rejection(round_result(check, n, drawn) for drawn in draws)


def draw_rounds(n: int, method: str, rounds: int, rng, d: int | None = None):
    """``run_rounds``' checks and set-up: returns (check, draws).

    ``check(n, drawn)`` is one round of ``method``.  ``draws`` yields each
    round's base or (P, Q), drawn from rng only when it is asked for, at
    most ``rounds`` of them; a failed sweep for d or parameter search
    yields its rejection in place of a draw and ends there.  The sweep
    runs here, and every ValueError ``run_rounds`` names is raised here,
    before any draw.
    """
    check_odd(n, 5)
    check_rounds(rounds)
    if method in ("miller-rabin", "fermat"):
        if d is not None:
            raise ValueError(f"d applies to the Lucas methods only, "
                             f"not to {method}")
        check = miller_rabin_round if method == "miller-rabin" else fermat_round
        draw = lambda: rng.randrange(2, n - 1)
    elif method in ("strong-lucas", "lucas"):
        check = strong_lucas_round if method == "strong-lucas" else lucas_round
        if d is None:
            try:
                d = select_d(n)
            except ParamSearchError:
                return check, iter((D_SEARCH,))
        else:
            check_discriminant(d)
            if (shared := math.gcd(d, n)) > 1:
                raise ValueError(f"d shares the factor {shared} with n; "
                                 "the Lucas test needs D coprime to n")
        draw = lambda: sample_params(n, d, rng)
    else:
        raise ValueError(f"unknown method {method!r}")
    return check, _draws(draw, rounds)


def _draws(draw, rounds: int):
    for _ in range(rounds):
        try:
            yield draw()
        except ParamSearchError:
            yield PARAM_SEARCH
            return


def round_result(check, n: int, drawn) -> RoundResult:
    """One round: ``check`` on n with a drawn base or (P, Q), or the
    rejection ``draw_rounds`` yielded in its place."""
    return drawn if isinstance(drawn, RoundResult) else check(n, drawn)


def first_rejection(results) -> tuple[RoundResult, int]:
    """The first rejecting result among ``results``, in round order, with
    its round number, or (PROBABLE_PRIME, how many passed); it reads no
    result past that rejection."""
    spent = 0
    for spent, res in enumerate(results, 1):
        if not res:
            return res, spent
    return PROBABLE_PRIME, spent


def baillie_psw(n: int) -> RoundResult:
    """Baillie-PSW: base-2 strong test plus a method-A strong Lucas round.

    Steps: trial division by the primes below SCREEN_REACH (n passes if
    it is one, else fails on the least that divides it); a base-2
    Miller-Rabin round; perfect-square rejection; then one strong Lucas
    round with P = 1, Q = (1 - D)/4 for the first D of 5, -7, 9, ...
    with (D/n) = -1.  Deterministic: repeated calls always agree.
    """
    check_odd(n, 3)
    if (p := least_factor(n, 1, SCREEN_REACH - 1)) == n:
        return PROBABLE_PRIME
    if p > 1:
        return _trial_rejections[p]
    # n is odd, at least 5 and has no factor below SCREEN_REACH: all that
    # miller_rabin_round would check before the strong test itself
    if not is_strong_probable_prime(n, 2):
        return MILLER_RABIN
    try:
        d = select_d(n)
    except ParamSearchError:  # only a square has no D with (D/n) = -1
        return PERFECT_SQUARE
    return strong_lucas_round(n, LucasParams(1, (1 - d) // 4))
