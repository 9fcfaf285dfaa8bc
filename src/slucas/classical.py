"""Fermat and Miller-Rabin rounds, the one multi-round driver for every
round method, inline or on the generators' worker pool, and Baillie-PSW
(Baillie and Wagstaff, "Lucas Pseudoprimes", Math. Comp. 1980): trial
division by the primes below 1000 (SCREEN_REACH, which no parameter
moves; ``kernel.least_factor``, the generators' screen), a base-2 strong
test and one strong Lucas round with method-A parameters."""

from __future__ import annotations

import itertools
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


def run_rounds(n: int, method: str, rounds: int, rng, d: int | None = None,
               *, pool=None) -> tuple[RoundResult, int]:
    """Up to ``rounds`` rounds of ``method`` on odd n >= 5, stopping at the
    first rejection.

    ``method`` is "strong-lucas", "lucas", "miller-rabin" or "fermat".
    Each round draws a fresh base, or fresh (P, Q) with discriminant d
    from ``sample_params``; the Lucas methods sweep for d once by method A
    when it is None.  Returns (PROBABLE_PRIME, rounds), or the rejecting
    round's result and number.  A failed sweep (n a square) or parameter
    search (no unit Q) rejects with reason "d-search" or "param-search";
    neither happens for a prime.  Before any draw, a ValueError refuses
    any other n, rounds outside 1..MAX_ROUNDS (128), a d that
    ``kernel.check_discriminant`` refuses, a d sharing a factor with n,
    any d with a base method and a ``pool`` with any but "strong-lucas".

    With the generators' worker ``pool``, before this process runs a
    round it draws the next ``len(pool.pids)`` and ``send``s each to a
    worker; a ``result`` of None (the pool closed) runs here.  After a
    rejection at round i it waits out the rounds still out and restores
    the stream's state saved after draw i, as an inline run leaves it.
    Without a pool no state is read, so ``random.SystemRandom`` serves.
    """
    check_odd(n, 5)
    check_rounds(rounds)
    if pool is not None and method != "strong-lucas":
        raise ValueError(f"the worker pool runs strong-lucas rounds only, "
                         f"not {method}")
    if method in ("miller-rabin", "fermat"):
        if d is not None:
            raise ValueError(f"d applies to the Lucas methods only, "
                             f"not to {method}")
        check = miller_rabin_round if method == "miller-rabin" else fermat_round
        draws = _draws(lambda: rng.randrange(2, n - 1), rounds)
    elif method in ("strong-lucas", "lucas"):
        check = strong_lucas_round if method == "strong-lucas" else lucas_round
        if d is None:
            try:
                d = select_d(n)
            except ParamSearchError:
                return D_SEARCH, 1
        else:
            check_discriminant(d)
            if (shared := math.gcd(d, n)) > 1:
                raise ValueError(f"d shares the factor {shared} with n; "
                                 "the Lucas test needs D coprime to n")
        draws = _draws(lambda: sample_params(n, d, rng), rounds)
    else:
        raise ValueError(f"unknown method {method!r}")
    drawn, states = [], []  # each round's draw; with a pool, state after it
    tickets = {}  # round index -> ticket of the worker running it

    def draw(upto: int) -> int:  # draws rounds until ``upto`` are drawn
        for pair in itertools.islice(draws, max(upto - len(drawn), 0)):
            drawn.append(pair)
            if pool is not None:
                states.append(rng.getstate())
        return len(drawn)

    res, spent = PROBABLE_PRIME, 0
    while res and spent < draw(spent + 1):
        res = pool.result(tickets.pop(spent)) if spent in tickets else None
        if res is None:  # not sent, or lost with its worker
            if pool is not None:
                # ``send`` waits out a worker's base-2 test: it ends sooner
                # than this process's round would
                first = len(drawn)
                for j in range(first, draw(spent + 1 + len(pool.pids))):
                    if drawn[j] is not PARAM_SEARCH:
                        tickets[j] = pool.send(n, drawn[j])
            res = drawn[spent]
            res = res if res is PARAM_SEARCH else check(n, res)
        spent += 1
    for ticket in tickets.values():
        pool.result(ticket)
    if spent < len(drawn):
        rng.setstate(states[spent - 1])
    return res, spent


def _draws(draw, rounds: int):
    # each round's base or (P, Q); a failed parameter search ends them
    for _ in range(rounds):
        try:
            yield draw()
        except ParamSearchError:
            yield PARAM_SEARCH
            return


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
