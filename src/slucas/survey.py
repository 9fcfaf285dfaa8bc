"""Exact small-k surveys: every candidate in the screened k-bit window is
factored and the r-round error probability measured from its liar counts,
one value per discriminant.  Only ``slucas bounds --survey-k`` loads it."""

from __future__ import annotations

import math
from fractions import Fraction
from functools import lru_cache
from itertools import islice
from typing import NamedTuple

from .counting import _liar_parts, is_twin_prime_product
from .kernel import (EXACT_SURVEY_MAX_K, MIN_SCREEN_DEPTH, CapacityError,
                     Factorization, _method_a_sequence, _pairwise,
                     check_discriminant, check_rounds, is_perfect_square,
                     jacobi, odd_primes, sieve_primes, unlimited_digits)


def _fraction_text(x: Fraction) -> str:
    # "p/q" in full: at k = 16 the denominators run to ~7,900 digits
    with unlimited_digits():
        return f"{x.numerator}/{x.denominator}"


# terms per unreduced (numerator, denominator) block in _exact_sum
SUM_BLOCK = 256


def _add_ratios(x: tuple[int, int], y: tuple[int, int]) -> tuple[int, int]:
    return x[0] * y[1] + y[0] * x[1], x[1] * y[1]


def _exact_sum(ratios: list[tuple[int, int]]) -> Fraction:
    # each block of integer ratios is added without reducing, then becomes
    # one Fraction, and the Fractions are added pairwise; Fractions are
    # canonical, so the reduced total is the same whatever the grouping
    if not ratios:
        return Fraction(0)
    blocks = [Fraction(*_pairwise(ratios[i:i + SUM_BLOCK], _add_ratios))
              for i in range(0, len(ratios), SUM_BLOCK)]
    return _pairwise(blocks, Fraction.__add__)


class DiscriminantSurvey(NamedTuple):
    """Exact error measurement for one discriminant over a k-bit window."""

    d: int
    liar_mass: Fraction   # sum of alpha_bar^r over surviving composites
    composites: int       # composites coprime to 2d in the window
    primes: int           # primes coprime to 2d in the window
    q: Fraction           # liar_mass / (liar_mass + primes)

    def as_dict(self) -> dict:
        return {"d": self.d, "q": float(self.q),
                "q_exact": _fraction_text(self.q),
                "liar_mass": _fraction_text(self.liar_mass),
                "composites": self.composites, "primes": self.primes}


class ExactSurvey(NamedTuple):
    """Per-discriminant exact error probabilities for small k."""

    k: int
    r: int
    per_d: tuple[DiscriminantSurvey, ...]
    best: DiscriminantSurvey | None  # the entry of largest q

    def as_dict(self) -> dict:
        return {"k": self.k, "r": self.r, "max_q": float(self.best.q),
                "argmax_d": self.best.d,
                "per_d": [s.as_dict() for s in self.per_d]}


def method_a_discriminants(count: int) -> list[int]:
    """First ``count`` values of the alternating scan 5, -7, 9, -11, ...

    squares dropped (they never arise as a usable discriminant).
    """
    usable = (d for d in _method_a_sequence() if not is_perfect_square(d))
    return list(islice(usable, count))


@lru_cache(maxsize=4)
def _survey_window(k: int) -> tuple:
    """Rows (n, factorization, n is prime) for the odd k-bit n coprime to
    the first MIN_SCREEN_DEPTH odd primes, 3 and 5, minus the twin products
    p(p + 2).

    least[n] is the least prime factor of an odd composite n (< 256 for
    k <= 16), 0 for a prime; the largest p <= 2^(k/2) marks first.  This
    table is the one sieve outside ``kernel``: at k = 16 it builds the
    8,734 rows in 21 ms, where ``kernel.factorize`` on each takes 43 ms
    (Python 3.11, 2-CPU Xeon).
    """
    top = 1 << k
    least = bytearray(top)
    for p in reversed(sieve_primes(math.isqrt(top - 1))[1:]):
        least[p * p::p] = bytes([p]) * len(range(p * p, top, p))
    screen = math.prod(odd_primes(MIN_SCREEN_DEPTH))
    rows = []
    for n in range((top >> 1) | 1, top, 2):
        if math.gcd(n, screen) > 1:
            continue
        factors, m = [], n
        while p := least[m]:
            r = 0
            while m % p == 0:
                m //= p
                r += 1
            factors.append((p, r))
        if m > 1:
            factors.append((m, 1))
        f = Factorization(n, factors)
        if not is_twin_prime_product(f):
            rows.append((n, f, factors == [(n, 1)]))
    return tuple(rows)


def exact_qk1(k: int, r: int = 1,
              d_scan: list[int] | None = None) -> ExactSurvey:
    """Exact r-round error probability at small k, one value per discriminant.

    Enumerates every odd k-bit candidate coprime to 15 (twin-prime
    products removed), factors it, and accumulates the exact per-candidate
    acceptance ratio alpha_bar^r over the composites, skipping candidates
    sharing a factor with 2d.  The returned survey carries one entry per
    scanned discriminant plus the maximum, which is the number the
    reference table prints.  For each d, (d/p) is looked up once per
    prime factor in the window, and each composite n adds the integer
    pair (count^r, (n - (d/n) - 1)^r), summed exactly by ``_exact_sum``.
    """
    if not 2 <= k <= EXACT_SURVEY_MAX_K:
        raise CapacityError(f"exact surveys cover 2 <= k <= {EXACT_SURVEY_MAX_K}")
    check_rounds(r)
    if d_scan is None:
        d_scan = method_a_discriminants(12)
    surveys = []
    window = _survey_window(k)
    factor_primes = {p for _, f, n_prime in window if not n_prime
                     for p, _ in f.factors}
    for d in d_scan:
        check_discriminant(d)
        eps_of = {p: jacobi(d, p) for p in factor_primes}.__getitem__
        ratios = []
        primes = 0
        for n, f, n_prime in window:
            if math.gcd(n, 2 * d) > 1:
                continue
            if n_prime:
                primes += 1
            else:
                count, eps_n = _liar_parts(f, eps_of, True)
                ratios.append((count ** r, (n - eps_n - 1) ** r))
        mass = _exact_sum(ratios)
        q = mass / (mass + primes) if mass else Fraction(0)
        surveys.append(DiscriminantSurvey(
            d=d, liar_mass=mass, composites=len(ratios), primes=primes, q=q))
    return ExactSurvey(k=k, r=r, per_d=tuple(surveys),
                       best=max(surveys, key=lambda s: s.q, default=None))
