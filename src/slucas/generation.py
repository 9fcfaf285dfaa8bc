"""Probable-prime generation built on the strong Lucas test.

Both generators are one pipeline, ``_search``, over different candidate
streams and screens.  Each candidate meets the screens in order, then a
base-2 strong test, then the choice of a discriminant and up to t strong
Lucas rounds (``classical.run_rounds``); the first candidate to survive
them all is the result.

  * ``strong_luc_generate`` draws uniform odd k-bit candidates and screens
    them by the Jacobi filter, a small-prime gcd, the twin-prime-product
    square check and trial division up to k**2 / 16, with D = 5 unless
    the config fixes it.
  * ``prime_inc_luc`` draws one odd k-bit start and walks upward in steps
    of 2 through a bounded window that ends below 2**k, screening by a
    sieve of the whole window (screen primes, then the trial-division
    primes) built once up front, with a discriminant swept per candidate
    unless the config fixes it; running out of window is a ``Fail``
    result, not an error.

The trial-division stage checks the primes in (1000, k**2 / 16], past the
paper's screen of at most 166 odd primes.  It exists only for k >= 127,
where every k-bit candidate exceeds its bound, so it never rejects a
prime.

Candidates and Lucas parameters come from two separate random streams, so
the candidates drawn do not depend on how many Lucas rounds ran.  Every
screen rejects only composites, so deepening or adding screens changes
the work done but not the prime returned (barring a Lucas liar that a
screen would have caught).  Both generators record a per-candidate
transcript (value plus rejection stage) and are deterministic given
(config, seed).

The screen and trial-division primes are slices of ``kernel``'s prime
table.  A generating process loads ``kernel``, ``lucas``, ``classical``
and this module only: no ``bounds``, no ``dataclasses`` (the records are
NamedTuples), and ``json`` only to write a transcript.
"""

from __future__ import annotations

import functools
import math
import random
from bisect import bisect_right
from typing import NamedTuple

from .classical import miller_rabin_round, run_rounds
from .kernel import (MAX_SCREEN_DEPTH, _primes_to, check_discriminant,
                     is_perfect_square, jacobi)

# Uniform generation keeps drawing until something survives; this cap turns
# a pathological config into a diagnosable error instead of a hang.
MAX_UNIFORM_DRAWS = 10 ** 6

# The screen primes all lie below this; the trial-division stage starts here.
SCREEN_REACH = 1000

# Largest trial-division bound, reached at k = 8192 bits: past it the
# sieve and the cached primes (about 300,000 of them) would keep growing.
MAX_TRIAL_BOUND = 1 << 22


class _GenFields(NamedTuple):
    bits: int
    rounds: int = 1
    d: int | None = None
    screen: int = MAX_SCREEN_DEPTH
    window: int | None = None
    seed: int | None = None


class GenConfig(_GenFields):
    """Shared knobs for both generators.

    ``d`` fixes the discriminant; None means the uniform generator uses 5
    and the incremental one picks a fresh discriminant per candidate by
    the alternating-sign sweep.  ``screen`` is how many leading odd primes
    the divisibility screen uses (2 to 166); the trial-division stage
    past it follows from ``bits`` alone (primes up to bits**2 / 16).
    ``window`` (incremental only) is the number of candidates before
    giving up; None picks 10 * ceil(k * ln 2).  The walk also ends at
    2**k, so a start near the top gets fewer candidates.  Every way of
    building one, ``_replace`` and ``_make`` included, checks the knobs.
    """

    __slots__ = ()

    def __new__(cls, *args, **kwargs):
        self = super().__new__(cls, *args, **kwargs)
        if self.bits < 5:
            raise ValueError("need bits >= 5")
        if self.rounds < 1:
            raise ValueError("need rounds >= 1")
        if not 2 <= self.screen <= MAX_SCREEN_DEPTH:
            raise ValueError(f"need 2 <= screen <= {MAX_SCREEN_DEPTH}")
        if self.window is not None and self.window < 1:
            raise ValueError("need window >= 1")
        if self.d is not None:
            check_discriminant(self.d)
        return self

    @classmethod
    def _make(cls, iterable) -> GenConfig:
        return cls(*iterable)  # the inherited one skips __new__


class GenOutcome(NamedTuple):
    """What a generator run produced.

    ``result`` is the probable prime, or None for the incremental
    generator's Fail.  ``transcript`` has one entry per candidate:
    {"n": hex, "stage": where it stopped, "rounds": rounds it survived};
    it defaults to an empty tuple, so no two outcomes share a list.
    """

    result: int | None
    candidates_tested: int
    rounds_run: int
    transcript: list[dict] | tuple = ()

    def __bool__(self) -> bool:
        return self.result is not None

    def to_jsonl(self) -> str:
        import json
        return "".join(json.dumps(entry) + "\n" for entry in self.transcript)


@functools.lru_cache(maxsize=None)
def _screen(count: int) -> tuple[tuple[int, ...], int]:
    """The first ``count`` odd primes and their product."""
    primes = tuple(_primes_to(SCREEN_REACH)[1:count + 1])
    return primes, math.prod(primes)


def _has_screen_factor(n: int, count: int) -> bool:
    # a screen prime divides n -- unless n IS that prime
    primes, primorial = _screen(count)
    g = math.gcd(n, primorial)
    return g > 1 and (g != n or n not in primes)


def trial_bound(bits: int) -> int:
    """Largest prime the trial-division stage checks for k-bit candidates.

    k**2 / 16, capped at 2**22; the stage is empty below k = 127, where
    this falls under SCREEN_REACH.
    """
    return min(bits * bits // 16, MAX_TRIAL_BOUND)


@functools.lru_cache(maxsize=8)
def _trial_primes(bound: int) -> tuple[int, ...]:
    """The primes in (SCREEN_REACH, bound]."""
    primes = _primes_to(bound)
    return tuple(primes[bisect_right(primes, SCREEN_REACH):])


def _product(factors) -> int:
    # balanced product tree: operands of equal size multiply fastest
    while len(factors) > 1:
        factors = [math.prod(factors[i:i + 2])
                   for i in range(0, len(factors), 2)]
    return factors[0]


@functools.lru_cache(maxsize=8)
def _trial_blocks(bound: int) -> tuple[int, ...]:
    """Products of the trial primes in blocks (1000, 4096], (4096, 16384], ...

    Each block spans about 4x the range of the one before, so a gcd with
    the early, most likely blocks settles most candidates.
    """
    primes = _trial_primes(bound)
    blocks = []
    lo, hi = SCREEN_REACH, 1 << 12
    while lo < bound:
        block = primes[bisect_right(primes, lo):bisect_right(primes, hi)]
        if block:
            blocks.append(_product(block))
        lo, hi = hi, 4 * hi
    return tuple(blocks)


def sieve_window(n0: int, window: int, primes) -> bytearray:
    """Flags for the walk n0, n0 + 2, ..., n0 + 2*(window - 1), n0 odd.

    Flag i is 1 when some p in ``primes`` (odd) divides n0 + 2*i and
    n0 + 2*i != p.  Since n0 + 2*i = 0 (mod p) exactly when
    i = -n0 * 2**-1 (mod p), each prime marks one index class, stride p.
    """
    flags = bytearray(window)
    for p in primes:
        i = (-n0 * ((p + 1) // 2)) % p
        if n0 + 2 * i == p:
            i += p
        if i < window:
            flags[i::p] = b"\x01" * ((window - 1 - i) // p + 1)
    return flags


def _draw_odd(bits: int, rng: random.Random) -> int:
    # top and bottom bit forced: odd, exactly `bits` bits
    return (1 << (bits - 1)) | (rng.getrandbits(bits - 2) << 1) | 1


def _search(cfg: GenConfig, candidates, screens, d: int | None) -> GenOutcome:
    """The candidate loop both generators run.

    ``candidates`` yields (i, n); ``screens`` is an ordered tuple of
    (stage, rejects(i, n)), and the first screen that rejects n names its
    transcript stage.  Survivors meet a base-2 strong test, then up to
    cfg.rounds strong Lucas rounds with discriminant d (None: swept per
    candidate by ``run_rounds``) and fresh parameters each, drawn from a
    stream of their own; round i rejecting gives stage "round-i:<reason>".
    A failed sweep gives stage "d-search" and counts no round.  Returns at
    the first accepted candidate, or with result None once the candidates
    run out.
    """
    # the candidate stream is random.Random(seed); this one is seeded from
    # the same seed under its own label, and both are unseeded for None
    params = random.Random(None if cfg.seed is None
                           else f"slucas-params:{cfg.seed}")
    transcript: list[dict] = []
    rounds_run = 0
    for i, n in candidates:
        entry = {"n": hex(n), "stage": "", "rounds": 0}
        transcript.append(entry)
        for stage, rejects in screens:
            if rejects(i, n):
                break
        else:
            if not miller_rabin_round(n, 2):
                stage = "base-2"
            else:
                res, spent = run_rounds(n, "strong-lucas", cfg.rounds,
                                        params, d)
                if res.reason == "d-search":
                    stage = "d-search"
                else:
                    rounds_run += spent
                    entry["rounds"] = spent if res else spent - 1
                    stage = "accepted" if res else f"round-{spent}:{res.reason}"
        entry["stage"] = stage
        if stage == "accepted":
            return GenOutcome(result=n, candidates_tested=len(transcript),
                              rounds_run=rounds_run, transcript=transcript)
    return GenOutcome(result=None, candidates_tested=len(transcript),
                      rounds_run=rounds_run, transcript=transcript)


def strong_luc_generate(cfg: GenConfig) -> GenOutcome:
    """Uniform-choice generation: draw, screen, test t rounds, repeat.

    The screens, in order: the Jacobi symbol of the discriminant must be
    -1 (which also rules out a shared factor); the candidate must not be
    divisible by any of the first ``screen`` odd primes (one gcd against
    their product), nor have n + 1 a perfect square (which would allow a
    twin-prime product through), nor have a prime factor in
    (1000, trial_bound(bits)] (one gcd per block product), and must pass a
    base-2 strong test.  Each test round draws fresh parameters.
    """
    draws = random.Random(cfg.seed)
    d = 5 if cfg.d is None else cfg.d
    blocks = _trial_blocks(trial_bound(cfg.bits))
    screens = (
        ("jacobi-filter", lambda i, n: jacobi(d, n) != -1),
        ("small-factor", lambda i, n: _has_screen_factor(n, cfg.screen)),
        ("square", lambda i, n: is_perfect_square(n + 1)),
        # n exceeds every trial prime, so a common factor is proper
        ("trial-division",
         lambda i, n: any(math.gcd(n, block) > 1 for block in blocks)),
    )
    candidates = ((i, _draw_odd(cfg.bits, draws))
                  for i in range(MAX_UNIFORM_DRAWS))
    out = _search(cfg, candidates, screens, d)
    if out.result is None:
        raise RuntimeError(f"no survivor in {MAX_UNIFORM_DRAWS} draws; "
                           f"check the configuration")
    return out


def prime_inc_luc(cfg: GenConfig) -> GenOutcome:
    """Incremental search: one random start, +2 steps, bounded window.

    The whole window is sieved once by the screen primes and once by the
    trial-division primes; each candidate the screen primes leave must
    share no factor with a fixed discriminant and meet the
    trial-division flags and a base-2 strong test, and survivors get t
    strong Lucas rounds, with the discriminant fixed by config or chosen
    per candidate.  The window stops short of 2**k, so every candidate
    has k bits.  Returns a Fail outcome (result None) when the window is
    exhausted.
    """
    draws = random.Random(cfg.seed)
    window = cfg.window
    if window is None:
        window = 10 * math.ceil(cfg.bits * math.log(2))
    n0 = _draw_odd(cfg.bits, draws)
    window = min(window, ((1 << cfg.bits) - n0 + 1) // 2)
    flagged = sieve_window(n0, window, _screen(cfg.screen)[0])
    divided = sieve_window(n0, window, _trial_primes(trial_bound(cfg.bits)))
    screens = (
        ("small-factor", lambda i, n: flagged[i]),
        ("shares-factor",
         lambda i, n: cfg.d is not None and math.gcd(cfg.d, n) > 1),
        ("trial-division", lambda i, n: divided[i]),
    )
    candidates = ((i, n0 + 2 * i) for i in range(window))
    return _search(cfg, candidates, screens, cfg.d)
