"""Probable-prime generation built on the strong Lucas test.

Both generators are one run, ``_search``, over different candidate
streams and screens.  It tests at most ``window`` candidates; each meets
the screens in order, a base-2 strong test last, then the choice of a
discriminant and up to t strong Lucas rounds (``classical.run_rounds``).
The first candidate to survive them all is the result, and a stream that
runs dry is a ``Fail`` result, not an error.

``strong_luc_generate`` draws uniform odd k-bit candidates;
``prime_inc_luc`` walks upward in steps of 2 from one odd k-bit start
through a window it sieves once up front (``kernel.sieve_window``, the
sieve that grows the one prime table in ``kernel``).

Trial division checks the primes in (1000, k**2 / 16], past the paper's
screen of at most 166 odd primes, from k = 127 on, where every candidate
exceeds them; both are ``kernel.least_factor``, as in Baillie-PSW.
Candidates and Lucas parameters come from separate random streams, so
the candidates drawn do not depend on how many Lucas rounds ran.  Every
screen rejects only composites, so deepening or adding screens changes
the work, not the prime returned (barring a Lucas liar that a screen
would have caught).  Both generators record a per-candidate transcript
(value plus rejection stage) and are deterministic given (config, seed).

From POOL_BITS bits on at a process's first call, and from
LATER_POOL_BITS bits on at its later ones, the base-2 tests and the
survivors' later Lucas rounds run in worker processes (``workers``):
each request goes out by ``send``, and its one reply line comes back by
``result`` as a ``RoundResult``.  This process reads ahead while a
worker is free: it screens the next candidates and sends their tests to
whichever worker answers first, and takes the results back in candidate
order.  For a survivor, ``classical.run_rounds`` draws the next rounds
as workers free up and sends them out before it runs one here, then
rewinds the parameter stream to where a serial run would stop.  The
screens, the draws and the choice of discriminant stay in the calling
process, so the prime, the counts and the transcript are those of an
inline run.

A generating process loads ``kernel``, ``lucas``, ``classical`` and this
module only: no ``bounds``, no ``dataclasses`` (the records are
NamedTuples), ``json`` only to write a transcript, and ``workers`` only
for a call that runs on the pool.
"""

from __future__ import annotations

import math
import os
import random
from collections import deque
from typing import NamedTuple

from .classical import D_SEARCH, run_rounds
from .kernel import (MAX_SCREEN_DEPTH, MAX_WINDOW, SCREEN_REACH,
                     check_discriminant, check_integer, check_rounds,
                     check_screen_depth, is_perfect_square,
                     is_strong_probable_prime, jacobi, least_factor,
                     odd_primes, primes_in, sieve_window)

# Largest trial-division bound, reached at k = 8192 bits: past it the
# sieve and the cached primes (about 300,000 of them) would keep growing.
MAX_TRIAL_BOUND = 1 << 22

# From this size on, a process's first call runs on the workers.  Below
# it, a process that makes one prime, as `slucas generate` does, spends
# more on forking and ending them than they save it.
POOL_BITS = 768
# From this size on, every later call runs on them: a process that has
# made a prime this large will likely make more.
LATER_POOL_BITS = 512
_callers: set[int] = set()  # processes that made a call of LATER_POOL_BITS


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
    the alternating-sign sweep.  ``rounds`` is 1 to 128.  ``screen`` is
    how many leading odd primes the divisibility screen uses (2 to 166);
    the trial-division stage past it follows from ``bits`` alone (primes
    up to bits**2 / 16).
    ``window`` is the most candidates either generator tests before it
    fails, 1 to MAX_WINDOW; None picks 10 * ceil(k * ln 2) for the
    incremental walk, which also ends at 2**k, and min(MAX_WINDOW,
    64 * 2**(k - 2)) for uniform draws, which miss an odd k-bit value
    with probability below e^-64.  Every way of building one, ``_replace``
    and ``_make`` included, checks the knobs.
    """

    __slots__ = ()

    def __new__(cls, *args, **kwargs):
        self = super().__new__(cls, *args, **kwargs)
        check_integer(self.bits, "bits")
        if self.bits < 5:
            raise ValueError("need bits >= 5")
        check_rounds(self.rounds)
        check_screen_depth(self.screen)
        if self.window is not None:
            check_integer(self.window, "window")
            if not 1 <= self.window <= MAX_WINDOW:
                raise ValueError(f"need window >= 1 and at most {MAX_WINDOW}")
        if self.d is not None:
            check_discriminant(self.d)
        return self

    @classmethod
    def _make(cls, iterable) -> GenConfig:
        return cls(*iterable)  # the inherited one skips __new__


class GenOutcome(NamedTuple):
    """What a generator run produced.

    ``result`` is the probable prime, or None (Fail) when no candidate in
    the window survived.  ``transcript`` has one entry per candidate:
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


def trial_bound(bits: int) -> int:
    """Largest prime the trial-division stage checks for k-bit candidates.

    k**2 / 16, capped at 2**22; the stage is empty below k = 127, where
    this falls under SCREEN_REACH.
    """
    return min(bits * bits // 16, MAX_TRIAL_BOUND)


def _draw_odd(bits: int, rng: random.Random) -> int:
    # top and bottom bit forced: odd, exactly `bits` bits
    return (1 << (bits - 1)) | (rng.getrandbits(bits - 2) << 1) | 1


def _take_pool(bits: int):
    """The worker pool for a call at ``bits``, or None to run it inline:
    from POOL_BITS bits at a process's first call, and from
    LATER_POOL_BITS at every call after one of that size."""
    if bits < LATER_POOL_BITS:
        return None
    pid = os.getpid()
    if pid not in _callers:
        _callers.add(pid)
        if bits < POOL_BITS:
            return None
    from . import workers
    return workers.take()


def _stages(window: int, candidate, screens, pool):
    """Each candidate i < ``window`` in order, with the stage that stopped
    it: the first of ``screens`` to reject it, else "base-2" if a base-2
    strong test does, else None.

    With a pool, this screens ahead until it holds one survivor of the
    screens that no worker tests yet, ``send``s it to the first worker
    free, and waits for whichever answers first; a ``result`` of None (the
    pool closed) is tested here.  A candidate is yielded once its stage is
    known, before any refill, so a base-2 pass leaves at most one test in
    flight per other worker.
    """
    ahead = deque()  # [n, stage, ticket of its test on the pool], oldest first
    deck = None  # the survivor in ``ahead`` that waits for a free worker
    i = 0
    while ahead or i < window:
        pooled = pool is not None and bool(pool.pids)
        if not pooled:  # none, or closed: every test left runs here
            deck = None
        head = ahead[0] if ahead else None
        if head is not None and head is not deck and not (
                pooled and pool.waiting(head[2])):
            n, stage, ticket = ahead.popleft()
            if stage is None:
                passed = None if ticket is None else pool.result(ticket)
                if passed is None:  # tested here, or lost with its worker
                    passed = is_strong_probable_prime(n, 2)
                if not passed:
                    stage = "base-2"
            yield n, stage
        elif deck is not None and pool.idle():
            deck[2] = pool.send(deck[0])
            deck = None
        elif i < window and deck is None and (pooled or not ahead):
            n = candidate(i)
            for stage, rejects in screens:
                if rejects(i, n):
                    break
            else:
                stage = None
            ahead.append([n, stage, None])
            if stage is None and pooled:
                deck = ahead[-1]
            i += 1
        else:
            pool.wait()


def _search(cfg: GenConfig, window: int, candidate, screens,
            d: int | None) -> GenOutcome:
    """The whole run of either generator.

    ``candidate(i)`` is the i-th candidate, i < ``window``; ``screens`` is
    an ordered tuple of (stage, rejects(i, n)), after which comes a base-2
    strong test (``_stages``), and the first that rejects n names its
    transcript stage.  Survivors meet up to cfg.rounds strong Lucas rounds
    (``run_rounds``, on the pool if there is one) with discriminant d
    (None: swept per candidate) and fresh parameters each, drawn from a
    stream of their own; round i rejecting gives stage "round-i:<reason>".
    A failed sweep gives stage "d-search" and counts no round.  The result
    is the first accepted candidate, or None (Fail) once ``window``
    candidates are spent.
    """
    # the candidate stream is random.Random(seed); this one is seeded from
    # the same seed under its own label, and both are unseeded for None
    params = random.Random(None if cfg.seed is None
                           else f"slucas-params:{cfg.seed}")
    transcript: list[dict] = []
    rounds_run, result = 0, None
    pool = _take_pool(cfg.bits)
    try:
        for n, stage in _stages(window, candidate, screens, pool):
            survived = 0
            if stage is None:
                res, spent = run_rounds(n, "strong-lucas", cfg.rounds,
                                        params, d, pool=pool)
                if res == D_SEARCH:
                    stage = "d-search"
                else:
                    rounds_run += spent
                    survived = spent if res else spent - 1
                    stage = ("accepted" if res
                             else f"round-{spent}:{res.reason}")
            transcript.append({"n": hex(n), "stage": stage,
                               "rounds": survived})
            if stage == "accepted":
                result = n
                break
    finally:
        # the tests read ahead are waited for, so none outlives the search
        if pool is not None:
            pool.release()
    return GenOutcome(result=result, candidates_tested=len(transcript),
                      rounds_run=rounds_run, transcript=transcript)


def strong_luc_generate(cfg: GenConfig) -> GenOutcome:
    """Uniform-choice generation: draw, screen, test t rounds, repeat.

    Each of up to ``window`` draws must have (d/n) = -1 (which also rules
    out a shared factor), no factor among the first ``screen`` odd primes,
    n + 1 not a perfect square (which would let a twin-prime product
    through) and no prime factor in (1000, trial_bound(bits)] (both by
    ``least_factor``: one gcd per block product), and must pass a base-2
    strong test.  Each test round draws fresh parameters; a window with no
    survivor is a Fail.
    """
    draws = random.Random(cfg.seed)
    d = 5 if cfg.d is None else cfg.d
    top = odd_primes(cfg.screen)[-1]  # the screen is (2, top]
    bound = trial_bound(cfg.bits)
    screens = (
        ("jacobi-filter", lambda i, n: jacobi(d, n) != -1),
        ("small-factor", lambda i, n: least_factor(n, 2, top) not in (1, n)),
        ("square", lambda i, n: is_perfect_square(n + 1)),
        # n exceeds every trial prime, so a common factor is proper
        ("trial-division",
         lambda i, n: least_factor(n, SCREEN_REACH, bound) > 1),
    )
    window = cfg.window or min(MAX_WINDOW, 64 << (cfg.bits - 2))
    return _search(cfg, window, lambda i: _draw_odd(cfg.bits, draws),
                   screens, d)


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
    window = cfg.window or 10 * math.ceil(cfg.bits * math.log(2))
    n0 = _draw_odd(cfg.bits, draws)
    window = min(window, ((1 << cfg.bits) - n0 + 1) // 2)
    flagged = sieve_window(n0, window, odd_primes(cfg.screen))
    divided = sieve_window(n0, window,
                           primes_in(SCREEN_REACH, trial_bound(cfg.bits)))
    screens = (
        ("small-factor", lambda i, n: flagged[i]),
        ("shares-factor",
         lambda i, n: cfg.d is not None and math.gcd(cfg.d, n) > 1),
        ("trial-division", lambda i, n: divided[i]),
    )
    return _search(cfg, window, lambda i: n0 + 2 * i, screens, cfg.d)
