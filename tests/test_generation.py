import hashlib
import json
import math
import os
import random
import signal
from collections import Counter

import pytest
from hypothesis import given, settings, strategies as st

from slucas import classical, generation, lucas, workers
from slucas.generation import (LATER_POOL_BITS, MAX_SCREEN_DEPTH, POOL_BITS,
                               GenConfig, GenOutcome, prime_inc_luc,
                               sieve_window, strong_luc_generate)
from slucas.kernel import (MAX_BOUND_K, MAX_ROUNDS, MAX_WINDOW, SCREEN_REACH,
                           _prime_blocks, jacobi, least_factor, primes_in,
                           sieve_primes)

from conftest import mr_oracle

GENERATORS = (strong_luc_generate, prime_inc_luc)

# prime_inc_luc(GenConfig(bits=40, rounds=2, seed=s)).result for s = 0..39,
# as produced before the screens were deepened and the RNG was split
PINNED_INCREMENTAL_40 = [
    763167772579, 860147639311, 1030414488361, 869627494423, 714992208817,
    692545452257, 865808198653, 1067933591719, 749271698053, 888740465917,
    571843994039, 1026088127203, 699861233143, 706599502667, 885680913137,
    669716330489, 810559308667, 777577920923, 611442409423, 572752149709,
    952672190677, 774511018571, 1056202976131, 978607140911, 762033223789,
    973900690493, 1054391203319, 813024400327, 954453034393, 588823859159,
    992473153549, 807559321039, 1057227002891, 640554243697, 743277895303,
    734857691171, 578349133669, 882031702973, 778587150487, 688997375837,
]


# strong_luc_generate(GenConfig(bits=1024, rounds=3, seed=s)) for s = 0..2:
# (candidates_tested, rounds_run, low 64 bits of the result), as produced
# before the trial-division stage was added
PINNED_UNIFORM_1024 = [
    (847, 3, 0xb6e162e34ef8d6a9),
    (630, 3, 0x80b7029ec95ac225),
    (488, 3, 0x6e42345a3cdf8323),
]


# sha256 of to_jsonl() for seeded runs; between them the transcripts hold
# every stage both generators write: jacobi-filter, small-factor,
# shares-factor, trial-division, base-2, d-search (the walk meets
# 1093^2, a base-2 strong pseudoprime), round-1:no-zero-term and accepted
PINNED_TRANSCRIPTS = [
    (strong_luc_generate, dict(bits=256, rounds=3, seed=1),
     "0516e2b7598498f90a3349321e38b59a65141ec37e2f2299adb03d7c92165738"),
    (strong_luc_generate, dict(bits=21, rounds=3, screen=2, seed=5977),
     "f462bd3b3f3788852a3373198a7cf3abe75caba171d62eedfe706e0c975f6030"),
    (prime_inc_luc, dict(bits=256, rounds=3, seed=1),
     "e4725bfbe4df36f11c2759c3a9399369c8a9780127a0509920298aeba737df08"),
    (prime_inc_luc, dict(bits=256, rounds=3, d=13, screen=2, seed=1),
     "e4f15068be9ea70017f201a9f1d715c6827d596de150d3644862096acf26a3c0"),
    (prime_inc_luc, dict(bits=21, rounds=3, screen=2, seed=686),
     "0fb4379160b5619926e44a98c1623b4bd8564101b75b9f4c6d18037c8923afc7"),
    (prime_inc_luc, dict(bits=21, rounds=3, screen=2, seed=56075),
     "410f57c5bd793c43a281358629867f6fb454c416db5b35d772e5fb4c9d50c760"),
]

def test_config_validation(monkeypatch):
    # past MAX_BOUND_K a size is refused before any draw; 2^61 - 1 bits
    # used to reach a MemoryError, 10^10 an OverflowError in getrandbits
    def no_draw(*args):
        raise AssertionError("drew a candidate for a refused size")
    monkeypatch.setattr(generation, "_draw_odd", no_draw)
    refused = "need bits >= 5 and at most 8192"
    for bits in (4, MAX_BOUND_K + 1, 10 ** 10, 2 ** 61 - 1):
        with pytest.raises(ValueError, match=refused):
            GenConfig(bits=bits)
    with pytest.raises(ValueError, match=refused):
        GenConfig(bits=64)._replace(bits=MAX_BOUND_K + 1)
    with pytest.raises(ValueError, match=refused):
        GenConfig._make((MAX_BOUND_K + 1,))
    assert GenConfig(bits=MAX_BOUND_K).bits == 8192
    with pytest.raises(ValueError):
        GenConfig(bits=32, rounds=0)
    for rounds in (MAX_ROUNDS + 1, 10 ** 20):  # a prime would meet them all
        with pytest.raises(ValueError, match=f"at most {MAX_ROUNDS}"):
            GenConfig(bits=64, rounds=rounds)
    assert GenConfig(bits=64, rounds=MAX_ROUNDS).rounds == 128
    # 4,401 digits, past the interpreters' default limit on decimal text
    with pytest.raises(ValueError, match="0 or 1 mod 4"):
        GenConfig(bits=64, d=10 ** 4400 + 3)
    with pytest.raises(ValueError):
        GenConfig(bits=32, d=9)        # square discriminant
    with pytest.raises(ValueError, match="square"):
        GenConfig(bits=64, d=0)        # 0 = 0^2
    with pytest.raises(ValueError):
        GenConfig(bits=32, d=6)        # 6 % 4 == 2
    with pytest.raises(ValueError):
        GenConfig(bits=32, screen=1)
    with pytest.raises(ValueError):
        GenConfig(bits=32, screen=MAX_SCREEN_DEPTH + 1)
    with pytest.raises(ValueError):
        GenConfig(bits=32, screen=200)
    assert GenConfig(bits=32).screen == MAX_SCREEN_DEPTH == 166
    with pytest.raises(ValueError, match="window >= 1"):
        GenConfig(bits=32, window=0)
    with pytest.raises(ValueError, match=f"at most {MAX_WINDOW}"):
        GenConfig(bits=32, window=MAX_WINDOW + 1)
    assert GenConfig(bits=32, window=MAX_WINDOW).window == 10 ** 6
    GenConfig(bits=32, d=-7)           # fine


def test_uniform_generator_output_shape():
    for seed in range(40):
        out = strong_luc_generate(GenConfig(bits=40, rounds=2, seed=seed))
        n = out.result
        assert n is not None and n.bit_length() == 40 and n % 2 == 1
        assert mr_oracle(n)
        assert out.candidates_tested >= 1
        assert out.rounds_run >= 2


def test_incremental_generator_output_shape():
    for seed in range(40):
        out = prime_inc_luc(GenConfig(bits=40, rounds=2, seed=seed))
        n = out.result
        assert n is not None and n.bit_length() == 40 and n % 2 == 1
        assert mr_oracle(n)


def test_seeded_runs_are_reproducible():
    for fn in (strong_luc_generate, prime_inc_luc):
        a = fn(GenConfig(bits=36, rounds=2, seed=1234))
        b = fn(GenConfig(bits=36, rounds=2, seed=1234))
        assert a.result == b.result
        assert a.transcript == b.transcript
        c = fn(GenConfig(bits=36, rounds=2, seed=1235))
        assert c.result != a.result    # astronomically unlikely to collide


def test_generators_differ_in_strategy():
    # incremental walks up from its start; uniform redraws every time
    out = prime_inc_luc(GenConfig(bits=32, rounds=1, seed=77))
    ns = [int(rec["n"], 16) for rec in map(json.loads,
          out.to_jsonl().strip().split("\n"))]
    assert ns == sorted(ns)
    assert all(b - a == 2 for a, b in zip(ns, ns[1:]))


def test_incremental_fail_on_barren_window():
    # tight windows over composite-rich stretches must Fail, not loop
    saw_fail = False
    for seed in range(300):
        out = prime_inc_luc(GenConfig(bits=7, rounds=2, window=2, seed=seed))
        if out.result is None:
            saw_fail = True
            assert out.candidates_tested == 2
            stages = [rec["stage"] for rec in map(json.loads,
                      out.to_jsonl().strip().split("\n"))]
            assert "accepted" not in stages
    assert saw_fail


def test_uniform_fail_on_barren_window():
    # -6678671 = -17*19*23*29*31 is 1 mod 4 and no square, and its Jacobi
    # symbol is +1 at every 5-bit prime, so every draw is filtered out
    out = strong_luc_generate(GenConfig(bits=5, d=-6678671, window=1000,
                                        seed=1))
    assert not out and out.candidates_tested == 1000
    assert {e["stage"] for e in out.transcript} <= {"jacobi-filter",
                                                    "small-factor"}
    # the default window is 64 draws per odd 5-bit value, not 10^6
    out = strong_luc_generate(GenConfig(bits=5, d=-6678671, seed=1))
    assert not out and out.candidates_tested == len(out.transcript) == 512


@settings(max_examples=40, deadline=None)
@given(st.integers(0, 2**64), st.integers(16, 64), st.integers(1, 5))
def test_uniform_window_caps_the_draws(seed, bits, window):
    out = strong_luc_generate(GenConfig(bits=bits, window=window, seed=seed))
    assert out.candidates_tested == len(out.transcript) <= window
    assert out or out.candidates_tested == window


def test_incremental_walk_ends_below_two_to_the_bits():
    # a start near 2^bits gets a shorter window, never a (bits+1)-bit prime
    for bits in range(5, 17):
        for seed in range(200):
            out = prime_inc_luc(GenConfig(bits=bits, rounds=2, seed=seed))
            assert out.candidates_tested == len(out.transcript)
            assert int(out.transcript[-1]["n"], 16) < 1 << bits
            assert out.result is None or out.result.bit_length() == bits


# At k = 12 every odd composite below 2^12 has a factor below 64, inside
# the default screen, so every output is prime and each generator's law
# over the 12-bit primes is exact.
LAW_BITS = 12
LAW_PRIMES = [p for p in sieve_primes(1 << LAW_BITS)
              if p >> (LAW_BITS - 1)]
LAW_SEEDS = range(3000)


def _chi_square_z(counts, weights):
    """Pearson's chi-square of ``counts`` against the law proportional to
    ``weights`` (a dict over every cell), as a z-score."""
    assert set(counts) <= set(weights)
    total, mass = sum(counts.values()), sum(weights.values())
    chi2 = sum((counts[cell] - total * w / mass) ** 2
               / (total * w / mass) for cell, w in weights.items())
    df = len(weights) - 1
    return (chi2 - df) / math.sqrt(2 * df)


def test_uniform_mode_is_uniform_over_the_primes_it_can_output():
    # d = 5: only primes with (5/p) = -1 pass the Jacobi filter
    law = {p: 1 for p in LAW_PRIMES if jacobi(5, p) == -1}
    assert (len(law), len(LAW_PRIMES)) == (128, 255)
    counts = Counter(strong_luc_generate(GenConfig(
        bits=LAW_BITS, rounds=2, seed=seed)).result for seed in LAW_SEEDS)
    assert abs(_chi_square_z(counts, law)) < 4


def test_incremental_mode_favours_primes_after_long_gaps():
    # every odd start reaches 2^12 in 2^10 steps: p is the output of the
    # starts in (p', p], p' the prime before it or 2^11 - 1; a start past
    # the last prime, 4093, fails (probability 1/1024), and the law holds
    # given that none does
    before = [(1 << (LAW_BITS - 1)) - 1] + LAW_PRIMES[:-1]
    law = {p: (p - q) // 2 for p, q in zip(LAW_PRIMES, before)}
    outs = (prime_inc_luc(GenConfig(bits=LAW_BITS, rounds=2,
                                    window=1 << (LAW_BITS - 2), seed=seed))
            for seed in LAW_SEEDS)
    counts = Counter(out.result for out in outs if out)
    assert abs(_chi_square_z(counts, law)) < 4


def test_incremental_fail_rate_is_the_share_of_barren_starts():
    # a window of 4 fails from each odd start with no prime among its
    # candidates, the walk stopping below 2^12
    primes, top = set(LAW_PRIMES), 1 << LAW_BITS
    starts = range((1 << (LAW_BITS - 1)) + 1, top, 2)
    barren = sum(primes.isdisjoint(range(n0, min(n0 + 8, top), 2))
                 for n0 in starts)
    assert barren == 284
    p = barren / len(starts)
    fails = sum(not prime_inc_luc(GenConfig(bits=LAW_BITS, rounds=2,
                                            window=4, seed=seed))
                for seed in LAW_SEEDS)
    n = len(LAW_SEEDS)
    assert abs(fails - n * p) / math.sqrt(n * p * (1 - p)) < 4


def test_outcome_truthiness():
    ok = GenOutcome(result=101, candidates_tested=1, rounds_run=1,
                    transcript=[])
    fail = GenOutcome(result=None, candidates_tested=5, rounds_run=0,
                      transcript=[])
    assert ok and not fail


def test_window_sieve_flags_screen_multiples():
    # 7-10 bit windows run over the screen primes themselves, which must
    # stay unflagged while their other multiples are flagged
    primes = [p for p in sieve_primes(1000) if p > 2][:MAX_SCREEN_DEPTH]
    window = 40
    for bits in range(7, 11):
        for n0 in range((1 << (bits - 1)) + 1, 1 << bits, 2):
            flags = sieve_window(n0, window, primes)
            want = [any(n % p == 0 and n != p for p in primes)
                    for n in range(n0, n0 + 2 * window, 2)]
            assert list(map(bool, flags)) == want, n0


def test_gcd_screen_spares_screen_primes():
    # the uniform generator's screen: the first MAX_SCREEN_DEPTH odd primes
    primes = [p for p in sieve_primes(1000) if p > 2][:MAX_SCREEN_DEPTH]
    top = sieve_primes(SCREEN_REACH)[MAX_SCREEN_DEPTH]
    assert primes_in(2, top) == primes
    for n in range(17, 1 << 11, 2):
        want = any(n % p == 0 and n != p for p in primes)
        assert (least_factor(n, 2, top) not in (1, n)) == want, n


def test_fixed_discriminant_is_honored():
    out = strong_luc_generate(GenConfig(bits=24, rounds=1, d=13, seed=5))
    assert out.result is not None
    assert mr_oracle(out.result)


def test_transcript_stage_vocabulary():
    out = strong_luc_generate(GenConfig(bits=20, rounds=2, seed=11))
    recs = [json.loads(line) for line in out.to_jsonl().strip().split("\n")]
    assert recs[-1]["stage"] == "accepted"
    assert recs[-1]["rounds"] == 2
    known = {"accepted", "small-factor", "shares-factor", "square",
             "jacobi-filter", "trial-division", "base-2", "d-search",
             "param-search"}
    for rec in recs[:-1]:
        stage = rec["stage"]
        assert stage in known or stage.startswith("round-"), stage


def test_incremental_results_match_pinned_outputs():
    got = [prime_inc_luc(GenConfig(bits=40, rounds=2, seed=s)).result
           for s in range(40)]
    assert got == PINNED_INCREMENTAL_40


@settings(max_examples=40, deadline=None)
@given(st.integers(0, 2**64), st.integers(16, 256), st.sampled_from(GENERATORS))
def test_screen_depth_leaves_result_unchanged(seed, bits, gen):
    results = {gen(GenConfig(bits=bits, rounds=2, screen=s, seed=seed)).result
               for s in (2, 8, MAX_SCREEN_DEPTH)}
    assert len(results) == 1


def test_trial_stage_bounds():
    # the stage starts past every screen prime and, below 127 bits, is empty
    assert sieve_primes(SCREEN_REACH)[MAX_SCREEN_DEPTH] < SCREEN_REACH
    assert generation.trial_bound(126) < SCREEN_REACH
    assert generation.trial_bound(127) == 1008
    assert primes_in(SCREEN_REACH, generation.trial_bound(126)) == []
    assert _prime_blocks(SCREEN_REACH, generation.trial_bound(126)) == ()
    bound = generation.trial_bound(1024)
    assert bound == 1 << 16
    primes = [p for p in sieve_primes(bound) if p > 997]
    assert primes_in(SCREEN_REACH, bound) == primes
    blocks = _prime_blocks(SCREEN_REACH, bound)
    assert [p for block, _ in blocks for p in block] == primes
    assert all(product == math.prod(block) for block, product in blocks)
    assert len(blocks) == 3 and math.prod(
        product for _, product in blocks) == math.prod(primes)
    assert generation.trial_bound(MAX_BOUND_K) == 1 << 22


@pytest.mark.parametrize("bits, seed", [(512, 3), (1024, 1)])
@pytest.mark.parametrize("gen", GENERATORS)
def test_trial_division_rejects_only_composites(gen, bits, seed):
    # each trial-division entry has a prime factor in (997, bits^2/16] and
    # exceeds that bound; no candidate reaching base-2 has one
    bound = generation.trial_bound(bits)
    primes = [p for p in sieve_primes(bound) if p > 997]
    out = gen(GenConfig(bits=bits, rounds=2, seed=seed))
    stages = {}
    for entry in out.transcript:
        stages.setdefault(entry["stage"], []).append(int(entry["n"], 16))
    assert stages.get("trial-division")
    for n in stages["trial-division"]:
        assert n > bound and any(n % p == 0 for p in primes), hex(n)
    for n in stages.get("base-2", []) + stages["accepted"]:
        assert not any(n % p == 0 for p in primes), hex(n)


def test_uniform_results_match_pinned_outputs():
    for seed, (tested, rounds, low) in enumerate(PINNED_UNIFORM_1024):
        out = strong_luc_generate(GenConfig(bits=1024, rounds=3, seed=seed))
        assert out.result.bit_length() == 1024
        assert (out.candidates_tested, out.rounds_run,
                out.result & (2**64 - 1)) == (tested, rounds, low)


@settings(max_examples=8, deadline=None)
@given(st.integers(0, 2**64), st.sampled_from([128, 256, 512, 1024]),
       st.sampled_from(GENERATORS))
def test_trial_division_leaves_result_unchanged(seed, bits, gen):
    cfg = GenConfig(bits=bits, rounds=2, seed=seed)
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(generation, "trial_bound", lambda bits: 0)
        plain = gen(cfg)
    out = gen(cfg)
    assert (out.result, out.candidates_tested) == (plain.result,
                                                   plain.candidates_tested)
    # the stage only takes over base-2 rejections
    relabelled = [(e["n"], e["stage"].replace("trial-division", "base-2"))
                  for e in out.transcript]
    assert relabelled == [(e["n"], e["stage"]) for e in plain.transcript]


@settings(max_examples=40, deadline=None)
@given(st.integers(0, 2**64), st.integers(16, 256), st.sampled_from(GENERATORS))
def test_base2_pretest_leaves_result_unchanged(seed, bits, gen):
    cfg = GenConfig(bits=bits, rounds=2, seed=seed)
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(generation, "is_strong_probable_prime",
                   lambda n, a: True)
        unscreened = gen(cfg).result
    assert gen(cfg).result == unscreened


@settings(max_examples=60, deadline=None)
@given(st.integers(0, 2**64), st.integers(16, 64), st.sampled_from(GENERATORS))
def test_screens_reject_only_composites(seed, bits, gen):
    # the result is the first candidate the oracle calls prime, among those
    # the uniform generator may return at all ((5/n) = -1)
    out = gen(GenConfig(bits=bits, rounds=2, seed=seed))
    eligible = (n for n in (int(e["n"], 16) for e in out.transcript)
                if mr_oracle(n) and (gen is prime_inc_luc or jacobi(5, n) == -1))
    assert out.result == next(eligible, None)


def test_generators_agree_with_sympy():
    sympy = pytest.importorskip("sympy")

    @settings(max_examples=12, deadline=None)
    @given(st.integers(0, 2**64), st.sampled_from([64, 128, 256, 512]),
           st.sampled_from(GENERATORS))
    def check(seed, bits, gen):
        out = gen(GenConfig(bits=bits, rounds=2, seed=seed))
        n = out.result
        assert n is not None
        assert sympy.isprime(n) and n.bit_length() == bits
        if gen is prime_inc_luc:
            start = int(out.transcript[0]["n"], 16)
            window = 10 * math.ceil(bits * math.log(2))
            assert (n - start) % 2 == 0
            assert start <= n <= start + 2 * (window - 1)

    check()


@pytest.mark.parametrize("gen, kwargs, digest", PINNED_TRANSCRIPTS, ids=[
    "-".join([gen.__name__, *(f"{k}{v}" for k, v in kwargs.items())])
    for gen, kwargs, _ in PINNED_TRANSCRIPTS])
def test_transcripts_match_pinned_digests(gen, kwargs, digest):
    out = gen(GenConfig(**kwargs))
    assert hashlib.sha256(out.to_jsonl().encode()).hexdigest() == digest
    assert out.candidates_tested == len(out.transcript)


@pytest.fixture
def cpus(monkeypatch):
    """Sets the CPU count a call that forks the pool sees; the test gets a
    pool table of its own, whose pool is closed at its end, and starts as
    a process that has made no call yet."""
    pools = {}
    monkeypatch.setattr(workers, "_pools", pools)
    monkeypatch.setattr(generation, "_callers", set())
    yield lambda count: monkeypatch.setattr(os, "sched_getaffinity",
                                            lambda pid: set(range(count)))
    for pool in pools.values():
        pool.close()


class _AtOnce:
    """A stand-in pool of two workers that runs each request as it is
    sent, in this process, and counts them."""

    pids = (1, 2)

    def __init__(self):
        self.replies = []

    def send(self, n, params=None):
        self.replies.append(classical.miller_rabin_round(n, 2)
                            if params is None
                            else lucas.strong_lucas_round(n, params))
        return len(self.replies) - 1

    def result(self, ticket):
        return self.replies[ticket]

    def release(self):
        pass


def _on(pool, monkeypatch, gen, cfg):
    """gen(cfg) with ``pool`` as the pool of the call; None runs it inline."""
    with monkeypatch.context() as patch:
        patch.setattr(generation, "_take_pool", lambda bits: pool)
        return gen(cfg)


# (generator, config, requests sent): both generators at 512 bits, and
# two windows that end in FAIL
AT_ONCE_RUNS = [
    *[(prime_inc_luc, dict(bits=512, rounds=3, seed=s), sent)
      for s, sent in enumerate((12, 68, 36, 5, 7))],
    *[(strong_luc_generate, dict(bits=512, rounds=3, seed=s), sent)
      for s, sent in enumerate((9, 5, 6, 10, 7))],
    (prime_inc_luc, dict(bits=1024, rounds=3, window=40, seed=0), 7),
    (strong_luc_generate, dict(bits=1024, rounds=3, window=60, seed=0), 3),
]


@pytest.mark.parametrize("gen, kwargs, sent", AT_ONCE_RUNS, ids=[
    "-".join([gen.__name__, *(f"{k}{v}" for k, v in kwargs.items())])
    for gen, kwargs, _ in AT_ONCE_RUNS])
def test_the_tests_sent_follow_from_the_candidates(monkeypatch, gen, kwargs,
                                                   sent):
    cfg = GenConfig(**kwargs)
    inline = _on(None, monkeypatch, gen, cfg)
    pool = _AtOnce()
    pooled = _on(pool, monkeypatch, gen, cfg)
    assert pooled == inline and pooled.to_jsonl() == inline.to_jsonl()
    # a base-2 test per candidate past the screens; with a prime, one test
    # still out on the other worker and the prime's later Lucas rounds
    screens = {"jacobi-filter", "small-factor", "square", "shares-factor",
               "trial-division"}
    past = sum(e["stage"] not in screens for e in inline.transcript)
    found = len(pool.pids) - 1 + cfg.rounds - 1 if inline else 0
    assert len(pool.replies) == past + found == sent


# (generator, config, whether the window ends in FAIL): several seeds at
# the sizes the pool serves, a process's second call from 512 bits on;
# windows that end in FAIL, one whose last candidate is the prime, and
# windows of three candidates; one round, which no worker runs, and
# eight, more rounds than workers
POOLED_RUNS = [
    *[(gen, dict(bits=bits, rounds=3, seed=s), False)
      for bits in (512, 1024) for gen in GENERATORS for s in range(3)],
    *[(gen, dict(bits=2048, rounds=2, seed=0), False) for gen in GENERATORS],
    (strong_luc_generate, dict(bits=1024, rounds=3, window=60, seed=0), True),
    (strong_luc_generate, dict(bits=1024, rounds=3, window=60, seed=4),
     False),
    (prime_inc_luc, dict(bits=1024, rounds=3, window=40, seed=0), True),
    (prime_inc_luc, dict(bits=1024, rounds=3, window=3, seed=2), True),
    (prime_inc_luc, dict(bits=2048, rounds=3, window=3, seed=20), True),
    (prime_inc_luc, dict(bits=512, rounds=1, seed=3), False),
    (strong_luc_generate, dict(bits=512, rounds=8, seed=3), False),
]


@pytest.mark.parametrize("gen, kwargs, fails", POOLED_RUNS, ids=[
    "-".join([gen.__name__, *(f"{k}{v}" for k, v in kwargs.items())])
    for gen, kwargs, _ in POOLED_RUNS])
def test_pool_gives_the_inline_outcome(cpus, monkeypatch, gen, kwargs,
                                       fails):
    cfg = GenConfig(**kwargs)
    cpus(1)
    inline = gen(cfg)
    assert not workers._pools
    cpus(2)
    pooled = gen(cfg)
    pool = workers._pools[os.getpid()]
    assert len(pool.pids) == 2 and pool.sent == pool.read > 0
    # the requests sent do not hang on which worker answers first
    at_once = _AtOnce()
    _on(at_once, monkeypatch, gen, cfg)
    assert pool.sent == len(at_once.replies)
    assert pooled == inline and pooled.to_jsonl() == inline.to_jsonl()
    assert (pooled.result is None) is fails
    if kwargs.get("window") == 60:
        assert pooled.candidates_tested == 60


# one request per shape a worker's reply line takes: a pass; a rejection;
# a factor (5459 = 53 * 103); both bad-params reasons; a negative Q
ROUND_REPLIES = {
    "pass": (1000003, lucas.LucasParams(3, 5), ""),
    "no-zero-term": (5459, lucas.LucasParams(3, 5), "no-zero-term"),
    "gcd-P": (5459, lucas.LucasParams(53, 1), "gcd-P"),
    "Q-vanishes": (15, lucas.LucasParams(1, 15), "Q-vanishes"),
    "square-discriminant": (25, lucas.LucasParams(2, 1),
                            "square-discriminant"),
    "negative-Q-pass": (1000003, lucas.LucasParams(1, -1), ""),
    "negative-Q-no-zero-term": (5459, lucas.LucasParams(1, -1),
                                "no-zero-term"),
}


@pytest.mark.parametrize("n, params, reason", ROUND_REPLIES.values(),
                         ids=ROUND_REPLIES)
def test_a_worker_s_round_is_the_inline_round(cpus, n, params, reason):
    cpus(2)
    pool = workers.take()
    try:
        res = pool.result(pool.send(n, params))
    finally:
        pool.release()
    assert pool.sent == pool.read == 1
    assert res == lucas.strong_lucas_round(n, params)
    assert res.reason == reason
    assert res.factor == (53 if reason == "gcd-P" else None)
    assert (res.verdict is lucas.BAD_PARAMS) == (
        reason in ("Q-vanishes", "square-discriminant"))


def test_a_worker_s_base_2_test_is_the_inline_test(cpus):
    odd = (1000003, 1000035, 2047)  # 2047 = 23 * 89 is a base-2 liar
    cpus(2)
    pool = workers.take()
    try:
        results = [pool.result(pool.send(n)) for n in odd]
    finally:
        pool.release()
    assert pool.sent == pool.read == len(odd)
    assert results == [classical.miller_rabin_round(n, 2) for n in odd]
    assert results == [lucas.PROBABLE_PRIME, classical.MILLER_RABIN,
                       lucas.PROBABLE_PRIME]


def test_the_pool_starts_at_a_process_s_second_call_from_512_bits(cpus):
    cpus(2)
    for gen in GENERATORS:  # never below LATER_POOL_BITS, first or later
        for _ in range(2):
            gen(GenConfig(bits=LATER_POOL_BITS - 1, rounds=3, seed=0))
    assert not workers._pools
    cfg = GenConfig(bits=POOL_BITS - 1, rounds=3, seed=0)
    expected = prime_inc_luc(cfg)  # the first call of that size: inline
    assert not workers._pools
    assert prime_inc_luc(cfg) == expected  # the second forks the pool
    assert len(workers._pools[os.getpid()].pids) == 2


def _reject_when_p_is_0_mod_3(calls):
    """A strong Lucas round that also rejects every P divisible by 3, and
    appends (n, P) to ``calls`` for each round run in this process."""
    def round_(n, params):
        calls.append((n, params.P))
        if params.P % 3 == 0:
            return lucas.NO_ZERO_TERM
        return lucas.strong_lucas_round(n, params)
    return round_


def test_a_rejection_in_a_worker_rewinds_the_parameter_stream(cpus,
                                                              monkeypatch):
    # seed 0 meets rejections at rounds 1, 2 and 3 before its prime
    inline_calls, pooled_calls = [], []
    cfg = GenConfig(bits=512, rounds=3, seed=0)
    monkeypatch.setattr(classical, "strong_lucas_round",
                        _reject_when_p_is_0_mod_3(inline_calls))
    cpus(1)
    inline = prime_inc_luc(cfg)
    monkeypatch.setattr(classical, "strong_lucas_round",
                        _reject_when_p_is_0_mod_3(pooled_calls))
    # patched before the pool forks, so its workers run it
    monkeypatch.setattr(workers, "strong_lucas_round",
                        _reject_when_p_is_0_mod_3([]))
    cpus(2)
    pooled = prime_inc_luc(cfg)
    assert pooled == inline and pooled.to_jsonl() == inline.to_jsonl()
    stages = [e["stage"].split(":")[0] for e in inline.transcript]
    assert {"round-1", "round-2", "round-3", "accepted"} <= set(stages)
    # a round-2 rejection ran in a worker: this process ran round 1 only
    for entry in inline.transcript:
        if entry["stage"].startswith("round-2:"):
            n = int(entry["n"], 16)
            calls = [call for call in inline_calls if call[0] == n]
            assert [call for call in pooled_calls if call[0] == n] == calls[:1]
    # every survivor's first pair is the inline run's: the stream rewound
    assert dict(reversed(pooled_calls)) == dict(reversed(inline_calls))


def test_run_rounds_on_the_pool_are_the_inline_rounds(cpus, monkeypatch):
    # 5459 = 53 * 103 passes round 1 at seed 4; the patched round rejects
    # its round-2 pair, in a worker, while round 3 is out too
    stream = random.Random(4)
    d = lucas.select_d(5459)
    second = [lucas.sample_params(5459, d, stream) for _ in range(2)][1]

    def round_(n, params):
        if (n, params) == (5459, second):
            return lucas.NO_ZERO_TERM
        return lucas.strong_lucas_round(n, params)

    monkeypatch.setattr(classical, "strong_lucas_round", round_)
    # patched before the pool forks, so its workers run it
    monkeypatch.setattr(workers, "strong_lucas_round", round_)
    cpus(2)
    pool = workers.take()
    try:
        for n, expected in ((1000003, (lucas.PROBABLE_PRIME, 8)),
                            (5459, (lucas.NO_ZERO_TERM, 2))):
            inline, pooled = random.Random(4), random.Random(4)
            assert classical.run_rounds(n, "strong-lucas", 8, inline) == (
                expected)
            assert classical.run_rounds(n, "strong-lucas", 8, pooled,
                                        pool=pool) == expected
            assert pooled.getstate() == inline.getstate()
            # every round sent was waited for, and its reply taken
            assert pool.sent == pool.read and not pool.answers
    finally:
        pool.release()
    # the prime sent rounds 2, 3, 5, 6 and 8; 5459 rounds 2 and 3
    assert len(pool.pids) == 2 and pool.sent == 7


def test_a_worker_killed_in_a_round_costs_the_pool_not_the_outcome(
        cpus, monkeypatch):
    cfg = GenConfig(bits=1024, rounds=3, seed=1)
    cpus(1)
    inline = strong_luc_generate(cfg)
    # a worker asked for a round kills itself before it answers
    monkeypatch.setattr(workers, "strong_lucas_round",
                        lambda n, params: os.kill(os.getpid(),
                                                  signal.SIGKILL))
    cpus(2)

    def hung(signum, frame):
        raise TimeoutError("the call waited on its dead worker")

    # a caller blind to the death would wait on its pipe for ever
    previous = signal.signal(signal.SIGALRM, hung)
    signal.alarm(60)
    try:
        assert strong_luc_generate(cfg) == inline
    finally:
        signal.alarm(0)
        signal.signal(signal.SIGALRM, previous)
    assert not workers._pools


def test_a_dead_worker_costs_the_pool_not_the_outcome(cpus):
    cfgs = [GenConfig(bits=1024, rounds=3, seed=s) for s in range(3)]
    cpus(1)
    inline = [strong_luc_generate(cfg) for cfg in cfgs]
    cpus(2)
    assert strong_luc_generate(cfgs[0]) == inline[0]
    pool = workers._pools[os.getpid()]
    os.kill(pool.pids[0], signal.SIGKILL)
    os.waitpid(pool.pids[0], 0)
    # the call finishes inline and drops the pool ...
    assert strong_luc_generate(cfgs[1]) == inline[1]
    assert not pool.pids and not workers._pools
    # ... and the next one forks a fresh pool
    assert strong_luc_generate(cfgs[2]) == inline[2]
    fresh = workers._pools[os.getpid()]
    assert fresh is not pool and len(fresh.pids) == 2 and fresh.sent > 0


def test_workers_ignore_ctrl_c(cpus):
    # Ctrl-C reaches the whole process group; the caller handles it
    cpus(2)
    cfg = GenConfig(bits=1024, rounds=3, seed=0)
    expected = strong_luc_generate(cfg)
    pool = workers._pools[os.getpid()]
    for pid in pool.pids:
        os.kill(pid, signal.SIGINT)
    assert strong_luc_generate(cfg) == expected
    assert workers._pools[os.getpid()] is pool and len(pool.pids) == 2


def test_a_forked_child_forks_a_pool_of_its_own(cpus):
    cpus(2)
    cfg = GenConfig(bits=1024, rounds=3, seed=0)
    expected = strong_luc_generate(cfg)
    parents = workers._pools[os.getpid()]
    pid = os.fork()
    if pid == 0:  # the child must not go on running the suite
        code = 1
        try:
            signal.alarm(60)
            same = strong_luc_generate(cfg) == expected
            own = workers._pools.pop(os.getpid())
            own.close()
            code = 0 if same and own is not parents else 2
        finally:
            os._exit(code)
    _, status = os.waitpid(pid, 0)
    assert os.waitstatus_to_exitcode(status) == 0
    assert strong_luc_generate(cfg) == expected
    assert workers._pools[os.getpid()] is parents
