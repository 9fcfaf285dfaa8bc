import hashlib
import json
import math

import pytest
from hypothesis import given, settings, strategies as st

from slucas import generation
from slucas.generation import (MAX_SCREEN_DEPTH, GenConfig, GenOutcome,
                               prime_inc_luc, sieve_window,
                               strong_luc_generate)
from slucas.kernel import (MAX_ROUNDS, MAX_WINDOW, SCREEN_REACH, _prime_blocks,
                           jacobi, least_factor, primes_in, sieve_primes)

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

def test_config_validation():
    with pytest.raises(ValueError):
        GenConfig(bits=4)
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
    assert generation.trial_bound(10 ** 5) == generation.MAX_TRIAL_BOUND


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
