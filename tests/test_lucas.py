import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from slucas.counting import _strong_pass_raw
from slucas.kernel import (is_perfect_square, jacobi, sieve_primes,
                           split_power_of_two)
from slucas.lucas import (PROBABLE_PRIME, LucasParams, ParamSearchError,
                          RoundResult, Verdict, _check_args, lucas_round,
                          lucas_uv_mod, sample_params, select_d,
                          strong_lucas_round)

from conftest import LATE_D_PRIME


def naive_uv(m, P, Q):
    u0, u1 = 0, 1
    v0, v1 = 2, P
    for _ in range(m):
        u0, u1 = u1, P * u1 - Q * u0
        v0, v1 = v1, P * v1 - Q * v0
    return u0, v0


def test_fibonacci_special_case():
    # P=1, Q=-1 gives Fibonacci / Lucas numbers
    fib = [0, 1, 1, 2, 3, 5, 8, 13, 21, 34, 55, 89]
    for m, f in enumerate(fib):
        u, v, _ = lucas_uv_mod(m, 1, -1, 10**9 + 7)
        assert u == f
    assert lucas_uv_mod(7, 1, -1, 10**9 + 7)[1] == 29


@given(st.integers(0, 10**6), st.integers(-50, 50), st.integers(-50, 50),
       st.integers(3, 10**6))
@settings(max_examples=200)
def test_mod_ladder_is_consistent(m, P, Q, n):
    n |= 1
    u, v, qk = lucas_uv_mod(m, P, Q, n)
    # doubling from (m) to (2m) must agree with direct evaluation
    u2, v2, _ = lucas_uv_mod(2 * m, P, Q, n)
    assert u2 == u * v % n
    assert v2 == (v * v - 2 * qk) % n
    assert qk == pow(Q, m, n)


@given(st.integers(0, 40), st.integers(-20, 20), st.integers(-20, 20))
def test_mod_ladder_matches_exact(m, P, Q):
    n = 10**9 + 7
    u, v = naive_uv(m, P, Q)
    um, vm, _ = lucas_uv_mod(m, P, Q, n)
    assert um == u % n and vm == v % n


def test_round_rejects_shared_factor():
    # gcd(Q, n) > 1 exposes a factor instead of running the sequence
    res = strong_lucas_round(5 * 7 * 11, LucasParams(3, 35))
    assert res.verdict is Verdict.COMPOSITE
    assert res.factor in (5, 7, 35)


def test_round_flags_bad_params():
    res = strong_lucas_round(25, LucasParams(2, 1))  # D = 0
    assert res.verdict is Verdict.BAD_PARAMS
    res = strong_lucas_round(25, LucasParams(2, 25))  # Q vanishes mod n
    assert res.verdict is Verdict.BAD_PARAMS


def test_primes_pass_both_rounds(is_prime, rng):
    for p in sieve_primes(2000):
        if p <= 5:
            continue
        D = select_d(p)
        params = sample_params(p, D, rng)
        assert strong_lucas_round(p, params)
        assert lucas_round(p, params)


def test_strong_pass_implies_weak_pass(rng):
    # any (n, P, Q) accepted by the strong round is accepted by the plain one
    checked = 0
    for n in range(15, 4000, 2):
        P = rng.randrange(0, n)
        Q = rng.randrange(1, n)
        params = LucasParams(P, Q)
        strong = strong_lucas_round(n, params)
        if strong.verdict is Verdict.PROBABLE_PRIME:
            weak = lucas_round(n, params)
            assert weak.verdict is Verdict.PROBABLE_PRIME
            checked += 1
    assert checked > 100


def test_select_d_method_a():
    # first Jacobi(D/n) = -1 from 5, -7, 9, -11, ...
    assert select_d(23) == 5
    n = 10**9 + 9
    d = select_d(n)
    assert jacobi(d, n) == -1
    seen = []
    for n in range(21, 1500, 2):
        if is_perfect_square(n):
            # no D has (D/n) = -1, so the sweep refuses up front
            with pytest.raises(ParamSearchError):
                select_d(n)
            continue
        d = select_d(n)
        assert jacobi(d, n) == -1
        seen.append(d)
    assert 5 in seen and -7 in seen


def test_select_d_sweeps_as_far_as_needed():
    # the sweep used to stop after 64 candidates and call this prime's
    # search a failure
    sympy = pytest.importorskip("sympy")
    assert sympy.isprime(LATE_D_PRIME) and LATE_D_PRIME.bit_length() == 176
    assert select_d(LATE_D_PRIME) == -139
    for d in range(5, 139, 2):
        assert jacobi(d, LATE_D_PRIME) != -1
        assert jacobi(-d, LATE_D_PRIME) != -1


def test_sample_params_properties(rng):
    n = 10007
    for D in (5, -7, 13, 17):
        if jacobi(D, n) == 0:
            continue
        for _ in range(20):
            pr = sample_params(n, D, rng)
            assert (pr.P * pr.P - 4 * pr.Q) % n == D % n
            assert 0 <= pr.P < n and 0 < pr.Q < n


def test_sample_params_requires_coprime_d():
    with pytest.raises(ValueError):
        sample_params(25, 5, random.Random(1))


def test_known_strong_lucas_pseudoprimes():
    # the first composites slipping past the default parameter choices:
    # 5459 with (P,Q)=(1,2) [D=-7], 5777 and 10877 with (1,-1) [D=5]
    assert strong_lucas_round(5459, LucasParams(1, 2))
    assert strong_lucas_round(5777, LucasParams(1, -1))
    assert strong_lucas_round(10877, LucasParams(1, -1))
    assert not strong_lucas_round(5459, LucasParams(1, -1))


def _by_definition(n, params):
    # the round's result as the (U, V, Q^k) ladder in counting defines it
    early = _check_args(n, params)
    if early is not None:
        return early
    if _strong_pass_raw(n, params.P, params.Q, params.D):
        return PROBABLE_PRIME
    return RoundResult(Verdict.COMPOSITE, "no-zero-term")


def test_strong_round_matches_definition_exhaustively():
    # every (P, Q) mod n past the early exits, for every small odd n
    checked = 0
    for n in range(5, 121, 2):
        for P in range(n):
            for Q in range(n):
                params = LucasParams(P, Q)
                if _check_args(n, params) is not None:
                    continue
                expected = (PROBABLE_PRIME
                            if _strong_pass_raw(n, P, Q, params.D)
                            else RoundResult(Verdict.COMPOSITE, "no-zero-term"))
                assert strong_lucas_round(n, params) == expected, (n, P, Q)
                checked += 1
    assert checked > 150_000


@pytest.mark.parametrize("n, P, Q, kappa, q, passes", [
    # P = 0 mod n: every odd-index V vanishes, so even a composite passes
    (21, 0, 1, 2, 5, True),
    (21, 21, -20, 2, 5, True),
    (5459, 5459, 2, 1, 2729, True),
    # P, Q negative or at least n: reduced mod n first
    (5459, 1 - 5459, 2, 2, 1365, True),
    (5459, 1, 2 + 3 * 5459, 2, 1365, True),
    (5777, -5776, -1, 1, 2889, True),
    (5777, 1 + 5777, 2 * 5777 - 1, 1, 2889, True),
    (5459, -5458, -1, 1, 2729, False),
    # kappa = 1: only U_q and V_q are tested
    (19, 1, -1, 1, 9, True),
    (10877, 1, -1, 1, 5439, True),
    # q = 1 (n = 17, eps = +1): the ladder reads no bits of m = 0
    (17, 1, -3, 4, 1, True),
    (17, 3, -1, 4, 1, True),
    # the pinned Lucas pseudoprimes and a parameter pair that catches one
    (5459, 1, 2, 2, 1365, True),
    (5777, 1, -1, 1, 2889, True),
    (10877, 1, -1, 1, 5439, True),
    (5459, 1, -1, 1, 2729, False),
])
def test_strong_round_named_cases(n, P, Q, kappa, q, passes):
    params = LucasParams(P, Q)
    assert split_power_of_two(n - jacobi(params.D, n)) == (kappa, q)
    res = strong_lucas_round(n, params)
    assert res == _by_definition(n, params)
    assert bool(res) is passes


_MERSENNE_PRIMES = tuple(2 ** p - 1 for p in (61, 89, 107, 127, 521, 607, 1279))


@given(st.data())
@settings(max_examples=25, deadline=None)
def test_strong_round_matches_definition_at_scale(data):
    sympy = pytest.importorskip("sympy")
    n = data.draw(st.one_of(
        st.integers(2 ** 63, 2 ** 2048).map(lambda x: x | 1),
        st.integers(2 ** 63, 2 ** 512).map(sympy.nextprime),
        st.sampled_from(_MERSENNE_PRIMES)))
    P = data.draw(st.integers(-n, 2 * n))
    Q = data.draw(st.integers(-n, 2 * n))
    params = LucasParams(P, Q)
    assert strong_lucas_round(n, params) == _by_definition(n, params)
