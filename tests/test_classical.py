import pytest

from slucas.classical import baillie_psw, fermat_round, miller_rabin_round
from slucas.kernel import sieve_primes
from slucas.lucas import Verdict

from conftest import LATE_D_PRIME


def test_fermat_round_basics():
    assert fermat_round(341, 2)          # classic base-2 pseudoprime
    assert not fermat_round(341, 3)
    assert fermat_round(561, 2) and fermat_round(561, 5)  # Carmichael
    res = fermat_round(561, 3)           # shared factor detected via gcd
    assert res.verdict is Verdict.COMPOSITE and res.factor == 3


def test_miller_rabin_round_basics():
    assert miller_rabin_round(2047, 2)   # smallest strong pseudoprime base 2
    assert not miller_rabin_round(2047, 3)
    assert not miller_rabin_round(561, 2)
    assert not miller_rabin_round(341, 2)


def test_strong_is_subset_of_fermat():
    for n in range(9, 20000, 2):
        for a in (2, 3, 5):
            if n % a == 0:
                continue
            if miller_rabin_round(n, a):
                assert fermat_round(n, a)


def test_rounds_accept_primes():
    for p in sieve_primes(10**4):
        if p < 5:
            continue
        assert miller_rabin_round(p, 2)
        assert fermat_round(p, 2)


def test_round_input_validation():
    with pytest.raises(ValueError):
        miller_rabin_round(10, 3)
    with pytest.raises(ValueError):
        fermat_round(9, 0)


def test_bpsw_agrees_with_oracle_on_a_window(is_prime):
    for n in range(3, 40000, 2):
        assert bool(baillie_psw(n)) == is_prime(n), n


def test_bpsw_rejects_even_or_tiny_input():
    assert baillie_psw(3)
    for bad in (1, 2, 4, 10**6):
        with pytest.raises(ValueError):
            baillie_psw(bad)


def test_bpsw_variants_reject_classic_pseudoprimes():
    # trial_limit=3 disables the small-prime screen so the base-2 and
    # Lucas stages do the actual work
    for n in (341, 561, 645, 1105, 1729, 2047, 2465, 3277, 5459, 5777):
        assert not baillie_psw(n, strong=False, trial_limit=3)
        assert not baillie_psw(n, method="B", trial_limit=3)
        assert not baillie_psw(n, trial_limit=3)


def test_bpsw_large_known_values():
    assert baillie_psw(2**61 - 1)
    assert baillie_psw(2**89 - 1)
    assert not baillie_psw((2**31 - 1) * (2**61 - 1))
    assert baillie_psw(10**18 + 9)


def test_bpsw_accepts_prime_with_late_discriminant():
    # its method-A sweep needs 68 candidates; a 64-candidate cap used to
    # turn that into a "d-search" composite verdict
    assert baillie_psw(LATE_D_PRIME)
    assert baillie_psw(LATE_D_PRIME, method="B")
    assert baillie_psw(LATE_D_PRIME, strong=False)
