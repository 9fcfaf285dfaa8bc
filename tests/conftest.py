import math
import random

import pytest

# Deterministic Miller-Rabin over these bases is exact far beyond anything
# the suite generates (first failure above 3.3e24).
_ORACLE_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37)


def mr_oracle(n: int) -> bool:
    if n < 2:
        return False
    for p in _ORACLE_BASES:
        if n % p == 0:
            return n == p
    d, s = n - 1, 0
    while d % 2 == 0:
        d //= 2
        s += 1
    for a in _ORACLE_BASES:
        x = pow(a, d, n)
        if x == 1 or x == n - 1:
            continue
        for _ in range(s - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


# 1 + 31 * 8 * (3 * 5 * 7 * ... * 131), a 176-bit prime: n = 1 mod 8 and
# mod every odd prime up to 131, so (D/n) = 1 for every |D| built from
# those primes and the method-A sweep first reaches -1 at D = -139, its
# 68th candidate
LATE_D_PRIME = 1 + 31 * 8 * math.prod(
    p for p in range(3, 132, 2) if all(p % q for q in range(3, p, 2)))


@pytest.fixture(scope="session")
def is_prime():
    return mr_oracle


@pytest.fixture
def rng():
    return random.Random(0xC0FFEE)
