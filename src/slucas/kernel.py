"""Low-level integer routines: modular arithmetic, Jacobi symbol, sieving,
trial-division factorization, a Newton-iteration integer square root and a
perfect-square check.

Everything here works on plain Python ints, which are arbitrary precision,
so values of several thousand bits are fine throughout.
"""

from __future__ import annotations

import math
from bisect import bisect_right

SIEVE_LIMIT = 1 << 33
FACTOR_LIMIT = 1 << 52


class CapacityError(ValueError):
    """An argument exceeds the size this routine is prepared to handle."""


class NotInvertibleError(ValueError):
    """mod_inv over a non-unit; carries the offending gcd."""

    def __init__(self, a: int, n: int, g: int):
        super().__init__(f"{a} is not invertible mod {n} (gcd {g})")
        self.gcd = g


def gcd(a: int, b: int) -> int:
    return math.gcd(a, b)


def mod_add(a: int, b: int, n: int) -> int:
    if n < 1:
        raise ValueError("modulus must be >= 1")
    return (a + b) % n


def mod_mul(a: int, b: int, n: int) -> int:
    if n < 1:
        raise ValueError("modulus must be >= 1")
    return (a * b) % n


def mod_exp(a: int, e: int, n: int) -> int:
    """a**e mod n by repeated squaring (e >= 0)."""
    if n < 1:
        raise ValueError("modulus must be >= 1")
    return pow(a, e, n)


def mod_inv(a: int, n: int) -> int:
    """Inverse of a mod n; raises NotInvertibleError when gcd(a, n) > 1."""
    g = math.gcd(a, n)
    if g != 1:
        raise NotInvertibleError(a, n, g)
    return pow(a, -1, n)


def jacobi(a: int, n: int) -> int:
    """Jacobi symbol (a/n) for odd n >= 1.

    Negative a is folded in through (-1/n) = (-1)^((n-1)/2).  The main loop
    is the standard binary algorithm built on the reciprocity rules
    (2/n) = (-1)^((n^2-1)/8) and quadratic reciprocity for odd arguments.
    """
    if n <= 0 or n % 2 == 0:
        raise ValueError("Jacobi symbol needs an odd positive denominator")
    result = 1
    if a < 0:
        a = -a
        if n % 4 == 3:
            result = -result
    a %= n
    while a != 0:
        while a % 2 == 0:
            a //= 2
            if n % 8 in (3, 5):
                result = -result
        a, n = n, a
        if a % 4 == 3 and n % 4 == 3:
            result = -result
        a %= n
    return result if n == 1 else 0


def split_power_of_two(m: int) -> tuple[int, int]:
    """Write m = 2**kappa * q with q odd and return (kappa, q)."""
    if m <= 0:
        raise ValueError("need a positive integer to split")
    kappa = (m & -m).bit_length() - 1
    return kappa, m >> kappa


def newton_isqrt(d: int) -> int:
    """Integer square root by Newton's iteration, no math.isqrt involved.

    Starts from x0 = 2**ceil(bits/2) - 1, which is always >= floor(sqrt(d)),
    so the iteration x -> (x + d//x)//2 descends monotonically onto the
    floor of the root.
    """
    if d < 0:
        raise ValueError("negative input")
    if d < 2:
        return d
    m = (d.bit_length() + 1) // 2
    x = (1 << m) - 1
    y = (x + d // x) // 2
    while y < x:
        x = y
        y = (x + d // x) // 2
    return x


def is_perfect_square(d: int) -> bool:
    """True iff d is a perfect square (d >= 0)."""
    if d < 0:
        return False
    r = math.isqrt(d)
    return r * r == d


def sieve_primes(limit: int) -> list[int]:
    """All primes <= limit, ascending (simple odd-only Eratosthenes)."""
    if limit > SIEVE_LIMIT:
        raise CapacityError(f"sieve limit {limit} exceeds {SIEVE_LIMIT}")
    if limit < 2:
        return []
    # index i represents the odd number 2*i + 1
    half = (limit + 1) // 2
    flags = bytearray([1]) * half
    flags[0] = 0  # 1 is not prime
    i = 1
    while (2 * i + 1) * (2 * i + 1) <= limit:
        if flags[i]:
            p = 2 * i + 1
            start = (p * p) // 2
            flags[start::p] = bytearray(len(flags[start::p]))
        i += 1
    return [2] + [2 * i + 1 for i in range(1, half) if flags[i]]


def count_primes_in_range(lo: int, hi: int) -> int:
    """Number of primes p with lo <= p < hi, by segmented sieving.

    Memory stays proportional to the segment size, so ranges up to 2**30
    and beyond are fine even though the full prime list would not fit.
    """
    if hi <= lo:
        return 0
    if hi > SIEVE_LIMIT:
        raise CapacityError(f"range end {hi} exceeds {SIEVE_LIMIT}")
    base = sieve_primes(newton_isqrt(hi - 1))
    count = 0
    if lo <= 2 < hi:
        count += 1
    segment = 1 << 20
    start = max(lo, 3)
    if start % 2 == 0:
        start += 1
    while start < hi:
        end = min(start + segment, hi)
        size = (end - start + 1) // 2  # odd values start, start+2, ...
        flags = bytearray([1]) * size
        for p in base:
            if p == 2:
                continue
            if p * p >= end:
                break
            first = max(p * p, ((start + p - 1) // p) * p)
            if first % 2 == 0:
                first += p
            flags[(first - start) // 2::p] = bytearray(
                len(flags[(first - start) // 2::p]))
        count += sum(flags)
        if start <= 1:
            # never happens given start >= 3, kept as a guard
            count -= 1
        start = end if end % 2 == 1 else end + 1
        if start % 2 == 0:
            start += 1
    return count


class Factorization:
    """Prime-power decomposition of a positive integer.

    factors is an ascending list of (p, r) pairs; n is the product.
    omega/big_omega give the distinct and with-multiplicity factor counts.
    """

    __slots__ = ("n", "factors")

    def __init__(self, n: int, factors: list[tuple[int, int]]):
        self.n = n
        self.factors = factors

    @property
    def omega(self) -> int:
        return len(self.factors)

    @property
    def big_omega(self) -> int:
        return sum(r for _, r in self.factors)

    @property
    def primes(self) -> list[int]:
        return [p for p, _ in self.factors]

    def is_squarefree(self) -> bool:
        return all(r == 1 for _, r in self.factors)

    def __iter__(self):
        return iter(self.factors)

    def __repr__(self) -> str:
        inner = " * ".join(f"{p}^{r}" if r > 1 else f"{p}"
                           for p, r in self.factors)
        return f"Factorization({self.n} = {inner})"

    def __eq__(self, other) -> bool:
        return (isinstance(other, Factorization)
                and self.factors == other.factors)


_factor_primes: list[int] = []


def _factor_base(up_to: int) -> list[int]:
    # cached, grown geometrically so repeated factorizations stay cheap
    global _factor_primes
    if not _factor_primes or _factor_primes[-1] < up_to:
        _factor_primes = sieve_primes(max(up_to, 1 << 10))
    return _factor_primes


def factorize(n: int) -> Factorization:
    """Factor n by trial division over sieved primes up to sqrt(n)."""
    if n < 2:
        raise ValueError("factorize needs n >= 2")
    if n >= FACTOR_LIMIT:
        raise CapacityError(f"{n} exceeds the trial-division ceiling")
    original = n
    factors: list[tuple[int, int]] = []
    root = newton_isqrt(n)
    base = _factor_base(root)
    for p in base[:bisect_right(base, root)]:
        if p * p > n:
            break
        if n % p == 0:
            r = 0
            while n % p == 0:
                n //= p
                r += 1
            factors.append((p, r))
            root = newton_isqrt(n)
    if n > 1:
        factors.append((n, 1))
    return Factorization(original, factors)


def is_prime_trial(n: int) -> bool:
    """Primality by trial division; only sensible below the factor ceiling."""
    if n < 2:
        return False
    return factorize(n).factors == [(n, 1)]
