"""Low-level integer routines: Jacobi symbol, the window sieve and the
prime sieve built on it, Legendre's phi and Meissel's prime count on it,
factorization (a least-factor table below 2^16, above it the gcd blocks
of ``least_factor`` up to 2^12, 2^14 or 2^16, then Pollard rho), the strong
probable-prime test, a perfect-square check, the method-A discriminant
sweep, and the checks that an n, a screen depth, a discriminant, a
number of rounds and any other integer argument are usable.

Every module that needs small primes reads one cached table here, which
grows on demand: by limit (``sieve_primes``) or by count (``odd_primes``).
The size limits the CLI prints, and the lift of the digit limit on decimal
text, are here too, so using them loads no engine.  This module imports
only modules loaded at interpreter startup: every process loads it.

Everything here works on plain Python ints, which are arbitrary precision,
so values of several thousand bits are fine throughout.
"""

from __future__ import annotations

import contextlib
import functools
import itertools
import math
import operator
import sys
from bisect import bisect_right

# The sieve takes about 3.5 bytes per unit of its limit, 60 MB at 2^24;
# Meissel's count of the primes up to x sieves to x^(2/3) and takes
# O(x^(2/3)) steps, so its cap keeps that sieve at 2^22.
SIEVE_LIMIT = 1 << 24
_PI_LIMIT = 1 << 33
FACTOR_LIMIT = 1 << 52

# factorize trial-divides by the primes up to TRIAL_REACH; what is left,
# below FACTOR_LIMIT, then has at most three prime factors, and the
# strong tests to these bases tell primes apart exactly below 3.8e18.
TRIAL_REACH = 1 << 16
PRIME_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23)

# The small-prime screens, Baillie-PSW's included, use the primes below
# SCREEN_REACH.  The deepest, MAX_SCREEN_DEPTH leading odd primes, leaves
# the next prime, the smallest factor left, below SCREEN_REACH too; the
# shallowest screens 3 and 5, where the bounds' 2^(k - 2.9) size holds.
SCREEN_REACH = 1000
MIN_SCREEN_DEPTH = 2
MAX_SCREEN_DEPTH = 166

# Most rounds one test or generator runs: (4/15)^128 is below 2^-240.
MAX_ROUNDS = 128

# Most rounds a bound engine prices: at 10^6, log2 q is about -902,188 at
# k = 17 and -906,266 at k = 8192, so its double carries q to about 10^-10
# relative, well past the 6 digits printed (at 10^12, to only 10^-4).
MAX_BOUND_ROUNDS = 10 ** 6

# Most candidates one generator run tests, and the cap on the uniform
# default window: a config no candidate survives ends in Fail, not a hang.
MAX_WINDOW = 10 ** 6

# Least and largest k the bound engines accept (checked in bounds._splits).
MIN_BOUND_K = 17
MAX_BOUND_K = 8192

# Exact small-k surveys factor every candidate in the window; up to k = 16
# each is below TRIAL_REACH, so factorize reads it off its least-factor table.
EXACT_SURVEY_MAX_K = 16


class CapacityError(ValueError):
    """An argument exceeds the size this routine is prepared to handle."""


@contextlib.contextmanager
def unlimited_digits():
    """A block where ints and decimal text convert past the 4,300-digit cap."""
    limit = getattr(sys, "get_int_max_str_digits", lambda: 0)()
    if limit:
        sys.set_int_max_str_digits(0)
    try:
        yield
    finally:
        if limit:
            sys.set_int_max_str_digits(limit)


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


def _method_a_sequence():
    # 5, -7, 9, -11, ...: select_d's sweep; the surveys scan its non-squares
    return (d if d % 4 == 1 else -d for d in itertools.count(5, 2))


def check_discriminant(d: int) -> None:
    """Raise ValueError unless d can be P^2 - 4Q for a non-degenerate pair.

    D = P^2 - 4Q is 0 or 1 mod 4, and a square D gives (D/n) = +1 for
    every n coprime to it, so no round could use it.  The message names
    d at any length.
    """
    with unlimited_digits():
        if d % 4 not in (0, 1):
            raise ValueError(f"discriminant must be 0 or 1 mod 4: {d}")
        if is_perfect_square(d):
            raise ValueError(f"discriminant must not be a square: {d}")


def check_integer(value: int, what: str) -> None:
    """Raise ValueError unless value is an int: a float size or count would
    pass the range checks, then answer or fail further in."""
    if not isinstance(value, int):
        raise ValueError(f"{what} must be an int, not {value!r}")


def check_rounds(r: int) -> None:
    """Raise ValueError unless r is an int with 1 <= r <= MAX_ROUNDS."""
    check_integer(r, "rounds")
    if not 1 <= r <= MAX_ROUNDS:
        raise ValueError(f"need rounds >= 1 and at most {MAX_ROUNDS}")


def check_bound_rounds(r: int) -> None:
    """Raise ValueError unless r is an int with 1 <= r <= MAX_BOUND_ROUNDS."""
    check_integer(r, "rounds")
    if not 1 <= r <= MAX_BOUND_ROUNDS:
        raise ValueError(f"need 1 <= r <= {MAX_BOUND_ROUNDS}")


def check_odd(n: int, least: int) -> None:
    """Raise ValueError unless n is an odd int and at least ``least``."""
    check_integer(n, "n")
    if n < least or n % 2 == 0:
        raise ValueError(f"need odd n >= {least}")


def check_screen_depth(l: int) -> None:
    """Raise ValueError unless l is an int, MIN_SCREEN_DEPTH <= l <=
    MAX_SCREEN_DEPTH."""
    check_integer(l, "screen depth")
    if not MIN_SCREEN_DEPTH <= l <= MAX_SCREEN_DEPTH:
        raise ValueError(f"need screen depth {MIN_SCREEN_DEPTH} <= l <= "
                         f"{MAX_SCREEN_DEPTH}")


def split_power_of_two(m: int) -> tuple[int, int]:
    """Write m = 2**kappa * q with q odd and return (kappa, q)."""
    if m <= 0:
        raise ValueError("need a positive integer to split")
    kappa = (m & -m).bit_length() - 1
    return kappa, m >> kappa


def is_strong_probable_prime(n: int, a: int) -> bool:
    """Does odd n > 2 pass the strong (Miller-Rabin) test to base a?

    With n - 1 = 2**kappa * q (q odd): pass iff a**q = 1 or
    a**(2**i * q) = -1 for some 0 <= i < kappa.
    """
    kappa, q = split_power_of_two(n - 1)
    x = pow(a, q, n)
    if x == 1 or x == n - 1:
        return True
    for _ in range(kappa - 1):
        x = (x * x) % n
        if x == n - 1:
            return True
    return False


def is_perfect_square(d: int) -> bool:
    """True iff d is a perfect square (d >= 0)."""
    return d >= 0 and math.isqrt(d) ** 2 == d


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


_table = [2]
_table_limit = 2


def sieve_primes(limit: int) -> list[int]:
    """All primes <= limit, ascending, sliced from the one cached table.
    A larger limit first reads the odd primes up to sqrt(limit) from the
    table (which may grow it), then appends the odd numbers past its end
    that ``sieve_window`` leaves unmarked by them; a limit past the cap
    leaves the table as it was."""
    global _table_limit
    if limit > SIEVE_LIMIT:
        raise CapacityError(f"sieve limit must be at most {SIEVE_LIMIT}")
    if _table_limit < limit:
        odd = sieve_primes(math.isqrt(limit))[1:]
        lo = _table_limit + 1 | 1  # the end after that call
        flags = sieve_window(lo, (limit - lo) // 2 + 1, odd)
        unmarked = flags.translate(bytes.maketrans(b"\0\1", b"\1\0"))
        _table.extend(itertools.compress(range(lo, limit + 1, 2), unmarked))
        _table_limit = limit
    return _table[:bisect_right(_table, limit)]


def odd_primes(count: int) -> list[int]:
    """The first ``count`` odd primes; the table grows to hold them."""
    limit = SCREEN_REACH
    while len(sieve_primes(limit)) <= count:
        limit *= 2
    return _table[1:count + 1]


@functools.lru_cache(maxsize=None)
def _coprime_counts(a: int) -> tuple[int, list[int]]:
    """(m, counts) for m the product of the first a <= 6 primes: counts[r]
    is the number of n in 1..r coprime to m, for 0 <= r <= m."""
    primes = sieve_primes(13)[:a]
    m = math.prod(primes)
    coprime = bytearray(b"\x01") * m  # n = 1..m
    for p in primes:
        coprime[p - 1::p] = bytes(m // p)
    return m, list(itertools.accumulate(coprime, initial=0))


def _phi(x: int, a: int) -> int:
    """Legendre's phi(x, a): the n in 1..x divisible by none of the first
    a primes.  With phi(y, 6) periodic mod 30030,
    phi(y, b) = phi(y, 6) - sum_(6 < i <= b) phi(y // p_i, i - 1): a term
    with y // p_i >= p_i^2 is expanded in turn, one below counts 1 and the
    primes in (p_(i-1), y // p_i] (Meissel), and from y // p_i < p_i on, 1.
    """
    small = [2, *odd_primes(a)]
    a = bisect_right(small, x, 0, a)  # p_a <= x, or a = 0
    m, counts = _coprime_counts(min(a, 6))
    primes = sieve_primes(min(x, small[a] ** 2))  # each y // p_i < p_(a+1)^2
    total, todo = 0, [(x, a, 1)]
    while todo:
        y, b, sign = todo.pop()
        part = y // m * counts[m] + counts[y % m]
        for i in range(6, b):  # the term phi(y // p_(i+1), i)
            p = primes[i]
            z = y // p
            if z < p:
                part -= b - i
                break
            if z < p * p:
                part -= bisect_right(primes, z) - i + 1
            elif i == 6:
                part -= z // m * counts[m] + counts[z % m]
            else:
                todo.append((z, i, -sign))
        total += sign * part
    return total


@functools.lru_cache(maxsize=128)
def _prime_pi(x: int) -> int:
    """pi(x) by Meissel's formula, O(x^(2/3)) steps: with a = pi(x^(1/3))
    and b = pi(sqrt(x)),
    pi(x) = phi(x, a) + a - 1 - sum_(a < i <= b) (pi(x // p_i) - i + 1),
    each pi(x // p_i) read off the prime table, as x // p_i < x^(2/3).
    Cached: the counts of adjacent dyadic ranges share an end."""
    if x < 2:
        return 0
    c = round(x ** (1 / 3))
    c -= c ** 3 > x  # the float root is within one of x^(1/3) below 2^53
    primes = sieve_primes(x // c)
    a = bisect_right(primes, c)
    b = bisect_right(primes, math.isqrt(x))
    return _phi(x, a) + a - 1 - sum(bisect_right(primes, x // p) - i
                                    for i, p in enumerate(primes[a:b], a))


def count_primes_in_range(lo: int, hi: int) -> int:
    """Number of primes p with lo <= p < hi, as pi(hi - 1) - pi(lo - 1)."""
    if hi <= lo:
        return 0
    if hi > _PI_LIMIT:
        raise CapacityError(f"range end must be at most {_PI_LIMIT}")
    return _prime_pi(hi - 1) - _prime_pi(lo - 1)


class Factorization:
    """Prime-power decomposition of a positive integer.

    factors is an ascending list of (p, r) pairs; n is the product.
    """

    __slots__ = ("n", "factors")

    def __init__(self, n: int, factors: list[tuple[int, int]]):
        self.n = n
        self.factors = factors

    def __iter__(self):
        return iter(self.factors)

    def __repr__(self) -> str:
        inner = " * ".join(f"{p}^{r}" if r > 1 else f"{p}"
                           for p, r in self.factors)
        return f"Factorization({self.n} = {inner})"

    def __eq__(self, other) -> bool:
        return (isinstance(other, Factorization)
                and self.factors == other.factors)


def primes_in(lo: int, hi: int) -> list[int]:
    """The primes p with lo < p <= hi, ascending."""
    primes = sieve_primes(hi)
    return primes[bisect_right(primes, lo):]


def _pairwise(terms: list, op):
    # rounds of adjacent pairs: operands of similar size combine fastest
    while len(terms) > 1:
        terms = ([op(a, b) for a, b in zip(terms[::2], terms[1::2])]
                 + terms[len(terms) & ~1:])  # an odd one out waits
    return terms[0]


@functools.lru_cache(maxsize=16)
def _prime_blocks(lo: int, hi: int) -> tuple[tuple[tuple[int, ...], int], ...]:
    """The primes in (lo, hi] as (block, product) pairs, split at 2^5,
    2^12, 2^14, 2^16, ...: the head holds the primes that divide most n,
    and each later block spans 4x the one before, so a gcd with the
    early, likelier blocks settles most n."""
    primes = primes_in(lo, hi)
    blocks, edge = [], 1 << 5
    while primes:
        cut = bisect_right(primes, edge)
        if cut:
            head, primes = primes[:cut], primes[cut:]
            blocks.append((tuple(head), _pairwise(head, operator.mul)))
        edge = max(4 * edge, 1 << 12)
    return tuple(blocks)


def least_factor(n: int, lo: int, hi: int) -> int:
    """The least prime in (lo, hi] that divides n (n itself when n is one
    of them), or 1 if none does.  One gcd per block of ``_prime_blocks``;
    a gcd g > 1 is a product of that block's primes, so trial division of
    g up to sqrt(g) finds its least one."""
    for primes, product in _prime_blocks(lo, hi):
        g = math.gcd(n, product)
        if g > 1:
            for p in primes:
                if g % p == 0:
                    return p
                if p * p > g:
                    return g
    return 1


def _rho(n: int) -> int:
    """A factor 1 < d < n of the odd composite n, by Pollard rho: Floyd's
    walk x -> x^2 + c from x = y = 2, y two steps to x's one, one gcd a
    step, and the next c when the walk closes on g = n.  Brent's batched
    variant split two 26-bit primes faster (6.2 against 9.6 ms, Python
    3.11, 2-CPU Xeon), but no table, survey or generator reaches it."""
    for c in itertools.count(1):
        x, y, g = 2, 2, 1
        while g == 1:
            x = (x * x + c) % n
            y = (y * y + c) % n
            y = (y * y + c) % n
            g = math.gcd(x - y, n)
        if g != n:
            return g


@functools.cache
def _least_factors() -> bytes:
    """least[m] for m < TRIAL_REACH: the least prime factor of a composite
    m (below 2^8), else 0; the largest prime below 2^8 marks its multiples
    first, so each smaller prime overwrites the ones it divides."""
    least = bytearray(TRIAL_REACH)
    for p in reversed(sieve_primes(math.isqrt(TRIAL_REACH - 1))):
        least[p * p::p] = bytes([p]) * ((TRIAL_REACH - 1 - p * p) // p + 1)
    return bytes(least)


def factorize(n: int) -> Factorization:
    """Factor n: divide out the least prime factor of what is left, read
    off ``_least_factors`` below TRIAL_REACH, else found by ``least_factor``
    up to the first of 2^12, 2^14, TRIAL_REACH whose square exceeds it,
    until none is left; ``_rho`` splits the rest (a part is prime below
    TRIAL_REACH^2, or when the strong tests to PRIME_BASES pass)."""
    check_integer(n, "n")
    if n < 2:
        raise ValueError("need n >= 2 to factor")
    if n >= FACTOR_LIMIT:
        raise CapacityError(f"n must be below 2^{FACTOR_LIMIT.bit_length()-1}"
                            f" = {FACTOR_LIMIT} to be factored")
    least = _least_factors()
    m, factors = n, []
    while m > 1:
        if m < TRIAL_REACH:
            p = least[m] or m
        elif (p := least_factor(m, 1, 1 << 12 if m < 1 << 24 else
                                1 << 14 if m < 1 << 28 else TRIAL_REACH)) == 1:
            p = m
            while p >= TRIAL_REACH * TRIAL_REACH and not all(
                    is_strong_probable_prime(p, a) for a in PRIME_BASES):
                p = _rho(p)
        r = 0
        while m % p == 0:
            m //= p
            r += 1
        factors.append((p, r))
    factors.sort()
    return Factorization(n, factors)
