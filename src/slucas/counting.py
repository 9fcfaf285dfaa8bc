"""Exact liar counts for the Fermat, Miller-Rabin, Lucas and strong Lucas
tests, together with brute-force cross-checks and the derived densities.

All counts are exact integers; the densities are Fractions so nothing is
rounded until a caller formats it.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd

from .kernel import Factorization, factorize, jacobi, split_power_of_two

BRUTEFORCE_LIMIT = 10 ** 4


def _fact(n: int | Factorization) -> Factorization:
    return n if isinstance(n, Factorization) else factorize(n)


def phi_d(n: int | Factorization, D: int) -> int:
    """Order of the norm-one group attached to discriminant D.

    Multiplicative over prime powers with local value
    p**(r-1) * (p - eps_D(p)); requires gcd(n, 2*D) = 1.
    """
    f = _fact(n)
    if f.n % 2 == 0 or gcd(f.n, 2 * D) > 1:
        raise ValueError("phi_d needs n odd and coprime to 2*D")
    out = 1
    for p, r in f:
        out *= p ** (r - 1) * (p - jacobi(D, p))
    return out


def _sl_parts(f: Factorization, eps_of) -> tuple[int, int]:
    """Strong Lucas count of n = f.n and eps(n) = (D/n), from (D/p) alone.

    ``eps_of(p)`` is (D/p) for each prime p | n; the caller has checked
    gcd(n, 2*D) = 1, so each is +-1 and (D/n) = prod (D/p)^r.  With
    n - eps(n) = 2^kappa * q (q odd), k1 the least 2-adic valuation of
    p - eps(p) and s the number of distinct primes, the count is
        prod (g_p - 1) + (2^(k1*s) - 1)/(2^s - 1) * prod g_p,
    g_p = gcd(q, p - eps(p)); the middle factor is sum_{j < k1} 2^(j*s).
    """
    eps_n = 1
    shifted = []
    bits = 0
    for p, r in f.factors:
        e = eps_of(p)
        if r & 1:
            eps_n *= e
        x = p - e
        shifted.append(x)
        bits |= x
    m = f.n - eps_n
    q = m // (m & -m)
    head = tail = 1
    for x in shifted:
        g = gcd(q, x)
        head *= g - 1
        tail *= g
    s = len(shifted)
    low = bits & -bits      # 2^k1: the OR's lowest bit is the least one
    return head + (low ** s - 1) // ((1 << s) - 1) * tail, eps_n


def sl_count(n: int | Factorization, D: int) -> int:
    """Number of pairs (P, Q) mod n that the strong Lucas round accepts.

    Pairs range over 0 <= P, Q < n with gcd(Q, n) = 1 and
    P**2 - 4*Q = D mod n.  Zero by convention when gcd(n, 2*D) > 1.
    For prime n every admissible pair passes, so the count collapses to
    n - eps - 1.
    """
    f = _fact(n)
    if gcd(f.n, 2 * D) > 1:
        return 0
    return _sl_parts(f, lambda p: jacobi(D, p))[0]


def lucas_count(n: int | Factorization, D: int) -> int:
    """Number of P mod n admitting a Q that the plain Lucas round accepts.

    Product of gcd(n - eps(n), p - eps(p)) - 1 over the distinct prime
    factors; zero when gcd(n, 2*D) > 1.
    """
    f = _fact(n)
    if gcd(f.n, 2 * D) > 1:
        return 0
    eps_n = jacobi(D, f.n)
    out = 1
    for p in f.primes:
        out *= gcd(f.n - eps_n, p - jacobi(D, p)) - 1
    return out


def fermat_count(n: int | Factorization) -> int:
    """Number of bases a mod n with a**(n-1) = 1, for odd n >= 3."""
    f = _fact(n)
    if f.n % 2 == 0:
        raise ValueError("fermat_count expects odd n")
    out = 1
    for p in f.primes:
        out *= gcd(f.n - 1, p - 1)
    return out


def mr_count(n: int | Factorization) -> int:
    """Number of bases a mod n that pass one Miller-Rabin round, odd n >= 3.

    With n - 1 = 2**kappa * q (q odd), l1 the least 2-adic valuation of
    p - 1 over primes p | n, and s the number of distinct primes:
        (1 + sum_{j < l1} 2**(j*s)) * prod gcd(q, p - 1).
    """
    f = _fact(n)
    if f.n % 2 == 0:
        raise ValueError("mr_count expects odd n")
    _, q = split_power_of_two(f.n - 1)
    l1 = min(split_power_of_two(p - 1)[0] for p in f.primes)
    s = f.omega
    tail = 1
    for p in f.primes:
        tail *= gcd(q, p - 1)
    return (1 + sum(2 ** (j * s) for j in range(l1))) * tail


def alpha_bar(n: int | Factorization, D: int) -> Fraction:
    """SL count divided by n - eps - 1, exactly."""
    f = _fact(n)
    if gcd(f.n, 2 * D) > 1:
        return Fraction(0)
    count, eps_n = _sl_parts(f, lambda p: jacobi(D, p))
    return Fraction(count, f.n - eps_n - 1)


def alpha(n: int | Factorization, D: int) -> Fraction:
    """SL count divided by the norm-one group order, exactly."""
    f = _fact(n)
    if gcd(f.n, 2 * D) > 1:
        return Fraction(0)
    return Fraction(sl_count(f, D), phi_d(f, D))


def is_twin_prime_product(n: int | Factorization) -> bool:
    """True iff n = p * (p + 2) with both factors prime."""
    f = _fact(n)
    if f.omega != 2 or not f.is_squarefree():
        return False
    # factorize returns prime factors, so p and r are prime already
    p, r = f.primes
    return r == p + 2


def worst_case_ceiling(n: int | Factorization) -> Fraction:
    """Largest admissible SL count for a composite n coprime to 2D.

    4n/15 in general, n/2 when n is a twin-prime product, with n = 9 left
    out entirely (its count of 3 exceeds 4*9/15).
    """
    f = _fact(n)
    if f.n == 9:
        raise ValueError("n = 9 is the excluded exception")
    if is_twin_prime_product(f):
        return Fraction(f.n, 2)
    return Fraction(4 * f.n, 15)


def _strong_pass_raw(n: int, P: int, Q: int, D: int) -> bool:
    # definition-level check: no screening of P, only the congruences
    from .lucas import lucas_uv_mod
    eps_n = jacobi(D, n)
    kappa, q = split_power_of_two(n - eps_n)
    u, v, qk = lucas_uv_mod(q, P, Q, n)
    if u == 0 or v == 0:
        return True
    for _ in range(kappa - 1):
        v = (v * v - 2 * qk) % n
        qk = (qk * qk) % n
        if v == 0:
            return True
    return False


def _lucas_pass_raw(n: int, P: int, Q: int, D: int) -> bool:
    from .lucas import lucas_uv_mod
    eps_n = jacobi(D, n)
    u, _, _ = lucas_uv_mod(n - eps_n, P, Q, n)
    return u == 0


def _check_bruteforce(n: int) -> None:
    if n < 3 or n % 2 == 0:
        raise ValueError("need odd n >= 3")
    if n >= BRUTEFORCE_LIMIT:
        raise ValueError(f"brute force capped at n < {BRUTEFORCE_LIMIT}")


def _pair_count(n: int, D: int, passes) -> int:
    # every P mod n with Q = (P^2 - D)/4 a unit, run through passes(n, P, Q, D)
    _check_bruteforce(n)
    if gcd(n, 2 * D) > 1:
        return 0
    inv4 = pow(4, -1, n)
    count = 0
    for P in range(n):
        Q = ((P * P - D) * inv4) % n
        if gcd(Q, n) == 1 and passes(n, P, Q, D):
            count += 1
    return count


def slpsp_bruteforce(n: int, D: int) -> int:
    """Count accepting pairs by running the test on every P mod n.

    Direct enumeration, so capped at n < 10**4.  This is the ground truth
    the closed-form count is checked against.
    """
    return _pair_count(n, D, _strong_pass_raw)


def lpsp_bruteforce(n: int, D: int) -> int:
    """Count P values accepted by the plain Lucas round (same conventions)."""
    return _pair_count(n, D, _lucas_pass_raw)


def _base_count(n: int, passes) -> int:
    # bases 1 and n - 1 pass every round; the rest are run one by one
    _check_bruteforce(n)
    return 2 + sum(1 for a in range(2, n - 1) if passes(n, a))


def fermat_bruteforce(n: int) -> int:
    from .classical import fermat_round
    return _base_count(n, fermat_round)


def mr_bruteforce(n: int) -> int:
    from .classical import miller_rabin_round
    return _base_count(n, miller_rabin_round)


def psp_to_lpsp_compose(n: int, b: int, c: int) -> LucasParams:
    """Turn two Fermat liars into Lucas parameters the plain test accepts.

    If n is a Fermat pseudoprime to both b and c (with gcd(n, bc(b-c)) = 1)
    then it is a Lucas pseudoprime for P = b + c, Q = b*c, whose
    discriminant (b - c)**2 is a square, hence jacobi(D, n) = +1.
    """
    from .lucas import LucasParams
    if gcd(n, b * c * (b - c)) != 1:
        raise ValueError("need gcd(n, b*c*(b-c)) = 1")
    return LucasParams((b + c) % n, (b * c) % n)
