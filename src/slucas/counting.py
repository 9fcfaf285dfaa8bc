"""Exact liar counts for the Fermat, Miller-Rabin, Lucas and strong Lucas
tests, together with brute-force cross-checks and the derived densities.

All four counts are one product over the distinct primes p | n (Monier,
Theor. Comp. Sci. 1980, for the bases; Arnault, Math. Comp. 1997, for
the Lucas pairs).  With eps(p) = (D/p) for the pairs and 1 for the bases,
m = n - eps(n) (its odd part for the strong tests), g_p = gcd(m, p -
eps(p)), c = 1 for pairs and 0 for bases, k1 the least 2-adic valuation
of p - eps(p) and s the number of distinct primes, the count is
    plain:   prod (g_p - c)
    strong:  prod (g_p - c) + sum_{j < k1} 2^(j*s) * prod g_p.
All counts are exact integers; the densities are Fractions so nothing is
rounded until a caller formats it.  lucas_uv_mod's (U, V, Q^m) ladder
defines both Lucas rounds for the brute-force counts and round tests:
n | U_{n-eps} = U_q * V_q * ... * V_{2^(kappa-1) q}, or n | one factor
(Baillie-Wagstaff, "Lucas Pseudoprimes", Math. Comp. 1980).
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


def _liar_parts(f: Factorization, eps_of, strong: bool) -> tuple[int, int]:
    """(count, eps(n)) by the module's product formula for n = f.n.

    ``eps_of(p)`` is (D/p) for the pair counts, whose caller has checked
    gcd(n, 2*D) = 1, so eps(n) = prod (D/p)^r; None for the base counts.
    ``strong`` picks the strong round's count over the plain one's.
    """
    eps_n, shifted, bits = 1, [], 0
    for p, r in f.factors:
        e = 1 if eps_of is None else eps_of(p)
        if r & 1:
            eps_n *= e
        x = p - e
        shifted.append(x)
        bits |= x
    m = f.n - eps_n
    if strong:
        m //= m & -m
    c = 0 if eps_of is None else 1
    head = tail = 1
    for x in shifted:
        g = gcd(m, x)
        head *= g - c
        tail *= g
    if not strong:
        return head, eps_n
    s = len(shifted)
    low = bits & -bits      # 2^k1: the OR's lowest bit is the least one
    # the sum over j < k1 is (2^(k1*s) - 1)/(2^s - 1)
    return head + (low ** s - 1) // ((1 << s) - 1) * tail, eps_n


def _pair_parts(n: int | Factorization, D: int,
                strong: bool) -> tuple[int, int]:
    # (count, n - eps(n) - 1), or (0, 1) when gcd(n, 2*D) > 1
    f = _fact(n)
    if gcd(f.n, 2 * D) > 1:
        return 0, 1
    count, eps_n = _liar_parts(f, lambda p: jacobi(D, p), strong)
    return count, f.n - eps_n - 1


def _base_parts(n: int | Factorization, strong: bool, name: str) -> int:
    f = _fact(n)
    if f.n % 2 == 0:
        raise ValueError(f"{name} expects odd n")
    return _liar_parts(f, None, strong)[0]


def sl_count(n: int | Factorization, D: int) -> int:
    """Number of pairs (P, Q) mod n that the strong Lucas round accepts.

    Pairs range over 0 <= P, Q < n with gcd(Q, n) = 1 and
    P**2 - 4*Q = D mod n.  Zero by convention when gcd(n, 2*D) > 1.
    For prime n every admissible pair passes, so the count collapses to
    n - eps - 1.
    """
    return _pair_parts(n, D, True)[0]


def lucas_count(n: int | Factorization, D: int) -> int:
    """Number of P mod n the plain Lucas round accepts; 0 if gcd(n, 2D) > 1."""
    return _pair_parts(n, D, False)[0]


def fermat_count(n: int | Factorization) -> int:
    """Number of bases a mod n with a**(n-1) = 1, for odd n >= 3."""
    return _base_parts(n, False, "fermat_count")


def mr_count(n: int | Factorization) -> int:
    """Number of bases a mod n that pass one Miller-Rabin round, odd n >= 3."""
    return _base_parts(n, True, "mr_count")


def alpha_bar(n: int | Factorization, D: int) -> Fraction:
    """SL count divided by n - eps - 1, exactly."""
    return Fraction(*_pair_parts(n, D, True))


def alpha(n: int | Factorization, D: int) -> Fraction:
    """SL count divided by the norm-one group order, exactly."""
    f = _fact(n)
    if gcd(f.n, 2 * D) > 1:
        return Fraction(0)
    return Fraction(sl_count(f, D), phi_d(f, D))


def is_twin_prime_product(n: int | Factorization) -> bool:
    """True iff n = p * (p + 2) with both factors prime."""
    factors = _fact(n).factors  # prime already, ascending
    return factors[0][1] == 1 and factors[1:] == [(factors[0][0] + 2, 1)]


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


def lucas_uv_mod(m: int, P: int, Q: int, n: int) -> tuple[int, int, int]:
    """(U_m mod n, V_m mod n, Q**m mod n) in O(log m) steps, n odd >= 3.

    Left-to-right binary ladder on the doubling rules
        U_{2j} = U_j * V_j,      V_{2j} = V_j^2 - 2*Q^j,
    with the +1 step done through
        U_{j+1} = (P*U_j + V_j)/2,  V_{j+1} = (D*U_j + P*V_j)/2,
    where the halving is exact mod odd n via x -> (x + n*(x & 1)) >> 1.
    """
    if n < 3 or n % 2 == 0:
        raise ValueError("modulus must be odd and >= 3")
    if m < 0:
        raise ValueError("index must be >= 0")
    if m == 0:
        return 0, 2 % n, 1 % n
    Dn = (P * P - 4 * Q) % n
    P %= n
    Q %= n
    u, v, qk = 1, P, Q  # sequence values at the index read so far
    for bit in bin(m)[3:]:
        # double: j -> 2j
        u = (u * v) % n
        v = (v * v - 2 * qk) % n
        qk = (qk * qk) % n
        if bit == "1":
            # advance: 2j -> 2j + 1
            u, v = (P * u + v) % n, (Dn * u + P * v) % n
            u = (u + n * (u & 1)) >> 1
            v = (v + n * (v & 1)) >> 1
            qk = (qk * Q) % n
    return u, v, qk


def _strong_pass_raw(n: int, P: int, Q: int, D: int) -> bool:
    # definition-level check: no screening of P, only the congruences
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
