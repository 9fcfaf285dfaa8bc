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

The exact small-k surveys (``exact_qk1``) price every composite in the
screened k-bit window with the strong pair count, one error value per D.
Every n here is factored by ``kernel.factorize``: a least-factor table
below 2^16, gcd blocks of primes to 2^12, 2^14 or 2^16 above it, then rho.
Of the CLI's commands only ``slucas count`` and ``bounds --survey-k``
load this module.
"""

from __future__ import annotations

from fractions import Fraction
from functools import cache, lru_cache, partial
from itertools import islice
from math import gcd, prod
from typing import NamedTuple

from .kernel import (EXACT_SURVEY_MAX_K, MIN_SCREEN_DEPTH, CapacityError,
                     Factorization, _method_a_sequence, _pairwise,
                     check_discriminant, check_integer, check_odd,
                     check_rounds, factorize, is_perfect_square, jacobi,
                     odd_primes, split_power_of_two, unlimited_digits)

BRUTEFORCE_LIMIT = 10 ** 4


def _fact(n: int | Factorization) -> Factorization:
    return n if isinstance(n, Factorization) else factorize(n)


def phi_d(n: int | Factorization, D: int) -> int:
    """Order of the norm-one group attached to discriminant D.

    Multiplicative over prime powers with local value
    p**(r-1) * (p - eps_D(p)); requires gcd(n, 2*D) = 1.
    """
    f = _fact(n)
    if gcd(f.n, 2 * D) > 1:
        raise ValueError("need n coprime to 2*D")
    out = 1
    for p, r in f:
        out *= p ** (r - 1) * (p - jacobi(D, p))
    return out


def _liar_parts(f: Factorization, eps_of, strong: bool) -> tuple[int, int]:
    """(count, n - eps(n) - 1) by the module's product formula for n = f.n.

    ``eps_of(p)`` is (D/p) for the pair counts, whose caller has checked
    gcd(n, 2*D) = 1, so eps(n) = prod (D/p)^r; None for the base counts,
    which read only the count.  ``strong`` picks the strong round's count
    over the plain one's.
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
        return head, f.n - eps_n - 1
    s = len(shifted)
    low = bits & -bits      # 2^k1: the OR's lowest bit is the least one
    # the sum over j < k1 is (2^(k1*s) - 1)/(2^s - 1)
    return head + (low ** s - 1) // ((1 << s) - 1) * tail, f.n - eps_n - 1


def _pair_parts(fs: list[Factorization], D: int,
                strong: bool) -> list[tuple[int, int]]:
    # (count, n - eps(n) - 1) for each n = f.n coprime to 2*D, in input
    # order; the cache computes (D/p) once for each distinct prime
    eps_of = cache(partial(jacobi, D))
    return [_liar_parts(f, eps_of, strong) for f in fs if gcd(f.n, 2 * D) == 1]


def _base_parts(n: int | Factorization, strong: bool) -> int:
    check_odd(n.n if isinstance(n, Factorization) else n, 3)
    return _liar_parts(_fact(n), None, strong)[0]


def sl_count(n: int | Factorization, D: int) -> int:
    """Number of pairs (P, Q) mod n that the strong Lucas round accepts.

    Pairs range over 0 <= P, Q < n with gcd(Q, n) = 1 and
    P**2 - 4*Q = D mod n.  Zero by convention when gcd(n, 2*D) > 1.
    For prime n every admissible pair passes, so the count collapses to
    n - eps - 1.
    """
    return sum(count for count, _ in _pair_parts([_fact(n)], D, True))


def lucas_count(n: int | Factorization, D: int) -> int:
    """Number of P mod n the plain Lucas round accepts; 0 if gcd(n, 2D) > 1."""
    return sum(count for count, _ in _pair_parts([_fact(n)], D, False))


def fermat_count(n: int | Factorization) -> int:
    """Number of bases a mod n with a**(n-1) = 1, for odd n >= 3."""
    return _base_parts(n, False)


def mr_count(n: int | Factorization) -> int:
    """Number of bases a mod n that pass one Miller-Rabin round, odd n >= 3."""
    return _base_parts(n, True)


def alpha_bar(n: int | Factorization, D: int) -> Fraction:
    """SL count divided by n - eps - 1, exactly."""
    parts = _pair_parts([_fact(n)], D, True)
    return Fraction(*parts[0]) if parts else Fraction(0)


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
    check_odd(n, 3)
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
    check_odd(n, 3)
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


def _fraction_text(x: Fraction) -> str:
    # "p/q" in full: at k = 16 the denominators run to ~7,900 digits
    with unlimited_digits():
        return f"{x.numerator}/{x.denominator}"


# terms per unreduced (numerator, denominator) block in _exact_sum
SUM_BLOCK = 256


def _add_ratios(x: tuple[int, int], y: tuple[int, int]) -> tuple[int, int]:
    return x[0] * y[1] + y[0] * x[1], x[1] * y[1]


def _exact_sum(ratios: list[tuple[int, int]]) -> Fraction:
    # each block of integer ratios is added without reducing, then becomes
    # one Fraction, and the Fractions are added pairwise; Fractions are
    # canonical, so the reduced total is the same whatever the grouping
    if not ratios:
        return Fraction(0)
    blocks = [Fraction(*_pairwise(ratios[i:i + SUM_BLOCK], _add_ratios))
              for i in range(0, len(ratios), SUM_BLOCK)]
    return _pairwise(blocks, Fraction.__add__)


class DiscriminantSurvey(NamedTuple):
    """Exact error measurement for one discriminant over a k-bit window."""

    d: int
    liar_mass: Fraction   # sum of alpha_bar^r over surviving composites
    composites: int       # composites coprime to 2d in the window
    primes: int           # primes coprime to 2d in the window
    q: Fraction           # liar_mass / (liar_mass + primes)

    def as_dict(self) -> dict:
        return {"d": self.d, "q": float(self.q),
                "q_exact": _fraction_text(self.q),
                "liar_mass": _fraction_text(self.liar_mass),
                "composites": self.composites, "primes": self.primes}


class ExactSurvey(NamedTuple):
    """Per-discriminant exact error probabilities for small k."""

    k: int
    r: int
    per_d: tuple[DiscriminantSurvey, ...]
    best: DiscriminantSurvey  # the entry of largest q

    def as_dict(self) -> dict:
        return {"k": self.k, "r": self.r, "max_q": float(self.best.q),
                "argmax_d": self.best.d,
                "per_d": [s.as_dict() for s in self.per_d]}


def method_a_discriminants(count: int) -> list[int]:
    """First ``count`` values of the alternating scan 5, -7, 9, -11, ...

    squares dropped (they never arise as a usable discriminant).
    """
    usable = (d for d in _method_a_sequence() if not is_perfect_square(d))
    return list(islice(usable, count))


@lru_cache(maxsize=4)
def _survey_window(k: int) -> tuple:
    """Rows (n, factorization, n is prime) for the odd k-bit n coprime to
    the first MIN_SCREEN_DEPTH odd primes, 3 and 5, minus the twin products
    p(p + 2)."""
    screen = prod(odd_primes(MIN_SCREEN_DEPTH))
    rows = []
    for n in range((1 << k - 1) | 1, 1 << k, 2):
        if gcd(n, screen) == 1:
            f = factorize(n)
            if not is_twin_prime_product(f):
                rows.append((n, f, f.factors == [(n, 1)]))
    return tuple(rows)


def exact_qk1(k: int, r: int = 1,
              d_scan: list[int] | None = None) -> ExactSurvey:
    """Exact r-round error probability at small k, one value per discriminant.

    Enumerates every odd k-bit candidate coprime to 15 (twin-prime
    products removed), factors it, and accumulates the exact per-candidate
    acceptance ratio alpha_bar^r over the composites, skipping candidates
    sharing a factor with 2d.  The returned survey carries one entry per
    scanned discriminant plus the maximum, which is the number the
    reference table prints.  For each d, ``_pair_parts`` prices every
    composite at once, and each adds the integer pair (count^r,
    (n - (d/n) - 1)^r), summed exactly by ``_exact_sum``.
    """
    check_integer(k, "k")
    if not 2 <= k <= EXACT_SURVEY_MAX_K:
        raise CapacityError(f"exact surveys cover 2 <= k <= {EXACT_SURVEY_MAX_K}")
    check_rounds(r)
    if d_scan is None:
        d_scan = method_a_discriminants(12)
    if not d_scan:
        raise ValueError("need at least one discriminant")
    for d in d_scan:
        check_discriminant(d)
    window = _survey_window(k)
    composites = [f for _, f, n_prime in window if not n_prime]
    primes = [n for n, _, n_prime in window if n_prime]
    surveys = []
    for d in d_scan:
        ratios = _pair_parts(composites, d, True)
        if r > 1:
            ratios = [(count ** r, m ** r) for count, m in ratios]
        mass = _exact_sum(ratios)
        coprime = sum(1 for n in primes if gcd(n, 2 * d) == 1)
        q = mass / (mass + coprime) if mass else Fraction(0)
        surveys.append(DiscriminantSurvey(
            d=d, liar_mass=mass, composites=len(ratios), primes=coprime, q=q))
    return ExactSurvey(k=k, r=r, per_d=tuple(surveys),
                       best=max(surveys, key=lambda s: s.q))
