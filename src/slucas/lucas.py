"""Lucas sequences U_m(P, Q), V_m(P, Q) and the Lucas probable-prime tests.

The sequences satisfy X_m = P*X_{m-1} - Q*X_{m-2} with U_0 = 0, U_1 = 1,
V_0 = 2, V_1 = P, and D = P**2 - 4*Q.  For an odd n coprime to 2*Q*D, put
eps = jacobi(D, n) and n - eps = 2**kappa * q with q odd.  U_{2k} =
U_k * V_k splits U_{n-eps} = U_q * V_q * V_{2q} * ... * V_{2^(kappa-1) q}.
n prime implies n | U_{n-eps}, the plain test, and n | one factor, the
strong test (Baillie-Wagstaff, "Lucas Pseudoprimes", Math. Comp. 1980).
Both rounds read unit multiples of the factors off one chain, _zero_terms.

The records are ``typing.NamedTuple``s, so testing or generating primes
never loads ``dataclasses`` (and with it ``inspect``).
"""

from __future__ import annotations

import enum
import math
import random
from typing import NamedTuple

from .kernel import (_method_a_sequence, is_perfect_square, jacobi,
                     split_power_of_two)


class Verdict(enum.Enum):
    PROBABLE_PRIME = "probable-prime"
    COMPOSITE = "composite"
    BAD_PARAMS = "bad-params"


class RoundResult(NamedTuple):
    """Outcome of one test round.

    verdict is the headline; reason is a short machine-greppable tag;
    factor carries a nontrivial divisor when one fell out of a gcd.
    """

    verdict: Verdict
    reason: str = ""
    factor: int | None = None

    def __bool__(self) -> bool:
        return self.verdict is Verdict.PROBABLE_PRIME


PROBABLE_PRIME = RoundResult(Verdict.PROBABLE_PRIME)


class LucasParams(NamedTuple):
    """A parameter pair (P, Q) with its discriminant D = P^2 - 4Q."""

    P: int
    Q: int

    @property
    def D(self) -> int:
        return self.P * self.P - 4 * self.Q


class ParamSearchError(RuntimeError):
    """Raised when random or sequential parameter search gives up."""


def _check_args(n: int, params: LucasParams) -> RoundResult | None:
    if n < 5 or n % 2 == 0:
        raise ValueError("test expects an odd integer n >= 5")
    P, Q, D = params.P, params.Q, params.D
    if D == 0:
        return RoundResult(Verdict.BAD_PARAMS, "square-discriminant")
    for name, value in (("P", P), ("Q", Q), ("D", D)):
        g = math.gcd(value, n)
        if 1 < g < n:
            return RoundResult(Verdict.COMPOSITE, f"gcd-{name}", g)
        if g == n and name != "P":
            # Q or D divisible by n: the sequence degenerates
            return RoundResult(Verdict.BAD_PARAMS, f"{name}-vanishes")
    return None


def _zero_terms(n: int, params: LucasParams) -> list[int]:
    """Unit multiples of U_q, V_q, V_{2q}, ..., V_{2^(kappa-1) q} mod n,
    for (n, params) past _check_args, off one chain of W_k = V_k(R, 1),
    R = P^2/Q - 2 (Q and D are units, P is a unit or 0).  For q = 2m + 1
        D * U_q = Q^(m+1) * (W_{m+1} - W_m),
        P * V_q = Q^(m+1) * (W_{m+1} + W_m),
        V_{2^i q} = Q^(2^(i-1) q) * W_{2^(i-1) q}   (i >= 1).
    A Montgomery ladder gives (W_m, W_{m+1}) at two products per bit of
    m, through W_{2k} = W_k^2 - 2 and W_{2k+1} = W_k * W_{k+1} - R, and
    W_q = W_m * W_{m+1} - R starts the square-minus-2 chain.  With P = 0,
    V_q = 0 (q is odd); then R = -2 and W_k = 2 * (-1)^k, so the V_q term
    W_m + W_{m+1} is 0 too.
    """
    eps = jacobi(params.D, n)
    kappa, q = split_power_of_two(n - eps)
    R = (params.P * params.P * pow(params.Q, -1, n) - 2) % n
    a, b = 2, R  # (W_k, W_{k+1}) for the bits of m = q // 2 read so far
    for bit in bin(q >> 1)[2:]:
        if bit == "1":
            a = (a * b - R) % n
            b = (b * b - 2) % n
        else:
            b = (a * b - R) % n
            a = (a * a - 2) % n
    w = (a * b - R) % n  # W_q
    terms = [(b - a) % n, (a + b) % n]
    for _ in range(kappa - 1):
        terms.append(w)
        w = (w * w - 2) % n
    return terms


def lucas_round(n: int, params: LucasParams) -> RoundResult:
    """One round of the plain Lucas test: does n divide U_{n - eps}, the
    product of the factors the strong round tests (Baillie-Wagstaff 1980)?
    It does exactly when the product of the _zero_terms is 0 mod n."""
    early = _check_args(n, params)
    if early is not None:
        return early
    product = 1
    for term in _zero_terms(n, params):
        product = product * term % n
    if product == 0:
        return PROBABLE_PRIME
    return RoundResult(Verdict.COMPOSITE, "u-nonzero")


def strong_lucas_round(n: int, params: LucasParams) -> RoundResult:
    """One round of the strong Lucas test: does n divide U_q or some
    V_{2**i * q} with 0 <= i < kappa, that is one of the _zero_terms?"""
    early = _check_args(n, params)
    if early is not None:
        return early
    if 0 in _zero_terms(n, params):
        return PROBABLE_PRIME
    return RoundResult(Verdict.COMPOSITE, "no-zero-term")


MAX_PARAM_TRIES = 128


def sample_params(n: int, D: int, rng: random.Random) -> LucasParams:
    """Random (P, Q) with P^2 - 4Q = D mod n, P drawn uniformly.

    Q is pinned by Q = (P^2 - D)/4 mod n; pairs with gcd(Q, n) > 1 are
    rejected and redrawn, up to 128 attempts.
    """
    if n < 5 or n % 2 == 0:
        raise ValueError("parameter sampling expects odd n >= 5")
    if math.gcd(D, n) != 1:
        raise ValueError("discriminant must be coprime to n")
    inv4 = pow(4, -1, n)
    for _ in range(MAX_PARAM_TRIES):
        P = rng.randrange(n)
        Q = ((P * P - D) * inv4) % n
        if Q == 0 or math.gcd(Q, n) != 1:
            continue
        return LucasParams(P, Q)
    raise ParamSearchError(
        f"no unit Q found for n={n}, D={D} in {MAX_PARAM_TRIES} draws")


def select_d(n: int) -> int:
    """First discriminant D with jacobi(D, n) == -1 in Selfridge's method A.

    Method A alternates signs (5, -7, 9, -11, ...); candidates with Jacobi
    symbol 0 are skipped.  A square n has (D/n) != -1 for every D, so it
    raises ParamSearchError up front.  For any other odd n, (./n) is a
    non-principal character, so some D = 1 (mod 4) below 4n has
    (D/n) = -1 and the sweep ends.
    """
    if n < 3 or n % 2 == 0:
        raise ValueError("discriminant search expects odd n >= 3")
    if is_perfect_square(n):
        raise ParamSearchError("n is a square: no D has (D/n) = -1")
    return next(d for d in _method_a_sequence() if jacobi(d, n) == -1)
