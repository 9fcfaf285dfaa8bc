"""Error-bound calculators for iterated strong Lucas testing.

Everything here is about one question: if a random k-bit candidate survives
r rounds of the strong Lucas test (or an incremental search does), how
likely is it to be composite anyway?  The module provides

  * exact censuses of the screened candidate sets and prime counts,
  * closed-form upper bounds on the surviving-liar mass N_r, at several
    levels of refinement, each optimized over the free split point M,
  * the conversion q = N/(N + P) to a conditional error probability and
    the chaining that turns a one-round bound into an all-rounds bound,
  * bounds for the incremental-search variant (window of s candidates),
  * table generators that regenerate the package's reference tables.

The exact small-k surveys are in ``slucas.survey``: a table or single bound
loads only this module and ``kernel``, not ``dataclasses`` or ``fractions``.

Float evaluation is 64-bit throughout; the incremental-search bounds are
evaluated in log2 space because their values underflow a double long
before they stop being interesting.
"""

from __future__ import annotations

import math
from functools import lru_cache
from typing import NamedTuple

from .kernel import CapacityError, count_primes_in_range, sieve_primes

# Lower-bound constant for the count of k-bit primes: more than
# PRIME_DENSITY * 2^k / k of them for every k >= 8.
PRIME_DENSITY = 0.71867

# Exact censuses stop where the exact-census table (k = 17..29) does;
# q_bound sizes larger k analytically.
EXACT_CENSUS_MAX_K = 29

# Single-round engines by k: gcd-split through SPLIT_MAX_K, refined class
# sums through REFINED_MAX_K, the coarse two-term bound beyond.
SPLIT_MAX_K = 41
REFINED_MAX_K = 59

# Exact small-k surveys (slucas.survey) factor every candidate in the window.
EXACT_SURVEY_MAX_K = 16


# rho(l) needs the (l+1)-th odd prime; _odd_primes holds the 167 below 1000.
MAX_SCREEN_DEPTH = 166


@lru_cache(maxsize=1)
def _odd_primes() -> list[int]:
    return [p for p in sieve_primes(1000) if p > 2]


def _least_unscreened_prime(l: int) -> int:
    if not 1 <= l <= MAX_SCREEN_DEPTH:
        raise ValueError(f"need 1 <= l <= {MAX_SCREEN_DEPTH}")
    return _odd_primes()[l]


def rho(l: int) -> float:
    """Shrink ratio 1 + 1/p for the (l+1)-th odd prime p.

    Candidates are screened for divisibility by the first l odd primes, so
    the smallest prime factor still possible is the (l+1)-th; this ratio
    is the resulting loss factor in the geometric class-mass estimates.
    int / int rounds correctly, so this is the double nearest (p + 1)/p.
    """
    p = _least_unscreened_prime(l)
    return (p + 1) / p


def prime_lower_bound(k: int) -> float:
    """Guaranteed-to-be-exceeded lower bound on the number of k-bit primes."""
    return PRIME_DENSITY * 2.0 ** k / k


def prime_count_exact(k: int) -> int:
    """Exact number of k-bit primes, by the prime-pi recursion."""
    if k < 1:
        raise ValueError("need k >= 1")
    if k > EXACT_CENSUS_MAX_K:
        raise CapacityError(f"exact prime counts stop at k = {EXACT_CENSUS_MAX_K}")
    if k == 1:
        return 0
    return count_primes_in_range(1 << (k - 1), 1 << k)


def m_split_range(k: int) -> range:
    """Admissible split points M: integers in [3, 2*sqrt(k-1) - 1]."""
    return range(3, int(2 * math.sqrt(k - 1) - 1) + 1)


def _check_m(k: int, M: int) -> None:
    if M not in m_split_range(k):
        raise ValueError(f"split point M={M} outside [3, 2*sqrt(k-1)-1] for k={k}")


# ---------------------------------------------------------------------------
# censuses of the screened candidate sets


class ScreenCensus(NamedTuple):
    """Cardinalities of the k-bit candidate sets behind the bounds.

    ``screened``  -- odd k-bit integers coprime to the first l odd primes
    ``survivors`` -- the same with twin-prime products p(p+2) removed
    ``primes``    -- k-bit primes
    ``twins``     -- twin-prime products that the removal dropped
    ``lower``/``upper`` -- analytic bracket 2^(k-2.92) .. 2^(k-2.9) for the
    screened count; only valid for l = 2 and k >= 12, else None.
    """

    k: int
    l: int
    screened: int | None = None
    survivors: int | None = None
    primes: int | None = None
    twins: int | None = None
    lower: float | None = None
    upper: float | None = None


def _screened_count(k: int, l: int) -> int:
    # inclusion-exclusion over the squarefree products of the screen primes
    lo, hi = 1 << (k - 1), 1 << k
    screen = _odd_primes()[:l]
    total = 0
    for mask in range(1 << l):
        d = 1
        bits = 0
        for i, p in enumerate(screen):
            if mask >> i & 1:
                d *= p
                bits += 1
        a = -(-lo // d)
        b = -(-hi // d)
        total += (-1) ** bits * (b // 2 - a // 2)  # odd integers in [a, b)
    return total


def _twin_products(k: int, l: int) -> list[int]:
    lo, hi = 1 << (k - 1), 1 << k
    top = math.isqrt(hi) + 3
    primes = set(sieve_primes(top))
    screen = _odd_primes()[:l]
    out = []
    for p in sorted(primes):
        if p + 2 not in primes:
            continue
        n = p * (p + 2)
        if lo <= n < hi and all(n % q for q in screen):
            out.append(n)
    return out


@lru_cache(maxsize=None)
def screen_census(k: int, l: int = 2, exact: bool = False) -> ScreenCensus:
    """Census of odd k-bit candidates surviving the small-prime screen.

    With ``exact`` the counts are computed outright (k <= 29, the prime
    count being the limiting step); otherwise only the analytic bracket is
    filled in, and only where it applies (l = 2, k >= 12).
    """
    if k < 2:
        raise ValueError("need k >= 2")
    lower = upper = None
    if l == 2 and k >= 12:
        lower = 2.0 ** (k - 2.92)
        upper = 2.0 ** (k - 2.9)
    if not exact:
        return ScreenCensus(k=k, l=l, lower=lower, upper=upper)
    if k > EXACT_CENSUS_MAX_K:
        raise CapacityError(f"exact censuses stop at k = {EXACT_CENSUS_MAX_K}")
    screened = _screened_count(k, l)
    twins = len(_twin_products(k, l))
    return ScreenCensus(k=k, l=l, screened=screened,
                        survivors=screened - twins,
                        primes=prime_count_exact(k), twins=twins,
                        lower=lower, upper=upper)


# ---------------------------------------------------------------------------
# liar-mass bounds, each optimized over the split point M


class BoundReport(NamedTuple):
    """A bound value together with how it was assembled."""

    value: float
    m_opt: int
    terms: dict[str, float]
    source: str


def _optimize(k: int, M: int | None, evaluate) -> BoundReport:
    if M is not None:
        _check_m(k, M)
        return evaluate(M)
    reports = [evaluate(m) for m in m_split_range(k)]
    if not reports:
        raise ValueError(f"no admissible split point for k={k}")
    return min(reports, key=lambda rep: rep.value)


def n1_bound_coarse(k: int, l: int = 8, M: int | None = None) -> BoundReport:
    """Two-term single-round liar-mass bound (wide-k workhorse).

    A geometric tail for candidates with many prime factors plus a crude
    count of the remaining classes.  Omit M to minimize over the
    admissible range.
    """
    r = rho(l)

    def evaluate(m: int) -> BoundReport:
        tail = 2.0 ** (k - 1.9 - m) * r ** (m + 1) / (2 - r)
        classes = 2.0 ** (k - 2 * math.sqrt(k - 1)) * r ** m * m * (m - 1)
        return BoundReport(value=tail + classes, m_opt=m,
                           terms={"tail": tail, "classes": classes},
                           source="single-round coarse")

    return _optimize(k, M, evaluate)


def n1_bound_refined(k: int, l: int = 8, M: int | None = None,
                     m_size: float | None = None) -> BoundReport:
    """Single-round bound with per-class cardinality sums (mid-range k).

    ``m_size`` is the size of the screened candidate set; the analytic
    upper bracket 2^(k-2.9) is used when not supplied.
    """
    r = rho(l)
    if m_size is None:
        m_size = 2.0 ** (k - 2.9)

    def evaluate(m_top: int) -> BoundReport:
        tail = 2.0 ** (1 - m_top) * r ** (m_top + 1) / (2 - r) * m_size
        classes = 2.0 ** k * sum(
            (r / 2) ** m * sum(
                (2.0 ** (m + 1 - j) - 1) / (2.0 ** ((k - 1) / j) - 1)
                for j in range(2, m + 1))
            for m in range(2, m_top + 1))
        return BoundReport(value=tail + classes, m_opt=m_top,
                           terms={"tail": tail, "classes": classes},
                           source="single-round refined")

    return _optimize(k, M, evaluate)


def class_card_split(k: int, l: int, m: int) -> tuple[float, float]:
    """Cardinality bounds for the m-factor classes, split by gcd shape.

    Returns ``(large_gcd, small_gcd)``: the first bounds candidates having
    a prime p whose p - eps(p) shares at least a third of itself with
    n - eps(n) (plus the non-squarefree stragglers), the second bounds the
    candidates where every such share is small.  The second is empty until
    m = 4.
    """
    if m + 1 > 2 * math.sqrt(k - 1):
        raise ValueError(f"class split needs m + 1 <= 2*sqrt(k-1); m={m}, k={k}")
    odd = _odd_primes()
    large = 0.0
    prod = 1
    for j in range(2, m + 1):
        prod *= odd[l + j - 2]
        large += 3.0 / prod / (2.0 ** ((k - 1) / j) + 1)
    small = sum((2.0 ** (m + 1 - j) - 4) / (2.0 ** ((k - 1) / j) + 1)
                for j in range(2, m - 1))
    return 2.0 ** k * large, 2.0 ** k * small


def nr_bound_split(k: int, r: int, l: int = 8, M: int | None = None,
                   m_size: float | None = None,
                   parts: str = "both") -> BoundReport:
    """r-round liar-mass bound built on the gcd-split class cardinalities.

    ``m_size`` sizes the screened candidate set (analytic bracket when
    omitted; pass an exact census for small k).  ``parts`` selects which
    class families feed the sum: "both" is the full bound, "large-gcd" and
    "small-gcd" isolate one family each — the reference tables plot the
    dominating family per column, so the table generators use those.
    """
    if parts not in ("both", "large-gcd", "small-gcd"):
        raise ValueError(f"unknown parts selector: {parts!r}")
    if r < 1:
        raise ValueError("need r >= 1")
    ro = rho(l)
    if m_size is None:
        m_size = 2.0 ** (k - 2.9)

    def evaluate(m_top: int) -> BoundReport:
        tail = (2.0 ** (r * (1 - m_top)) * m_size
                * ro ** ((m_top + 1) * r) / (2.0 ** r - ro ** r))
        large = small = 0.0
        for m in range(2, m_top + 1):
            weight = (ro / 2) ** (m * r)
            lg, sm = class_card_split(k, l, m)
            large += weight * lg
            small += weight * sm
        large *= 2.0 ** r
        small *= 2.0 ** r
        if parts == "large-gcd":
            total = tail + large
        elif parts == "small-gcd":
            total = tail + small
        else:
            total = tail + large + small
        return BoundReport(value=total, m_opt=m_top,
                           terms={"tail": tail, "large_gcd": large,
                                  "small_gcd": small},
                           source=f"multi-round split ({parts})")

    return _optimize(k, M, evaluate)


def qkr_upper(n_r: float, p: float) -> float:
    """Error probability from liar mass and prime count: N/(N + P)."""
    if n_r < 0 or p <= 0:
        raise ValueError("need N >= 0 and P > 0")
    return n_r / (n_r + p)


def chain_rule(q_r: float, r: int, t: int) -> float:
    """Extend an r-round error bound to t > r rounds.

    q_t <= (4/15)^(t-r) * q_r / (1 - q_r); at q_r = 4/19 the right side
    collapses to (4/15)^t, which is why 4/19 is the single-round target.
    """
    if not 0 <= q_r < 1:
        raise ValueError("need 0 <= q_r < 1")
    if t <= r:
        raise ValueError("need t > r")
    return (4 / 15) ** (t - r) * q_r / (1 - q_r)


def qk1_analytic(k: int, l: int = 8) -> float:
    """Closed-form single-round error bound k^2 4^(1.8-sqrt(k)) rho^(2*sqrt(k-1)-2).

    Strictly decreasing from k = 10 on and below 4/19 once k reaches 101;
    useful as an any-k fallback when no table row applies.
    """
    if k < 2:
        raise ValueError("need k >= 2")
    r = rho(l)
    return k * k * 4.0 ** (1.8 - math.sqrt(k)) * r ** (2 * math.sqrt(k - 1) - 2)


def q_bound(k: int, r: int = 1, l: int = 8) -> BoundReport:
    """The reference table's error bound for r rounds on k-bit candidates.

    Dispatches to the engine that the reference table for this (k, r)
    column uses: the gcd-split engine for every r >= 2 and for r = 1
    through k = 41, the refined class sums through k = 59, and the coarse
    two-term bound beyond.  Up to k = 29 the candidate set and the prime
    count come from the exact census, past it from the analytic sizes.
    The report's value is the probability q, with the liar mass and prime
    count in the terms.

    Where it uses the gcd-split engine it sums one class family, as the
    tables do: small-gcd for r = 1, large-gcd for r >= 2.  The full sum is
    1,200x larger at k = 64, r = 2, so for r >= 2 this is the table's
    number, not a bound on all liars.
    """
    if k < 17:
        raise ValueError("tabulated bounds start at k = 17; "
                         "use exact_qk1 for smaller k")
    if k <= EXACT_CENSUS_MAX_K:
        census = screen_census(k, l, exact=True)
        m_size, prime_mass = census.survivors, float(census.primes)
    else:
        m_size, prime_mass = None, prime_lower_bound(k)
    if r != 1 or k <= SPLIT_MAX_K:
        parts = "small-gcd" if r == 1 else "large-gcd"
        rep = nr_bound_split(k, r, l, m_size=m_size, parts=parts)
    elif k <= REFINED_MAX_K:
        rep = n1_bound_refined(k, l)
    else:
        rep = n1_bound_coarse(k, l)
    q = qkr_upper(rep.value, prime_mass)
    terms = dict(rep.terms)
    terms["liar_mass"] = rep.value
    terms["prime_mass"] = prime_mass
    return BoundReport(value=q, m_opt=rep.m_opt, terms=terms,
                       source=rep.source)


# ---------------------------------------------------------------------------
# incremental-search bounds (window of s = c * ln(2^k) candidates)


def _log2_add(a: float, b: float) -> float:
    if a < b:
        a, b = b, a
    if b == -math.inf:
        return a
    return a + math.log2(1.0 + 2.0 ** (b - a))


@lru_cache(maxsize=4096)
def _class_inner_log2(k: int, m: int) -> float:
    inner = -math.inf
    for j in range(2, m + 1):
        inner = _log2_add(inner, -j - (k - 1) / j)
    return inner


@lru_cache(maxsize=1024)
def _class_prefix_log2(k: int, t: int) -> tuple[float, ...]:
    # prefix[i] = log2 of sum over m = 3..i of 2^(m(1-t)) * inner(k, m)
    top = math.ceil(1.2 * max(m_split_range(k)))
    out = [-math.inf] * (top + 1)
    acc = -math.inf
    for m in range(3, top + 1):
        acc = _log2_add(acc, m * (1 - t) + _class_inner_log2(k, m))
        out[m] = acc
    return tuple(out)


def ykts_bound(k: int, t: int, c: float, M: int | None = None) -> BoundReport:
    """Error bound for incremental search: window c*ln(2^k), t rounds.

    Evaluated in log2 space; ``terms['log2']`` is always finite even when
    the value itself underflows a float.  Omit M to minimize.  A c so
    large that c*k or the bound itself leaves float range is a ValueError.
    """
    if t < 1 or not 0 < c < math.inf:
        raise ValueError("need t >= 1 and finite c > 0")
    ck = c * k
    if math.isinf(ck):
        raise ValueError(f"c * k = {c:g} * {k} is past float range")
    prefix = _class_prefix_log2(k, t)

    def log2_terms(m_top: int) -> dict[str, float]:
        class_mass = (prefix[math.ceil(1.2 * m_top)]
                      + 3.42 + t + 2 * math.log2(ck))
        window_tail = math.log2(0.7 * ck) - t * m_top
        return {"log2": _log2_add(class_mass, window_tail),
                "class_mass_log2": class_mass,
                "window_tail_log2": window_tail}

    if M is not None:
        _check_m(k, M)
    splits = [M] if M is not None else m_split_range(k)
    # pick M on the log2 alone: 2^log2 can overflow at a non-optimal M
    m_opt = min(splits, key=lambda m: log2_terms(m)["log2"])
    terms = log2_terms(m_opt)
    log2_total = terms["log2"]
    if log2_total >= 1024:
        raise ValueError(f"c = {c:g} puts the bound at 2^{log2_total:.0f}, "
                         "past float range")
    value = 2.0 ** log2_total if log2_total > -1074 else 0.0
    return BoundReport(value=value, m_opt=m_opt, terms=terms,
                       source="incremental window")


def ykts_table_cell(k: int, t: int, c: float) -> int:
    """floor(-log2 y) for the optimized incremental bound, clamped at 0."""
    rep = ykts_bound(k, t, c)
    return max(0, math.floor(-rep.terms["log2"]))


def asymptotic_check(k: int, t: int, c: float,
                     lam: float | None = None) -> tuple[bool, float]:
    """Check the incremental bound against lambda * k^3 * 2^(-sqrt(k)).

    lambda defaults to 2c^2 + 1.  Returns (holds, witness) where witness
    is the smallest lambda that would make the inequality tight; compared
    in log2 space so huge k cannot underflow.
    """
    if k < 18:
        raise ValueError("asymptotic form needs k >= 18")
    if lam is None:
        lam = 2 * c * c + 1
    log2y = ykts_bound(k, t, c).terms["log2"]
    log2_envelope = 3 * math.log2(k) - math.sqrt(k)
    witness = 2.0 ** (log2y - log2_envelope)
    if lam <= 0:
        return False, witness
    return log2y <= math.log2(lam) + log2_envelope, witness


# ---------------------------------------------------------------------------
# table generators


TABLE6_K_ROWS = (100, 200, 400, 512, 1024, 2048, 4096)

# q tables: table -> (k range, last k with a two-round column, or None)
Q_TABLES = {
    2: (range(REFINED_MAX_K + 1, 101), None),
    3: (range(SPLIT_MAX_K + 1, REFINED_MAX_K + 1), None),
    4: (range(EXACT_CENSUS_MAX_K + 1, SPLIT_MAX_K + 1), 33),
    5: (range(17, EXACT_CENSUS_MAX_K + 1), 26),
}


def table_rows(which: int, l: int = 8, c: float = 1.0) -> tuple[list[str], list[list]]:
    """Regenerate one of the six reference tables; returns (header, rows).

    1: exact k-bit prime counts against the floor of the analytic bound
    2: single-round q, coarse engine, k = 60..100
    3: single-round q, refined engine, k = 42..59
    4: one- and two-round q, gcd-split engine, analytic sizing, k = 30..41
    5: the same on exact censuses, k = 17..29
    6: floor(-log2 y) for the incremental bound at the given c, t = 1..10
    """
    if which == 1:
        header = ["k", "primes", "bound_floor"]
        rows = [[k, prime_count_exact(k), int(prime_lower_bound(k))]
                for k in range(8, 21)]
    elif which in Q_TABLES:
        ks, last_q2 = Q_TABLES[which]
        header = ["k", "M1", "q1", "M2", "q2"] if last_q2 else ["k", "M", "q1"]
        if ks[-1] <= EXACT_CENSUS_MAX_K:
            # the prime-pi table behind the largest k's count holds every
            # smaller k's count too, so build it first and the rest read it
            prime_count_exact(ks[-1])
        rows = []
        for k in ks:
            one = q_bound(k, 1, l)
            row = [k, one.m_opt, one.value]
            if last_q2 and k <= last_q2:
                two = q_bound(k, 2, l)
                row += [two.m_opt, two.value]
            elif last_q2:
                row += [None, None]
            rows.append(row)
    elif which == 6:
        header = ["k"] + [f"t{t}" for t in range(1, 11)]
        rows = [[k] + [ykts_table_cell(k, t, c) for t in range(1, 11)]
                for k in TABLE6_K_ROWS]
    else:
        raise ValueError(f"no table {which}; pick 1..6")
    return header, rows


def format_tsv(header: list[str], rows: list[list]) -> str:
    """Tab-separated rendering, floats at 6 decimals, blanks for None."""
    def cell(v) -> str:
        if v is None:
            return ""
        if isinstance(v, float):
            return f"{v:.6f}"
        return str(v)

    lines = ["\t".join(header)]
    lines.extend("\t".join(cell(v) for v in row) for row in rows)
    return "\n".join(lines) + "\n"


def format_json(header: list[str], rows: list[list]) -> str:
    import json
    return json.dumps([dict(zip(header, row)) for row in rows], indent=2) + "\n"
