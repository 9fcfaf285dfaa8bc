"""Error-bound calculators for iterated strong Lucas testing.

If a random k-bit candidate survives r rounds of the strong Lucas test (or
an incremental search does), how likely is it to be composite anyway?  The
module has exact censuses of the screened candidate sets, bounds on the
surviving-liar mass N_r at three levels of refinement (each optimized over
the split point M), the incremental-search window bounds, and the
reference-table generators; the exact small-k surveys are in
``slucas.counting``.

``ENGINES`` is the one table of which engine bounds each k: a row per
q table, the last row's engine running on to k = MAX_BOUND_K.
The tables read it with one class family summed, ``error_bound`` (the
one public q) with both.  The engines compute in ``_Wide``, a double with
its own binary exponent that rounds as doubles do where they reach, so the
tables come out bit for bit and ``terms['log2']`` stays finite past double
range.
"""

from __future__ import annotations

import itertools
import math
import operator
import sys
from functools import lru_cache, reduce
from types import MappingProxyType
from typing import Callable, Mapping, NamedTuple

from .kernel import (MAX_BOUND_K, MIN_BOUND_K, _phi, check_bound_rounds,
                     check_integer, check_rounds, check_screen_depth,
                     count_primes_in_range, odd_primes, sieve_primes)

# Lower-bound constant for the count of k-bit primes: more than
# PRIME_DENSITY * 2^k / k of them for every k >= 8.
PRIME_DENSITY = 0.71867

# The last k at which the engines read the exact census: table 5's last row.
EXACT_CENSUS_MAX_K = 29


def rho(l: int) -> float:
    """Shrink ratio 1 + 1/p for the (l+1)-th odd prime p.

    Candidates are screened for divisibility by the first l odd primes, so
    the smallest prime factor still possible is the (l+1)-th; this ratio
    is the resulting loss factor in the geometric class-mass estimates.
    int / int rounds correctly, so this is the double nearest (p + 1)/p.
    """
    check_screen_depth(l)
    p = odd_primes(l + 1)[l]
    return (p + 1) / p


def prime_count_exact(k: int) -> int:
    """Exact number of k-bit primes, k <= 33, each pi by Meissel's formula."""
    check_integer(k, "k")
    if k < 1:
        raise ValueError("need k >= 1")
    return count_primes_in_range(1 << (k - 1), 1 << k)


def m_split_range(k: int) -> range:
    """Admissible split points M: integers in [3, 2*sqrt(k-1) - 1]."""
    return range(3, int(2 * math.sqrt(k - 1) - 1) + 1)


def _splits(k: int, M: int | None) -> range:
    """The split points to try: M alone when given, else the whole range;
    every engine's one k check, made before any other work."""
    check_integer(k, "k")
    if k < MIN_BOUND_K:
        raise ValueError(f"the bound engines start at k = {MIN_BOUND_K}; "
                         "the exact survey (--survey-k) covers smaller k")
    if k > MAX_BOUND_K:
        raise ValueError(f"bounds stop at k = {MAX_BOUND_K}")
    splits = m_split_range(k)
    if M is None:
        return splits
    check_integer(M, "split point M")
    if M not in splits:
        raise ValueError(f"split point M={M} outside [3, 2*sqrt(k-1)-1] "
                         f"for k={k}")
    return range(M, M + 1)


# ---------------------------------------------------------------------------
# censuses of the screened candidate sets


class ScreenCensus(NamedTuple):
    """Cardinalities of the k-bit candidate sets behind the bounds.

    ``screened``  -- odd k-bit integers coprime to the first l odd primes
    ``survivors`` -- the same with twin-prime products p(p+2) removed
    ``primes``    -- k-bit primes
    ``twins``     -- twin-prime products that the removal dropped
    """

    k: int
    l: int
    screened: int | None = None
    survivors: int | None = None
    primes: int | None = None
    twins: int | None = None


def _screened_count(k: int, l: int) -> int:
    # odd integers in [2^(k-1), 2^k) coprime to the first l odd primes: the
    # n <= x divisible by none of the first l + 1 primes number phi(x, l + 1)
    return _phi((1 << k) - 1, l + 1) - _phi((1 << (k - 1)) - 1, l + 1)


def _twin_products(k: int, l: int) -> list[int]:
    lo, hi = 1 << (k - 1), 1 << k
    primes = sieve_primes(math.isqrt(hi) + 3)
    screen = odd_primes(l)
    twins = (p * q for p, q in zip(primes, primes[1:]) if q == p + 2)
    return [n for n in twins if lo <= n < hi and all(n % q for q in screen)]


@lru_cache(maxsize=None)
def screen_census(k: int, l: int = 2, exact: bool = False) -> ScreenCensus:
    """Census of odd k-bit candidates surviving the small-prime screen.

    With ``exact`` the counts are computed outright, up to the prime
    count's reach of k = 33; otherwise they are left as None.
    """
    check_integer(k, "k")
    if k < 2:
        raise ValueError("need k >= 2")
    check_screen_depth(l)
    if not exact:
        return ScreenCensus(k=k, l=l)
    primes = prime_count_exact(k)
    screened = _screened_count(k, l)
    twins = len(_twin_products(k, l))
    return ScreenCensus(k=k, l=l, screened=screened,
                        survivors=screened - twins, primes=primes, twins=twins)


# ---------------------------------------------------------------------------
# wide-range arithmetic: a double with its own binary exponent


class _Wide:
    """m * 2^e for a double m in [0.5, 1) (or 0) and any int e.

    Scaling by a power of two is exact, so each operation rounds as on
    doubles wherever those stay normal, and keeps going where they would
    not: a liar mass passes 2^1024 from k of about 1020 on, and the
    r-round weights fall below 2^-1074 from r of about 1024 on.  A plain
    number is used as it is, so it must be a moderate one.
    """

    __slots__ = ("m", "e")

    def __init__(self, x: float, e: int = 0):
        self.m, shift = math.frexp(x)
        self.e = e + shift

    def __mul__(self, other) -> _Wide:
        if type(other) is _Wide:
            return _Wide(self.m * other.m, self.e + other.e)
        return _Wide(self.m * other, self.e)

    __rmul__ = __mul__

    def __truediv__(self, other) -> _Wide:
        if type(other) is _Wide:
            return _Wide(self.m / other.m, self.e - other.e)
        return _Wide(self.m / other, self.e)

    def __rtruediv__(self, other: float) -> _Wide:
        return _Wide(other / self.m, -self.e)

    def __add__(self, other) -> _Wide:
        if type(other) is not _Wide:
            other = _Wide(other)
        hi, lo = (other, self) if self.e < other.e else (self, other)
        if not lo.m:
            return hi
        if not hi.m:
            return lo
        # a lo that lands below 2^-1022 here is under half an ulp of hi
        return _Wide(hi.m + math.ldexp(lo.m, lo.e - hi.e), hi.e)

    __radd__ = __add__

    def __sub__(self, other) -> _Wide:
        return self + -1.0 * other

    def ldexp(self, n: int) -> _Wide:
        """self * 2^n, exactly."""
        return _Wide(self.m, self.e + n)

    def __lt__(self, other: _Wide) -> bool:
        # for positive values, which every mass is, the exponent decides first
        return (self.e, self.m) < (other.e, other.m)

    def __float__(self) -> float:
        """The one conversion to a double: 0.0 below 2^-1074, inf from 2^1024."""
        try:
            return math.ldexp(self.m, self.e)
        except OverflowError:
            return math.inf

    def log2(self) -> float:
        return math.log2(self.m) + self.e if self.m else -math.inf


def _power(base: float, x: float) -> _Wide:
    """base ** x for base > 0: the double pow gives where log2 of it is
    within +-1000, else 2^log2 built from the log2."""
    log2 = x * math.log2(base)
    if -1000 < log2 < 1000:
        return _Wide(base ** x)
    whole = math.floor(log2)
    return _Wide(2.0 ** (log2 - whole), whole)


def _integer(n: int) -> _Wide:
    """float(n) for an int of any size: its top bits past float range."""
    shift = max(n.bit_length() - 1000, 0)
    return _Wide(float(n >> shift), shift)


def _prime_mass(k: int) -> _Wide:
    """PRIME_DENSITY * 2^k / k, the analytic k-bit prime count."""
    return PRIME_DENSITY * _power(2.0, k) / k


def prime_lower_bound(k: int) -> float:
    """Guaranteed-to-be-exceeded lower bound on the number of k-bit primes,
    for 8 <= k <= 1034: below 8 it fails at k = 1, 4, 6 and 7, and past
    1034 it is no finite double."""
    check_integer(k, "k")
    if not 8 <= k <= 1034:
        raise ValueError("the prime-count bound covers 8 <= k <= 1034")
    return float(_prime_mass(k))


# ---------------------------------------------------------------------------
# liar-mass bounds, each optimized over the split point M


class BoundReport(NamedTuple):
    """A bound value together with how it was assembled.

    ``terms['log2']`` is log2 of the value, finite where ``value`` under-
    or overflowed to 0.0 or inf and -inf only for an exact 0; the other
    ``*_log2`` terms are the log2 of the parts it sums.  ``ykts_bound``
    clamps a vacuous bound above 1 to 1.0 and keeps the unclamped log2.
    ``class_log2`` maps each family summed over m to the log2 of its scaled
    terms at m = 2..m_opt; the coarse and window bounds sum no family.
    """

    value: float
    m_opt: int
    terms: dict[str, float]
    source: str
    class_log2: Mapping[str, tuple[float, ...]] = MappingProxyType({})


def _report(source: str, splits: range, **parts: list | tuple) -> BoundReport:
    """The report at the split point whose parts sum least, first on ties;
    ``parts[name][i]`` is that part at ``splits[i]``, summed in this order,
    or a class family (scale, terms for m = 2..): scale * their sum to M."""
    families = {name: p for name, p in parts.items() if type(p) is tuple}
    for name, (scale, family) in families.items():
        sums = [s * scale for s in itertools.accumulate(family)]
        parts[name] = sums[splits.start - 2:]
    totals = [reduce(operator.add, column) for column in zip(*parts.values())]
    i = min(range(len(totals)), key=totals.__getitem__)
    terms = {"log2": totals[i].log2()}
    terms.update((f"{name}_log2", part[i].log2()) for name, part in parts.items())
    return BoundReport(float(totals[i]), splits[i], terms, source, {
        name: tuple((term * scale).log2() for term in family[:splits[i] - 1])
        for name, (scale, family) in families.items()})


def n1_bound_coarse(k: int, l: int = 8, M: int | None = None) -> BoundReport:
    """Two-term single-round liar-mass bound (wide-k workhorse): a geometric
    tail for candidates with many prime factors plus a crude count of the
    remaining classes.  Omit M to minimize over the admissible range."""
    r = rho(l)
    splits = _splits(k, M)
    base = _power(2.0, k - 2 * math.sqrt(k - 1))
    return _report(
        "single-round coarse", splits,
        tail=[_power(2.0, k - 1.9 - m) * r ** (m + 1) / (2 - r)
              for m in splits],
        classes=[base * r ** m * m * (m - 1) for m in splits])


def n1_bound_refined(k: int, l: int = 8,
                     M: int | None = None) -> BoundReport:
    """Single-round bound with one family of per-class sums (mid-range k)."""
    r = rho(l)
    splits = _splits(k, M)
    size = _power(2.0, k - 2.9)  # analytic bracket of the screened set
    dens = [_power(2.0, (k - 1) / j) - 1 for j in range(2, splits[-1] + 1)]
    return _report(
        "single-round refined", splits,
        tail=[2.0 ** (1 - m) * r ** (m + 1) / (2 - r) * size for m in splits],
        classes=(_power(2.0, k), [
            (r / 2) ** m * sum((2.0 ** (m + 1 - j) - 1) / dens[j - 2]
                               for j in range(2, m + 1))
            for m in range(2, splits[-1] + 1)]))


def _gcd_classes(k: int, l: int, top: int) -> dict:
    """Cardinality bounds of the m-factor classes over 2^k, split by gcd
    shape, for m = 2..top; each family is a lazy iterable, so only the
    summed ones are built.

    ``large_gcd`` bounds candidates having a prime p whose p - eps(p)
    shares at least a third of itself with n - eps(n) (plus the
    non-squarefree stragglers), ``small_gcd`` the candidates where every
    such share is small; the second is empty until m = 4.
    """
    dens = [_power(2.0, (k - 1) / j) + 1 for j in range(2, top + 1)]
    # products of the unscreened odd primes from the (l+1)-th on
    prods = itertools.accumulate(odd_primes(l + top - 1)[l:], operator.mul)
    return {"large_gcd": itertools.accumulate(
                3.0 / _integer(p) / d for p, d in zip(prods, dens)),
            "small_gcd": (sum((2.0 ** (m + 1 - j) - 4) / dens[j - 2]
                              for j in range(2, m - 1))
                          for m in range(2, top + 1))}


# the class families each parts selector of nr_bound_split sums
_PARTS = {"both": ("large_gcd", "small_gcd"), "large-gcd": ("large_gcd",),
          "small-gcd": ("small_gcd",)}


def nr_bound_split(k: int, r: int, l: int = 8, M: int | None = None,
                   m_size: float | None = None,
                   parts: str = "both") -> BoundReport:
    """r-round liar-mass bound built on the gcd-split class cardinalities.

    ``m_size`` sizes the screened candidate set (analytic bracket when
    omitted; pass an exact census for small k).  ``parts`` selects the
    class families summed: "both" is the full bound, "large-gcd" or
    "small-gcd" the one family a reference table column sums.  The terms
    hold the tail and the summed families, ``class_log2`` their classes.
    """
    if parts not in _PARTS:
        raise ValueError(f"unknown parts selector: {parts!r}")
    check_bound_rounds(r)
    ro = rho(l)
    splits = _splits(k, M)
    if m_size is None:
        size = _power(2.0, k - 2.9)
    elif not (isinstance(m_size, (int, float)) and 0 <= m_size < math.inf):
        raise ValueError(f"need a finite m_size >= 0, not {m_size!r}")
    else:
        size = _integer(m_size) if isinstance(m_size, int) else _Wide(m_size)
    classes = _gcd_classes(k, l, splits[-1])
    weights = [_power(ro / 2, m * r) for m in range(2, splits[-1] + 1)]
    scale = _power(2.0, r) * _power(2.0, k)
    tail_den = _power(2.0, r) - _power(ro, r)
    return _report(
        f"multi-round split ({parts})", splits,
        tail=[_power(2.0, r * (1 - m)) * size * _power(ro, (m + 1) * r)
              / tail_den for m in splits],
        **{name: (scale, list(map(operator.mul, weights, classes[name])))
           for name in _PARTS[parts]})


def chain_rule(q_r: float, r: int, t: int) -> float:
    """Extend an r-round error bound to t > r rounds, r and t in 1..128.

    q_t <= (4/15)^(t-r) * q_r / (1 - q_r); at q_r = 4/19 the right side
    collapses to (4/15)^t, which is why 4/19 is the single-round target.
    """
    if not 0 <= q_r < 1:
        raise ValueError("need 0 <= q_r < 1")
    check_rounds(r)
    check_rounds(t)
    if t <= r:
        raise ValueError("need t > r")
    return (4 / 15) ** (t - r) * q_r / (1 - q_r)


def qk1_analytic(k: int, l: int = 8) -> float:
    """Closed-form single-round error bound k^2 4^(1.8-sqrt(k)) rho^(2*sqrt(k-1)-2).

    d(ln q)/dk = 2/k - ln 4/(2 sqrt k) + ln rho/sqrt(k-1) < 0 at every l and
    k >= 17: rho <= 8/7, and sqrt k times it falls from -0.07 at k = 17.  So
    q <= 4/19 from k = 153, 118, 101, 89 (l = 2, 4, 8, 166) on, past 8192 too.
    """
    _splits(k, None)  # the engines' k range
    r = rho(l)
    return k * k * 4.0 ** (1.8 - math.sqrt(k)) * r ** (2 * math.sqrt(k - 1) - 2)


# ---------------------------------------------------------------------------
# the engine table: which engine bounds each (k, r)


class Engine(NamedTuple):
    """One row of ENGINES; every r >= 2 runs ``nr_bound_split``."""

    table: int                             # the q table the row feeds
    ks: range                              # that table's k rows
    one_round: Callable[..., BoundReport]  # the engine at r = 1
    last_q2: int | None                    # last k of a two-round column


# in k order; the last row's engine runs on past its table to MAX_BOUND_K
ENGINES = (
    Engine(5, range(MIN_BOUND_K, EXACT_CENSUS_MAX_K + 1), nr_bound_split, 26),
    Engine(4, range(30, 42), nr_bound_split, 33),
    Engine(3, range(42, 60), n1_bound_refined, None),
    Engine(2, range(60, 101), n1_bound_coarse, None),
)


def _engine_q(k: int, r: int, l: int, M: int | None = None,
              full: bool = False) -> BoundReport:
    """q = N/(N + P) from the ENGINES row for k at split point M (the best
    when None), summing both gcd-split class families when ``full``, else
    the tables' one: small-gcd at r = 1, large-gcd at r >= 2."""
    _splits(k, M)  # k, M and r are refused before the census
    check_bound_rounds(r)
    row = next(e for e in reversed(ENGINES) if e.ks.start <= k)
    if k <= EXACT_CENSUS_MAX_K:
        census = screen_census(k, l, exact=True)
        m_size, prime_mass = census.survivors, _Wide(census.primes)
    else:
        m_size, prime_mass = None, _prime_mass(k)
    if r != 1 or row.one_round is nr_bound_split:
        parts = "both" if full else "small-gcd" if r == 1 else "large-gcd"
        rep = nr_bound_split(k, r, l, M, m_size, parts)
    else:
        rep = row.one_round(k, l, M)
    # the engines round as doubles do, so a normal double value is their
    # exact mass; past that range the log2 carries it
    liar_mass = (_Wide(rep.value) if sys.float_info.min <= rep.value < math.inf
                 else _power(2.0, rep.terms["log2"]))
    q = liar_mass / (liar_mass + prime_mass)
    terms = dict(rep.terms, log2=q.log2(), liar_mass_log2=liar_mass.log2(),
                 prime_mass_log2=prime_mass.log2())
    return rep._replace(value=float(q), terms=terms)


def error_bound(k: int, r: int = 1, l: int = 8) -> BoundReport:
    """The error bound for r rounds on k-bit candidates: q = N/(N + P)
    from the ENGINES row for k, both gcd-split class families summed.

    The terms hold the engine's terms, log2 q as ``log2``, and log2 N and
    log2 P as ``liar_mass_log2`` and ``prime_mass_log2``.
    """
    return _engine_q(k, r, l, full=True)


# ---------------------------------------------------------------------------
# incremental-search bounds (window of s = c * ln(2^k) candidates)


@lru_cache(maxsize=64)
def _window_inner(k: int, top: int) -> tuple[_Wide, ...]:
    """sum_{j=2..m} 2^(-j-(k-1)/j) for m = 2..top, shared by every t and c."""
    return tuple(itertools.accumulate(_power(2.0, -j - (k - 1) / j)
                                      for j in range(2, top + 1)))


def ykts_bound(k: int, t: int, c: float) -> BoundReport:
    """Error bound for incremental search: window c*ln(2^k), t rounds.

    ``terms['log2']`` is always finite even when the value itself
    underflows a float.  M is the minimizing split point.  A c so large
    that c*k or the bound itself leaves float range is a ValueError.  A
    bound above 1 (54 at k = 20, t = 1, c = 1) is vacuous: ``value`` is
    1.0, ``source`` ends in "(vacuous)", and ``terms['log2']`` stays the
    unclamped log2.
    """
    check_bound_rounds(t)
    if not 0 < c < math.inf:
        raise ValueError("need finite c > 0")
    splits = _splits(k, None)
    ck = c * k
    if math.isinf(ck):
        raise ValueError(f"c * k = {c:g} * {k} is past float range")
    # class m weighs 2^(m(1-t)) inner[m - 2]; sums[i] adds those weights
    # over m = 3..i + 3
    top = math.ceil(1.2 * splits[-1])
    inner = _window_inner(k, top)
    sums = list(itertools.accumulate(inner[m - 2].ldexp(m * (1 - t))
                                     for m in range(3, top + 1)))
    scale = _power(2.0, 3.42 + t) * _power(ck, 2)
    rep = _report(
        "incremental window", splits,
        class_mass=[sums[math.ceil(1.2 * m) - 3] * scale for m in splits],
        window_tail=[_Wide(0.7 * ck, -t * m) for m in splits])
    if rep.terms["log2"] >= 1024:
        raise ValueError(f"c = {c:g} puts the bound at "
                         f"2^{rep.terms['log2']:.0f}, past float range")
    if rep.value > 1:
        rep = rep._replace(value=1.0, source="incremental window (vacuous)")
    return rep


def ykts_table_cell(k: int, t: int, c: float) -> int:
    """floor(-log2 y) for the optimized incremental bound, clamped at 0."""
    rep = ykts_bound(k, t, c)
    return max(0, math.floor(-rep.terms["log2"]))


# ---------------------------------------------------------------------------
# table generators


# the q tables' ENGINES rows, and every table's k rows in print order
Q_TABLES = {e.table: e for e in ENGINES}
TABLE_K_ROWS = {1: range(8, 21), **{e.table: e.ks for e in ENGINES},
                6: (100, 200, 400, 512, 1024, 2048, 4096)}


def table_rows(which: int, l: int = 8, c: float = 1.0) -> tuple[list[str], list[list]]:
    """Regenerate one of the six reference tables; returns (header, rows).

    1: exact k-bit prime counts against the floor of the analytic bound
    2-5: the engines' q at one round, and at two where the table has
         that column, over the k rows of the table's ENGINES row
    6: floor(-log2 y) for the incremental bound at the given c, t = 1..10
    """
    ks = TABLE_K_ROWS.get(which)
    if ks is None:
        raise ValueError(f"no table {which}; pick 1..6")
    if which == 1:
        header = ["k", "primes", "bound_floor"]
        rows = [[k, prime_count_exact(k), int(prime_lower_bound(k))]
                for k in ks]
    elif which in Q_TABLES:
        last_q2 = Q_TABLES[which].last_q2
        header = ["k", "M1", "q1", "M2", "q2"] if last_q2 else ["k", "M", "q1"]
        rows = []
        for k in ks:
            row = [k]
            for r in (1, 2) if last_q2 else (1,):
                rep = _engine_q(k, r, l) if r == 1 or k <= last_q2 else None
                row += [rep.m_opt, rep.value] if rep else [None, None]
            rows.append(row)
    else:
        header = ["k"] + [f"t{t}" for t in range(1, 11)]
        rows = [[k] + [ykts_table_cell(k, t, c) for t in range(1, 11)]
                for k in ks]
    return header, rows


def _ceil_scaled(x: float, places: int) -> int:
    """ceil(x * 10^places) for a finite double x and places >= 0, exactly."""
    n, d = x.as_integer_ratio()
    return -(-n * 10 ** places // d)


def _fixed6(x: float) -> str:
    """x at 6 decimals, rounded up."""
    units = _ceil_scaled(x, 6)
    return f"{units // 10 ** 6}.{units % 10 ** 6:06d}"


def format_tsv(header: list[str], rows: list[list]) -> str:
    """Tab-separated rendering, floats at 6 decimals rounded up (a bound
    never prints below itself), blanks for None."""
    def cell(v) -> str:
        if v is None:
            return ""
        if isinstance(v, float):
            return _fixed6(v)
        return str(v)

    lines = ["\t".join(header)]
    lines.extend("\t".join(cell(v) for v in row) for row in rows)
    return "\n".join(lines) + "\n"


def format_q(rep: BoundReport) -> str:
    """q at 6 decimals, or to 6 significant digits once in (0, 1e-4),
    both rounded up.

    A q below the smallest normal double is read off ``terms['log2']``,
    so it still prints its mantissa and exponent; log2 -inf is an exact 0.
    """
    q = rep.value
    if q >= 1e-4 or rep.terms["log2"] == -math.inf:
        return _fixed6(q)
    if q >= sys.float_info.min:
        exponent = math.floor(math.log10(q))
        digits = _ceil_scaled(q, 5 - exponent)
        if digits > 10 ** 6:  # log10 rounded across a power of ten
            exponent += 1
            digits = _ceil_scaled(q, 5 - exponent)
    else:
        log10 = rep.terms["log2"] * math.log10(2)
        exponent = math.floor(log10)
        digits = math.ceil(10 ** (log10 - exponent + 5))
    if digits == 10 ** 6:
        digits, exponent = 10 ** 5, exponent + 1
    return f"{digits / 10 ** 5:.6g}e{exponent:+03d}"


def format_json(header: list[str], rows: list[list]) -> str:
    import json
    return json.dumps([dict(zip(header, row)) for row in rows], indent=2) + "\n"
