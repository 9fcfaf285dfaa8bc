"""Independent checks of slucas outputs, with sympy as the oracle.

Each check returns None when the output is right and a one-line reason when
it is not.  sympy is imported lazily so that the workload process does not
carry it while its peak RSS is being measured.
"""

from __future__ import annotations

import json
import math
from functools import lru_cache

# column count and k range of each reference table, fixed by the paper
TABLE_SHAPES = {
    1: (["k", "primes", "bound_floor"], range(8, 21)),
    2: (["k", "M", "q1"], range(60, 101)),
    3: (["k", "M", "q1"], range(42, 60)),
    4: (["k", "M1", "q1", "M2", "q2"], range(30, 42)),
    5: (["k", "M1", "q1", "M2", "q2"], range(17, 30)),
    6: (["k"] + [f"t{t}" for t in range(1, 11)],
        (100, 200, 400, 512, 1024, 2048, 4096)),
}


@lru_cache(maxsize=None)
def kbit_primes(k: int) -> int:
    """Number of primes p with 2^(k-1) <= p < 2^k, by sympy.primepi."""
    from sympy import primepi
    return int(primepi((1 << k) - 1) - primepi((1 << (k - 1)) - 1))


def check_prime(p: int | None, bits: int, start: int | None = None,
                window: int | None = None) -> str | None:
    """A generated prime: prime by sympy, exactly `bits` bits, in its window.

    For the incremental generator `start` is the first candidate and
    `window` the candidate count, so the result must lie in
    [start, start + 2*window).  A None result (incremental Fail) is right
    only if that window holds no prime.
    """
    from sympy import isprime, nextprime
    if p is None:
        if start is None:
            return "no result"
        nxt = nextprime(start - 1)
        if nxt < start + 2 * window:
            return f"Fail reported but {nxt} is a prime in the window"
        return None
    if p.bit_length() != bits:
        return f"{p.bit_length()} bits, expected {bits}"
    if start is not None and not start <= p < start + 2 * window:
        return f"outside window [{start}, {start + 2 * window})"
    if not isprime(p):
        return "composite"
    return None


def check_tested(tested: int, walked: int, result: int | None,
                 start: int | None, window: int | None) -> str | None:
    """candidates_tested against what can be observed of the same call.

    It must equal the transcript's length, and for the incremental
    generator the number of odd steps from `start` to the result (the
    whole window on a Fail).  ms_per_unit divides by this count, so a
    change to what it counts must show here, not as a speed change.
    """
    if tested != walked:
        return f"candidates_tested {tested}, transcript has {walked} entries"
    if start is not None:
        expected = window if result is None else (result - start) // 2 + 1
        if tested != expected:
            return f"candidates_tested {tested}, the walk took {expected}"
    return None


def check_census(k: int, census) -> str | None:
    """An exact screen census: its prime count equals sympy's."""
    if census.primes != kbit_primes(k):
        return f"{census.primes} primes, sympy counts {kbit_primes(k)}"
    return None


def prime_flags(start: int, count: int) -> bytearray:
    """flags[i] = 1 iff start + 2*i is prime, for odd start > 2^16.

    Sieves out multiples of the odd primes below 2^16, then asks sympy about
    the survivors; below 2^64 sympy.isprime is deterministic.
    """
    from sympy import isprime, primerange
    flags = bytearray([1]) * count
    for p in primerange(3, 1 << 16):
        first = -start % p  # smallest j >= 0 with p | start + j
        if first % 2:
            first += p
        flags[first // 2::p] = bytes(len(range(first // 2, count, p)))
    for i in range(count):
        if flags[i] and not isprime(start + 2 * i):
            flags[i] = 0
    return flags


def _is_unit_q(x: float) -> bool:
    return math.isfinite(x) and 0.0 <= x <= 1.0


def check_table(which: int, text: str) -> str | None:
    """TSV from `slucas bounds --table N`: shape, q in [0, 1], exact counts."""
    header, ks = TABLE_SHAPES[which]
    lines = text.strip("\n").split("\n")
    if lines[0].split("\t") != header:
        return f"header {lines[0]!r}"
    rows = [line.split("\t") for line in lines[1:]]
    if [int(r[0]) for r in rows] != list(ks):
        return "k column differs from the table's range"
    for row in rows:
        k = int(row[0])
        if len(row) != len(header):
            return f"k={k}: {len(row)} cells"
        cells = dict(zip(header, row))
        if which == 1:
            primes, floor = int(cells["primes"]), int(cells["bound_floor"])
            if primes != kbit_primes(k):
                return f"k={k}: {primes} primes, sympy counts {kbit_primes(k)}"
            if floor > primes:
                return f"k={k}: lower bound {floor} exceeds the count {primes}"
        elif which == 6:
            if any(int(v) < 0 for v in row[1:]):
                return f"k={k}: negative cell"
        else:
            for name in ("q1", "q2"):
                if cells.get(name) and not _is_unit_q(float(cells[name])):
                    return f"k={k}: {name}={cells[name]} not in [0, 1]"
    return None


def check_survey(k: int, text: str) -> str | None:
    """JSON from `slucas bounds --survey-k K`: prime counts and q values."""
    data = json.loads(text)
    if data["k"] != k or not data["per_d"]:
        return "wrong k or empty survey"
    expected = kbit_primes(k)
    for entry in data["per_d"]:
        if entry["primes"] != expected:
            return (f"d={entry['d']}: {entry['primes']} primes, "
                    f"sympy counts {expected}")
        if not _is_unit_q(entry["q"]):
            return f"d={entry['d']}: q={entry['q']} not in [0, 1]"
    if data["max_q"] != max(entry["q"] for entry in data["per_d"]):
        return "max_q is not the largest per-discriminant q"
    return None


def check_single(text: str) -> str | None:
    """Output of `slucas bounds --single K R`: one finite q in [0, 1]."""
    try:
        q = float(text)
    except ValueError:
        return f"not a number: {text.strip()[:40]!r}"
    return None if _is_unit_q(q) else f"q={q} not in [0, 1]"
