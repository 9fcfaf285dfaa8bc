"""In-memory spans recorded around calls into slucas, from outside the package.

A span is one call: its name, start and end (``time.perf_counter_ns``, which
is CLOCK_MONOTONIC on Linux and so comparable across processes), the index
of the enclosing span (-1 for a root) and the op id the benchmark set when
the call began.  The tracer wraps each instrumented function where its
*caller* imports it (``slucas.generation.strong_lucas_round``,
``slucas.lucas.lucas_uv_mod``, ...), so no code under ``src/`` changes.
A span's name is ``<layer>.<function>``, the layer being the slucas module
that defines the function.

Spans live in a flat ``array('q')`` while the run lasts and are written out
once at the end: ``<path>.bin`` holds the rows as native int64, and
``<path>.json`` holds the name table, the field order and the notes.
"""

from __future__ import annotations

import importlib
import json
import statistics
import sys
import time
from array import array

FIELDS = ("name", "start_ns", "end_ns", "parent", "op")
WIDTH = len(FIELDS)
LAYERS = ("kernel", "lucas", "classical", "counting", "generation", "bounds",
          "cli")


def _n(n, *_):
    return n


def _index_bits(m, *_):
    return m.bit_length()


def _range_len(lo, hi):
    return hi - lo


# (module the caller lives in, attribute, span name, note taken from args)
INSTRUMENT = (
    ("slucas.generation", "jacobi", "kernel.jacobi", None),
    ("slucas.generation", "is_perfect_square", "kernel.is_perfect_square", None),
    ("slucas.generation", "sample_params", "lucas.sample_params", None),
    ("slucas.generation", "select_d", "lucas.select_d", None),
    ("slucas.generation", "strong_lucas_round", "lucas.strong_lucas_round", _n),
    ("slucas.lucas", "jacobi", "kernel.jacobi", None),
    ("slucas.lucas", "lucas_uv_mod", "lucas.lucas_uv_mod", _index_bits),
    ("slucas.classical", "miller_rabin_round", "classical.miller_rabin_round",
     None),
    ("slucas.classical", "is_perfect_square", "kernel.is_perfect_square", None),
    ("slucas.classical", "select_d", "lucas.select_d", None),
    ("slucas.classical", "strong_lucas_round", "lucas.strong_lucas_round", _n),
    ("slucas.counting", "jacobi", "kernel.jacobi", None),
    ("slucas.counting", "factorize", "kernel.factorize", None),
    ("slucas.kernel", "is_prime_trial", "kernel.is_prime_trial", None),
    ("slucas.bounds", "alpha_bar", "counting.alpha_bar", None),
    ("slucas.bounds", "is_twin_prime_product", "counting.is_twin_prime_product",
     None),
    ("slucas.bounds", "factorize", "kernel.factorize", None),
    ("slucas.bounds", "count_primes_in_range", "kernel.count_primes_in_range",
     _range_len),
    ("slucas.bounds", "sieve_primes", "kernel.sieve_primes", None),
    ("slucas.bounds", "q_bound", "bounds.q_bound", None),
    ("slucas.bounds", "screen_census", "bounds.screen_census", None),
    ("slucas.bounds", "prime_count_exact", "bounds.prime_count_exact", None),
    ("slucas.cli", "table_rows", "bounds.table_rows", None),
    ("slucas.cli", "q_bound", "bounds.q_bound", None),
    ("slucas.cli", "exact_qk1", "bounds.exact_qk1", None),
)


class Tracer:
    """Records spans for wrapped callables; see the module docstring."""

    def __init__(self):
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.rows = array("q")
        self.notes: dict[int, int] = {}
        self.op = -1
        self._stack = [-1]
        self._patched: list[tuple[object, str, object]] = []

    def name_id(self, name: str) -> int:
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    def wrap(self, name: str, fn, note=None):
        """fn wrapped so that each call records one span (and a note)."""
        nid = self.name_id(name)
        rows, notes, stack = self.rows, self.notes, self._stack
        clock = time.perf_counter_ns
        tracer = self

        def traced(*args, **kwargs):
            idx = len(rows) // WIDTH
            if note is not None:
                notes[idx] = note(*args)
            rows.extend((nid, clock(), 0, stack[-1], tracer.op))
            stack.append(idx)
            try:
                return fn(*args, **kwargs)
            finally:
                stack.pop()
                rows[idx * WIDTH + 2] = clock()

        traced.__wrapped__ = fn
        return traced

    def install(self) -> None:
        """Patch every (module, attribute) in INSTRUMENT; missing ones are
        skipped."""
        for module_name, attr, name, note in INSTRUMENT:
            module = importlib.import_module(module_name)
            original = getattr(module, attr, None)
            if original is None:
                print(f"perfbench: {module_name}.{attr} not found, not traced",
                      file=sys.stderr)
                continue
            self._patched.append((module, attr, original))
            setattr(module, attr, self.wrap(name, original, note))

    def uninstall(self) -> None:
        while self._patched:
            module, attr, original = self._patched.pop()
            setattr(module, attr, original)

    def dump(self, path: str, extra: dict | None = None) -> None:
        t0 = time.perf_counter_ns()
        with open(path + ".bin", "wb") as fh:
            self.rows.tofile(fh)
        header = {"fields": list(FIELDS), "dtype": "int64",
                  "count": len(self.rows) // WIDTH, "names": self.names,
                  "notes": {str(k): v for k, v in self.notes.items()}}
        header.update(extra or {})
        header["dump_ns"] = time.perf_counter_ns() - t0
        with open(path + ".json", "w") as fh:
            json.dump(header, fh)


def load(path: str) -> tuple[list[str], array, dict[int, int], dict]:
    """(names, rows, notes, header) of a trace written by Tracer.dump."""
    with open(path + ".json") as fh:
        header = json.load(fh)
    rows = array("q")
    with open(path + ".bin", "rb") as fh:
        rows.fromfile(fh, header["count"] * WIDTH)
    notes = {int(k): v for k, v in header["notes"].items()}
    return header["names"], rows, notes, header


class Summary:
    """Per-name and per-layer aggregates over one or more traces.

    A span's self time is its duration minus the durations of its direct
    children; a layer's self time is the sum over its spans.
    """

    def __init__(self):
        self.calls: dict[str, int] = {}
        self.total_ns: dict[str, int] = {}
        self.durations: dict[str, array] = {}
        self.self_ns = dict.fromkeys(LAYERS, 0)
        self.noted: dict[str, list[tuple[int, int]]] = {}

    def add(self, names, rows, notes) -> int:
        """Fold one trace in; returns the summed duration of its roots."""
        count = len(rows) // WIDTH
        child_ns = array("q", bytes(8 * count))
        durs = array("q", bytes(8 * count))
        for i in range(count):
            base = i * WIDTH
            dur = rows[base + 2] - rows[base + 1]
            durs[i] = dur
            parent = rows[base + 3]
            if parent >= 0:
                child_ns[parent] += dur
        roots_ns = 0
        for i in range(count):
            base = i * WIDTH
            name = names[rows[base]]
            dur = durs[i]
            self.calls[name] = self.calls.get(name, 0) + 1
            self.total_ns[name] = self.total_ns.get(name, 0) + dur
            self.durations.setdefault(name, array("q")).append(dur)
            layer = name.split(".", 1)[0]
            if layer in self.self_ns:
                self.self_ns[layer] += dur - child_ns[i]
            if rows[base + 3] < 0:
                roots_ns += dur
            if i in notes:
                self.noted.setdefault(name, []).append((notes[i], dur))
        return roots_ns

    def count(self, name: str) -> int:
        return self.calls.get(name, 0)

    def p50_ns(self, name: str) -> float:
        durs = self.durations.get(name)
        return statistics.median(durs) if durs else 0.0
