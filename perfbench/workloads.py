"""The four benchmark workloads.

Each workload turns a seed into a deterministic sequence of ops and runs
them single-threaded until its stop rule says so.  It records the wall time
of every op, how many work units the ops covered, every exception, and the
outputs, which ``checks`` verifies afterwards.

  op          what one op is                       work unit
  gen-*       one generator call, i.e. one prime    one candidate examined
  tables      one cold ``slucas bounds`` process    one item (the same op)
  bpsw-sweep  one ``baillie_psw(n)`` call           one odd n (the same op)
"""

from __future__ import annotations

import math
import os
import random
import resource
import sys
from dataclasses import dataclass, field
from pathlib import Path
from time import perf_counter_ns

import checks
from calibration import calibrate, run_child

HERE = Path(__file__).resolve().parent
ROUNDS = 3
ITEM_TIMEOUT_S = 150
CAL_EVERY_NS = 500_000_000


@dataclass
class Record:
    """What one pass over a workload's ops produced."""

    attempted: int = 0
    units: int = 0
    op_ns: list[int] = field(default_factory=list)
    errors: list[str] = field(default_factory=list)  # exceptions, exits != 0
    wrong: list[str] = field(default_factory=list)   # outputs that failed a check
    outputs: list = field(default_factory=list)
    counts: dict[str, int] = field(default_factory=dict)
    extra: dict = field(default_factory=dict)
    cal_ns: list[tuple[int, int, int]] = field(default_factory=list)
    _cal_at: int = -CAL_EVERY_NS

    def pace(self) -> None:
        """Calibrate if the last calibration is CAL_EVERY_NS old."""
        if perf_counter_ns() - self._cal_at >= CAL_EVERY_NS:
            self.cal_ns.append(calibrate())
            self._cal_at = perf_counter_ns()

    @property
    def failed(self) -> int:
        return len(self.errors) + len(self.wrong)

    def tally(self, key: str, by: int = 1) -> None:
        self.counts[key] = self.counts.get(key, 0) + by


def _child_env() -> dict[str, str]:
    env = dict(os.environ)
    src = str(Path.cwd() / "src")
    env["PYTHONPATH"] = src + os.pathsep + env["PYTHONPATH"] if env.get(
        "PYTHONPATH") else src
    return env


def time_probe(code: list[str]) -> int:
    """Wall ns for a fresh interpreter running `python3 <code...>`."""
    t0 = perf_counter_ns()
    run_child([sys.executable, *code], 60, _child_env()).check_returncode()
    return perf_counter_ns() - t0


class GenWorkload:
    """Seeded prime generation, one generator call per op."""

    unit = "candidate"
    op_name = "prime"

    def __init__(self, name: str, bits: int, mode: str, trace_ops: int):
        self.name, self.bits, self.mode = name, bits, mode
        self.trace_ops = trace_ops
        # the documented default window, passed explicitly so it stays fixed
        self.window = (10 * math.ceil(bits * math.log(2))
                       if mode == "incremental" else None)

    def _generator(self):
        from slucas import prime_inc_luc, strong_luc_generate
        return (strong_luc_generate if self.mode == "uniform"
                else prime_inc_luc)

    def probe(self) -> list[str]:
        gen = self._generator().__name__
        return ["-c", "import slucas; "
                f"slucas.{gen}(slucas.GenConfig(bits=64, rounds={ROUNDS}, "
                "seed=0))"]

    def warm(self) -> None:
        from slucas import GenConfig
        self._generator()(GenConfig(bits=64, rounds=ROUNDS, seed=0))

    def run(self, seed: int, stop, tracer=None, trace_dir=None) -> Record:
        from slucas import GenConfig
        gen = self._generator()
        if tracer is not None:
            gen = tracer.wrap(f"generation.{gen.__name__}", gen)
        rng = random.Random(f"{self.name}:{seed}")
        rec = Record()
        while not stop(rec):
            cfg = GenConfig(bits=self.bits, rounds=ROUNDS,
                            window=self.window, seed=rng.getrandbits(64))
            if tracer is not None:
                tracer.op = rec.attempted
            rec.pace()
            rec.attempted += 1
            t0 = perf_counter_ns()
            try:
                out = gen(cfg)
            except Exception as exc:  # a crash is a failed op
                rec.op_ns.append(perf_counter_ns() - t0)
                rec.errors.append(f"seed {cfg.seed}: {exc!r}")
                continue
            rec.op_ns.append(perf_counter_ns() - t0)
            rec.units += out.candidates_tested
            rec.tally("candidates", out.candidates_tested)
            rec.tally("rounds", out.rounds_run)
            rec.tally("primes" if out.result is not None else "fails")
            for entry in out.transcript:
                rec.tally("stage." + entry["stage"].split(":", 1)[0])
            start = (int(out.transcript[0]["n"], 16)
                     if self.window and out.transcript else None)
            rec.outputs.append((cfg.seed, out.result, start,
                                out.candidates_tested, len(out.transcript)))
        rec.cal_ns.append(calibrate())
        return rec

    def check(self, rec: Record) -> None:
        for seed, result, start, tested, walked in rec.outputs:
            reason = (checks.check_prime(result, self.bits, start, self.window)
                      or checks.check_tested(tested, walked, result, start,
                                             self.window))
            if reason:
                rec.wrong.append(f"seed {seed}: {reason}")

    @staticmethod
    def peak_rss_mb() -> float:
        return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024


TABLE_ITEMS = tuple(
    [(f"table{t}", ["--table", str(t)]) for t in range(1, 7)]
    + [(f"survey{k}", ["--survey-k", str(k)]) for k in range(13, 17)]
    + [(f"single-{k}-{r}", ["--single", str(k), str(r)])
       for k in (512, 1024, 2048, 4096) for r in (1, 3)])


CENSUS_KS = range(17, 30)


class TablesWorkload:
    """Every paper table, survey and single bound, one cold CLI per item."""

    name = "tables"
    unit = "item"
    op_name = "item"
    trace_ops = len(TABLE_ITEMS)

    @staticmethod
    def probe() -> list[str]:
        return ["-m", "slucas.cli", "--version"]

    def warm(self) -> None:
        time_probe(self.probe())

    def run(self, seed: int, stop, tracer=None, trace_dir=None) -> Record:
        rng = random.Random(f"tables:{seed}")
        rec = Record(extra={"set_ns": [], "item_ns": {}, "traces": []})
        run_item = self._run_item
        if tracer is not None:
            run_item = tracer.wrap("bench.item", run_item)
        while not stop(rec):
            order = list(TABLE_ITEMS)
            rng.shuffle(order)
            set_ns = 0
            for name, args in order:
                trace_base = None
                if tracer is not None:
                    tracer.op = rec.attempted
                    trace_base = str(trace_dir / f"item-{name}")
                rec.pace()
                rec.attempted += 1
                rec.units += 1
                t0 = perf_counter_ns()
                proc = run_item(args, trace_base)
                wall = perf_counter_ns() - t0
                set_ns += wall
                rec.op_ns.append(wall)
                if proc.returncode != 0:
                    tail = (proc.stderr.strip().splitlines() or ["no stderr"])[-1]
                    rec.errors.append(f"{name}: exit {proc.returncode}: {tail}")
                else:
                    rec.outputs.append((name, args, proc.stdout))
                rec.extra["item_ns"][name] = wall
                if trace_base is not None:
                    rec.extra["traces"].append((name, trace_base, wall))
            rec.extra["set_ns"].append(set_ns)
        rec.cal_ns.append(calibrate())
        return rec

    @staticmethod
    def _run_item(args: list[str], trace_base: str | None):
        if trace_base is None:
            cmd = [sys.executable, "-m", "slucas.cli", "bounds", *args]
        else:
            cmd = [sys.executable, str(HERE / "traced_cli.py"), trace_base,
                   "bounds", *args]
        return run_child(cmd, ITEM_TIMEOUT_S, _child_env(), capture=True)

    def check(self, rec: Record) -> None:
        for name, args, out in rec.outputs:
            flag, value = args[0], int(args[1])
            try:
                if flag == "--table":
                    reason = checks.check_table(value, out)
                elif flag == "--survey-k":
                    reason = checks.check_survey(value, out)
                else:
                    reason = checks.check_single(out)
            except (ValueError, KeyError, IndexError, TypeError) as exc:
                reason = f"unparseable output: {exc!r}"
            if reason:
                rec.wrong.append(f"{name}: {reason}")
        # the exact censuses behind table 5, in this process after the ops
        from slucas.bounds import screen_census
        for k in CENSUS_KS:
            try:
                reason = checks.check_census(k, screen_census(k, exact=True))
            except Exception as exc:  # a crash is a failed check
                reason = f"raised {exc!r}"
            if reason:
                rec.wrong.append(f"census k={k}: {reason}")

    @staticmethod
    def peak_rss_mb() -> float:
        # the largest `slucas bounds` child; the probes are smaller
        return resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss / 1024


class BpswWorkload:
    """baillie_psw on consecutive odd n from a seed-chosen start below 2^64."""

    name = "bpsw-sweep"
    unit = "odd n"
    op_name = "n"
    trace_ops = 200_000
    block = 4096

    @staticmethod
    def probe() -> list[str]:
        return ["-c", "import slucas; slucas.baillie_psw(1000003)"]

    def warm(self) -> None:
        from slucas import baillie_psw
        for n in range(1000001, 1100001, 2):
            baillie_psw(n)

    def run(self, seed: int, stop, tracer=None, trace_dir=None) -> Record:
        from slucas import baillie_psw
        bpsw = baillie_psw
        if tracer is not None:
            bpsw = tracer.wrap("classical.baillie_psw", bpsw)
        start = random.Random(f"bpsw-sweep:{seed}").randrange(
            1 << 63, (1 << 64) - (1 << 40)) | 1
        rec = Record()
        verdicts = bytearray()
        lo = start
        while not stop(rec):
            rec.pace()
            results = []
            t0 = perf_counter_ns()
            for n in range(lo, lo + 2 * self.block, 2):
                if tracer is not None:
                    tracer.op = rec.attempted + len(results)
                try:
                    results.append(bpsw(n))
                except Exception as exc:  # a crash is a failed op
                    results.append(exc)
            rec.op_ns.append(perf_counter_ns() - t0)
            rec.attempted += len(results)
            rec.units += len(results)
            for i, res in enumerate(results):
                if isinstance(res, Exception):
                    rec.errors.append(f"n={lo + 2 * i}: {res!r}")
                    verdicts.append(2)
                    continue
                verdicts.append(1 if res else 0)
                rec.tally("reason." + (res.reason if not res
                                       else "probable-prime"))
            lo += 2 * self.block
        rec.cal_ns.append(calibrate())
        rec.outputs.append((start, verdicts))
        return rec

    @staticmethod
    def check(rec: Record) -> None:
        for start, verdicts in rec.outputs:
            truth = checks.prime_flags(start, len(verdicts))
            for i, (got, want) in enumerate(zip(verdicts, truth)):
                if got != want and got != 2:
                    rec.wrong.append(f"n={start + 2 * i}: baillie_psw says "
                                     f"{'prime' if got else 'composite'}")

    @staticmethod
    def peak_rss_mb() -> float:
        return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024


WORKLOADS = {w.name: w for w in (
    GenWorkload("gen-uniform-1024", 1024, "uniform", trace_ops=3),
    GenWorkload("gen-incremental-512", 512, "incremental", trace_ops=20),
    TablesWorkload(),
    BpswWorkload(),
)}
