"""slucas benchmark: four workloads, end-to-end metrics and a traced run.

Run from the repository root:

    python3 perfbench/run.py --workload gen-uniform-1024 --seed 1 \\
        --seconds 10 --trace 0

Workloads: gen-uniform-1024, gen-incremental-512, tables, bpsw-sweep (see
perfbench/README.md).  The lines printed first are a report for people; the
last line of stdout is one JSON object with the keys correct, attempted,
failed and metrics.

--trace 0 measures for --seconds and reports the end-to-end metrics.
--trace 1 runs a fixed op list twice, untraced then traced, and reports the
per-layer metrics; the spans go to .perfbench-out/<workload>-seed<seed>/.
"""

from __future__ import annotations

import argparse
import json
import statistics
import sys
from pathlib import Path
from time import perf_counter, perf_counter_ns

from calibration import calibrate, speed
from spans import Summary, Tracer, load
from workloads import ROUNDS, TABLE_ITEMS, WORKLOADS, time_probe

SETUP_PROBES = 9
POW_SAMPLES = 200
GEN_STAGES = ("jacobi-filter", "shares-factor", "small-factor", "square",
              "d-search", "round-1", "round-2", "round-3", "accepted")
BPSW_REASONS = ("trial-division", "miller-rabin", "perfect-square",
                "no-zero-term", "probable-prime")


def _median(values) -> float:
    return statistics.median(values) if values else 0.0


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def _timed_stop(seconds: float):
    """Stop rule: stop once the next chunk of ops would likely end more than
    half a chunk past `seconds`, guessing the average chunk length so far."""
    t_start = perf_counter()
    calls = 0

    def stop(rec) -> bool:
        nonlocal calls
        calls += 1
        if rec.attempted == 0:
            return False
        elapsed = perf_counter() - t_start
        return elapsed * (calls - 0.5) / (calls - 1) >= seconds

    return stop


def untraced(workload, seed: int, seconds: float):
    """End-to-end run: set-up probes, then ops for `seconds`, then checks.

    Every time metric is reported at the reference speed of calibration.py,
    from calibrations interleaved with the ops and with the set-up probes.
    """
    setup_cal, setup_ns = [], []
    for _ in range(SETUP_PROBES):
        setup_cal.append(calibrate())
        setup_ns.append(time_probe(workload.probe()))
    setup_cal.append(calibrate())
    workload.warm()
    rec = workload.run(seed, _timed_stop(seconds))
    rss_mb = workload.peak_rss_mb()
    workload.check(rec)
    # each probe scaled by the calibrations just before and after it
    setup_s = _median([ns / 1e9 * speed(setup_cal[i:i + 2])
                       for i, ns in enumerate(setup_ns)])
    setup_speed = speed(setup_cal)
    run_speed = speed(rec.cal_ns)
    ms_raw = sum(rec.op_ns) / rec.units / 1e6
    metrics = {
        "setup_s": (setup_s, "s"),
        "ms_per_unit": (ms_raw * run_speed, "ms"),
        "peak_rss_mb": (rss_mb, "MB"),
    }
    lines = [
        f"speed        {run_speed:.4f} of the reference during the ops, "
        f"{setup_speed:.4f} during set-up ({len(rec.cal_ns)} and "
        f"{len(setup_cal)} calibrations)",
        f"setup_s      {metrics['setup_s'][0]:.4f} s   median of "
        f"{SETUP_PROBES} fresh interpreters; "
        f"{_median(setup_ns) / 1e9:.4f} s as measured",
        f"ms_per_unit  {metrics['ms_per_unit'][0]:.6g} ms  over {rec.units} "
        f"units (unit = {workload.unit}); {ms_raw:.6g} ms as measured",
    ]
    lines += _headline(workload, rec)
    lines += [
        f"error_rate   {_ratio(rec.failed, rec.attempted):.4g}       "
        f"{rec.failed} failed of {rec.attempted} {workload.op_name} ops",
        f"peak_rss_mb  {rss_mb:.1f} MB  peak RSS of the process doing the "
        "work" + (" (largest child)" if workload.name == "tables" else ""),
    ]
    return rec, metrics, lines


def _tail(values_ms: list[float], label: str) -> str:
    n = len(values_ms)
    text = f"p50 over {n} {label}"
    if n >= 100:  # at least ten samples beyond the 90th percentile
        p90 = statistics.quantiles(values_ms, n=10)[-1]
        text += f"; p90 {p90:.6g} ms"
    return text


def _headline(workload, rec) -> list[str]:
    """The workload's own end-to-end numbers, with their sample counts."""
    if workload.name.startswith("gen-"):
        primes = rec.counts.get("primes", 0)
        ms = [ns / 1e6 for ns in rec.op_ns]
        return [f"ms_per_prime {_ratio(sum(ms), primes):.6g} ms  wall time / "
                f"{primes} primes returned (seed-dependent: compare equal "
                "seeds only)",
                f"prime_ms_p50 {_median(ms):.6g} ms  {_tail(ms, 'calls')}"]
    if workload.name == "tables":
        sets = rec.extra["set_ns"]
        return [f"rebuild_s    {_median(sets) / 1e9:.6g} s   median over "
                f"{len(sets)} cold rebuilds of {len(rec.extra['item_ns'])} "
                "items"]
    return [f"n_per_s      {_ratio(rec.units, sum(rec.op_ns) / 1e9):.6g} 1/s "
            f"over {rec.units} odd n"]


def traced(workload, seed: int, out_dir: Path):
    """Per-layer run: the fixed op list untraced, then traced."""
    workload.warm()
    stop = lambda r: r.attempted >= workload.trace_ops  # noqa: E731
    base = workload.run(seed, stop)
    tracer = Tracer()
    tracer.install()
    try:
        rec = workload.run(seed, stop, tracer=tracer, trace_dir=out_dir)
    finally:
        tracer.uninstall()
    summary = Summary()
    roots_ns = summary.add(tracer.names, tracer.rows, tracer.notes)
    startup_ms = []
    for _, path, wall in rec.extra.get("traces", ()):
        names, rows, notes, header = load(path)
        child_ns = summary.add(names, rows, notes)
        startup_ms.append((wall - child_ns - header["dump_ns"]) / 1e6)
    pow_ratio = _round_over_pow(summary)
    tracer.dump(str(out_dir / "spans"), {"workload": workload.name,
                                         "seed": seed})
    for r in (base, rec):
        workload.check(r)
    metrics = _layer_metrics(workload, base, rec, summary, roots_ns,
                             startup_ms, pow_ratio)
    lines = [f"spans: {sum(summary.calls.values())} in {out_dir}/",
             f"trace_overhead {metrics['trace_overhead'][0]:.4g} "
             "(traced / untraced wall time of the same ops, both at the "
             "reference speed; the other times are as measured)"]
    lines += [f"{name:<40} {value:.6g} {unit}"
              for name, (value, unit) in metrics.items() if value]
    return (base, rec), metrics, lines


def _round_over_pow(summary) -> float:
    """Median over rounds of round time / pow(2, n-1, n) time, same n.

    pow is timed here, after the traced pass and outside every span, on an
    evenly spaced sample of the moduli that got a strong Lucas round.
    """
    rounds = summary.noted.get("lucas.strong_lucas_round", [])
    step = max(1, len(rounds) // POW_SAMPLES)
    ratios = []
    for n, round_ns in rounds[::step]:
        best = None
        for _ in range(3):
            t0 = perf_counter_ns()
            pow(2, n - 1, n)
            dt = perf_counter_ns() - t0
            best = dt if best is None else min(best, dt)
        ratios.append(round_ns / max(best, 1))
    return _median(ratios)


def _layer_metrics(workload, base, rec, s, roots_ns, startup_ms, pow_ratio):
    ops = rec.attempted
    primes = rec.counts.get("primes", 0)
    candidates = rec.counts.get("candidates", 0)
    rounds = rec.counts.get("rounds", 0)
    sieve = s.noted.get("kernel.count_primes_in_range", [])
    ladder = s.noted.get("lucas.lucas_uv_mod", [])
    us = lambda name: s.p50_ns(name) / 1e3  # noqa: E731
    m = {
        "kernel.count_primes_s": (
            s.total_ns.get("kernel.count_primes_in_range", 0) / 1e9, "s"),
        "kernel.sieve_ns_per_int": (
            _ratio(sum(d for _, d in sieve), sum(n for n, _ in sieve)), "ns"),
        "kernel.factorize_calls": (s.count("kernel.factorize"), "count"),
        "kernel.factorize_us_p50": (us("kernel.factorize"), "us"),
        "kernel.jacobi_calls_per_op": (
            _ratio(s.count("kernel.jacobi"), ops), "count"),
        "kernel.jacobi_us_p50": (us("kernel.jacobi"), "us"),
        "lucas.round_ms_p50": (us("lucas.strong_lucas_round") / 1e3, "ms"),
        "lucas.ladder_us_per_bit": (
            _median([d / bits for bits, d in ladder if bits]) / 1e3, "us"),
        "lucas.round_over_pow": (pow_ratio, "ratio"),
        "lucas.select_d_us_p50": (us("lucas.select_d"), "us"),
        "lucas.select_d_calls_per_op": (
            _ratio(s.count("lucas.select_d"), ops), "count"),
        "lucas.sample_params_us_p50": (us("lucas.sample_params"), "us"),
    }
    for layer, self_ns in s.self_ns.items():
        m[f"{layer}.time_share"] = (_ratio(self_ns, roots_ns), "ratio")
    bpsw_n = rec.units if workload.name == "bpsw-sweep" else 0
    for reason in BPSW_REASONS:
        m[f"classical.reason_share.{reason}"] = (
            _ratio(rec.counts.get(f"reason.{reason}", 0), bpsw_n), "ratio")
    known = sum(rec.counts.get(f"reason.{r}", 0) for r in BPSW_REASONS)
    m["classical.reason_share.other"] = (
        _ratio(bpsw_n - known - len(rec.errors), bpsw_n), "ratio")
    m["classical.self_us_per_n"] = (
        _ratio(s.self_ns["classical"], bpsw_n) / 1e3, "us")
    m["classical.mr_round_us_p50"] = (us("classical.miller_rabin_round"), "us")
    m["counting.alpha_bar_calls"] = (s.count("counting.alpha_bar"), "count")
    m["counting.alpha_bar_us_p50"] = (us("counting.alpha_bar"), "us")
    m["counting.twin_check_us_p50"] = (
        us("counting.is_twin_prime_product"), "us")
    m["generation.candidates_per_prime"] = (_ratio(candidates, primes), "count")
    m["generation.lucas_rounds_per_prime"] = (_ratio(rounds, primes), "count")
    m["generation.useful_round_ratio"] = (
        _ratio(primes * ROUNDS, rounds), "ratio")
    for stage in GEN_STAGES:
        m[f"generation.stage_share.{stage}"] = (
            _ratio(rec.counts.get(f"stage.{stage}", 0), candidates), "ratio")
    m["generation.self_ms_per_prime"] = (
        _ratio(s.self_ns["generation"], primes) / 1e6, "ms")
    m["generation.fail_count"] = (rec.counts.get("fails", 0), "count")
    item_ns = base.extra.get("item_ns", {})
    for name, _ in TABLE_ITEMS:
        m[f"bounds.item_s.{name}"] = (item_ns.get(name, 0) / 1e9, "s")
    m["bounds.census_s"] = (
        s.total_ns.get("bounds.screen_census", 0) / 1e9, "s")
    m["cli.startup_ms"] = (_median(startup_ms), "ms")
    # both passes at the reference speed, as they may meet different loads
    m["trace_overhead"] = (_ratio(sum(rec.op_ns) * speed(rec.cal_ns),
                                  sum(base.op_ns) * speed(base.cal_ns)),
                           "ratio")
    return m


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=10)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    root = Path.cwd()
    src = root / "src"
    if not (src / "slucas" / "__init__.py").is_file():
        print("perfbench: no src/slucas here; run from the repository root",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(src))
    import slucas
    if Path(slucas.__file__).resolve().parent != (src / "slucas").resolve():
        print(f"perfbench: imported slucas from {slucas.__file__}, "
              f"not from {src}", file=sys.stderr)
        return 2
    if args.workload not in WORKLOADS:
        parser.error(f"unknown workload; pick one of {', '.join(WORKLOADS)}")
    workload = WORKLOADS[args.workload]

    print(f"perfbench {workload.name} seed={args.seed} "
          f"seconds={args.seconds:g} trace={args.trace}")
    if args.trace:
        out_dir = root / ".perfbench-out" / f"{workload.name}-seed{args.seed}"
        out_dir.mkdir(parents=True, exist_ok=True)
        recs, metrics, lines = traced(workload, args.seed, out_dir)
    else:
        rec, metrics, lines = untraced(workload, args.seed, args.seconds)
        recs = (rec,)
    attempted = sum(r.attempted for r in recs)
    failures = [f for r in recs for f in r.errors + r.wrong]
    for line in lines:
        print("  " + line)
    for failure in failures:
        print("  failed op: " + failure)
    print(json.dumps({
        "correct": not any(r.wrong for r in recs),
        "attempted": attempted,
        "failed": len(failures),
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
