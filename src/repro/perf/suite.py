"""The micro guard behind ``make bench`` / ``repro-bench``.

Every number an operator waits for, and every per-layer share of it,
is measured by the cost ledger (``python3 -m benchmarks.ledger``).
This suite keeps only the three things a 12-second closed loop cannot
see: ``fluid_rate_1m`` (the columnar solver stepping 2**20 concurrent
flows — the one guarded rate floor), ``obs_overhead`` (the same event
chain metrics-off vs metrics-on, held to an absolute <= 5% budget) and
``timer_churn`` (the RTO re-arm path; reported, not guarded).  Results
are stamped with the execution environment and written as JSON
(``BENCH.json`` by default), optionally compared against a checked-in
baseline: a guarded rate falling more than ``TOLERANCE`` below its
baseline is a regression and ``--check`` exits non-zero.  When the
baseline's recorded environment fingerprint differs from this run's, a
loud provenance warning is printed first — cross-machine comparisons
are advisory, not regressions.

Rates are the best of ``--repeats`` rounds: wall-clock minimums are the
standard way to suppress scheduler noise on shared machines.  The guarded
``obs_overhead.overhead_frac`` is instead the median, over repeats, of
each back-to-back metrics-off/metrics-on pair's ratio.
"""

from __future__ import annotations

import argparse
import gc
import json
import statistics
import sys
import time
from pathlib import Path
from typing import Any, Callable

#: Rates guarded by --check, as (bench, field) paths into the report.
GUARDED_RATES = (("fluid_rate_1m", "flow_steps_per_sec"),)

#: Allowed fractional drop of a guarded rate below its baseline.
TOLERANCE = 0.20

#: Environment-fingerprint fields compared by the provenance check: a
#: baseline recorded on different hardware or interpreter cannot vouch
#: for this machine's rates, so a mismatch is warned about loudly.
PROVENANCE_FIELDS = ("platform", "python_version", "implementation", "cpu_count")


def _best_of(fn: Callable[[], tuple[int, float]], repeats: int) -> tuple[float, int]:
    """Run ``fn`` ``repeats`` times; it returns ``(work_items, seconds)``.
    Returns ``(best_rate, work_items)``."""
    best = 0.0
    work = 0
    for _ in range(repeats):
        items, seconds = fn()
        work = items
        if seconds > 0:
            best = max(best, items / seconds)
    return best, work


# -- benches ------------------------------------------------------------------


def bench_timer_churn(n_restarts: int = 20_000, repeats: int = 3) -> dict[str, Any]:
    """Per-ACK RTO restarts — the re-arm path that used to cancel+repush."""
    from repro.sim import Simulator, Timeout

    pending_after = 0

    def round_() -> tuple[int, float]:
        nonlocal pending_after
        sim = Simulator()
        timeout = Timeout(sim, 1_000_000_000, lambda: None)
        t0 = time.perf_counter()
        timeout.restart()
        for _ in range(n_restarts):
            timeout.restart()
        seconds = time.perf_counter() - t0
        pending_after = sim.pending_events
        return n_restarts, seconds

    rate, _ = _best_of(round_, repeats)
    return {
        "restarts_per_sec": rate,
        "pending_entries_after": pending_after,
        "repeats": repeats,
    }


def bench_fluid_1m(
    n_flows: int = 1_048_576, n_steps: int = 10, repeats: int = 2
) -> dict[str, Any]:
    """The columnar solver stepping ~10^6 concurrent flows in one process.

    A mixed DCTCP/DCQCN population across 16 bottlenecks — both the
    group-by aggregation and the masked per-CC kernels at the scale the
    ROADMAP names as the fluid layer's target.  The guarded rate is
    flow-steps per second (live flows x steps / wall time).
    """
    import numpy as np

    from repro.fluid.solver import ColumnarFluidSolver

    n_bottlenecks = 16
    bottleneck = (np.arange(n_flows) % n_bottlenecks).astype(np.int32)
    half = n_flows // 2

    def round_() -> tuple[int, float]:
        solver = ColumnarFluidSolver(
            n_bottlenecks=n_bottlenecks, seed=1, capacity_hint=n_flows
        )
        solver.add_flows(
            np.full(half, 10_000_000), bottleneck=bottleneck[:half], kernel="dctcp"
        )
        solver.add_flows(
            np.full(n_flows - half, 10_000_000),
            bottleneck=bottleneck[half:],
            kernel="dcqcn",
        )
        solver.step(1)  # populate caches outside the timed window
        solver.flow_steps = 0
        t0 = time.perf_counter()
        solver.step(n_steps)
        return solver.flow_steps, time.perf_counter() - t0

    rate, flow_steps = _best_of(round_, repeats)
    return {
        "flow_steps_per_sec": rate,
        "flows": n_flows,
        "steps": n_steps,
        "flow_steps": flow_steps,
        "repeats": repeats,
    }


def bench_obs_overhead(n_events: int = 20_000, repeats: int = 5) -> dict[str, Any]:
    """Exported vs bare cost of the event loop (the 5% obs budget).

    Variants of the same self-rescheduling tick chain, rounds mirrored
    within each repeat so machine drift hits all variants equally:

    * ``off``  — the plain engine, nothing exported;
    * ``on``   — the obs design point, exactly what ``--metrics-out``
      does: run the chain, then fold the counters into a registry once
      (:func:`~repro.obs.export.counters_registry`) and render it.  The
      guarded ``overhead_frac`` compares this against ``off`` — exporting
      must not slow the loop (baseline budget ``max_overhead_frac``,
      <= 5%);
    * ``live`` — additionally increments one ``Counter`` inside the
      callback, then folds it with the rest.  Reported unguarded as
      ``live_counter_overhead_frac``: it prices a single attribute store
      against a *degenerate* empty callback, the worst case a warm-path
      counter can ever hit;
    * ``flight`` — the plain chain with a
      :class:`~repro.obs.flight.FlightRecorder` attached.  The recorder
      only hooks rare branches (cancel/rearm/compact/drop/mark), none of
      which this chain takes, so ``flight_overhead_frac`` (unguarded)
      demonstrates the zero-cost-when-armed design point for the hot
      event loop.
    """
    from repro.obs import flight as flight_mod
    from repro.obs.export import counters_registry, to_prometheus
    from repro.obs.metrics import Counter
    from repro.sim import Simulator

    horizon = n_events * 1000

    def chain(sim: Any, extra: Callable[[], None] | None = None) -> None:
        if extra is None:
            def tick() -> None:
                if sim.now < horizon:
                    sim.after(1000, tick)
        else:
            def tick() -> None:
                extra()
                if sim.now < horizon:
                    sim.after(1000, tick)
        sim.at(0, tick)

    def timed_run(sim: Any) -> tuple[int, float]:
        # A round is ~10 ms: one cyclic-garbage collection landing inside
        # it (the previous rounds' simulators) skews its ratio by several
        # percent, so collect first and time the loop alone.
        gc.collect()
        gc.disable()
        try:
            t0 = time.perf_counter()
            executed = sim.run()
            return executed, time.perf_counter() - t0
        finally:
            gc.enable()

    def round_off() -> tuple[int, float]:
        sim = Simulator()
        chain(sim)
        return timed_run(sim)

    def export(counters: dict[str, int]) -> None:
        # One end-of-run fold and render, like --metrics-out.
        to_prometheus(counters_registry(counters))

    def round_on() -> tuple[int, float]:
        sim = Simulator()
        chain(sim)
        result = timed_run(sim)
        export({"sim.events_executed": sim.events_executed})
        return result

    def round_live() -> tuple[int, float]:
        sim = Simulator()
        ticks = Counter("bench_ticks_total")

        def bump() -> None:
            ticks.value += 1

        chain(sim, bump)
        result = timed_run(sim)
        export({"sim.events_executed": sim.events_executed, "bench.ticks": ticks.value})
        return result

    def round_flight() -> tuple[int, float]:
        sim = Simulator()
        recorder = flight_mod.FlightRecorder(capacity=1024)
        flight_mod.attach(sim=sim, recorder=recorder)
        chain(sim)
        return timed_run(sim)

    rounds = (
        ("off", round_off),
        ("on", round_on),
        ("live", round_live),
        ("flight", round_flight),
    )
    for _ in range(2):  # warm-up: a process's first ~8 rounds run slow
        for _, round_ in rounds:
            round_()
    rates: dict[str, list[float]] = {key: [] for key, _ in rounds}
    executed = 0
    for _ in range(repeats):
        # Mirrored order (off, on, live, flight, flight, live, on, off):
        # each variant's two rounds straddle the same midpoint, so drift
        # that is linear over a repeat cancels out of its ratio to off.
        seconds = dict.fromkeys(rates, 0.0)
        for key, round_ in rounds + rounds[::-1]:
            executed, spent = round_()
            seconds[key] += spent
        for key, spent in seconds.items():
            rates[key].append(2 * executed / spent if spent > 0 else 0.0)

    def overhead(key: str) -> float:
        # The median over repeats of each repeat's own variant/off ratio:
        # a noisy repeat moves one ratio, not the verdict (a ratio of two
        # best-ofs compared rounds from different moments and false-failed
        # the budget).
        ratios = [
            1.0 - on / off for off, on in zip(rates["off"], rates[key]) if off > 0
        ]
        if not ratios:
            return 0.0
        # Clamp at 0 so a faster variant round never goes negative.
        return max(statistics.median(ratios), 0.0)

    return {
        "events_per_sec_off": max(rates["off"]),
        "events_per_sec_on": max(rates["on"]),
        "events_per_sec_live": max(rates["live"]),
        "events_per_sec_flight": max(rates["flight"]),
        "overhead_frac": overhead("on"),  # guarded
        "live_counter_overhead_frac": overhead("live"),
        "flight_overhead_frac": overhead("flight"),
        "events": executed,
        "repeats": repeats,
    }


# -- suite --------------------------------------------------------------------


def run_suite(*, quick: bool = False, repeats: int = 5) -> dict[str, Any]:
    """Run every bench; returns the report dict (also what gets written)."""
    scale = 4 if quick else 1
    benches: dict[str, Callable[[], dict[str, Any]]] = {
        "timer_churn": lambda: bench_timer_churn(20_000 // scale, min(repeats, 3)),
        "fluid_rate_1m": lambda: bench_fluid_1m(
            1_048_576 // scale, repeats=min(repeats, 2)
        ),
        # Not scaled by --quick: below ~20k events a round is too short
        # for its ratio to sit inside the 5% budget reliably.
        "obs_overhead": lambda: bench_obs_overhead(20_000, repeats),
    }
    from repro.obs.manifest import environment

    report: dict[str, Any] = {
        "schema": 2,
        "quick": quick,
        # Environment stamp: attributes the rates to the machine and
        # interpreter that produced them (git sha, python version,
        # platform, cpu count) — what check_provenance compares.
        "env": environment(),
        "benches": {},
    }
    for name, bench in benches.items():
        print(f"[bench] {name} ...", flush=True)
        report["benches"][name] = bench()
    return report


def check_provenance(
    report: dict[str, Any], baseline: dict[str, Any]
) -> list[str]:
    """Environment-fingerprint mismatches between a report and its baseline.

    Rates measured on different hosts or interpreters differ for reasons
    that are not the code's, so a baseline records where it was measured
    and ``--check`` warns — loudly, but without failing — when this run's
    host or interpreter differs: rate comparisons across environments
    are advisory only.
    """
    base_env = baseline.get("env") or {}
    run_env = report.get("env") or {}
    if not base_env:
        return [
            "baseline has no environment fingerprint; "
            "re-baseline to enable provenance checking"
        ]
    mismatches = []
    for field in PROVENANCE_FIELDS:
        base_value, run_value = base_env.get(field), run_env.get(field)
        if base_value is not None and base_value != run_value:
            mismatches.append(f"{field}: baseline {base_value!r} vs run {run_value!r}")
    return mismatches


def check_regression(report: dict[str, Any], baseline: dict[str, Any]) -> list[str]:
    """Guarded rates that fell more than ``TOLERANCE`` below baseline."""
    failures = []
    floors = baseline.get("benches", {})
    for bench, field in GUARDED_RATES:
        base = floors.get(bench, {}).get(field)
        if base is None:
            continue
        measured = report["benches"].get(bench, {}).get(field, 0.0)
        floor = base * (1.0 - TOLERANCE)
        if measured < floor:
            failures.append(
                f"{bench}.{field}: {measured:,.0f}/s is below the regression "
                f"floor {floor:,.0f}/s (baseline {base:,.0f}/s - {TOLERANCE:.0%})"
            )
    # The obs layer is additionally held to an absolute budget: metrics-on
    # must stay below the baseline's max_overhead_frac of metrics-off (so a
    # zero budget, against an overhead clamped at 0, always fails: the
    # guard is live).
    budget = floors.get("obs_overhead", {}).get("max_overhead_frac")
    if budget is not None:
        measured = (
            report["benches"].get("obs_overhead", {}).get("overhead_frac", 0.0)
        )
        if measured >= budget:
            failures.append(
                f"obs_overhead.overhead_frac: {measured:.1%} is not below the "
                f"metrics-on budget of {budget:.0%}"
            )
    return failures


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        prog="repro-bench", description="Run the perf-regression suite."
    )
    parser.add_argument(
        "--output", type=Path, default=Path("BENCH.json"),
        help="where to write the JSON report (default: BENCH.json)",
    )
    parser.add_argument(
        "--baseline", type=Path, default=None,
        help="baseline JSON to compare guarded rates against",
    )
    parser.add_argument(
        "--check", action="store_true",
        help="exit non-zero if a guarded rate falls more than "
             f"{100 * TOLERANCE:.0f}%% below baseline",
    )
    parser.add_argument("--repeats", type=int, default=5)
    parser.add_argument(
        "--quick", action="store_true", help="quarter-size workloads, obs_overhead excepted (CI smoke)"
    )
    args = parser.parse_args(argv)

    baseline = None
    if args.baseline is not None:
        # Read up front: a bad path should not cost a full suite run.
        try:
            baseline = json.loads(args.baseline.read_text())
        except (OSError, json.JSONDecodeError) as exc:
            parser.error(f"cannot read baseline {args.baseline}: {exc}")

    report = run_suite(quick=args.quick, repeats=args.repeats)
    args.output.write_text(json.dumps(report, indent=2) + "\n")
    print(f"[bench] report written to {args.output}")
    for name, result in report["benches"].items():
        if name == "obs_overhead":
            print(f"  {name:20s} {result['overhead_frac']:>13.1%} overhead "
                  f"(on {result['events_per_sec_on']:,.0f}/s, "
                  f"off {result['events_per_sec_off']:,.0f}/s, "
                  f"flight {result['flight_overhead_frac']:.1%})")
            continue
        rate_key = next(k for k in result if k.endswith("_per_sec"))
        print(f"  {name:20s} {result[rate_key]:>14,.0f} {rate_key.removesuffix('_per_sec')}/s")

    if baseline is not None:
        mismatches = check_provenance(report, baseline)
        if mismatches:
            print(
                "[bench] " + "=" * 66 + "\n"
                "[bench] WARNING: baseline provenance mismatch — this run's "
                "environment\n[bench] differs from where the baseline was "
                "recorded; rate comparisons\n[bench] below are advisory, not "
                "evidence of a code regression:",
                file=sys.stderr,
            )
            for mismatch in mismatches:
                print(f"[bench]   {mismatch}", file=sys.stderr)
            print("[bench] " + "=" * 66, file=sys.stderr)
        failures = check_regression(report, baseline)
        if args.check and failures:
            for failure in failures:
                print(f"[bench] REGRESSION: {failure}", file=sys.stderr)
            return 1
        for failure in failures:
            print(f"[bench] warning: {failure}")
    return 0


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
