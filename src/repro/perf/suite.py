"""The perf-regression suite behind ``make bench`` / ``repro-bench``.

Times the hot paths the engine overhaul targets — the raw event loop,
the full SCHE->DATA->ACK->INFO datapath, the fluid-model batch kernel,
and the columnar fluid solver at million-flow scale
(``fluid_rate_1m``) — the two supporting paths (timer churn, trace
logging), and the campaign layer (``parallel_speedup``: an identical
sweep grid run serially and through the ``repro.parallel`` process
pool, recording both throughputs and their ratio), plus
``obs_overhead`` (the same event chain metrics-off vs metrics-on,
guarding the observability layer's <= 5% budget).  Results are stamped
with the execution environment and written as JSON (``BENCH_PR15.json``
by default), optionally compared against a checked-in baseline: any
guarded rate falling more than its tolerance below baseline (the
``--tolerance`` default, or a per-bench ``tolerance`` recorded in the
baseline entry) is a regression and the run exits non-zero.  When the
baseline's recorded environment fingerprint differs from this run's, a
loud provenance warning is printed first — cross-machine comparisons
are advisory, not regressions (the lesson of the BENCH_PR1->PR3
drift).  ``--trajectory BENCH_*.json`` prints guarded rates across
report files of any schema vintage.

Rates are the best of ``--repeats`` rounds: wall-clock minimums are the
standard way to suppress scheduler noise on shared machines.
Allocation figures come from :mod:`tracemalloc` (peak traced bytes and
the block count surviving the round), which the free-list pool and the
tuple heap are expected to keep flat.
"""

from __future__ import annotations

import argparse
import json
import sys
import time
import tracemalloc
from pathlib import Path
from typing import Any, Callable, Optional, Sequence

from repro.units import US

#: Rates guarded by --check, as (bench, field) paths into the report.
GUARDED_RATES = (
    ("engine_event_rate", "events_per_sec"),
    ("datapath_rate", "packets_per_sec"),
    ("fluid_rate", "flows_per_sec"),
    ("fluid_rate_1m", "flow_steps_per_sec"),
    ("parallel_speedup", "points_per_sec"),
    ("parallel_speedup", "points_per_sec_warm"),
)

#: Environment-fingerprint fields compared by the provenance check: a
#: baseline recorded on different hardware or interpreter cannot vouch
#: for this machine's rates, so a mismatch is warned about loudly.
PROVENANCE_FIELDS = ("platform", "python_version", "implementation", "cpu_count")


def normalize_report(report: dict[str, Any]) -> dict[str, Any]:
    """Upgrade any BENCH_*.json schema to the current shape, in place.

    Schema 1 (BENCH_PR1/PR2) lacked the ``env`` environment stamp;
    schema 2 added it.  Trajectory tooling and the baseline comparison
    read every report through this normalizer so all vintages parse
    uniformly: missing blocks become empty dicts, and the original
    schema number is preserved under ``schema_original``.
    """
    report.setdefault("schema_original", report.get("schema", 1))
    report["schema"] = 2
    report.setdefault("env", {})
    report.setdefault("benches", {})
    return report


def load_bench_report(path: Path) -> dict[str, Any]:
    """Read and normalize one bench report (or baseline) file."""
    return normalize_report(json.loads(Path(path).read_text()))


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


def _traced(fn: Callable[[], Any]) -> dict[str, int]:
    """Peak traced bytes and surviving allocation blocks for one run."""
    tracemalloc.start()
    try:
        fn()
        current, peak = tracemalloc.get_traced_memory()
        blocks = sum(
            stat.count for stat in tracemalloc.take_snapshot().statistics("filename")
        )
    finally:
        tracemalloc.stop()
    return {
        "alloc_peak_bytes": peak,
        "alloc_current_bytes": current,
        "alloc_blocks": blocks,
    }


# -- benches ------------------------------------------------------------------


def bench_engine(n_events: int = 20_000, repeats: int = 5) -> dict[str, Any]:
    """The tight self-rescheduling chain: pure event-loop overhead."""
    from repro.sim import Simulator

    horizon = n_events * 1000

    def round_() -> tuple[int, float]:
        sim = Simulator()

        def tick() -> None:
            if sim.now < horizon:
                sim.after(1000, tick)

        sim.at(0, tick)
        t0 = time.perf_counter()
        executed = sim.run()
        return executed, time.perf_counter() - t0

    rate, executed = _best_of(round_, repeats)
    result = {"events_per_sec": rate, "events": executed, "repeats": repeats}
    result.update(_traced(round_))
    return result


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


def bench_datapath(duration_us: int = 200, repeats: int = 3) -> dict[str, Any]:
    """End-to-end DATA packets through SCHE->DATA->ACK->INFO->CC."""
    from repro import ControlPlane, TestConfig
    from repro.pswitch.packets import PACKET_POOL

    pool_stats: dict[str, int] = {}

    def round_() -> tuple[int, float]:
        nonlocal pool_stats
        cp = ControlPlane()
        cp.deploy(TestConfig(cc_algorithm="dcqcn", n_test_ports=2))
        cp.wire_loopback_fabric()
        cp.start_flows(size_packets=10**9, pattern="pairs")
        before = PACKET_POOL.stats()
        t0 = time.perf_counter()
        cp.run(duration_ps=duration_us * US)
        seconds = time.perf_counter() - t0
        after = PACKET_POOL.stats()
        pool_stats = {k: after[k] - before[k] for k in ("created", "reused", "released")}
        return cp.read_measurements()["switch.data_generated"], seconds

    rate, packets = _best_of(round_, repeats)
    result = {
        "packets_per_sec": rate,
        "packets": packets,
        "sim_duration_us": duration_us,
        "pool": pool_stats,
        "repeats": repeats,
    }
    result.update(_traced(round_))
    return result


def bench_fluid(flows_total: int = 50_000, repeats: int = 3) -> dict[str, Any]:
    """The vectorized fluid-model FCT kernel (Figure 10 scale path)."""
    from repro.fluid import FluidSimulator, dcqcn_profile
    from repro.workload import websearch

    def round_() -> tuple[int, float]:
        fluid = FluidSimulator(flows_per_port=8, seed=1)
        t0 = time.perf_counter()
        result = fluid.run(dcqcn_profile(), websearch(), flows_total=flows_total)
        return len(result.fcts_us), time.perf_counter() - t0

    rate, flows = _best_of(round_, repeats)
    return {"flows_per_sec": rate, "flows": flows, "repeats": repeats}


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


def bench_parallel_speedup(
    n_points: int = 8,
    duration_us: int = 600,
    workers: int | None = None,
) -> dict[str, Any]:
    """Serial vs sharded throughput for one sweep campaign.

    The same ``n_points`` DCQCN grid runs three ways: ``workers=1``
    (serial reference), through a cold process pool (what one-shot
    ``repro sweep`` pays — pool spawn and preload imports on the
    campaign's own clock), and through a pre-``start()``-ed warm pool
    (what every campaign after the first costs inside ``repro serve``).
    All are real end-to-end campaigns (wiring, simulation, aggregation).
    ``speedup`` approaches the worker count on an otherwise idle
    multi-core box and ~1.0 on a single core; ``points_per_sec`` (cold
    pooled) and ``points_per_sec_warm`` are the guarded rates — the gap
    between them is exactly the startup cost the daemon amortizes.
    """
    import os

    from repro.parallel import CampaignRunner
    from repro.serve.spec import parse_spec
    from repro.units import GBPS

    if workers is None:
        workers = max(2, min(4, os.cpu_count() or 1))
    spec = parse_spec(
        {
            "kind": "sweep",
            "algorithm": "dcqcn",
            "grid": [{"rate_ai_bps": (index + 1) * GBPS} for index in range(n_points)],
            "n_senders": 2,
            "duration_ms": duration_us / 1000,
        }
    )

    def campaign(runner: CampaignRunner) -> dict[str, Any]:
        with runner:
            return spec.run(runner)

    serial = campaign(CampaignRunner(workers=1))
    parallel = campaign(CampaignRunner(workers=workers))
    if serial["points"] != parallel["points"]:  # determinism is part of the contract
        raise AssertionError("parallel sweep diverged from the serial run")
    warm = campaign(CampaignRunner(workers=workers).start())
    if warm["points"] != serial["points"]:
        raise AssertionError("warm-pool sweep diverged from the serial run")

    serial_s = serial["stats"]["campaign_wall_s"]
    parallel_s = parallel["stats"]["campaign_wall_s"]
    warm_s = warm["stats"]["campaign_wall_s"]
    return {
        "points_per_sec": n_points / parallel_s if parallel_s > 0 else 0.0,
        "points_per_sec_serial": n_points / serial_s if serial_s > 0 else 0.0,
        "points_per_sec_warm": n_points / warm_s if warm_s > 0 else 0.0,
        "speedup": serial_s / parallel_s if parallel_s > 0 else 0.0,
        "speedup_warm": serial_s / warm_s if warm_s > 0 else 0.0,
        "workers": workers,
        "cpu_count": os.cpu_count(),
        "points": n_points,
        "serial_s": serial_s,
        "parallel_s": parallel_s,
        "warm_s": warm_s,
        "events_total": parallel["stats"]["events_total"],
    }


def bench_obs_overhead(n_events: int = 20_000, repeats: int = 5) -> dict[str, Any]:
    """Metrics-on vs metrics-off cost of the instrumented event loop.

    Three variants of the same self-rescheduling tick chain, rounds
    interleaved so machine drift hits all variants equally:

    * ``off``  — the plain engine, nothing bound;
    * ``on``   — the obs design point: a registry of lazy bindings over
      engine state, collected once at the end (exactly what
      ``--metrics-out`` does).  The guarded ``overhead_frac`` compares
      this against ``off`` — lazy bindings must not slow the loop
      (baseline budget ``max_overhead_frac``, ISSUE acceptance <= 5%);
    * ``live`` — additionally increments one ``Counter`` inside the
      callback.  Reported unguarded as ``live_counter_overhead_frac``:
      it prices a single attribute store against a *degenerate* empty
      callback, the worst case a warm-path counter can ever hit;
    * ``flight`` — the plain chain with a
      :class:`~repro.obs.flight.FlightRecorder` attached.  The recorder
      only hooks rare branches (cancel/rearm/compact/drop/mark), none of
      which this chain takes, so ``flight_overhead_frac`` (unguarded)
      demonstrates the zero-cost-when-armed design point for the hot
      event loop.
    """
    from repro.obs import flight as flight_mod
    from repro.obs.instrument import instrument_engine
    from repro.obs.metrics import MetricsRegistry
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

    def round_off() -> tuple[int, float]:
        sim = Simulator()
        chain(sim)
        t0 = time.perf_counter()
        executed = sim.run()
        return executed, time.perf_counter() - t0

    def round_on() -> tuple[int, float]:
        sim = Simulator()
        registry = MetricsRegistry()
        instrument_engine(sim, registry)
        chain(sim)
        t0 = time.perf_counter()
        executed = sim.run()
        seconds = time.perf_counter() - t0
        list(registry.collect())  # one end-of-run scrape, like --metrics-out
        return executed, seconds

    def round_live() -> tuple[int, float]:
        sim = Simulator()
        registry = MetricsRegistry()
        instrument_engine(sim, registry)
        ticks = registry.counter("bench_ticks_total")

        def bump() -> None:
            ticks.value += 1

        chain(sim, bump)
        t0 = time.perf_counter()
        executed = sim.run()
        seconds = time.perf_counter() - t0
        list(registry.collect())
        return executed, seconds

    def round_flight() -> tuple[int, float]:
        sim = Simulator()
        recorder = flight_mod.FlightRecorder(capacity=1024)
        flight_mod.attach(sim=sim, recorder=recorder)
        chain(sim)
        t0 = time.perf_counter()
        executed = sim.run()
        return executed, time.perf_counter() - t0

    best = {"off": 0.0, "on": 0.0, "live": 0.0, "flight": 0.0}
    executed = 0
    rounds = (
        ("off", round_off),
        ("on", round_on),
        ("live", round_live),
        ("flight", round_flight),
    )
    for _ in range(repeats):  # interleaved: drift cannot bias one variant
        for key, round_ in rounds:
            items, seconds = round_()
            executed = items
            if seconds > 0:
                best[key] = max(best[key], items / seconds)

    def overhead(rate: float) -> float:
        if best["off"] <= 0:
            return 0.0
        # Clamp at 0 so a faster instrumented round never goes negative.
        return max((best["off"] - rate) / best["off"], 0.0)

    return {
        "events_per_sec_off": best["off"],
        "events_per_sec_on": best["on"],
        "events_per_sec_live": best["live"],
        "events_per_sec_flight": best["flight"],
        "overhead_frac": overhead(best["on"]),  # guarded
        "live_counter_overhead_frac": overhead(best["live"]),
        "flight_overhead_frac": overhead(best["flight"]),
        "events": executed,
        "repeats": repeats,
    }


def bench_trace(n_records: int = 100_000, repeats: int = 3) -> dict[str, Any]:
    """Columnar trace append + series read-back."""
    from repro.sim import TraceRecorder

    def round_() -> tuple[int, float]:
        trace = TraceRecorder()
        log = trace.log
        t0 = time.perf_counter()
        for i in range(n_records):
            log(i, "cc", cwnd=i, rate=i * 2)
        trace.series("cc", "cwnd")
        return n_records, time.perf_counter() - t0

    rate, _ = _best_of(round_, repeats)
    return {"logs_per_sec": rate, "repeats": repeats}


# -- suite --------------------------------------------------------------------


def run_suite(
    *,
    quick: bool = False,
    repeats: int = 5,
    only: Optional[Sequence[str]] = None,
) -> dict[str, Any]:
    """Run every bench; returns the report dict (also what gets written).

    ``only`` restricts the run to the named benches (CI uses this to
    emit a standalone fluid_rate_1m artifact).
    """
    scale = 4 if quick else 1
    benches: dict[str, Callable[[], dict[str, Any]]] = {
        "engine_event_rate": lambda: bench_engine(20_000 // scale, repeats),
        "timer_churn": lambda: bench_timer_churn(20_000 // scale, min(repeats, 3)),
        "datapath_rate": lambda: bench_datapath(200 // scale, min(repeats, 3)),
        "fluid_rate": lambda: bench_fluid(50_000 // scale, min(repeats, 3)),
        "fluid_rate_1m": lambda: bench_fluid_1m(
            1_048_576 // scale, repeats=min(repeats, 2)
        ),
        "trace_log_rate": lambda: bench_trace(100_000 // scale, min(repeats, 3)),
        "obs_overhead": lambda: bench_obs_overhead(20_000 // scale, repeats),
        "parallel_speedup": lambda: bench_parallel_speedup(
            8 // (2 if quick else 1), 600 // scale
        ),
    }
    if only:
        # Short aliases for the two gated hot-path benches.
        aliases = {"engine": "engine_event_rate", "datapath": "datapath_rate"}
        wanted = {aliases.get(name, name) for name in only}
        unknown = sorted(wanted - set(benches))
        if unknown:
            raise SystemExit(
                f"unknown bench(es) {unknown}; available: {sorted(benches)} "
                f"(aliases: {sorted(aliases)})"
            )
        benches = {name: benches[name] for name in benches if name in wanted}
    from repro.obs.manifest import environment

    report: dict[str, Any] = {
        "schema": 2,
        "quick": quick,
        # Environment stamp: lets rate trajectories across BENCH_*.json
        # files be attributed to the machine/interpreter that produced
        # them (git sha, python version, platform, cpu count).
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

    The BENCH_PR1->PR3 rate "drift" turned out to be partly cross-machine
    noise (different kernels/hosts behind the same 1-core runner), so a
    baseline now records where it was measured and ``--check`` warns —
    loudly, but without failing — when this run's host or interpreter
    differs: rate comparisons across environments are advisory only.
    """
    base_env = baseline.get("env") or {}
    run_env = report.get("env") or {}
    if not base_env:
        return [
            "baseline has no environment fingerprint (schema 1?); "
            "re-baseline to enable provenance checking"
        ]
    mismatches = []
    for field in PROVENANCE_FIELDS:
        base_value, run_value = base_env.get(field), run_env.get(field)
        if base_value is not None and base_value != run_value:
            mismatches.append(f"{field}: baseline {base_value!r} vs run {run_value!r}")
    return mismatches


def check_regression(
    report: dict[str, Any], baseline: dict[str, Any], tolerance: float
) -> list[str]:
    """Guarded rates that fell more than their tolerance below baseline.

    ``tolerance`` is the default gate; a baseline bench entry may carry
    its own ``tolerance`` field to tighten (or loosen) just that rate —
    the engine/datapath floors run at 10% while noisier benches keep
    the default.
    """
    failures = []
    for bench, field in GUARDED_RATES:
        entry = baseline.get("benches", {}).get(bench, {})
        base = entry.get(field)
        if base is None:
            continue
        gate = entry.get("tolerance", tolerance)
        if bench not in report.get("benches", {}):
            continue  # partial runs (--only) only guard what they measured
        measured = report["benches"].get(bench, {}).get(field, 0.0)
        floor = base * (1.0 - gate)
        if measured < floor:
            failures.append(
                f"{bench}.{field}: {measured:,.0f}/s is below the regression "
                f"floor {floor:,.0f}/s (baseline {base:,.0f}/s - {gate:.0%})"
            )
    # The obs layer is additionally held to an absolute budget: metrics-on
    # must stay within the baseline's max_overhead_frac of metrics-off.
    budget = baseline.get("benches", {}).get("obs_overhead", {}).get(
        "max_overhead_frac"
    )
    if budget is not None:
        measured = (
            report["benches"].get("obs_overhead", {}).get("overhead_frac", 0.0)
        )
        if measured > budget:
            failures.append(
                f"obs_overhead.overhead_frac: {measured:.1%} exceeds the "
                f"metrics-on budget of {budget:.0%}"
            )
    return failures


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        prog="repro-bench", description="Run the perf-regression suite."
    )
    parser.add_argument(
        "--output", type=Path, default=Path("BENCH_PR15.json"),
        help="where to write the JSON report (default: BENCH_PR15.json)",
    )
    parser.add_argument(
        "--baseline", type=Path, default=None,
        help="baseline JSON to compare guarded rates against",
    )
    parser.add_argument(
        "--check", action="store_true",
        help="exit non-zero if a guarded rate regresses past --tolerance",
    )
    parser.add_argument(
        "--tolerance", type=float, default=0.20,
        help="allowed fractional drop below baseline (default 0.20)",
    )
    parser.add_argument("--repeats", type=int, default=5)
    parser.add_argument(
        "--quick", action="store_true", help="quarter-size workloads (CI smoke)"
    )
    parser.add_argument(
        "--only", action="extend", nargs="+", default=None, metavar="BENCH",
        help="run only the named benches (repeatable; accepts several "
             "names, plus the aliases engine/datapath)",
    )
    parser.add_argument(
        "--trajectory", nargs="+", type=Path, default=None, metavar="REPORT",
        help="print guarded rates across BENCH_*.json files (any schema) "
             "instead of running the suite",
    )
    args = parser.parse_args(argv)

    if args.trajectory is not None:
        return print_trajectory(args.trajectory)

    baseline = None
    if args.baseline is not None:
        # Read up front: a bad path should not cost a full suite run.
        try:
            baseline = load_bench_report(args.baseline)
        except (OSError, json.JSONDecodeError) as exc:
            parser.error(f"cannot read baseline {args.baseline}: {exc}")

    report = run_suite(quick=args.quick, repeats=args.repeats, only=args.only)
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
        failures = check_regression(report, baseline, args.tolerance)
        if args.check and failures:
            for failure in failures:
                print(f"[bench] REGRESSION: {failure}", file=sys.stderr)
            return 1
        for failure in failures:
            print(f"[bench] warning: {failure}")
    return 0


def print_trajectory(paths: Sequence[Path]) -> int:
    """Guarded-rate table across bench reports of any schema vintage."""
    reports = []
    for path in paths:
        try:
            reports.append((path, load_bench_report(path)))
        except (OSError, json.JSONDecodeError) as exc:
            print(f"[bench] cannot read {path}: {exc}", file=sys.stderr)
            return 1
    names = [f"{bench}.{field}" for bench, field in GUARDED_RATES]
    width = max(len(name) for name in names) + 2
    header = "".rjust(width) + "".join(
        str(path.name)[:20].rjust(22) for path, _ in reports
    )
    print(header)
    for (bench, field), name in zip(GUARDED_RATES, names):
        row = name.ljust(width)
        for _, report in reports:
            value = report["benches"].get(bench, {}).get(field)
            row += (f"{value:,.0f}" if value is not None else "-").rjust(22)
        print(row)
    envs = "".rjust(width) + "".join(
        str((report.get("env") or {}).get("platform", "schema 1"))[-20:].rjust(22)
        for _, report in reports
    )
    print(envs)
    return 0


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
