"""Command-line interface: ``python -m repro <command>``.

* ``run``            — deploy a tester, run a traffic pattern, print and
  optionally export its measurements;
* ``sweep`` / ``fluid`` — a CC parameter sweep / a fluid FCT grid: the
  flags are translated into a campaign spec (the field table in
  ``docs/SERVING.md``) and run by :meth:`CampaignSpec.run`, the
  executor ``repro serve`` uses;
* ``serve`` / ``submit`` — the campaign daemon, and its client, which
  prints a finished job the way ``sweep`` / ``fluid`` print theirs;
* ``report``         — profile a demo scenario and print per-component
  wall time and key counters;
* ``trace``          — merge a campaign results directory into one
  Chrome/Perfetto trace-event JSON timeline;
* ``amplification``, ``capabilities``, ``resources``, ``algorithms`` —
  the paper's Section 3.3 arithmetic and Tables 1, 2 and 4.

Any :class:`~repro.errors.ReproError` — a bad flag value, a rejected
spec, a failed campaign — is one line on stderr and exit status 2.
"""

from __future__ import annotations

import argparse
import sys
from collections import Counter
from pathlib import Path
from typing import TYPE_CHECKING, Any, Callable, Optional, Sequence

import repro.cc as cc
from repro.core import (
    Scenario,
    TestConfig,
    amplification_report,
    deploy_scenario,
    device_characteristics_table,
    tester_requirements_table,
)
from repro.core.control_plane import PATTERNS
from repro.core.scenario import WORKLOADS
from repro.errors import ConfigError, ReproError
from repro.fpga.hls import algorithm_cycles
from repro.fpga.resources import estimate_resources
from repro.fpga.timers import FrequencyControl
from repro.measure.export import fct_to_csv, throughput_to_csv, trace_to_json
from repro.net.fabric import DEFAULT_ECN_THRESHOLD_BYTES
from repro.obs import (
    build_manifest,
    counters_registry,
    write_manifest,
    write_metrics,
)
from repro.obs.heartbeat import Heartbeat
from repro.units import MS, format_rate

if TYPE_CHECKING:
    from repro.serve.spec import CampaignSpec


def _yesno(flag: bool) -> str:
    return "yes" if flag else "no"


def cmd_algorithms(args: argparse.Namespace) -> int:
    print("registered CC algorithms:")
    for name in cc.available():
        algorithm = cc.create(name)
        cycles = algorithm_cycles(algorithm)
        print(f"  {name:10s} mode={algorithm.mode.value:7s} fast path={cycles} cycles")
    return 0


def cmd_amplification(args: argparse.Namespace) -> int:
    report = amplification_report(args.mtu)
    print(f"MTU {report.mtu_bytes} B on {format_rate(report.port_rate_bps)} ports:")
    print(f"  SCHE rate            : {report.sche_pps / 1e6:.1f} Mpps")
    print(f"  DATA rate per port   : {report.data_pps_per_port / 1e6:.3f} Mpps")
    print(f"  amplification factor : {report.amplification_factor}")
    print(f"  ideal generated rate : {format_rate(report.ideal_rate_bps)}")
    print(f"  one-pipeline rate    : {format_rate(report.pipeline_rate_bps)} "
          f"({report.test_ports_in_pipeline} test ports)")
    return 0


def cmd_capabilities(args: argparse.Namespace) -> int:
    print("Table 1 — tester classes vs requirements (R1 CC / R2 custom / R3 Tbps):")
    for row in tester_requirements_table():
        print(f"  {row.tester:22s} {_yesno(row.r1_cc_traffic):3s} "
              f"{_yesno(row.r2_custom_cc):3s} {_yesno(row.r3_tbps):3s}  {row.note}")
    print("\nTable 2 — devices (programmability / frequency / throughput):")
    for row in device_characteristics_table():
        print(f"  {row.device:22s} {_yesno(row.programmability):3s} "
              f"{_yesno(row.frequency):3s} {_yesno(row.throughput):3s}  {row.note}")
    return 0


def cmd_resources(args: argparse.Namespace) -> int:
    algorithm = cc.create(args.algorithm)
    report = estimate_resources(algorithm, n_flows=args.flows)
    control = FrequencyControl(args.mtu, 12)
    problems = control.validate(report.cycles)
    print(f"{args.algorithm} at {args.flows} flows, MTU {args.mtu}:")
    print(f"  fast path        : {report.cycles} cycles "
          f"(budget {control.max_rmw_cycles})")
    print(f"  per-flow state   : {report.state_bytes_per_flow} B")
    print(f"  BRAM             : {report.bram_pct:.1f}%")
    print(f"  CC module LUT/FF : {report.cc_lut_pct:.1f}% / {report.cc_ff_pct:.1f}%")
    print(f"  frequency check  : {'; '.join(problems) if problems else 'safe'}")
    return 0


def cmd_run(args: argparse.Namespace) -> int:
    if args.config is not None:
        import json

        try:
            payload = json.loads(Path(args.config).read_text())
        except (OSError, ValueError) as exc:
            raise ConfigError(f"--config {args.config}: {exc}") from None
        config = TestConfig.from_dict(payload)
    else:
        config = TestConfig(
            cc_algorithm=args.algorithm,
            n_test_ports=args.ports,
            flows_per_port=args.flows_per_port,
            template_bytes=args.mtu,
            int_enabled=args.int_enabled,
            trace_cc=args.trace,
        )
    scenario = Scenario(
        config,
        duration_ps=round(args.duration_ms * MS),
        pattern=args.pattern,
        workload=args.workload,
        size_packets=args.size_packets,
        size_scale=args.size_scale,
    )
    cp, sampler, _ = deploy_scenario(scenario)
    tester = cp.require_tester()
    cp.run(duration_ps=scenario.duration_ps)

    counters = cp.read_measurements()
    print(f"ran {config.cc_algorithm} for {args.duration_ms} ms "
          f"({args.pattern}, {tester.n_test_ports} ports)")
    print(f"  flows completed : {counters['fpga.flows_completed']}")
    print(f"  DATA generated  : {counters['switch.data_generated']}")
    print(f"  false losses    : {counters['switch.sche_dropped']}")
    print(f"  RMW conflicts   : {counters['fpga.rmw_conflicts']}")
    if len(tester.fct):
        stats = tester.fct.stats()
        print(f"  FCT mean/p99    : {stats.mean_us:.1f} / {stats.p99_us:.1f} us")
    last = sampler.samples[-1].rates_bps if sampler.samples else {}
    flow_rates = [v for k, v in last.items() if k.startswith("flow")]
    if flow_rates:
        # Live at the end of the run: the sample also carries a meter,
        # at 0, for every flow that sent and has since finished.
        live = sum(f.started and not f.finished for f in tester.nic.flows.values())
        print(f"  last-window rate: {format_rate(sum(flow_rates))} over "
              f"{live} active flows")

    if args.export_dir is not None:
        out = Path(args.export_dir)
        out.mkdir(parents=True, exist_ok=True)
        print("exported:")
        print(f"  {fct_to_csv(tester.fct, out / 'fct.csv')}")
        print(f"  {throughput_to_csv(sampler, out / 'throughput.csv')}")
        print(f"  {write_metrics(counters_registry(counters), out / 'counters.json')}")
        if config.trace_cc:
            print(f"  {trace_to_json(tester.nic.logger.trace, out / 'trace.json')}")
    if args.metrics_out is not None:
        print(f"wrote {write_metrics(counters_registry(counters), args.metrics_out)}")
    return 0


def _parse_grid_axes(specs: Sequence[str]) -> list[dict]:
    """``name=v1,v2`` axes -> cartesian-product grid (values parsed as
    ``true``/``false``, int, then float, then kept as strings)."""
    import itertools

    def parse(token: str):
        if token in ("true", "false"):
            return token == "true"
        for cast in (int, float):
            try:
                return cast(token)
            except ValueError:
                continue
        return token

    axes: list[tuple[str, list]] = []
    for spec in specs:
        name, _, values = spec.partition("=")
        if not name or not values:
            raise ConfigError(f"--param must look like name=v1,v2 (got {spec!r})")
        axes.append((name, [parse(token) for token in values.split(",")]))
    if not axes:
        return [{}]
    names = [name for name, _ in axes]
    return [
        dict(zip(names, combo))
        for combo in itertools.product(*(values for _, values in axes))
    ]


def _render_heartbeat(row: dict[str, Any]) -> None:
    """One live progress line per heartbeat row (the ``[hb]`` stream),
    local or served."""
    state = "done" if row["final"] else f"{row['progress'] * 100:3.0f}%"
    print(
        f"[hb] task {row['task_id']} {state}  "
        f"sim {row['sim_now_ps'] / MS:.2f}/{row['sim_until_ps'] / MS:.2f} ms  "
        f"{row['events_executed']:,} events  pid {row['pid']}",
        flush=True,
    )


def _print_campaign(spec: CampaignSpec, result: dict[str, Any]) -> None:
    """Summary line and result table of one finished campaign, from the
    payload :meth:`CampaignSpec.run` returns and the daemon serves."""
    config, stats, points = spec.config, result["stats"], result["points"]
    if spec.kind == "sweep":
        print(
            f"swept {len(points)} {config['algorithm']} configuration(s) "
            f"({stats['tasks']} simulation(s), {stats['workers']} worker(s), "
            f"{stats['campaign_wall_s']:.1f} s wall, "
            f"{stats['tasks_per_sec']:.2f} sims/s, "
            f"{stats['events_total']:,} events)"
        )
        print(f"{'params':40s} {'throughput':>12s} {'fairness':>9s} "
              f"{'peak queue':>11s} {'flows':>6s}")
        for point in points:
            label = ", ".join(f"{k}={v}" for k, v in point["params"].items())
            print(f"{label or '(defaults)':40s} "
                  f"{format_rate(point['throughput_bps']):>12s} "
                  f"{point['fairness']:>9.3f} "
                  f"{point['peak_queue_bytes'] // 1000:>9d}kB "
                  f"{point['flows_completed']:>6d}")
        return
    print(
        f"fluid campaign: {len(points)} cell(s), "
        f"{stats['workers']} worker(s), {stats['campaign_wall_s']:.1f} s wall, "
        f"{stats['events_total']:,} flow-steps"
    )
    print(f"{'algorithm':10s} {'flows/port':>10s} {'mean':>10s} {'p50':>10s} "
          f"{'p99':>10s} {'per-slot':>12s} {'aggregate':>12s}")
    for point in points:
        aggregate = (
            point["throughput_bps"] * point["flows_per_port"] * config["n_ports"]
        )
        print(f"{point['algorithm']:10s} {point['flows_per_port']:>10d} "
              f"{point['mean_fct_us']:>8.1f}us {point['p50_fct_us']:>8.1f}us "
              f"{point['p99_fct_us']:>8.1f}us "
              f"{format_rate(point['throughput_bps']):>12s} "
              f"{format_rate(aggregate):>12s}")


def _write_json(path: str, document: dict[str, Any]) -> None:
    import json

    Path(path).write_text(json.dumps(document, indent=2) + "\n")
    print(f"wrote {path}")


def _run_campaign(
    args: argparse.Namespace,
    payload: dict[str, Any],
    on_heartbeat: Optional[Callable[[Heartbeat], None]] = None,
    **run_options: Any,
) -> tuple[CampaignSpec, dict[str, Any]]:
    """What ``repro sweep`` and ``repro fluid`` share: validate the spec
    payload their flags spell, run it on a private runner through the
    daemon's executor, print the table, honour ``--json``."""
    from repro.parallel import CampaignRunner
    from repro.serve.spec import parse_spec

    spec = parse_spec(payload)  # rejects bad input before any worker exists
    # --results-dir arms the campaign journal + per-task flight
    # recorders (post-mortem dumps, `repro trace` input).
    with CampaignRunner(workers=args.workers, results_dir=args.results_dir) as runner:
        result = spec.run(runner, on_heartbeat, **run_options)
    _print_campaign(spec, result)
    if args.results_dir is not None:
        print(f"campaign journal in {args.results_dir} "
              f"(render with: repro trace {args.results_dir})")
    if args.json is not None:
        _write_json(args.json, result)
    return spec, result


def cmd_sweep(args: argparse.Namespace) -> int:
    final_beats: dict[int, Heartbeat] = {}

    def on_heartbeat(beat: Heartbeat) -> None:
        if beat.final:
            final_beats[beat.task_id] = beat
        if not args.no_progress:
            _render_heartbeat(beat.row())

    spec, result = _run_campaign(
        args,
        {
            "kind": "sweep",
            "algorithm": args.algorithm,
            "grid": _parse_grid_axes(args.param),
            "n_senders": args.senders,
            "duration_ms": args.duration_ms,
            "ecn_threshold_bytes": args.ecn_threshold,
            "seed": args.seed,
        },
        on_heartbeat,
    )
    if args.metrics_out is not None or args.manifest is not None:
        totals: Counter[str] = Counter()
        for beat in final_beats.values():
            totals.update(beat.counters)
        registry = counters_registry(totals, result["stats"])
        if args.metrics_out is not None:
            print(f"wrote {write_metrics(registry, args.metrics_out)}")
        if args.manifest is not None:
            manifest = build_manifest(
                spec.config,
                seed=spec.config["seed"],
                metrics=registry.snapshot(),
                extra={"campaign": result["stats"]},
            )
            print(f"wrote {write_manifest(manifest, args.manifest)}")
    return 0


def cmd_fluid(args: argparse.Namespace) -> int:
    """Fluid FCT campaign (Figure 10 grid) on the columnar solver."""
    try:
        levels = [int(token) for token in args.flows_per_port.split(",")]
    except ValueError:
        raise ConfigError(
            "--flows-per-port must be a comma-separated int list, "
            f"got {args.flows_per_port!r}"
        ) from None
    _run_campaign(
        args,
        {
            "kind": "fluid",
            "algorithms": args.algorithms,
            "workload": args.workload,
            "flows_per_port_levels": levels,
            "flows_total": args.flows_total,
            "n_ports": args.ports,
            "seed": args.seed,
        },
        timeseries_dir=args.timeseries_out,
        timeseries_sample_every=args.timeseries_every,
    )
    if args.timeseries_out is not None:
        print(f"per-bottleneck timeseries (.npz per cell) in {args.timeseries_out}")
    return 0


def cmd_report(args: argparse.Namespace) -> int:
    """Profile-and-counters report for one demo congestion scenario."""
    scenario = Scenario(
        TestConfig(cc_algorithm=args.algorithm, n_test_ports=args.senders + 1),
        duration_ps=round(args.duration_ms * MS),
        pattern="fan_in",
        size_packets=args.size_packets,
        ecn_threshold_bytes=args.ecn_threshold,
    )
    cp, _, _ = deploy_scenario(scenario)
    cp.sim.enable_profiling()
    cp.run(duration_ps=scenario.duration_ps)
    profile = cp.sim.profile()
    counters = cp.read_measurements()
    queues = [port.queue.stats for port in cp.fabric.ports]

    def queue_total(name: str) -> int:
        return sum(getattr(stats, name) for stats in queues)

    print(
        f"profiled {args.algorithm} fan-in ({args.senders} senders, "
        f"{args.duration_ms} ms): {cp.sim.events_executed:,} events, "
        f"{profile.total_seconds:.3f} s in callbacks"
    )
    print()
    print(profile.table(top_n=args.top))
    print()
    print("fabric queues (all ports):")
    print(f"  enqueued  : {queue_total('enqueued_packets'):,} packets "
          f"/ {queue_total('enqueued_bytes'):,} B")
    print(f"  dropped   : {queue_total('dropped_packets'):,} packets "
          f"/ {queue_total('dropped_bytes'):,} B")
    print(f"  ECN marks : {queue_total('ecn_marked_packets'):,}")
    print("amplification path:")
    print(f"  SCHE accepted/dropped : {counters['switch.sche_accepted']:,} / "
          f"{counters['switch.sche_dropped']:,}")
    print(f"  DATA generated        : {counters['switch.data_generated']:,}")
    print(f"  ACKs / INFOs generated: {counters['switch.acks_generated']:,} / "
          f"{counters['switch.infos_generated']:,}")
    print("engine:")
    print(f"  events executed/cancelled : {cp.sim.events_executed:,} / "
          f"{cp.sim.events_cancelled:,}")
    if args.metrics_out is not None:
        print(f"wrote {write_metrics(counters_registry(counters), args.metrics_out)}")
    return 0


def cmd_trace(args: argparse.Namespace) -> int:
    """Merge a campaign results dir into one Chrome trace-event file."""
    from repro.obs.trace import campaign_trace_events, write_chrome_trace

    try:
        events = campaign_trace_events(args.campaign_dir)
    except FileNotFoundError as exc:
        raise ConfigError(str(exc)) from exc
    out = args.output
    if out is None:
        out = str(Path(args.campaign_dir) / "trace.json")
    path = write_chrome_trace(
        out, events, metadata={"campaign_dir": str(args.campaign_dir)}
    )
    spans = sum(1 for e in events if e["ph"] == "X")
    instants = sum(1 for e in events if e["ph"] == "i")
    counters = sum(1 for e in events if e["ph"] == "C")
    print(f"wrote {path} ({len(events)} events: {spans} spans, "
          f"{instants} instants, {counters} counter samples)")
    print("open it in https://ui.perfetto.dev or chrome://tracing")
    return 0


def cmd_serve(args: argparse.Namespace) -> int:
    """Run the persistent campaign daemon until interrupted."""
    import asyncio
    import signal

    from repro.serve import ReproServer

    server = ReproServer(
        host=args.host,
        port=args.port,
        workers=args.workers,
        cache_dir=args.cache_dir,
        cache_max_entries=args.cache_max_entries,
        cache_ttl_s=args.cache_ttl,
        results_dir=args.results_dir,
        max_queued=args.max_queued,
        task_timeout_s=args.task_timeout,
    )

    async def run() -> None:
        start = asyncio.ensure_future(server.serve_forever())
        # Graceful stop on SIGTERM too (and SIGINT even when a parent
        # shell started us with it ignored, as CI background jobs do).
        loop = asyncio.get_running_loop()
        for signum in (signal.SIGINT, signal.SIGTERM):
            try:
                loop.add_signal_handler(signum, start.cancel)
            except (NotImplementedError, RuntimeError):
                pass  # platforms without POSIX signal support
        # serve_forever binds before blocking; give the banner real facts.
        while server._server is None and not start.done():
            await asyncio.sleep(0.01)
        print(
            f"repro serve on http://{server.host}:{server.port} "
            f"({server.queue.runner.workers} warm worker(s), "
            f"cache {args.cache_dir})",
            flush=True,
        )
        print("endpoints: POST /jobs, GET /jobs[/<id>], "
              "/metrics, /healthz  (Ctrl-C to stop)", flush=True)
        try:
            await start
        except asyncio.CancelledError:
            pass

    try:
        asyncio.run(run())
    except KeyboardInterrupt:
        pass
    print("shutting down (draining worker pool) ...", flush=True)
    server.queue.close()
    return 0


def cmd_submit(args: argparse.Namespace) -> int:
    """Send one campaign spec to a running daemon."""
    import json

    from repro.serve import ServeClient, parse_spec

    payload = json.loads(Path(args.spec).read_text())
    # The daemon's own validator, run here first: a bad spec costs no
    # round trip, and the normalized config labels the result table.
    spec = parse_spec(payload)
    client = ServeClient(args.host, args.port)
    try:
        job = client.submit(payload)
        cached = " (cached)" if job.get("cached") else ""
        print(f"{job['job_id']} {job['state']}{cached}: {job['description']}")
        if args.wait and job["state"] not in ("done", "failed"):
            job = client.wait(
                job["job_id"],
                timeout_s=args.timeout,
                on_heartbeat=None if args.no_progress else _render_heartbeat,
            )
    finally:
        client.close()
    if job["state"] == "done":
        _print_campaign(spec, job["result"])
        if args.json is not None:
            _write_json(args.json, job)
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro", description="Marlin-reproduction control plane CLI"
    )
    sub = parser.add_subparsers(dest="command", required=True)

    sub.add_parser("algorithms", help="list registered CC algorithms")

    p_amp = sub.add_parser("amplification", help="Section 3.3 arithmetic")
    p_amp.add_argument("--mtu", type=int, default=1024)

    sub.add_parser("capabilities", help="Tables 1 and 2")

    p_res = sub.add_parser("resources", help="Table 4 estimates")
    p_res.add_argument("--algorithm", default="dctcp")
    p_res.add_argument("--flows", type=int, default=65_536)
    p_res.add_argument("--mtu", type=int, default=1024)

    p_run = sub.add_parser("run", help="deploy and run a test")
    p_run.add_argument("--algorithm", default="dctcp")
    p_run.add_argument("--ports", type=int, default=2)
    p_run.add_argument("--flows-per-port", type=int, default=1)
    p_run.add_argument("--mtu", type=int, default=1024)
    p_run.add_argument("--pattern", choices=tuple(PATTERNS), default="pairs")
    p_run.add_argument(
        "--workload",
        choices=WORKLOADS,
        default="fixed",
        help="fixed sizes, or a closed-loop traffic model",
    )
    p_run.add_argument(
        "--size-scale",
        type=int,
        default=1,
        help="divide workload flow sizes by this factor (scaled runs)",
    )
    p_run.add_argument("--size-packets", type=int, default=5000)
    p_run.add_argument("--duration-ms", type=float, default=5.0)
    p_run.add_argument("--int-enabled", action="store_true")
    p_run.add_argument(
        "--trace",
        action="store_true",
        help="log every per-flow CC decision (cwnd/rate updates, slow-path "
             "alpha) to the in-model QDMA logger (tester.nic.logger); "
             "grows with decision count, so off by default; with "
             "--export-dir it is also written to trace.json",
    )
    p_run.add_argument("--export-dir", default=None)
    p_run.add_argument(
        "--metrics-out",
        default=None,
        help="write a final metrics snapshot (.prom/.txt Prometheus, else JSON)",
    )
    p_run.add_argument(
        "--config",
        default=None,
        help="JSON TestConfig file (overrides the individual options)",
    )

    p_sweep = sub.add_parser(
        "sweep", help="CC parameter sweep, sharded across a process pool"
    )
    p_sweep.add_argument("--algorithm", default="dctcp")
    p_sweep.add_argument(
        "--param",
        action="append",
        default=[],
        metavar="NAME=V1,V2",
        help="one grid axis of CC parameter values; repeat for a "
             "cartesian product (omit to sweep the single default point)",
    )
    p_sweep.add_argument(
        "--workers", type=int, default=1,
        help="process-pool width (1 = serial; results are identical)",
    )
    p_sweep.add_argument("--seed", type=int, default=0, help="campaign seed")
    p_sweep.add_argument("--senders", type=int, default=3)
    p_sweep.add_argument("--duration-ms", type=float, default=6.0)
    p_sweep.add_argument("--ecn-threshold", type=int, default=DEFAULT_ECN_THRESHOLD_BYTES)
    p_sweep.add_argument("--json", default=None, help="write results as JSON")
    p_sweep.add_argument(
        "--metrics-out",
        default=None,
        help="write campaign metrics (.prom/.txt Prometheus, else JSON)",
    )
    p_sweep.add_argument(
        "--manifest",
        default=None,
        help="write a run manifest (config hash, seed, git sha, metrics)",
    )
    p_sweep.add_argument(
        "--no-progress",
        action="store_true",
        help="suppress live [hb] heartbeat lines",
    )
    p_sweep.add_argument(
        "--results-dir",
        default=None,
        help="write a campaign journal + per-task flight-recorder "
             "post-mortems here (input for `repro trace`)",
    )

    p_fluid = sub.add_parser(
        "fluid",
        help="fluid FCT campaign (Figure 10 grid) on the columnar solver",
    )
    p_fluid.add_argument(
        "--algorithms", default="dctcp,dcqcn,ideal",
        help="comma-separated fluid profiles (dctcp, dcqcn, ideal)",
    )
    p_fluid.add_argument(
        "--flows-per-port", default="8",
        help="comma-separated per-port concurrency levels (grid axis)",
    )
    p_fluid.add_argument("--flows-total", type=int, default=50_000,
                         help="FCT samples per cell")
    p_fluid.add_argument("--ports", type=int, default=12)
    p_fluid.add_argument(
        "--workload", choices=("websearch", "hadoop"), default="websearch"
    )
    p_fluid.add_argument("--workers", type=int, default=1)
    p_fluid.add_argument("--seed", type=int, default=0)
    p_fluid.add_argument("--json", default=None, help="write results as JSON")
    p_fluid.add_argument(
        "--results-dir",
        default=None,
        help="write a campaign journal + per-task flight-recorder "
             "post-mortems here (input for `repro trace`)",
    )
    p_fluid.add_argument(
        "--timeseries-out",
        default=None,
        help="save the solver's per-step per-bottleneck aggregates as "
             "one .npz per grid cell into this directory",
    )
    p_fluid.add_argument(
        "--timeseries-every",
        type=int,
        default=1,
        help="sample every k-th solver step into the timeseries (default 1)",
    )

    p_report = sub.add_parser(
        "report", help="profile a demo scenario and print metrics"
    )
    p_report.add_argument("--algorithm", default="dctcp")
    p_report.add_argument("--senders", type=int, default=3,
                          help="sender ports of the fan-in scenario")
    p_report.add_argument("--size-packets", type=int, default=10**9)
    p_report.add_argument("--duration-ms", type=float, default=2.0)
    p_report.add_argument("--ecn-threshold", type=int, default=DEFAULT_ECN_THRESHOLD_BYTES)
    p_report.add_argument("--top", type=int, default=12,
                          help="profile rows to print")
    p_report.add_argument(
        "--metrics-out",
        default=None,
        help="also write the full metrics snapshot (.prom/.txt/JSON)",
    )

    p_serve = sub.add_parser(
        "serve",
        help="persistent campaign daemon: HTTP job queue over a warm pool "
             "with a config-hash result cache",
    )
    p_serve.add_argument("--host", default="127.0.0.1")
    p_serve.add_argument("--port", type=int, default=8723)
    p_serve.add_argument(
        "--workers", type=int, default=None,
        help="warm worker-pool width (default: all CPUs)",
    )
    p_serve.add_argument(
        "--cache-dir", default=".repro-cache",
        help="result-cache directory keyed by canonical config hash",
    )
    p_serve.add_argument(
        "--cache-max-entries", type=int, default=None,
        help="cap on cached campaigns; least-recently-used entries are "
             "evicted past it (default: unbounded)",
    )
    p_serve.add_argument(
        "--cache-ttl", type=float, default=None, metavar="SECONDS",
        help="expire cached campaigns older than this (default: never)",
    )
    p_serve.add_argument(
        "--results-dir", default=None,
        help="arm campaign journals + flight-recorder post-mortems here",
    )
    p_serve.add_argument(
        "--max-queued", type=int, default=64,
        help="campaigns allowed to wait in the queue before 503 (default 64)",
    )
    p_serve.add_argument(
        "--task-timeout", type=float, default=None,
        help="per-task deadline in seconds (default: none)",
    )

    p_submit = sub.add_parser(
        "submit", help="send a campaign spec to a running `repro serve`"
    )
    p_submit.add_argument("spec", help="campaign spec JSON file (see docs/SERVING.md)")
    p_submit.add_argument("--host", default="127.0.0.1")
    p_submit.add_argument("--port", type=int, default=8723)
    p_submit.add_argument(
        "--wait", action="store_true",
        help="long-poll until the job finishes, rendering [hb] progress lines",
    )
    p_submit.add_argument(
        "--timeout", type=float, default=None,
        help="give up waiting after this many seconds (default: forever)",
    )
    p_submit.add_argument(
        "--no-progress", action="store_true",
        help="suppress live [hb] heartbeat lines while waiting",
    )
    p_submit.add_argument(
        "--json", default=None, help="write the final job document here"
    )

    p_trace = sub.add_parser(
        "trace",
        help="render a campaign results dir as Chrome/Perfetto trace JSON",
    )
    p_trace.add_argument(
        "campaign_dir",
        help="campaign results directory (campaign.json journal and/or "
             "flight-task*.json post-mortem dumps)",
    )
    p_trace.add_argument(
        "-o", "--output", default=None,
        help="output file (default: <campaign_dir>/trace.json)",
    )
    return parser


HANDLERS = {
    "algorithms": cmd_algorithms,
    "amplification": cmd_amplification,
    "capabilities": cmd_capabilities,
    "resources": cmd_resources,
    "run": cmd_run,
    "sweep": cmd_sweep,
    "fluid": cmd_fluid,
    "report": cmd_report,
    "trace": cmd_trace,
    "serve": cmd_serve,
    "submit": cmd_submit,
}


def main(argv: Optional[Sequence[str]] = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return HANDLERS[args.command](args)
    except ReproError as exc:
        print(f"repro {args.command}: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":  # pragma: no cover - exercised via __main__
    sys.exit(main())
