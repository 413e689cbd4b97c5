"""Operator sweep utilities.

The paper's use case (Section 1): operators "validate the effectiveness
of the selected CC algorithms and parameters through high-throughput
traffic".  :func:`cc_parameter_sweep` automates the standard sweep: run
one congestion scenario across a grid of CC parameter settings and
report throughput/fairness/queue metrics for each (the "find the optimal
configuration" loop).

Sweeps are campaigns of independent simulations, so they shard across a
:class:`~repro.parallel.CampaignRunner` process pool (``workers=``),
optionally with deterministic seed replicates per grid point
(``seeds=``); :func:`sweep_campaign` additionally returns the campaign's
wall-clock/event statistics.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Any, Callable, Optional, Sequence, Union

from repro.core.config import TestConfig
from repro.core.control_plane import ControlPlane
from repro.errors import ConfigError
from repro.measure.fairness import jain_index
from repro.measure.throughput import ThroughputSampler
from repro.obs import flight
from repro.obs.heartbeat import Heartbeat, run_with_heartbeats
from repro.parallel import CampaignResult, CampaignRunner, derive_task_seed, report_events
from repro.units import MS, US


@dataclass(frozen=True)
class SweepPoint:
    """One CC-parameter configuration's outcome."""

    params: dict[str, Any]
    throughput_bps: float
    fairness: float
    peak_queue_bytes: int
    flows_completed: int
    #: Seed replicates aggregated into this point (1 = a single run).
    n_seeds: int = 1


def steady_state_flow_rates(sampler: ThroughputSampler) -> list[float]:
    """Per-flow rates averaged over the second half of the sampled windows.

    The last 500 µs window alone is single-window noise (a flow mid-cut
    or mid-recovery skews throughput and fairness); averaging the second
    half of the run discards the startup transient and smooths the
    steady-state oscillation.  Flow order is name-sorted so the result
    is deterministic.
    """
    samples = sampler.samples
    steady = samples[len(samples) // 2 :]
    if not steady:
        return []
    totals: dict[str, float] = {}
    counts: dict[str, int] = {}
    for sample in steady:
        for name, rate in sample.rates_bps.items():
            if name.startswith("flow"):
                totals[name] = totals.get(name, 0.0) + rate
                counts[name] = counts.get(name, 0) + 1
    return [totals[name] / counts[name] for name in sorted(totals)]


def run_sweep_point(
    algorithm: str,
    grid_params: dict[str, Any],
    *,
    n_senders: int = 3,
    size_packets: int = 10**9,
    duration_ps: int = 6 * MS,
    ecn_threshold_bytes: int = 84_000,
    base_params: Optional[dict[str, Any]] = None,
    seed: int = 0,
    sim_backend: Optional[str] = None,
) -> SweepPoint:
    """One grid point: a fan-in congestion scenario under one setting.

    A pure top-level function (no closures) so it pickles cleanly into
    :class:`~repro.parallel.CampaignRunner` workers; ``seed`` feeds the
    deployed :class:`TestConfig` so replicates are reproducible.
    ``sim_backend`` is checked against the engine each task runs on
    (see :mod:`repro.sim.backend`); it never changes the point.
    """
    params = dict(base_params or {})
    params.update(grid_params)
    cp = ControlPlane(sim_backend=sim_backend)
    tester = cp.deploy(
        TestConfig(
            cc_algorithm=algorithm,
            n_test_ports=n_senders + 1,
            cc_params=params,
            seed=seed,
        )
    )
    cp.wire_loopback_fabric(ecn_threshold_bytes=ecn_threshold_bytes)
    sampler = tester.enable_rate_sampling(period_ps=500 * US)
    cp.start_flows(size_packets=size_packets, pattern="fan_in")
    # Flight-recorder hookup: a no-op unless the campaign runner armed a
    # per-task recorder (results_dir campaigns); recording only reads
    # model state, so the event stream is identical either way.
    flight.attach_control_plane(cp)
    # Heartbeat-aware run: slices wall-clock execution (never the sim
    # timeline) so a campaign listener sees live progress; without a
    # configured sink this is exactly ``cp.run(duration_ps=...)``.
    run_with_heartbeats(cp.sim, duration_ps, counters_fn=cp.read_measurements)
    rates = steady_state_flow_rates(sampler)
    if cp.fabric is None:
        raise ConfigError("sweep scenario has no fabric wired")
    bottleneck = cp.fabric.ports[n_senders]
    report_events(cp.sim.events_executed)
    return SweepPoint(
        params=grid_params,
        throughput_bps=sum(rates),
        fairness=jain_index(rates) if rates else 1.0,
        peak_queue_bytes=bottleneck.queue.stats.max_backlog_bytes,
        flows_completed=len(tester.fct),
    )


def _replicate_seeds(
    seeds: Union[int, Sequence[int], None], campaign_seed: int
) -> list[int]:
    """Seed list for one grid point's replicates."""
    if seeds is None:
        return [campaign_seed]
    if isinstance(seeds, int):
        if seeds < 1:
            raise ConfigError(f"seeds must be >= 1, got {seeds}")
        return [derive_task_seed(campaign_seed, replicate) for replicate in range(seeds)]
    if not seeds:
        raise ConfigError("seeds sequence must not be empty")
    return [int(value) for value in seeds]


def _aggregate_replicates(points: list[SweepPoint]) -> SweepPoint:
    """Mean rates/fairness, worst-case queue, over one point's replicates."""
    if len(points) == 1:
        return points[0]
    n = len(points)
    return replace(
        points[0],
        throughput_bps=sum(p.throughput_bps for p in points) / n,
        fairness=sum(p.fairness for p in points) / n,
        peak_queue_bytes=max(p.peak_queue_bytes for p in points),
        flows_completed=round(sum(p.flows_completed for p in points) / n),
        n_seeds=n,
    )


def sweep_campaign(
    algorithm: str,
    param_grid: list[dict[str, Any]],
    *,
    n_senders: int = 3,
    size_packets: int = 10**9,
    duration_ps: int = 6 * MS,
    ecn_threshold_bytes: int = 84_000,
    base_params: Optional[dict[str, Any]] = None,
    workers: int = 1,
    seeds: Union[int, Sequence[int], None] = None,
    seed: int = 0,
    sim_backend: Optional[str] = None,
    runner: Optional[CampaignRunner] = None,
    on_heartbeat: Optional[Callable[[Heartbeat], None]] = None,
) -> tuple[list[SweepPoint], CampaignResult]:
    """One fan-in congestion scenario per parameter setting, plus the
    underlying campaign statistics.

    Tasks are one simulation per ``(grid point, seed replicate)`` pair,
    sharded across ``workers`` processes; replicate seeds are spawned
    deterministically from ``seed`` (or taken verbatim from a ``seeds``
    sequence), so any worker count produces bit-identical points.
    ``on_heartbeat`` streams live :class:`Heartbeat` progress snapshots
    from running tasks (rendered by ``repro sweep``); heartbeats never
    alter the simulated event stream, so results are unchanged.
    """
    if not param_grid:
        raise ConfigError("param_grid must contain at least one setting")
    replicate_seeds = _replicate_seeds(seeds, seed)
    tasks = [
        (
            algorithm,
            grid_params,
            {
                "n_senders": n_senders,
                "size_packets": size_packets,
                "duration_ps": duration_ps,
                "ecn_threshold_bytes": ecn_threshold_bytes,
                "base_params": base_params,
                "seed": replicate_seed,
                "sim_backend": sim_backend,
            },
        )
        for grid_params in param_grid
        for replicate_seed in replicate_seeds
    ]
    own_runner = runner is None
    active = runner if runner is not None else CampaignRunner(workers=workers)
    try:
        campaign = active.run(_sweep_task, tasks, on_heartbeat=on_heartbeat)
    finally:
        if own_runner:
            active.close()
    values = campaign.values()
    n_reps = len(replicate_seeds)
    points = [
        _aggregate_replicates(values[index * n_reps : (index + 1) * n_reps])
        for index in range(len(param_grid))
    ]
    return points, campaign


def _sweep_task(
    algorithm: str, grid_params: dict[str, Any], options: dict[str, Any]
) -> SweepPoint:
    """Picklable shim: unpack one campaign task into :func:`run_sweep_point`."""
    return run_sweep_point(algorithm, grid_params, **options)


def cc_parameter_sweep(
    algorithm: str, param_grid: list[dict[str, Any]], **options: Any
) -> list[SweepPoint]:
    """Run a fan-in congestion scenario for each parameter setting.

    Each grid entry is merged over ``base_params`` and passed to the
    algorithm constructor; results come back in grid order.  Takes
    every keyword of :func:`sweep_campaign` and returns its points
    without the campaign statistics.
    """
    return sweep_campaign(algorithm, param_grid, **options)[0]
