"""Operator sweep utilities.

The paper's use case (Section 1): operators "validate the effectiveness
of the selected CC algorithms and parameters through high-throughput
traffic".  :func:`sweep_campaign` automates the standard sweep: run
one congestion scenario across a grid of CC parameter settings and
report throughput/fairness/queue metrics for each (the "find the optimal
configuration" loop), with the campaign's wall-clock/event statistics.

Sweeps are campaigns of independent simulations, so they shard across a
:class:`~repro.parallel.CampaignRunner` process pool (``workers=``).  A
point is a fixed-size fan-in, which draws nothing from its seed, so
there are no seed replicates.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Callable, Optional

from repro.core.config import TestConfig
from repro.core.scenario import Scenario, deploy_scenario
from repro.errors import ConfigError
from repro.measure.fairness import jain_index
from repro.measure.throughput import ThroughputSampler
from repro.net.fabric import DEFAULT_ECN_THRESHOLD_BYTES
from repro.obs import flight
from repro.obs.heartbeat import Heartbeat, run_with_heartbeats
from repro.parallel import CampaignResult, CampaignRunner, report_events
from repro.sim import backend
from repro.units import MS


@dataclass(frozen=True)
class SweepPoint:
    """One CC-parameter configuration's outcome."""

    params: dict[str, Any]
    throughput_bps: float
    fairness: float
    peak_queue_bytes: int
    flows_completed: int
    #: Always 1: a point is one run (kept until the config-hash bump).
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
    ecn_threshold_bytes: int = DEFAULT_ECN_THRESHOLD_BYTES,
    base_params: Optional[dict[str, Any]] = None,
    seed: int = 0,
    sim_backend: Optional[str] = None,
) -> SweepPoint:
    """One grid point: a fan-in congestion scenario under one setting.

    A pure top-level function (no closures) so it pickles cleanly into
    :class:`~repro.parallel.CampaignRunner` workers.  ``seed`` feeds
    the deployed :class:`TestConfig`; a fixed-size fan-in draws nothing
    from it.  ``sim_backend`` is checked against the engine each task
    runs on (see :mod:`repro.sim.backend`); it never changes the point.
    """
    backend.check(sim_backend)
    params = {**(base_params or {}), **grid_params}
    cp, sampler, _ = deploy_scenario(
        Scenario(
            TestConfig(
                cc_algorithm=algorithm,
                n_test_ports=n_senders + 1,
                cc_params=params,
                seed=seed,
            ),
            duration_ps=duration_ps,
            pattern="fan_in",
            size_packets=size_packets,
            ecn_threshold_bytes=ecn_threshold_bytes,
        )
    )
    # Flight-recorder hookup: a no-op unless the campaign runner armed a
    # per-task recorder (results_dir campaigns); recording only reads
    # model state, so the event stream is identical either way.
    flight.attach_control_plane(cp)
    # Heartbeat-aware run: slices wall-clock execution (never the sim
    # timeline) so a campaign listener sees live progress; without a
    # configured sink this is exactly ``cp.run(duration_ps=...)``.
    run_with_heartbeats(cp.sim, duration_ps, counters_fn=cp.read_measurements)
    rates = steady_state_flow_rates(sampler)
    report_events(cp.sim.events_executed)
    return SweepPoint(
        params=grid_params,
        throughput_bps=sum(rates),
        fairness=jain_index(rates) if rates else 1.0,
        peak_queue_bytes=cp.fabric.ports[n_senders].queue.stats.max_backlog_bytes,
        flows_completed=len(cp.require_tester().fct),
    )


def sweep_campaign(
    algorithm: str,
    param_grid: list[dict[str, Any]],
    *,
    n_senders: int = 3,
    size_packets: int = 10**9,
    duration_ps: int = 6 * MS,
    ecn_threshold_bytes: int = DEFAULT_ECN_THRESHOLD_BYTES,
    base_params: Optional[dict[str, Any]] = None,
    workers: int = 1,
    seed: int = 0,
    sim_backend: Optional[str] = None,
    runner: Optional[CampaignRunner] = None,
    on_heartbeat: Optional[Callable[[Heartbeat], None]] = None,
) -> tuple[list[SweepPoint], CampaignResult]:
    """One fan-in congestion scenario per parameter setting, plus the
    underlying campaign statistics.

    Tasks are one simulation per grid point, sharded across ``workers``
    processes; any worker count produces bit-identical points.
    ``on_heartbeat`` streams live :class:`Heartbeat` progress snapshots
    from running tasks (rendered by ``repro sweep``); heartbeats never
    alter the simulated event stream, so results are unchanged.
    """
    if not param_grid:
        raise ConfigError("param_grid must contain at least one setting")
    tasks = [
        {
            "algorithm": algorithm,
            "grid_params": grid_params,
            "n_senders": n_senders,
            "size_packets": size_packets,
            "duration_ps": duration_ps,
            "ecn_threshold_bytes": ecn_threshold_bytes,
            "base_params": base_params,
            "seed": seed,
            "sim_backend": sim_backend,
        }
        for grid_params in param_grid
    ]
    own_runner = runner is None
    active = runner if runner is not None else CampaignRunner(workers=workers)
    try:
        campaign = active.run(run_sweep_point, tasks, on_heartbeat=on_heartbeat)
    finally:
        if own_runner:
            active.close()
    return campaign.values(), campaign

