"""Fluid-model FCT campaigns sharded across a process pool.

The Figure 10 comprehensive test is a grid — CC algorithm × per-port
flow count — of *independent* fluid runs, each sampling 10⁴–10⁵ flows.
:func:`fluid_fct_campaign` maps that grid onto a
:class:`~repro.parallel.CampaignRunner`; every cell is one closed-loop
run of :class:`~repro.fluid.solver.ColumnarFluidSolver`, the one
campaign engine.  Workers return compact per-cell summaries rather than
raw FCT arrays, so a large campaign does not ship megabytes of samples
through the pipe.

The closed-form :class:`~repro.fluid.model.FluidSimulator` is not a
campaign engine: it is the solver's test oracle and the paper-scale
Figure 10 model (``benchmarks/bench_fig10_comprehensive.py``).

Per-cell seeds are spawned deterministically from the campaign seed and
the cell's grid position, so campaign results are bit-identical at any
worker count.
"""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path
from typing import Any, Optional, Sequence, Union

import numpy as np

from repro.errors import ConfigError
from repro.fluid.model import FluidCcProfile, FluidResult
from repro.fluid.solver import ColumnarFluidSolver, kernel_for_profile
from repro.obs import flight
from repro.parallel import CampaignResult, CampaignRunner, derive_task_seed, report_events
from repro.units import RATE_100G
from repro.workload.distributions import EmpiricalCdf


@dataclass(frozen=True)
class FluidCampaignPoint:
    """Summary of one (profile, flows-per-port) campaign cell."""

    algorithm: str
    workload: str
    flows_per_port: int
    flows_total: int
    mean_fct_us: float
    p50_fct_us: float
    p99_fct_us: float
    throughput_bps: float


def run_fluid_point(
    profile: FluidCcProfile,
    distribution: EmpiricalCdf,
    *,
    workload: str = "custom",
    flows_per_port: int,
    flows_total: int,
    n_ports: int = 12,
    seed: int = 0,
    timeseries_dir: Optional[Union[str, Path]] = None,
    timeseries_sample_every: int = 1,
) -> FluidCampaignPoint:
    """One campaign cell: a closed-loop columnar run of ``n_ports``
    100 G bottlenecks × ``flows_per_port`` flows, reduced to its FCT
    summary.

    Top level and closure-free so it pickles into pool workers.  With
    ``timeseries_dir`` set, per-step bottleneck aggregates are sampled
    (see :class:`~repro.fluid.solver.SolverTelemetry`) and saved as
    ``timeseries-<alg>-fpp<N>.npz`` in that directory — one distinctly
    named file per cell, so it works pooled.  Sampling only reads
    solver state, so the run stays bit-identical.
    """
    solver = ColumnarFluidSolver(
        n_bottlenecks=n_ports,
        capacity_bps=RATE_100G,
        seed=seed,
        capacity_hint=n_ports * flows_per_port,
    )
    if timeseries_dir is not None:
        solver.enable_telemetry(sample_every=timeseries_sample_every)
    flight.attach(solver=solver)
    bottleneck = np.repeat(np.arange(n_ports, dtype=np.int32), flows_per_port)
    sizes = distribution.sample_many(solver.rng, bottleneck.size)
    solver.add_flows(sizes, bottleneck=bottleneck, kernel=kernel_for_profile(profile))
    run = solver.run_closed_loop(distribution, flows_total=flows_total)
    report_events(run.flow_steps)
    if timeseries_dir is not None:
        out_dir = Path(timeseries_dir)
        out_dir.mkdir(parents=True, exist_ok=True)
        solver.telemetry.save(
            out_dir / f"timeseries-{profile.name}-fpp{flows_per_port}.npz"
        )
    result = FluidResult(
        algorithm=profile.name,
        fcts_us=run.fcts_us,
        sizes_bytes=run.sizes_bytes,
        n_flows_per_port=flows_per_port,
        n_ports=n_ports,
        capacity_bps=RATE_100G,
    )
    fcts = result.fcts_us
    return FluidCampaignPoint(
        algorithm=profile.name,
        workload=workload,
        flows_per_port=flows_per_port,
        flows_total=result.total_flows,
        mean_fct_us=float(np.mean(fcts)) if fcts.size else 0.0,
        p50_fct_us=float(np.percentile(fcts, 50)) if fcts.size else 0.0,
        p99_fct_us=float(np.percentile(fcts, 99)) if fcts.size else 0.0,
        throughput_bps=result.throughput_bps(),
    )


def fluid_fct_campaign(
    profiles: Sequence[FluidCcProfile],
    distribution: EmpiricalCdf,
    *,
    workload: str = "custom",
    flows_per_port_levels: Sequence[int] = (8,),
    flows_total: int = 50_000,
    n_ports: int = 12,
    workers: int = 1,
    seed: int = 0,
    backend: str = "columnar",
    runner: Optional[CampaignRunner] = None,
    timeseries_dir: Optional[Union[str, Path]] = None,
    timeseries_sample_every: int = 1,
    on_heartbeat: Optional[Any] = None,
) -> tuple[list[FluidCampaignPoint], CampaignResult]:
    """Run the profile × load grid, sharded across ``workers`` processes.

    Cells come back in grid order (profiles major, load levels minor)
    with the campaign's wall-clock/event statistics alongside; each is
    one :func:`run_fluid_point`.  ``backend`` accepts only
    ``"columnar"``, the one engine: the keyword stays so callers that
    still spell it keep working.
    """
    if not profiles:
        raise ConfigError("fluid campaign needs at least one CC profile")
    if not flows_per_port_levels:
        raise ConfigError("fluid campaign needs at least one load level")
    if backend != "columnar":
        raise ConfigError(
            f"fluid campaigns run on the columnar solver only, got backend {backend!r}"
        )
    if timeseries_sample_every < 1:
        raise ConfigError(
            "timeseries_sample_every (--timeseries-every) must be >= 1, "
            f"got {timeseries_sample_every}"
        )
    tasks = []
    for profile_index, profile in enumerate(profiles):
        for level_index, flows_per_port in enumerate(flows_per_port_levels):
            tasks.append(
                {
                    "profile": profile,
                    "distribution": distribution,
                    "workload": workload,
                    "flows_per_port": flows_per_port,
                    "flows_total": flows_total,
                    "n_ports": n_ports,
                    "seed": derive_task_seed(seed, profile_index, level_index),
                    "timeseries_dir": (
                        str(timeseries_dir) if timeseries_dir is not None else None
                    ),
                    "timeseries_sample_every": timeseries_sample_every,
                }
            )
    own_runner = runner is None
    active = runner if runner is not None else CampaignRunner(workers=workers)
    try:
        campaign = active.run(run_fluid_point, tasks, on_heartbeat=on_heartbeat)
    finally:
        if own_runner:
            active.close()
    return campaign.values(), campaign
