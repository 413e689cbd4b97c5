"""``fluid_fig10``: one Fig. 10-style fluid FCT campaign, scaled to fit.

The op bypasses the packet model entirely.  Its two load levels put
``ColumnarFluidSolver`` in its per-step-overhead regime (64 flows per
port: 768 flows) and its NumPy-bound regime (1024 per port: 12,288
flows).  For any change to the packet path the prediction here is: no
movement.

The traced phase replays each campaign cell by hand from the solver's
public calls -- sample sizes, add flows, solve, summarise -- with a span
around each.
"""

from __future__ import annotations

import dataclasses
from typing import Any, Optional

import numpy as np

from repro.fluid import (
    ColumnarFluidSolver,
    FluidCampaignPoint,
    FluidResult,
    dcqcn_profile,
    dctcp_profile,
    fluid_fct_campaign,
    ideal_fct_series_us,
    ideal_profile,
    kernel_for_profile,
)
from repro.parallel import derive_task_seed
from repro.units import MICROSECOND, RATE_100G
from repro.workload import websearch

from .harness import Workload, digest
from .spans import SpanRecorder

LEVELS = (64, 1024)
FLOWS_TOTAL = 2000
N_PORTS = 12


class FluidFig10(Workload):
    name = "fluid_fig10"
    work_unit = "completed flows"

    def __init__(self, seed: int, sim_backend: str, quick: bool) -> None:
        super().__init__(seed, sim_backend, quick)
        self.profiles = [dctcp_profile(), dcqcn_profile()]
        self.reference: Optional[list[dict[str, Any]]] = None
        self.inline_overheads: list[float] = []

    def op(self, index: int) -> Any:
        return fluid_fct_campaign(
            self.profiles,
            websearch(),
            workload="websearch",
            flows_per_port_levels=list(LEVELS),
            flows_total=FLOWS_TOTAL,
            n_ports=N_PORTS,
            workers=1,
            seed=self.seed,
            backend="columnar",
        )

    def setup(self) -> None:
        points, _ = self.op(-1)
        self.reference = [dataclasses.asdict(point) for point in points]

    def check(self, index: int, payload: Any) -> tuple[bool, float]:
        points, campaign = payload
        stats = campaign.stats()
        self.inline_overheads.append(
            stats["campaign_wall_s"] - stats["task_wall_s_total"]
        )
        cells = [dataclasses.asdict(point) for point in points]
        complete = all(cell["flows_total"] == FLOWS_TOTAL for cell in cells)
        work = sum(cell["flows_total"] for cell in cells)
        return complete and cells == self.reference, work

    def after_measured(self) -> None:
        self.layer["parallel.inline_overhead_s"] = float(
            np.median(self.inline_overheads)
        )

    def stats_digest(self) -> str:
        return digest(self.reference)

    def verify(self) -> list[str]:
        """An ``ideal``-kernel cell must match the closed form: every
        flow of a constant population of n runs at C/n throughout.  The
        seeded cohort starts on a step boundary and is exact; a respawned
        flow starts mid-step and carries at most one dt."""
        n_seeded = N_PORTS * LEVELS[0]
        solver = ColumnarFluidSolver(
            n_bottlenecks=N_PORTS, capacity_bps=RATE_100G, seed=self.seed
        )
        distribution = websearch()
        solver.add_flows(
            distribution.sample_many(solver.rng, n_seeded),
            bottleneck=np.repeat(np.arange(N_PORTS, dtype=np.int32), LEVELS[0]),
            kernel=kernel_for_profile(ideal_profile()),
        )
        run = solver.run_closed_loop(distribution, flows_total=FLOWS_TOTAL)
        want = ideal_fct_series_us(run.sizes_bytes, LEVELS[0], RATE_100G)
        seeded = run.flow_ids < n_seeded
        dt_us = solver.config.dt_ps / MICROSECOND
        if np.allclose(run.fcts_us[seeded], want[seeded], rtol=1e-6, atol=0.0) and (
            np.allclose(run.fcts_us, want, rtol=1e-6, atol=dt_us)
        ):
            return []
        return ["ideal-kernel cell matches repro.fluid.ideal to 1e-6"]

    def traced(self, rec: SpanRecorder, op_wall_p50: float) -> tuple[float, list[str]]:
        distribution = websearch()
        cells = []
        steps = dict.fromkeys(LEVELS, 0)
        flow_steps = dict.fromkeys(LEVELS, 0)
        solve_s = dict.fromkeys(LEVELS, 0.0)
        with rec.span("op") as op_index:
            for profile_index, profile in enumerate(self.profiles):
                for level_index, flows_per_port in enumerate(LEVELS):
                    with rec.span("fluid.cell"):
                        seed = derive_task_seed(self.seed, profile_index, level_index)
                        solver = ColumnarFluidSolver(
                            n_bottlenecks=N_PORTS,
                            capacity_bps=RATE_100G,
                            seed=seed,
                            capacity_hint=N_PORTS * flows_per_port,
                        )
                        bottleneck = np.repeat(
                            np.arange(N_PORTS, dtype=np.int32), flows_per_port
                        )
                        with rec.span("fluid.sample"):
                            sizes = distribution.sample_many(solver.rng, bottleneck.size)
                        with rec.span("fluid.add_flows"):
                            solver.add_flows(
                                sizes,
                                bottleneck=bottleneck,
                                kernel=kernel_for_profile(profile),
                            )
                        with rec.span("fluid.solve") as solve_index:
                            run = solver.run_closed_loop(
                                distribution, flows_total=FLOWS_TOTAL
                            )
                        solve_s[flows_per_port] += rec.spans[solve_index].duration
                        steps[flows_per_port] += run.steps
                        flow_steps[flows_per_port] += run.flow_steps
                        with rec.span("fluid.summarise"):
                            cells.append(
                                summarise(profile.name, flows_per_port, run)
                            )
        failed = []
        if cells != self.reference:
            failed.append("replay digest equals measured digest")
        layer = self.layer
        for phase in ("sample", "add_flows", "solve", "summarise"):
            layer[f"fluid.{phase}_s"] = rec.total(f"fluid.{phase}")
        layer["fluid.steps"] = sum(steps.values())
        layer["fluid.flow_steps"] = sum(flow_steps.values())
        low, high = LEVELS
        layer[f"fluid.solve_s.fpp{low}"] = solve_s[low]
        layer[f"fluid.solve_s.fpp{high}"] = solve_s[high]
        layer[f"fluid.us_per_step.fpp{low}"] = solve_s[low] / steps[low] * 1e6
        layer[f"fluid.ns_per_flow_step.fpp{high}"] = (
            solve_s[high] / flow_steps[high] * 1e9
        )
        return rec.spans[op_index].duration, failed


def summarise(algorithm: str, flows_per_port: int, run: Any) -> dict[str, Any]:
    """One cell's FCT summary, as ``run_fluid_point`` reduces it."""
    result = FluidResult(
        algorithm=algorithm,
        fcts_us=run.fcts_us,
        sizes_bytes=run.sizes_bytes,
        n_flows_per_port=flows_per_port,
        n_ports=N_PORTS,
        capacity_bps=RATE_100G,
    )
    fcts = result.fcts_us
    return dataclasses.asdict(
        FluidCampaignPoint(
            algorithm=algorithm,
            workload="websearch",
            flows_per_port=flows_per_port,
            flows_total=result.total_flows,
            mean_fct_us=float(np.mean(fcts)),
            p50_fct_us=float(np.percentile(fcts, 50)),
            p99_fct_us=float(np.percentile(fcts, 99)),
            throughput_bps=result.throughput_bps(),
        )
    )
