"""Multi-pipeline scaling (paper Sections 4.3 and 6).

Tofino registers are pipeline-local, so Marlin "allocates ports on a
per-pipeline basis": each pipeline is an independent amplification
domain fed by its own 100 Gbps FPGA port.  The paper's hardware — a
32 x 100 Gbps switch with 2 pipelines and an Alveo U280 with two 100 G
ports — therefore scales to 2 x 1.2 Tbps = 2.4 Tbps per switch+FPGA
pair at MTU 1024.

:class:`MultiPipelineTester` instantiates one :class:`MarlinTester` per
pipeline and aggregates the operator surface (flows, counters, FCTs);
:func:`scaling_table` computes the throughput scaling law.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from repro.core.amplification import max_generated_rate_bps
from repro.core.config import TestConfig
from repro.core.tester import MarlinTester
from repro.errors import ConfigError
from repro.fpga.flow import FlowState
from repro.measure.fct import FctCollector
from repro.net.fabric import wire_tester
from repro.net.switch import NetworkSwitch
from repro.sim.engine import Simulator
from repro.units import RATE_100G

#: Pipelines per switch ASIC (the paper's Tofino: 2) and 100 G ports per
#: FPGA card (Alveo U280: 2) — conveniently matched.
PIPELINES_PER_SWITCH = 2
FPGA_PORTS_PER_CARD = 2


@dataclass(frozen=True)
class ScalingRow:
    pipelines: int
    fpga_cards: int
    test_ports: int
    throughput_bps: int


def scaling_row(
    pipelines: int,
    mtu_bytes: int = 1024,
    *,
    port_rate_bps: int = RATE_100G,
) -> ScalingRow:
    """One pipeline count's aggregate throughput (a pure top-level task
    so scaling campaigns shard through :class:`~repro.parallel.CampaignRunner`)."""
    per_pipeline = max_generated_rate_bps(mtu_bytes, port_rate_bps=port_rate_bps)
    return ScalingRow(
        pipelines=pipelines,
        fpga_cards=-(-pipelines // FPGA_PORTS_PER_CARD),
        test_ports=pipelines * (per_pipeline // port_rate_bps),
        throughput_bps=pipelines * per_pipeline,
    )


def scaling_table(
    mtu_bytes: int = 1024,
    max_pipelines: int = 4,
    *,
    port_rate_bps: int = RATE_100G,
    workers: int = 1,
) -> list[ScalingRow]:
    """Aggregate throughput vs pipeline count (each pipeline needs one
    FPGA port; one card drives two pipelines).  Rows are independent, so
    large tables (``workers > 1``) shard across a process pool like any
    other campaign."""
    if workers > 1:
        from repro.parallel import CampaignRunner

        with CampaignRunner(workers=workers) as runner:
            campaign = runner.run(
                scaling_row,
                [
                    {
                        "pipelines": pipelines,
                        "mtu_bytes": mtu_bytes,
                        "port_rate_bps": port_rate_bps,
                    }
                    for pipelines in range(1, max_pipelines + 1)
                ],
            )
        return campaign.values()
    return [
        scaling_row(pipelines, mtu_bytes, port_rate_bps=port_rate_bps)
        for pipelines in range(1, max_pipelines + 1)
    ]


class MultiPipelineTester:
    """k independent pipelines presented as one tester."""

    def __init__(
        self,
        sim: Simulator,
        config: Optional[TestConfig] = None,
        *,
        n_pipelines: int = PIPELINES_PER_SWITCH,
        name: str = "marlin-multi",
    ) -> None:
        if n_pipelines < 1:
            raise ConfigError(f"need at least one pipeline, got {n_pipelines}")
        self.sim = sim
        self.config = config if config is not None else TestConfig()
        self.pipelines: list[MarlinTester] = [
            MarlinTester(sim, self.config, name=f"{name}-p{i}")
            for i in range(n_pipelines)
        ]
        self.fct = FctCollector()
        for tester in self.pipelines:
            tester.nic.on_complete(self._record)

    def _record(self, flow: FlowState) -> None:
        self.fct.add(
            flow.flow_id,
            flow.size_packets,
            flow.size_packets * flow.frame_bytes,
            flow.start_ps,
            flow.finish_ps,
        )

    @property
    def n_pipelines(self) -> int:
        return len(self.pipelines)

    @property
    def total_test_ports(self) -> int:
        return sum(tester.n_test_ports for tester in self.pipelines)

    @property
    def aggregate_capacity_bps(self) -> int:
        return sum(
            tester.switch.allocation.data_throughput_bps
            for tester in self.pipelines
        )

    def pipeline(self, index: int) -> MarlinTester:
        try:
            return self.pipelines[index]
        except IndexError:
            raise ConfigError(
                f"no pipeline {index}; tester has {self.n_pipelines}"
            ) from None

    def start_flow(
        self,
        *,
        pipeline: int,
        port_index: int,
        dst_port_index: Optional[int] = None,
        dst_addr: Optional[int] = None,
        size_packets: int,
        start_at_ps: Optional[int] = None,
    ) -> FlowState:
        """Start a flow on one pipeline's port (flows never span
        pipelines — registers are pipeline-local)."""
        return self.pipeline(pipeline).start_flow(
            port_index=port_index,
            dst_port_index=dst_port_index,
            dst_addr=dst_addr,
            size_packets=size_packets,
            start_at_ps=start_at_ps,
        )

    def wire_fabrics(self, **options: int) -> list[NetworkSwitch]:
        """Give every pipeline its own loopback fabric (pipelines are
        independent amplification domains; ``options``: those of
        :meth:`~repro.core.control_plane.ControlPlane.wire_loopback_fabric`)."""
        return [
            wire_tester(self.sim, tester, n_leaves=1, n_spines=0, **options).leaves[0]
            for tester in self.pipelines
        ]

    def read_counters(self) -> dict[str, int]:
        """Summed hardware counters across pipelines."""
        totals: dict[str, int] = {}
        for tester in self.pipelines:
            for key, value in tester.read_counters().items():
                totals[key] = totals.get(key, 0) + value
        return totals
