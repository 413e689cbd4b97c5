"""Pipeline resource accounting for the Tofino-class switch ASIC.

Section 2.1 and Section 6 pin down the constraints we model:

* 12 match-action stages per pipeline; Marlin's data plane uses 4;
* per-pipeline register (SRAM) budget — the implementation reports
  58/960 SRAM blocks and 3/288 TCAM blocks;
* at most 16 x 100 Gbps ports per pipeline;
* registers are pipeline-local (not shared across pipelines), which is
  why Marlin allocates ports per pipeline (Section 4.3);
* no conditional loops, multiplication, or division in the data plane —
  enforced here as a declarative capability list used by the Table 1/2
  capability analysis.

The model is declarative: components register their usage and the
pipeline validates the totals, raising on over-budget configurations.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.errors import ResourceExceededError

#: Tofino-class per-pipeline budgets.
MAX_STAGES = 12
MAX_SRAM_BLOCKS = 960
MAX_TCAM_BLOCKS = 288
MAX_PORTS_PER_PIPELINE = 16
#: One SRAM block holds 128 x 128-bit words (16 KB) on Tofino.
SRAM_BLOCK_BYTES = 16 * 1024

#: Data-plane instruction capabilities (Section 2.1).  Used by the
#: capability matrix: these are the reasons CC cannot run on the switch.
SUPPORTED_DATAPLANE_OPS = frozenset(
    {"add", "sub", "shift", "compare", "table_lookup", "register_single_op"}
)
UNSUPPORTED_DATAPLANE_OPS = frozenset(
    {"mul", "div", "loop", "register_rmw", "conditional_branch_chain"}
)


@dataclass
class PipelineUsage:
    """Resources consumed by one logical component of the P4 program."""

    name: str
    stages: int = 0
    sram_blocks: int = 0
    tcam_blocks: int = 0


@dataclass
class PipelineModel:
    """One switch pipeline with budget validation."""

    components: list[PipelineUsage] = field(default_factory=list)

    def add(self, usage: PipelineUsage) -> None:
        self.components.append(usage)
        self.validate()

    @property
    def stages_used(self) -> int:
        # Components share stages when they fit side by side; the paper's
        # program spans 4 stages total, so we take the max stage depth.
        return max((c.stages for c in self.components), default=0)

    @property
    def sram_blocks_used(self) -> int:
        return sum(c.sram_blocks for c in self.components)

    @property
    def tcam_blocks_used(self) -> int:
        return sum(c.tcam_blocks for c in self.components)

    def validate(self) -> None:
        if self.stages_used > MAX_STAGES:
            raise ResourceExceededError(
                f"pipeline needs {self.stages_used} stages, budget {MAX_STAGES}"
            )
        if self.sram_blocks_used > MAX_SRAM_BLOCKS:
            raise ResourceExceededError(
                f"pipeline needs {self.sram_blocks_used} SRAM blocks, "
                f"budget {MAX_SRAM_BLOCKS}"
            )
        if self.tcam_blocks_used > MAX_TCAM_BLOCKS:
            raise ResourceExceededError(
                f"pipeline needs {self.tcam_blocks_used} TCAM blocks, "
                f"budget {MAX_TCAM_BLOCKS}"
            )


def marlin_dataplane_usage(
    n_test_ports: int,
    queue_capacity: int,
    n_flows: int,
    *,
    metadata_entry_bytes: int = 16,
    flow_state_bytes: int = 16,
) -> PipelineModel:
    """Estimate the Marlin P4 program's pipeline usage.

    Register queues: one per test port, ``queue_capacity`` entries of
    ``metadata_entry_bytes``.  Receiver logic: per-flow expected-PSN and
    counter registers.  The result approximates the paper's reported
    58/960 SRAM and 4/12 stages for the 12-port, 65,536-flow build.
    """
    pipeline = PipelineModel()
    queue_bytes = n_test_ports * queue_capacity * metadata_entry_bytes
    queue_blocks = -(-queue_bytes // SRAM_BLOCK_BYTES) + n_test_ports  # +head/tail/len
    pipeline.add(
        PipelineUsage("module_c_queues", stages=2, sram_blocks=queue_blocks)
    )
    recv_bytes = n_flows * flow_state_bytes
    recv_blocks = -(-recv_bytes // SRAM_BLOCK_BYTES)
    pipeline.add(
        PipelineUsage("module_a_receiver", stages=3, sram_blocks=recv_blocks)
    )
    pipeline.add(PipelineUsage("info_generator", stages=2, sram_blocks=2, tcam_blocks=1))
    pipeline.add(PipelineUsage("forwarding", stages=4, sram_blocks=4, tcam_blocks=2))
    return pipeline
