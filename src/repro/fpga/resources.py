"""FPGA resource estimation (paper Table 4 and the Scalability discussion).

The Alveo U280 exposes 72 Mb of BRAM (plus 276 Mb of URAM for scaling
further, Section 8).  Marlin stores per-flow CC state in BRAM:

* the 64 B customized variable block every algorithm gets (Table 3);
* window-mode algorithms additionally need retransmission/window tracking
  (modelled as 16 B);
* algorithms with a Slow Path keep slow-path variables in their own BRAM
  (modelled as 8 B).

With 65,536 flows this reproduces Table 4's BRAM column: DCQCN (rate
mode, no slow path) = 64 B/flow -> ~47%; Reno = 80 B -> ~58%; DCTCP =
88 B -> ~64%.  LUT/FF percentages are a linear fit over the declared op
counts — good for the ordering and rough magnitude, not gate-exact.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.cc.base import CCAlgorithm, CCMode
from repro.errors import ResourceExceededError
from repro.fpga.hls import algorithm_cycles

#: Alveo U280 on-chip memory (Section 8).
BRAM_TOTAL_BITS = 72 * 1000 * 1000
URAM_TOTAL_BITS = 276 * 1000 * 1000

#: Per-flow state bytes.
CUST_STATE_BYTES = 64
WINDOW_EXTRA_BYTES = 16
SLOW_PATH_EXTRA_BYTES = 8

#: Maximum concurrency the paper's BRAM budget supports.
MAX_FLOWS = 65_536

#: Table 4, for side-by-side reporting (LoC, cycles, CC-module LUT/FF %,
#: total LUT/FF %, total BRAM %).
PAPER_TABLE4 = {
    "reno": {"loc": 156, "cycles": 2, "cc_lut": 1.1, "cc_ff": 0.7,
             "total_lut": 10, "total_ff": 11, "bram": 59},
    "dctcp": {"loc": 175, "cycles": 24, "cc_lut": 3.5, "cc_ff": 2.1,
              "total_lut": 13, "total_ff": 12, "bram": 63},
    "dcqcn": {"loc": 98, "cycles": 6, "cc_lut": 1.4, "cc_ff": 0.9,
              "total_lut": 12, "total_ff": 10, "bram": 46},
}

#: OpenNIC shell + Marlin framework baseline utilization (percent).
SHELL_LUT_PCT = 9.0
SHELL_FF_PCT = 10.0


@dataclass(frozen=True)
class ResourceReport:
    """Estimated utilization for one CC algorithm build."""

    algorithm: str
    n_flows: int
    cycles: int
    state_bytes_per_flow: int
    cc_lut_pct: float
    cc_ff_pct: float
    total_lut_pct: float
    total_ff_pct: float
    bram_pct: float


def flow_state_bytes(algorithm: CCAlgorithm) -> int:
    """Per-flow BRAM footprint of an algorithm."""
    size = CUST_STATE_BYTES
    if algorithm.mode is CCMode.WINDOW:
        size += WINDOW_EXTRA_BYTES
    if algorithm.initial_slow() is not None:
        size += SLOW_PATH_EXTRA_BYTES
    return size


def bram_bits(algorithm: CCAlgorithm, n_flows: int) -> int:
    return n_flows * flow_state_bytes(algorithm) * 8


def max_flows(algorithm: CCAlgorithm, *, use_uram: bool = False) -> int:
    """Flow count the on-chip memory supports for this algorithm."""
    budget = BRAM_TOTAL_BITS + (URAM_TOTAL_BITS if use_uram else 0)
    return budget // (flow_state_bytes(algorithm) * 8)


def estimate_resources(
    algorithm: CCAlgorithm, n_flows: int = MAX_FLOWS, *, strict: bool = False
) -> ResourceReport:
    """Estimate the Table 4 row for ``algorithm`` at ``n_flows`` flows."""
    per_flow = flow_state_bytes(algorithm)
    bram_pct = bram_bits(algorithm, n_flows) / BRAM_TOTAL_BITS * 100.0
    if bram_pct > 100.0:
        if strict:
            raise ResourceExceededError(
                f"{algorithm.name} at {n_flows} flows needs {bram_pct:.0f}% of "
                "BRAM; enable URAM or reduce flows"
            )
    ops = algorithm.ops
    simple = ops.add_sub + ops.compare + ops.shift
    cc_lut = (
        0.6
        + 0.06 * simple
        + 0.3 * ops.mul32
        + 1.6 * ops.div16
        + 2.4 * ops.div32
        + 2.5 * ops.cube_root_lut
    )
    cc_ff = 0.62 * cc_lut
    return ResourceReport(
        algorithm=algorithm.name,
        n_flows=n_flows,
        cycles=algorithm_cycles(algorithm),
        state_bytes_per_flow=per_flow,
        cc_lut_pct=cc_lut,
        cc_ff_pct=cc_ff,
        total_lut_pct=SHELL_LUT_PCT + cc_lut,
        total_ff_pct=SHELL_FF_PCT + cc_ff,
        bram_pct=bram_pct,
    )
