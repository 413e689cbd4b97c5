"""The CC algorithm module runtime (paper Sections 5.1 and 5.4).

Wraps a user :class:`~repro.cc.base.CCAlgorithm` with the hardware
contract of Table 3:

* the customized variable block must fit 64 bytes (checked once per
  algorithm from the dataclass layout: each field is a 32-bit word);
* the fast path may not write slow-path variables (checked, when contract
  checking is on, by snapshotting the slow block around the call) —
  simple dual-port BRAM ownership;
* every invocation charges the algorithm's HLS cycle cost against the
  flow's BRAM RMW window (``FlowState.rmw_end_ps``): an invocation that
  starts before the same flow's previous one completes would lose that
  write (Section 5.3's read-write conflict), so it is counted, or raised
  in strict mode.  Distinct flows never conflict (the BRAM is pipelined).
"""

from __future__ import annotations

import copy
import dataclasses
from typing import Any

from repro.cc.base import (
    CCAlgorithm,
    CUST_VAR_BYTES,
    IntrinsicInput,
    IntrinsicOutput,
)
from repro.errors import CCModuleError, RMWConflictError
from repro.fpga.clock import cycles_to_ps
from repro.fpga.flow import FlowState
from repro.fpga.hls import algorithm_cycles

#: Each dataclass field of the customized block occupies one 32-bit word
#: (the HLS struct packs fields into BRAM words).
FIELD_BYTES = 4


def cust_block_bytes(cust: Any) -> int:
    """Estimated hardware size of a customized variable block."""
    if cust is None:
        return 0
    if dataclasses.is_dataclass(cust):
        return len(dataclasses.fields(cust)) * FIELD_BYTES
    raise CCModuleError(
        f"customized state must be a dataclass, got {type(cust).__name__}"
    )


class CCModuleRuntime:
    """Executes a CC algorithm's fast path under the hardware contract."""

    def __init__(
        self,
        algorithm: CCAlgorithm,
        *,
        check_contracts: bool = False,
        strict_bram: bool = False,
    ) -> None:
        algorithm.validate()
        self.algorithm = algorithm
        self.check_contracts = check_contracts
        self.strict_bram = strict_bram
        self.cycles = algorithm_cycles(algorithm)
        self.rmw_duration_ps = cycles_to_ps(self.cycles)
        self.invocations = 0
        self.conflicts = 0
        self._validate_cust_layout()

    def _validate_cust_layout(self) -> None:
        sample = self.algorithm.initial_cust()
        size = cust_block_bytes(sample)
        if size > CUST_VAR_BYTES:
            raise CCModuleError(
                f"{self.algorithm.name}: customized block is {size} B, "
                f"exceeding the {CUST_VAR_BYTES} B budget (Table 3)"
            )

    def invoke(self, flow: FlowState, intr: IntrinsicInput) -> IntrinsicOutput:
        """Run one fast-path invocation, charging the flow's RMW window."""
        now = intr.tstamp
        if now < flow.rmw_end_ps:
            self.conflicts += 1
            if self.strict_bram:
                raise RMWConflictError(
                    f"read-write conflict on flow {flow.flow_id}: RMW at {now} ps "
                    f"overlaps one completing at {flow.rmw_end_ps} ps"
                )
        flow.rmw_end_ps = now + self.rmw_duration_ps
        self.invocations += 1
        slow = flow.slow
        if not self.check_contracts or slow is None:
            return self.algorithm.on_event(intr, flow.cust, slow)
        before = copy.deepcopy(slow)
        out = self.algorithm.on_event(intr, flow.cust, slow)
        if slow != before:
            raise CCModuleError(
                f"{self.algorithm.name}: fast path wrote slow-path variables "
                "(simple dual-port BRAM ownership violation)"
            )
        return out
