"""FPGA NIC model (paper Section 5).

Reproduces the Alveo-resident half of Marlin: the parser and RX FIFOs
(each a :class:`repro.net.queue.Fifo`),
the CC algorithm module with the Table 3 contract and read-modify-write
conflict detection, per-port schedulers with rescheduling events
(Section 5.2), RX/TX packet-frequency control (Section 5.3), the Slow
Path (Section 5.4), the timeout event generator, the QDMA fine-grained
logger, and the Table 4 resource/cycle cost models.  A flow's BRAM entry
is one :class:`FlowState` record.
"""

from repro.fpga.clock import cycles_to_ps, ps_to_cycles
from repro.fpga.hls import estimate_cycles
from repro.fpga.timers import FrequencyControl
from repro.fpga.logger import QdmaLogger
from repro.fpga.resources import ResourceReport, estimate_resources
from repro.fpga.nic import FlowState, FpgaNic

__all__ = [
    "cycles_to_ps",
    "ps_to_cycles",
    "estimate_cycles",
    "FrequencyControl",
    "QdmaLogger",
    "ResourceReport",
    "estimate_resources",
    "FlowState",
    "FpgaNic",
]
