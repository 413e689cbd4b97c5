"""Programmable-switch model (paper Section 4).

Reproduces the Tofino-resident half of Marlin: Marlin packet types
(Section 3.1), per-egress-port register queues and TEMP-multicast DATA
generation (Module C), receiver logic / ACK truncation (Module A), the
INFO generator (Module B), pipeline resource accounting, and the
Section 4.3 port-allocation arithmetic.
"""

from repro.pswitch.packets import (
    make_ack,
    make_cnp,
    make_data,
    make_info,
    make_sche,
    make_temp,
    PTYPE_ACK,
    PTYPE_DATA,
    PTYPE_INFO,
    PTYPE_SCHE,
    PTYPE_TEMP,
)
from repro.pswitch.registers import RegisterArray, RegisterQueue
from repro.pswitch.pipeline import PipelineModel, PipelineUsage
from repro.pswitch.port_allocation import PortAllocation, allocate_ports
from repro.pswitch.switch import MarlinSwitch, ReceiverMode

__all__ = [
    "make_ack",
    "make_cnp",
    "make_data",
    "make_info",
    "make_sche",
    "make_temp",
    "PTYPE_ACK",
    "PTYPE_DATA",
    "PTYPE_INFO",
    "PTYPE_SCHE",
    "PTYPE_TEMP",
    "RegisterArray",
    "RegisterQueue",
    "PipelineModel",
    "PipelineUsage",
    "PortAllocation",
    "allocate_ports",
    "MarlinSwitch",
    "ReceiverMode",
]
