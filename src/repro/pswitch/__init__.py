"""Programmable-switch model (paper Section 4).

Reproduces the Tofino-resident half of Marlin: Marlin packet types
(Section 3.1), per-egress-port register queues (each a
:class:`repro.net.queue.Fifo`) and TEMP-multicast DATA generation
(Module C), receiver logic / ACK truncation (Module A), the ACK -> INFO
rewrite of Module B (:func:`make_info`), pipeline resource accounting,
and the Section 4.3 port-allocation arithmetic.
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
    "PipelineModel",
    "PipelineUsage",
    "PortAllocation",
    "allocate_ports",
    "MarlinSwitch",
    "ReceiverMode",
]
