"""Congestion-control algorithm modules (paper Table 3 / Table 4).

Algorithms implement the HLS-style entry-function contract in
:mod:`repro.cc.base`; the built-ins are the three the paper implements
(Reno, DCTCP, DCQCN) plus Cubic and TIMELY from the Discussion section.
"""

from repro.cc.base import (
    CCAlgorithm,
    CCMode,
    CUST_VAR_BYTES,
    EventType,
    Flags,
    IntrinsicInput,
    IntrinsicOutput,
    OpCounts,
    Param,
    TIMER_ALG_A,
    TIMER_ALG_B,
    TIMER_RTO,
)
from repro.cc.reno import Reno, RenoState
from repro.cc.dctcp import Dctcp, DctcpState, DctcpSlowState, AlphaUpdateEvent
from repro.cc.dcqcn import Dcqcn, DcqcnState
from repro.cc.cubic import Cubic, CubicState, lut_cbrt
from repro.cc.timely import Timely, TimelyState
from repro.cc.hpcc import Hpcc, HpccState
from repro.cc.swift import Swift, SwiftState
from repro.cc.kernels import (
    KERNEL_DCQCN,
    KERNEL_DCTCP,
    KERNEL_IDEAL,
    KERNEL_SLOW_START,
    fluid_kernel,
    kernel_name,
)
from repro.cc.registry import available, create, register

__all__ = [
    "CCAlgorithm",
    "CCMode",
    "CUST_VAR_BYTES",
    "EventType",
    "Flags",
    "IntrinsicInput",
    "IntrinsicOutput",
    "OpCounts",
    "Param",
    "TIMER_ALG_A",
    "TIMER_ALG_B",
    "TIMER_RTO",
    "Reno",
    "RenoState",
    "Dctcp",
    "DctcpState",
    "DctcpSlowState",
    "AlphaUpdateEvent",
    "Dcqcn",
    "DcqcnState",
    "Cubic",
    "CubicState",
    "lut_cbrt",
    "Timely",
    "TimelyState",
    "Hpcc",
    "HpccState",
    "Swift",
    "SwiftState",
    "available",
    "create",
    "register",
    "KERNEL_IDEAL",
    "KERNEL_SLOW_START",
    "KERNEL_DCTCP",
    "KERNEL_DCQCN",
    "fluid_kernel",
    "kernel_name",
]
