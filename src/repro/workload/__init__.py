"""Workloads: flow-size distributions and closed-loop flow generation."""

from repro.workload.distributions import (
    DISTRIBUTIONS,
    EmpiricalCdf,
    FixedSize,
    HADOOP_CDF_POINTS,
    SizeDistribution,
    WEBSEARCH_CDF_POINTS,
    hadoop,
    websearch,
)
from repro.workload.flowgen import ClosedLoopGenerator, FlowSlot

__all__ = [
    "DISTRIBUTIONS",
    "EmpiricalCdf",
    "FixedSize",
    "HADOOP_CDF_POINTS",
    "SizeDistribution",
    "WEBSEARCH_CDF_POINTS",
    "hadoop",
    "websearch",
    "ClosedLoopGenerator",
    "FlowSlot",
]
