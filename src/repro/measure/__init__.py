"""Measurement: throughput timeseries, FCT statistics, fairness.

The paper's control plane reads hardware registers for port/flow rates
and packet loss (Section 3.2); these helpers are the analysis layer on
top of those counters and the FPGA's FCT reports.
"""

from repro.measure.throughput import RateMeter, ThroughputSampler
from repro.measure.fct import FctCollector, FctStats, cdf_points
from repro.measure.fairness import jain_index
from repro.measure.export import (
    fct_to_csv,
    throughput_to_csv,
    trace_to_json,
)
from repro.measure.convergence import convergence_time_ps, fairness_series

__all__ = [
    "RateMeter",
    "ThroughputSampler",
    "FctCollector",
    "FctStats",
    "cdf_points",
    "jain_index",
    "fct_to_csv",
    "throughput_to_csv",
    "trace_to_json",
    "convergence_time_ps",
    "fairness_series",
]
