"""One packet-level run as one value, wired in one place.

:func:`deploy_scenario` deploys a :class:`Scenario` and starts its
traffic but does not run it: ``repro run`` runs it plainly, ``repro
report`` profiled, a sweep point under heartbeats with the flight
recorder attached.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np

from repro.core.config import TestConfig
from repro.core.control_plane import PATTERNS, ControlPlane, pattern_pairs
from repro.errors import ConfigError
from repro.measure.throughput import ThroughputSampler
from repro.net.fabric import DEFAULT_ECN_THRESHOLD_BYTES
from repro.units import US
from repro.workload import DISTRIBUTIONS, ClosedLoopGenerator, FlowSlot
from repro.workload.distributions import EmpiricalCdf, SizeDistribution

#: ``fixed`` sizes, or a closed-loop traffic model (Section 7.5).
WORKLOADS = ("fixed", *DISTRIBUTIONS)


@dataclass(frozen=True)
class Scenario:
    """``config`` deployed, with ``pattern``'s ports sending ``workload``
    traffic: ``fixed`` flows of ``size_packets``, or a closed loop over a
    traffic model with sizes divided by ``size_scale``."""

    config: TestConfig
    duration_ps: int
    pattern: str = "pairs"
    workload: str = "fixed"
    size_packets: int = 5000
    size_scale: int = 1
    ecn_threshold_bytes: int = DEFAULT_ECN_THRESHOLD_BYTES

    def __post_init__(self) -> None:
        for kind, value, known in (
            ("pattern", self.pattern, PATTERNS), ("workload", self.workload, WORKLOADS)
        ):
            if value not in known:
                raise ConfigError(f"unknown {kind} {value!r}; choose from {list(known)}")
        for name in ("duration_ps", "size_packets", "size_scale", "ecn_threshold_bytes"):
            if getattr(self, name) < 1:
                raise ConfigError(f"{name} must be >= 1, got {getattr(self, name)}")

    def size_distribution(self) -> SizeDistribution:
        """The closed loop's flow-size model, divided by ``size_scale``."""
        base = DISTRIBUTIONS[self.workload]()
        if self.size_scale == 1:
            return base
        scale = self.size_scale
        try:
            return EmpiricalCdf(
                [(max(int(s) // scale, 1), p) for s, p in zip(base.sizes, base.probs)]
            )
        except ValueError as exc:
            raise ConfigError(f"size_scale {self.size_scale}: {exc}") from None


def deploy_scenario(
    scenario: Scenario,
) -> tuple[ControlPlane, ThroughputSampler, Optional[ClosedLoopGenerator]]:
    """Deploy ``scenario`` and start its traffic, without running it.

    Returns the control plane, the 500 us rate sampler and, for a
    traffic model, the closed-loop generator (None for ``fixed``).
    """
    cp = ControlPlane()
    tester = cp.deploy(scenario.config)
    cp.wire_loopback_fabric(ecn_threshold_bytes=scenario.ecn_threshold_bytes)
    sampler = tester.enable_rate_sampling(period_ps=500 * US)
    if scenario.workload == "fixed":
        cp.start_flows(size_packets=scenario.size_packets, pattern=scenario.pattern)
        return cp, sampler, None
    slots = [
        FlowSlot(src, dst)
        for src, dst in pattern_pairs(scenario.pattern, tester.n_test_ports)
        for _ in range(tester.config.flows_per_port)
    ]
    generator = ClosedLoopGenerator(
        tester,
        scenario.size_distribution(),
        slots,
        rng=np.random.default_rng(tester.config.seed),
    )
    generator.start()
    return cp, sampler, generator
