"""The control-plane program (paper Section 3.2).

Operators configure a test (CC algorithm, parameters, ports, flows per
port), the control plane generates device configurations and deploys them
— here, by constructing the :class:`~repro.core.tester.MarlinTester` —
then starts traffic and retrieves measurements (port/flow rates, packet
loss, CC parameter traces).

It also provides the standard experiment wiring: the tester's test ports
through an intermediate switch, sending in the :data:`PATTERNS` shapes.
"""

from __future__ import annotations

from typing import Callable, Optional

from repro.core.config import TestConfig
from repro.core.tester import MarlinTester
from repro.errors import ConfigError
from repro.net.switch import NetworkSwitch
from repro.net.topology import DEFAULT_LINK_DELAY_PS, Topology
from repro.sim.engine import Simulator


def wire_tester_fabric(
    sim: Simulator,
    tester: MarlinTester,
    *,
    name: str = "fabric",
    delay_ps: int = DEFAULT_LINK_DELAY_PS,
    ecn_threshold_bytes: int = 84_000,
    queue_capacity_bytes: int = 2**22,
) -> tuple[Topology, NetworkSwitch]:
    """Wire one tester's test ports through an intermediate switch and
    give each port an address routed straight back to it (the paper's
    testbed shape).  Used by the control plane and by multi-pipeline
    setups that need one fabric per pipeline."""
    topo = Topology(sim)
    fabric = NetworkSwitch(sim, name)
    topo.add_device(fabric)
    for index, port in enumerate(tester.test_ports):
        fabric_port = fabric.add_ecn_port(
            rate_bps=port.rate_bps,
            capacity_bytes=queue_capacity_bytes,
            ecn_threshold_bytes=ecn_threshold_bytes,
        )
        topo.connect(port, fabric_port, delay_ps=delay_ps)
        address = topo.allocate_address()
        fabric.set_route(address, fabric_port)
        tester.assign_port_address(index, address)
    return topo, fabric


#: Traffic patterns over ``n`` test ports: name -> (src, dst) port pairs.
#:
#: * ``pairs``  -- port i sends to port i + n/2 (Figures 6/7 shape; n even);
#: * ``fan_in`` -- every port except the last sends to the last port
#:   (Figure 8's congestion shape);
#: * ``ring``   -- port i sends to port i + 1 mod n, so every port sends
#:   and every port receives (the paper's all-ports headline).
PATTERNS: dict[str, Callable[[int], list[tuple[int, int]]]] = {
    "pairs": lambda n: [(i, i + n // 2) for i in range(n // 2)],
    "fan_in": lambda n: [(i, n - 1) for i in range(n - 1)],
    "ring": lambda n: [(i, (i + 1) % n) for i in range(n)],
}


def pattern_pairs(pattern: str, n_ports: int) -> list[tuple[int, int]]:
    """The ``(src, dst)`` test-port pairs of a named pattern."""
    if pattern not in PATTERNS:
        raise ConfigError(f"unknown pattern {pattern!r}; choose from {sorted(PATTERNS)}")
    if pattern == "pairs" and n_ports % 2 != 0:
        raise ConfigError(f"pairs pattern needs an even port count, got {n_ports}")
    return PATTERNS[pattern](n_ports)


class ControlPlane:
    """Deploys configurations and orchestrates test runs.

    ``sim_backend`` is only a check on the simulator the control plane
    constructs (see :mod:`repro.sim.backend`): naming the engine that
    is not loaded raises.  It cannot be combined with an explicit
    ``sim``.
    """

    def __init__(
        self,
        sim: Optional[Simulator] = None,
        *,
        sim_backend: Optional[str] = None,
    ) -> None:
        if sim is not None and sim_backend is not None:
            raise ConfigError(
                "pass either an existing sim or sim_backend, not both"
            )
        self.sim = sim if sim is not None else Simulator(backend=sim_backend)
        self.tester: Optional[MarlinTester] = None
        self.topology: Optional[Topology] = None
        self.fabric: Optional[NetworkSwitch] = None

    # -- deployment ---------------------------------------------------------------

    def deploy(self, config: TestConfig) -> MarlinTester:
        """Generate and push switch + FPGA configurations (Figure 1)."""
        if self.tester is not None:
            raise ConfigError("a tester is already deployed on this control plane")
        self.tester = MarlinTester(self.sim, config)
        return self.tester

    def require_tester(self) -> MarlinTester:
        if self.tester is None:
            raise ConfigError("deploy() a TestConfig first")
        return self.tester

    # -- standard testbed wiring -----------------------------------------------------

    def wire_loopback_fabric(self, **options: int) -> NetworkSwitch:
        """Connect every test port to an intermediate switch and give each
        port an address routed straight back to it (``options``: those of
        :func:`wire_tester_fabric`).

        This is the paper's testbed shape ("sender and receiver are
        connected with a programmable switch via twelve 100 Gbps links
        each"): any test port can then send to any other test port's
        address, and the experiment picks a :data:`PATTERNS` row purely
        by its choice of destination addresses.
        """
        self.topology, self.fabric = wire_tester_fabric(
            self.sim, self.require_tester(), **options
        )
        return self.fabric

    # -- test execution ------------------------------------------------------------------

    def start_flows(
        self,
        *,
        flows_per_port: Optional[int] = None,
        size_packets: int,
        pattern: str = "pairs",
    ) -> list[int]:
        """Start the configured number of flows on each sending port of
        ``pattern`` (see :data:`PATTERNS`).  Returns the started flow ids."""
        tester = self.require_tester()
        if flows_per_port is None:
            flows_per_port = tester.config.flows_per_port
        flow_ids: list[int] = []
        for src, dst in pattern_pairs(pattern, tester.n_test_ports):
            for _ in range(flows_per_port):
                flow = tester.start_flow(
                    port_index=src, dst_port_index=dst, size_packets=size_packets
                )
                flow_ids.append(flow.flow_id)
        return flow_ids

    def run(self, duration_ps: int) -> None:
        """Advance the simulation by ``duration_ps``."""
        self.sim.run(until_ps=self.sim.now + duration_ps)

    def read_measurements(self) -> dict[str, int]:
        """Read the merged hardware counters (Section 3.2)."""
        return self.require_tester().read_counters()
