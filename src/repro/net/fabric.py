"""The tested network: leaf switches, optional spines, attached endpoints.

Every network a test drives traffic through is built here.  An endpoint
-- a Marlin test port, a CC-less tester's port or a host -- is attached
to a leaf: the leaf gets an ECN-marking port at the endpoint port's
rate, linked at :data:`~repro.net.topology.DEFAULT_LINK_DELAY_PS`, and
the endpoint gets a fresh address that every switch routes:

* the owning leaf delivers it on the endpoint's port;
* every other leaf sends it over an ECMP group of its spine uplinks
  (per-flow hashing, so a flow never reorders across paths);
* every spine sends it down to the owning leaf.

The paper's testbed ("sender and receiver are connected with a
programmable switch") is the one-leaf, no-spine fabric; more leaves and
spines give the cross-leaf incast and spine load-balancing scenarios of
the paper's "large-scale networks".
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING

from repro.errors import ConfigError
from repro.net.device import Port
from repro.net.switch import NetworkSwitch
from repro.net.topology import Topology
from repro.sim.engine import Simulator
from repro.units import RATE_100G

if TYPE_CHECKING:  # pragma: no cover - typing only (avoids a net<->core cycle)
    from repro.core.tester import MarlinTester

#: 84 kB is K = 65 packets of 1,250 B, in the range DCTCP recommends for
#: 100 Gbps links.
DEFAULT_ECN_THRESHOLD_BYTES = 84_000
DEFAULT_QUEUE_CAPACITY_BYTES = 2**22


@dataclass
class Fabric:
    """A wired leaf(-spine) network plus its address book."""

    topology: Topology
    leaves: list[NetworkSwitch]
    spines: list[NetworkSwitch]
    ecn_threshold_bytes: int
    queue_capacity_bytes: int
    #: ``uplinks[i][j]``: leaf i's port to spine j.
    uplinks: list[list[Port]]
    #: ``downlinks[j][i]``: spine j's port to leaf i.
    downlinks: list[list[Port]]
    #: address -> (leaf index, leaf endpoint-port)
    endpoints: dict[int, tuple[int, Port]] = field(default_factory=dict)

    @property
    def n_leaves(self) -> int:
        return len(self.leaves)

    @property
    def n_spines(self) -> int:
        return len(self.spines)

    def _add_port(self, switch: NetworkSwitch, rate_bps: int) -> Port:
        """A port on ``switch`` with this fabric's ECN queue."""
        return switch.add_ecn_port(
            rate_bps=rate_bps,
            capacity_bytes=self.queue_capacity_bytes,
            ecn_threshold_bytes=self.ecn_threshold_bytes,
        )

    def attach(self, leaf: int, port: Port) -> int:
        """Connect an endpoint port to a leaf and route a freshly
        allocated address to it.  Returns the address."""
        if not 0 <= leaf < self.n_leaves:
            raise ConfigError(f"no leaf {leaf}; fabric has {self.n_leaves}")
        switch = self.leaves[leaf]
        leaf_port = self._add_port(switch, port.rate_bps)
        self.topology.connect(port, leaf_port)
        address = self.topology.allocate_address()
        self.endpoints[address] = (leaf, leaf_port)
        switch.set_route(address, leaf_port)
        for other, uplinks in enumerate(self.uplinks):
            if other != leaf:
                self.leaves[other].set_ecmp_route(address, uplinks)
        for spine, downlinks in zip(self.spines, self.downlinks):
            spine.set_route(address, downlinks[leaf])
        return address

    def leaf_of(self, address: int) -> int:
        try:
            return self.endpoints[address][0]
        except KeyError:
            raise ConfigError(f"unknown endpoint address {address}") from None

    def spine_load(self) -> list[int]:
        """Packets forwarded per spine (load-balance observability)."""
        return [spine.forwarded_packets for spine in self.spines]


def build_fabric(
    sim: Simulator,
    n_leaves: int = 1,
    n_spines: int = 0,
    *,
    ecn_threshold_bytes: int = DEFAULT_ECN_THRESHOLD_BYTES,
    queue_capacity_bytes: int = DEFAULT_QUEUE_CAPACITY_BYTES,
) -> Fabric:
    """Create the switches and the full 100 G leaf<->spine mesh, with no
    endpoints yet (add them with :meth:`Fabric.attach` or
    :func:`wire_tester`).  Spines may be 0 only with one leaf."""
    if n_leaves < 1 or n_spines < 0:
        raise ConfigError(
            f"need at least one leaf and no negative spine count, "
            f"got {n_leaves} leaves and {n_spines} spines"
        )
    if n_spines == 0 and n_leaves > 1:
        raise ConfigError(f"{n_leaves} leaves need at least one spine")
    topology = Topology(sim)
    leaves = [NetworkSwitch(sim, f"leaf{i}") for i in range(n_leaves)]
    spines = [NetworkSwitch(sim, f"spine{j}") for j in range(n_spines)]
    for switch in leaves + spines:
        topology.add_device(switch)
    fabric = Fabric(
        topology=topology,
        leaves=leaves,
        spines=spines,
        ecn_threshold_bytes=ecn_threshold_bytes,
        queue_capacity_bytes=queue_capacity_bytes,
        uplinks=[[] for _ in leaves],
        downlinks=[[] for _ in spines],
    )
    for i, leaf in enumerate(leaves):
        for j, spine in enumerate(spines):
            leaf_port = fabric._add_port(leaf, RATE_100G)
            spine_port = fabric._add_port(spine, RATE_100G)
            topology.connect(leaf_port, spine_port)
            fabric.uplinks[i].append(leaf_port)
            fabric.downlinks[j].append(spine_port)
    return fabric


def wire_tester(
    sim: Simulator,
    tester: "MarlinTester",
    n_leaves: int = 1,
    n_spines: int = 0,
    **queue_options: int,
) -> Fabric:
    """Build a fabric (``queue_options``: the queue values of
    :func:`build_fabric`) and attach test port i to leaf
    ``i % n_leaves``, so flows between ports on different leaves cross
    the spine mesh and flows on one leaf stay local."""
    fabric = build_fabric(sim, n_leaves, n_spines, **queue_options)
    for index, port in enumerate(tester.test_ports):
        tester.assign_port_address(index, fabric.attach(index % n_leaves, port))
    return fabric
