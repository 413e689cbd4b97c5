"""Topology container and the Figure 9 n-cast-1 builder.

:class:`Topology` holds the simulator, named devices and links of one
testbed; the control plane and the leaf-spine builder wire into it.
:func:`n_cast_1` builds the Figure 9 dumbbell: n sender hosts behind
switch A, one inter-switch link to switch B, a receiver behind B.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from repro.errors import ConfigError
from repro.net.device import Device, Port
from repro.net.host import Host
from repro.net.link import Link
from repro.net.switch import NetworkSwitch
from repro.sim.engine import Simulator
from repro.units import MICROSECOND, RATE_100G

#: Default one-way propagation delay for testbed cables (1 us ~ 200 m of
#: fiber, a rack-scale-to-row-scale figure that gives microsecond RTTs as
#: in the paper's data-center setting).
DEFAULT_LINK_DELAY_PS = 1 * MICROSECOND


@dataclass
class Topology:
    """A wired set of devices sharing one simulator."""

    sim: Simulator
    devices: dict[str, Device] = field(default_factory=dict)
    links: list[Link] = field(default_factory=list)
    _next_address: int = 1

    def add_device(self, device: Device) -> Device:
        if device.name in self.devices:
            raise ConfigError(f"duplicate device name: {device.name}")
        self.devices[device.name] = device
        return device

    def connect(self, a: Port, b: Port, *, delay_ps: int = DEFAULT_LINK_DELAY_PS) -> Link:
        link = Link(a, b, delay_ps=delay_ps)
        self.links.append(link)
        return link

    def allocate_address(self) -> int:
        address = self._next_address
        self._next_address += 1
        return address


def n_cast_1(
    sim: Simulator,
    n_senders: int,
    *,
    rate_bps: int = RATE_100G,
    delay_ps: int = DEFAULT_LINK_DELAY_PS,
    ecn_threshold_bytes: int = 84_000,
    queue_capacity_bytes: int = 2**22,
) -> tuple[Topology, list[Host], Host, NetworkSwitch, NetworkSwitch]:
    """The Figure 9 dumbbell: n sender hosts -> switch A -> switch B -> 1
    receiver host; the A-B link is the bottleneck for n >= 2."""
    if n_senders <= 0:
        raise ConfigError(f"n_senders must be positive, got {n_senders}")
    topo = Topology(sim)
    switch_a = NetworkSwitch(sim, "switchA")
    switch_b = NetworkSwitch(sim, "switchB")
    topo.add_device(switch_a)
    topo.add_device(switch_b)

    senders: list[Host] = []
    for i in range(n_senders):
        host = Host(sim, topo.allocate_address(), name=f"sender{i}", rate_bps=rate_bps)
        topo.add_device(host)
        sw_port = switch_a.add_ecn_port(
            rate_bps=rate_bps,
            capacity_bytes=queue_capacity_bytes,
            ecn_threshold_bytes=ecn_threshold_bytes,
        )
        topo.connect(host.port, sw_port, delay_ps=delay_ps)
        switch_a.set_route(host.address, sw_port)
        senders.append(host)

    receiver = Host(sim, topo.allocate_address(), name="receiver", rate_bps=rate_bps)
    topo.add_device(receiver)
    recv_sw_port = switch_b.add_ecn_port(
        rate_bps=rate_bps,
        capacity_bytes=queue_capacity_bytes,
        ecn_threshold_bytes=ecn_threshold_bytes,
    )
    topo.connect(receiver.port, recv_sw_port, delay_ps=delay_ps)
    switch_b.set_route(receiver.address, recv_sw_port)

    # Inter-switch trunk: the bottleneck.
    a_trunk = switch_a.add_ecn_port(
        rate_bps=rate_bps,
        capacity_bytes=queue_capacity_bytes,
        ecn_threshold_bytes=ecn_threshold_bytes,
    )
    b_trunk = switch_b.add_ecn_port(
        rate_bps=rate_bps,
        capacity_bytes=queue_capacity_bytes,
        ecn_threshold_bytes=ecn_threshold_bytes,
    )
    topo.connect(a_trunk, b_trunk, delay_ps=delay_ps)
    switch_a.set_route(receiver.address, a_trunk)
    for host in senders:
        switch_b.set_route(host.address, b_trunk)

    return topo, senders, receiver, switch_a, switch_b
