"""Topology container: the simulator, named devices and links of one
testbed, and its address allocator.  :mod:`repro.net.fabric` wires
every tested network into one.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.errors import ConfigError
from repro.net.device import Device, Port
from repro.net.link import Link
from repro.sim.engine import Simulator
from repro.units import MICROSECOND

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
