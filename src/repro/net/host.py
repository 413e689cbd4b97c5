"""Generic host endpoint.

A host owns one port and an address, and delegates protocol behaviour to a
pluggable *agent* (e.g. the ConnectX-style DCQCN stack in
:mod:`repro.reference.connectx`).  Marlin itself does not use hosts — the
tester replaces them — but the fidelity experiments (Figure 9) need real
host endpoints to compare against.
"""

from __future__ import annotations

from typing import Optional, Protocol

from repro.net.device import Device, Port
from repro.net.packet import Packet
from repro.sim.engine import Simulator
from repro.units import RATE_100G


class HostAgent(Protocol):
    """Protocol stack attached to a host."""

    def on_receive(self, packet: Packet) -> None:  # pragma: no cover - protocol
        ...


class Host(Device):
    """Single-port endpoint with a pluggable protocol agent."""

    def __init__(
        self,
        sim: Simulator,
        address: Optional[int] = None,
        *,
        name: Optional[str] = None,
        rate_bps: int = RATE_100G,
    ) -> None:
        super().__init__(sim, name)
        #: Set by the wiring: ``host.address = fabric.attach(leaf, host.port)``.
        self.address = address
        self.port: Port = self.add_port(rate_bps=rate_bps)
        self.agent: Optional[HostAgent] = None

    def attach(self, agent: HostAgent) -> None:
        self.agent = agent

    def send(self, packet: Packet) -> bool:
        """Transmit ``packet`` out the host port."""
        return self.port.send(packet)

    def receive(self, packet: Packet, port: Port) -> None:
        if self.agent is not None:
            self.agent.on_receive(packet)
