"""Full-duplex point-to-point links.

Serialization happens in the sending :class:`~repro.net.device.Port` (so
the port rate is the bottleneck); the link adds propagation delay plus
the receiving device's fixed ingress latency
(:attr:`~repro.net.device.Device.rx_latency_ps`, e.g. a switch pipeline)
and delivers the packet to the far end, so ``Device.receive`` runs at
``depart + delay_ps + rx_latency_ps`` with no event in between.  Links
never reorder packets because departures from one port are already
serialized.
"""

from __future__ import annotations

from typing import Optional

from repro.errors import ConfigError
from repro.net.device import Port
from repro.net.packet import Packet


class Link:
    """Connects exactly two ports with a fixed one-way propagation delay."""

    __slots__ = (
        "a", "b", "delay_ps", "to_a_ps", "to_b_ps", "name",
        "carried_packets", "carried_bytes", "_deliver_a", "_deliver_b", "_sim",
    )

    def __init__(self, a: Port, b: Port, *, delay_ps: int = 0, name: Optional[str] = None):
        if delay_ps < 0:
            raise ConfigError(f"link delay must be >= 0, got {delay_ps}")
        if a.link is not None or b.link is not None:
            raise ConfigError("a port can be attached to at most one link")
        if a is b:
            raise ConfigError("cannot connect a port to itself")
        self.a = a
        self.b = b
        self.delay_ps = delay_ps
        #: Departure-to-``receive`` offset per direction: propagation
        #: plus the receiving device's ingress latency.
        self.to_a_ps = delay_ps + a.device.rx_latency_ps
        self.to_b_ps = delay_ps + b.device.rx_latency_ps
        self.name = name if name is not None else f"{a.name}<->{b.name}"
        a.link = self
        b.link = self
        self.carried_packets = 0
        self.carried_bytes = 0
        # Hot-path aliases: per-direction deliver targets and the
        # simulator, bound once so `carry` does no peer lookup or
        # attribute chain per packet.
        self._deliver_a = a.deliver
        self._deliver_b = b.deliver
        self._sim = a.device.sim

    def peer(self, port: Port) -> Port:
        if port is self.a:
            return self.b
        if port is self.b:
            return self.a
        raise ConfigError(f"port {port.name} is not attached to link {self.name}")

    def carry(self, src_port: Port, packet: Packet, *, depart_ps: int) -> None:
        """Deliver ``packet`` to the far end.  ``depart_ps`` is when the last
        bit leaves ``src_port``; delivery is that plus propagation delay
        plus the receiver's ingress latency."""
        if src_port is self.a:
            deliver = self._deliver_b
            offset = self.to_b_ps
        elif src_port is self.b:
            deliver = self._deliver_a
            offset = self.to_a_ps
        else:
            raise ConfigError(
                f"port {src_port.name} is not attached to link {self.name}"
            )
        self.carried_packets += 1
        self.carried_bytes += packet.size_bytes
        self._sim.at(depart_ps + offset, deliver, packet)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"<Link {self.name} delay={self.delay_ps}ps>"
