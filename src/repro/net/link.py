"""Full-duplex point-to-point links.

Serialization happens in the sending :class:`~repro.net.device.Port` (so
the port rate is the bottleneck); the link adds propagation delay plus
the receiving device's fixed ingress latency
(:attr:`~repro.net.device.Device.rx_latency_ps`, e.g. a switch pipeline).
A link is wiring, not a hop of its own: it hands each port its peer, the
peer device's ``receive`` and that offset, and the sending port pushes
``receive(packet, peer)`` at ``depart + delay_ps + rx_latency_ps``
straight onto the event heap.  Links never reorder packets because
departures from one port are already serialized.
"""

from __future__ import annotations

from typing import Optional

from repro.errors import ConfigError
from repro.net.device import Port


class Link:
    """Connects exactly two ports with a fixed one-way propagation delay."""

    __slots__ = ("a", "b", "delay_ps", "name")

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
        self.name = name if name is not None else f"{a.name}<->{b.name}"
        for port, peer in ((a, b), (b, a)):
            port.link = self
            port._peer = peer
            port._peer_receive = peer.device.receive
            port._to_peer_ps = delay_ps + peer.device.rx_latency_ps

    def peer(self, port: Port) -> Port:
        if port is self.a:
            return self.b
        if port is self.b:
            return self.a
        raise ConfigError(f"port {port.name} is not attached to link {self.name}")

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"<Link {self.name} delay={self.delay_ps}ps>"
