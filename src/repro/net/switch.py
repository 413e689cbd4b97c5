"""The tested network: an output-queued L2/L3 switch.

Forwarding is by destination address through a static table (the
experiments use static topologies, as the paper's testbed does).  Output
ports typically carry :class:`~repro.net.queue.EcnQueue` so DCTCP/DCQCN
receive congestion signals.
"""

from __future__ import annotations

from typing import Callable, Optional

from repro.errors import ConfigError
from repro.net import int_telemetry
from repro.net.device import Device, Port
from repro.net.packet import Packet
from repro.net.queue import EcnQueue
from repro.sim.engine import Simulator
from repro.units import RATE_100G


class NetworkSwitch(Device):
    """Output-queued switch with static destination-based forwarding."""

    #: Optional :class:`repro.obs.flight.FlightRecorder`; class-level None
    #: so only the no-route branch ever tests it.
    _flight = None

    def __init__(self, sim: Simulator, name: Optional[str] = None) -> None:
        super().__init__(sim, name)
        self._forwarding: dict[int, Port] = {}
        #: ECMP groups: destination -> candidate ports, selected per flow
        #: by a deterministic hash (multi-path fabrics).
        self._ecmp: dict[int, list[Port]] = {}
        #: Memoized ECMP picks: (dst, flow, src) -> port.  The hash is a
        #: pure function of those keys and the (static) group, so the
        #: cache is exact; it is cleared when a group is (re)installed.
        self._ecmp_cache: dict[tuple, Port] = {}
        self.forwarded_packets = 0
        self.dropped_no_route = 0
        #: Optional per-packet interceptor used by experiments to inject
        #: deterministic loss or ECN marks (Figure 5).  Returning False
        #: drops the packet.
        self.packet_filter: Optional[Callable[[Packet, Port], bool]] = None

    def add_ecn_port(
        self,
        *,
        rate_bps: int = RATE_100G,
        capacity_bytes: int,
        ecn_threshold_bytes: int,
    ) -> Port:
        """Add a port whose output queue CE-marks above a threshold (the
        tested network's values are :mod:`repro.net.fabric`'s)."""
        queue = EcnQueue(capacity_bytes, ecn_threshold_bytes)
        return self.add_port(rate_bps=rate_bps, queue=queue)

    def set_route(self, dst: int, port: Port) -> None:
        if port.device is not self:
            raise ConfigError(
                f"route target {port.name} does not belong to switch {self.name}"
            )
        self._forwarding[dst] = port

    def set_ecmp_route(self, dst: int, ports: list[Port]) -> None:
        """Install a multi-path route: one of ``ports`` is selected per
        flow by hashing the flow ID, so a flow's packets never reorder
        across paths (standard ECMP behaviour)."""
        if not ports:
            raise ConfigError("ECMP group must contain at least one port")
        for port in ports:
            if port.device is not self:
                raise ConfigError(
                    f"ECMP member {port.name} does not belong to {self.name}"
                )
        self._ecmp[dst] = list(ports)
        self._ecmp_cache.clear()

    def route_for(self, dst: int) -> Optional[Port]:
        return self._forwarding.get(dst)

    def _select_port(self, packet: Packet) -> Optional[Port]:
        group = self._ecmp.get(packet.dst)
        if group is not None:
            cache_key = (packet.dst, packet.flow_id, packet.src)
            port = self._ecmp_cache.get(cache_key)
            if port is None:
                # Deterministic flow hash: (flow, src, dst) scrambled by
                # a 64-bit multiplicative hash, stable across runs.
                key = (packet.flow_id * 1_000_003 + packet.src * 97 + packet.dst)
                index = (key * 0x9E3779B97F4A7C15 >> 32) % len(group)
                port = group[index]
                self._ecmp_cache[cache_key] = port
            return port
        return self._forwarding.get(packet.dst)

    def receive(self, packet: Packet, port: Port) -> None:
        if self.packet_filter is not None and not self.packet_filter(packet, port):
            return
        # Single-path forwarding inline; only fabrics with ECMP groups
        # pay for the selector.
        if self._ecmp:
            out_port = self._select_port(packet)
        else:
            out_port = self._forwarding.get(packet.dst)
        if out_port is None:
            self.dropped_no_route += 1
            if self._flight is not None:
                self._flight.record(
                    self.sim.now, "switch", "drop_no_route",
                    switch=self.name, dst=packet.dst, flow=packet.flow_id,
                )
            return
        self.forwarded_packets += 1
        # Inlined INT gate (``stamp`` would no-op anyway; the common
        # non-INT case skips the call and the clock read entirely).
        if packet.meta.get(int_telemetry.INT_ENABLED):
            int_telemetry.stamp(packet, out_port, self.sim.now)
        out_port.send(packet)
