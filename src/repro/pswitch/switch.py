"""The assembled Marlin programmable switch (paper Section 4).

A :class:`MarlinSwitch` is a Device with ``n`` test ports (indices
``0..n-1``) facing the tested network and one FPGA-facing port (the last
index) carrying SCHE in / INFO out.  Dispatch per ingress packet:

* SCHE from the FPGA port  -> Module C enqueues DATA metadata;
* DATA from a test port    -> Module A produces ACK/NACK/CNP out the same
  port (the tester is its own receiver, as in the paper's testbed);
* ACK from a test port     -> Module B compresses it to INFO and forwards
  it to the FPGA.

A fixed ``pipeline_latency_ps`` models the Tofino ingress-to-egress
transit for each of these paths.  It is the switch's
:attr:`~repro.net.device.Device.rx_latency_ps`: the attached links add it
to every arrival time, so a packet reaches :meth:`MarlinSwitch.receive`
(and its handler) ``delay_ps + pipeline_latency_ps`` after it departs
the far port, with no event spent waiting out the pipeline.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Optional

from repro.errors import ConfigError
from repro.net.device import Device, Port
from repro.net.packet import Packet
from repro.pswitch.module_a import ReceiverLogic, ReceiverMode
from repro.pswitch.module_c import DataGenerator
from repro.pswitch.packets import (
    PTYPE_ACK,
    PTYPE_DATA,
    PTYPE_SCHE,
    make_info,
    make_rdata,
)
from repro.pswitch.port_allocation import PortAllocation
from repro.sim.engine import Simulator

if TYPE_CHECKING:  # pragma: no cover - typing only (avoids a pswitch<->core cycle)
    from repro.core.config import TestConfig


class MarlinSwitch(Device):
    """Programmable-switch half of the tester."""

    def __init__(
        self,
        sim: Simulator,
        config: TestConfig,
        *,
        allocation: PortAllocation,
        receiver_mode: ReceiverMode,
        name: str = "marlin-switch",
    ) -> None:
        """Deploy ``config``; ``allocation`` and ``receiver_mode`` are the
        values the control plane resolved from it (port count, receiver
        behaviour)."""
        super().__init__(sim, name)
        self.config = config
        self.rx_latency_ps = config.pipeline_latency_ps
        self.allocation = allocation
        rate_bps = config.port_rate_bps
        self.test_ports: list[Port] = [
            self.add_port(rate_bps=rate_bps) for _ in range(allocation.test_ports)
        ]
        self.fpga_port: Port = self.add_port(rate_bps=rate_bps)
        #: Extra FPGA-facing port carrying RDATA out / ACKs back when
        #: receiver logic runs on the FPGA (Figure 2 dashed path: received
        #: DATA is truncated to 64 B and forwarded there).
        self.receiver_port: Optional[Port] = (
            self.add_port(rate_bps=rate_bps)
            if config.receiver_logic_on_fpga
            else None
        )

        self.data_generator = DataGenerator(
            sim,
            self.test_ports,
            template_bytes=config.template_bytes,
            queue_capacity=config.queue_capacity,
            strict=config.strict,
            int_enabled=config.int_enabled,
        )
        self.receiver = ReceiverLogic(
            receiver_mode, cnp_interval_ps=config.cnp_interval_ps
        )
        self.infos_generated = 0
        self.unknown_packets = 0

    @property
    def n_test_ports(self) -> int:
        return len(self.test_ports)

    # -- ingress dispatch -----------------------------------------------------

    def receive(self, packet: Packet, port: Port) -> None:
        """Dispatch a packet that has crossed the pipeline (the link
        delivers it ``pipeline_latency_ps`` after it arrived)."""
        if packet.ptype == PTYPE_SCHE:
            if port is not self.fpga_port:
                raise ConfigError(
                    f"SCHE packet arrived on {port.name}, expected the FPGA port"
                )
            self._handle_sche(packet)
        elif packet.ptype == PTYPE_DATA:
            self._handle_data(packet, port)
        elif packet.ptype == PTYPE_ACK:
            if port is self.receiver_port:
                # A response computed by the FPGA's receiver logic: send
                # it out the test port its DATA arrived on.
                self._handle_fpga_response(packet)
            else:
                self._handle_ack(packet, port)
        else:
            self.unknown_packets += 1

    def _handle_sche(self, packet: Packet) -> None:
        self.data_generator.on_sche(packet)

    def _handle_data(self, packet: Packet, port: Port) -> None:
        if self.receiver_port is not None:
            # Dashed Figure 2 path: truncate and defer to the FPGA.
            self.receiver_port.send(
                make_rdata(packet, port.index, created_ps=self.sim.now)
            )
            return
        for response in self.receiver.on_data(packet, self.sim.now):
            port.send(response)

    def _handle_fpga_response(self, packet: Packet) -> None:
        egress = packet.meta.get("egress_port")
        if egress is None or not 0 <= egress < len(self.test_ports):
            self.unknown_packets += 1
            return
        self.test_ports[egress].send(packet)

    def _handle_ack(self, packet: Packet, port: Port) -> None:
        # Module B: rewrite the ACK into a 64 B INFO for the FPGA.
        self.infos_generated += 1
        self.fpga_port.send(make_info(packet, port.index, created_ps=self.sim.now))

    # -- control-plane readable registers --------------------------------------

    def read_counters(self) -> dict[str, int]:
        """Hardware-register-style counters (Section 3.2 measurement)."""
        return {
            "data_generated": self.data_generator.data_generated,
            "sche_accepted": self.data_generator.sche_accepted,
            "sche_dropped": self.data_generator.sche_dropped,
            "acks_generated": self.receiver.acks_generated,
            "nacks_generated": self.receiver.nacks_generated,
            "cnps_generated": self.receiver.cnps_generated,
            "infos_generated": self.infos_generated,
            "receiver_ooo_dropped": self.receiver.ooo_dropped,
        }
