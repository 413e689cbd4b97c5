"""The assembled Marlin tester (paper Figure 1).

A :class:`MarlinTester` wires one :class:`~repro.pswitch.MarlinSwitch`
to one :class:`~repro.fpga.FpgaNic` over a 100 Gbps cable, hooks flow
completion back into the measurement layer, and exposes the operator-
facing surface: start flows, read counters, collect FCTs, meter rates.

The tester plays both roles of the paper's testbed: its test ports send
DATA into the tested network *and* receive it back (Module A answers
with ACKs), exactly as the paper replaces both sender and receiver hosts
with the tester.
"""

from __future__ import annotations

from typing import Optional

from repro.cc.base import CCAlgorithm, CCMode
from repro.cc.registry import create as create_cc
from repro.core.config import TestConfig
from repro.errors import ConfigError
from repro.fpga.flow import FlowState
from repro.fpga.nic import FpgaNic
from repro.measure.fct import FctCollector
from repro.measure.throughput import ThroughputSampler
from repro.net.device import Port
from repro.net.link import Link
from repro.net.packet import Packet
from repro.pswitch.module_a import ReceiverMode
from repro.pswitch.port_allocation import allocate_ports
from repro.pswitch.switch import MarlinSwitch
from repro.sim.engine import Simulator
from repro.units import NANOSECOND

#: FPGA <-> switch cable propagation delay.
CABLE_DELAY_PS = 50 * NANOSECOND


class MarlinTester:
    """Programmable switch + FPGA NIC, deployed and cabled."""

    def __init__(
        self,
        sim: Simulator,
        config: Optional[TestConfig] = None,
        *,
        algorithm: Optional[CCAlgorithm] = None,
        name: str = "marlin",
    ) -> None:
        self.sim = sim
        self.config = config if config is not None else TestConfig()
        self.config.validate()
        cfg = self.config

        self.algorithm: CCAlgorithm = (
            algorithm
            if algorithm is not None
            else create_cc(cfg.cc_algorithm, **cfg.cc_params)
        )
        # The values both devices derive from the config, resolved once.
        allocation = allocate_ports(
            cfg.template_bytes,
            port_rate_bps=cfg.port_rate_bps,
            requested_test_ports=cfg.n_test_ports,
            receiver_logic_on_fpga=cfg.receiver_logic_on_fpga,
        )
        receiver_mode = self._resolve_receiver_mode()

        self.switch = MarlinSwitch(
            sim,
            cfg,
            allocation=allocation,
            receiver_mode=receiver_mode,
            name=f"{name}-switch",
        )
        self.nic = FpgaNic(
            sim,
            self.algorithm,
            cfg,
            n_test_ports=allocation.test_ports,
            receiver_mode=receiver_mode,
            name=f"{name}-nic",
        )
        self.internal_link = Link(
            self.nic.port,
            self.switch.fpga_port,
            delay_ps=CABLE_DELAY_PS,
            name=f"{name}-cable",
        )
        self.receiver_link: Optional[Link] = None
        if cfg.receiver_logic_on_fpga:
            assert self.nic.receiver_port is not None
            assert self.switch.receiver_port is not None
            self.receiver_link = Link(
                self.nic.receiver_port,
                self.switch.receiver_port,
                delay_ps=CABLE_DELAY_PS,
                name=f"{name}-receiver-cable",
            )

        self.fct = FctCollector()
        self.nic.on_complete(self._record_completion)

        #: Test-port addresses assigned by the experiment topology:
        #: ``port_addresses[i]`` is how the tested network routes traffic
        #: back to test port i.
        self.port_addresses: dict[int, int] = {}

    # -- topology helpers -------------------------------------------------------

    @property
    def test_ports(self) -> list[Port]:
        return self.switch.test_ports

    @property
    def n_test_ports(self) -> int:
        return self.switch.n_test_ports

    def assign_port_address(self, port_index: int, address: int) -> None:
        """Record the network address that routes to a test port."""
        if not 0 <= port_index < self.n_test_ports:
            raise ConfigError(f"no test port {port_index}")
        self.port_addresses[port_index] = address

    def port_address(self, port_index: int) -> int:
        try:
            return self.port_addresses[port_index]
        except KeyError:
            raise ConfigError(
                f"test port {port_index} has no address; call "
                "assign_port_address() while building the topology"
            ) from None

    # -- flow management -----------------------------------------------------------

    def start_flow(
        self,
        *,
        port_index: int,
        dst_port_index: Optional[int] = None,
        dst_addr: Optional[int] = None,
        size_packets: int,
        start_at_ps: Optional[int] = None,
        flow_id: Optional[int] = None,
    ) -> FlowState:
        """Start one flow from a test port toward a destination address
        (or another test port of this tester)."""
        if (dst_port_index is None) == (dst_addr is None):
            raise ConfigError("specify exactly one of dst_port_index / dst_addr")
        if dst_addr is None:
            assert dst_port_index is not None
            dst_addr = self.port_address(dst_port_index)
        return self.nic.start_flow(
            port_index=port_index,
            src_addr=self.port_address(port_index),
            dst_addr=dst_addr,
            size_packets=size_packets,
            start_at_ps=start_at_ps,
            flow_id=flow_id,
        )

    def stop_flow(self, flow_id: int) -> None:
        """Terminate a long-lived flow (control-plane initiated)."""
        self.nic.stop_flow(flow_id)
        self.switch.receiver.forget_flow(flow_id)

    def _record_completion(self, flow: FlowState) -> None:
        self.fct.add(
            flow.flow_id,
            flow.size_packets,
            flow.size_packets * flow.frame_bytes,
            flow.start_ps,
            flow.finish_ps,
        )
        # Release the receiver-side registers for the finished flow.
        self.switch.receiver.forget_flow(flow.flow_id)
        if self.nic.fpga_receiver is not None:
            self.nic.fpga_receiver.forget_flow(flow.flow_id)

    # -- measurement ------------------------------------------------------------------

    def enable_rate_sampling(self, period_ps: int) -> ThroughputSampler:
        """Meter per-flow and per-port DATA rates on a fixed period."""
        sampler = ThroughputSampler(self.sim, period_ps)

        def on_generate(port_index: int, packet: Packet) -> None:
            sampler.meter(f"flow{packet.flow_id}").count(packet.size_bytes)
            sampler.meter(f"port{port_index}").count(packet.size_bytes)

        self.switch.data_generator.on_generate = on_generate
        sampler.start()
        return sampler

    def read_counters(self) -> dict[str, int]:
        """Merged hardware-register view across both devices."""
        counters = {f"switch.{k}": v for k, v in self.switch.read_counters().items()}
        counters.update(
            {f"fpga.{k}": v for k, v in self.nic.read_counters().items()}
        )
        return counters

    def flow_stats(self, flow_id: int) -> dict[str, int]:
        """Per-flow registers (Section 3.2: flow rate / loss measurement).

        ``lost_estimate`` is transmissions (incl. retransmissions) minus
        packets cumulatively acknowledged — in-flight packets count until
        they are ACKed, so read it after the flow completes for an exact
        network-loss figure.
        """
        flow = self.nic.flow(flow_id)
        generated = self.switch.data_generator.flow_tx_packets.get(flow_id, 0)
        return {
            "scheduled": flow.data_sent + flow.rtx_sent,
            "generated": generated,
            "retransmitted": flow.rtx_sent,
            "acked": flow.una,
            "size_packets": flow.size_packets,
            "lost_estimate": max(generated - flow.una, 0),
            "finished": int(flow.finished),
        }

    def rtt_stats_us(self) -> dict[str, float]:
        """Summary of probed RTT samples (requires ``sample_rtt=True``)."""
        import numpy as np

        if not self.nic.rtt_samples:
            raise ConfigError(
                "no RTT samples; deploy with TestConfig(sample_rtt=True)"
            )
        rtts = np.array([rtt for _, rtt in self.nic.rtt_samples], dtype=float) / 1e6
        return {
            "count": float(len(rtts)),
            "mean_us": float(np.mean(rtts)),
            "p50_us": float(np.percentile(rtts, 50)),
            "p99_us": float(np.percentile(rtts, 99)),
            "max_us": float(np.max(rtts)),
        }

    def _resolve_receiver_mode(self) -> ReceiverMode:
        if self.config.receiver_mode == "tcp":
            return ReceiverMode.TCP
        if self.config.receiver_mode == "roce":
            return ReceiverMode.ROCE
        return (
            ReceiverMode.TCP
            if self.algorithm.mode is CCMode.WINDOW
            else ReceiverMode.ROCE
        )
