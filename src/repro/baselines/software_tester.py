"""A CPU/DPDK software tester model (paper Section 2.1).

The paper's argument: even bypassing the kernel with DPDK, a 3 GHz core
running "a highly optimized CC algorithm that completes in 50 clock
cycles" cannot reach the ~81 Mpps that 1 Tbps of MTU-1518 traffic
requires.  This model makes that arithmetic executable and extends it to
multi-core scaling (with an efficiency factor for the memory/NIC-queue
contention that keeps real DPDK apps below linear scaling).
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.units import RATE_100G, line_rate_pps, wire_bits


@dataclass(frozen=True)
class SoftwareTesterModel:
    """A host-based tester: cores x clock / cycles-per-packet."""

    cpu_hz: float = 3.0e9
    #: Per-packet CC + IO budget (the paper's optimistic 50 cycles).
    cycles_per_packet: int = 50
    cores: int = 1
    #: Multi-core scaling efficiency (1.0 = perfectly linear).
    scaling_efficiency: float = 0.8
    #: NIC ports available to the host.
    nic_ports: int = 2
    nic_port_rate_bps: int = RATE_100G

    @property
    def max_pps(self) -> float:
        """Peak packet rate the CPU side sustains."""
        single = self.cpu_hz / self.cycles_per_packet
        if self.cores == 1:
            return single
        return single * self.cores * self.scaling_efficiency

    def max_throughput_bps(self, frame_bytes: int) -> float:
        """Generated traffic rate: min(CPU limit, NIC interface limit)."""
        cpu_limited = self.max_pps * wire_bits(frame_bytes)
        nic_limited = float(self.nic_ports * self.nic_port_rate_bps)
        return min(cpu_limited, nic_limited)

    def meets_rate(self, rate_bps: float, frame_bytes: int) -> bool:
        return self.max_throughput_bps(frame_bytes) >= rate_bps

    def single_flow_line_rate_ok(self, frame_bytes: int) -> bool:
        """Can one flow be scheduled at one port's line rate?"""
        return self.max_pps >= line_rate_pps(frame_bytes, self.nic_port_rate_bps)
