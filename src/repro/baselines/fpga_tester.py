"""An FPGA-only tester model (paper Section 2.1).

FPGA NICs meet the programmability and packet-frequency criteria but are
interface-bound: two 100 Gbps ports per card, four cards per 2-rack-unit
server, for 800 Gbps — short of Tbps (and at $5,341 per card, expensive
to scale by adding chassis).
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.units import FPGA_CLOCK_HZ, RATE_100G, line_rate_pps


@dataclass(frozen=True)
class FpgaTesterModel:
    """A server full of FPGA NICs used directly as the traffic source."""

    ports_per_card: int = 2
    cards_per_server: int = 4
    port_rate_bps: int = RATE_100G
    clock_hz: int = FPGA_CLOCK_HZ

    @property
    def max_throughput_bps(self) -> int:
        return self.ports_per_card * self.cards_per_server * self.port_rate_bps

    @property
    def max_pps_per_port(self) -> float:
        """One packet per clock cycle, pipelined."""
        return float(self.clock_hz)

    def meets_rate(self, rate_bps: float) -> bool:
        return self.max_throughput_bps >= rate_bps

    def frequency_ok(self, frame_bytes: int) -> bool:
        """Clock supports per-port line rate for this frame size."""
        return self.max_pps_per_port >= line_rate_pps(frame_bytes, self.port_rate_bps)
