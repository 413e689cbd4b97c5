"""Packet-frequency control (paper Section 5.3).

The FPGA and the programmable switch exchange 64 B packets at up to
148.8 Mpps, but each switch test port can only emit DATA at the template
rate (8.127 Mpps at MTU 1518, 11.97 Mpps at MTU 1024).  Two timers keep
the devices in lock-step:

* **TX timers** (egress): one per test port; the per-port scheduler may
  emit at most one SCHE per TX period, so the switch's register queues
  never overflow;
* **RX timers** (ingress): one per RX FIFO (INFO packets are FIFOed by
  the switch port they arrived on); the CC module consumes at most one
  INFO per RX period, giving RMW operations a guaranteed conflict-free
  window.

:class:`FrequencyControl` derives both periods from the template size and
validates the paper's constraints: the RX period must not exceed the TX
period (or RX FIFOs overflow), the CC module's cycle count must fit the
RX period (or RMW conflicts corrupt CC parameters), and the aggregate
SCHE rate across ports must fit the 64 B line rate.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.errors import ConfigError
from repro.units import (
    FPGA_CYCLE_PS,
    MIN_FRAME_BYTES,
    RATE_100G,
    serialization_time_ps,
)


@dataclass(frozen=True)
class FrequencyControl:
    """Derived RX/TX timer configuration for one tester."""

    template_bytes: int
    n_test_ports: int
    port_rate_bps: int = RATE_100G
    #: Override the RX period; 0 means "same as TX" (the default and the
    #: paper's recommendation).  Setting it above the TX period is the
    #: misconfiguration :meth:`validate` flags.
    rx_interval_override_ps: int = 0

    @property
    def tx_interval_ps(self) -> int:
        """Per-port SCHE emission period == DATA serialization interval."""
        return serialization_time_ps(self.template_bytes, self.port_rate_bps)

    @property
    def rx_interval_ps(self) -> int:
        if self.rx_interval_override_ps > 0:
            return self.rx_interval_override_ps
        return self.tx_interval_ps

    @property
    def sche_interval_ps(self) -> int:
        """Serialization time of one 64 B SCHE/INFO packet."""
        return serialization_time_ps(MIN_FRAME_BYTES, self.port_rate_bps)

    @property
    def max_rmw_cycles(self) -> int:
        """Largest conflict-free RMW cycle count the RX period allows.

        At MTU 1518 this is the paper's "maximum of 40 clock cycles"; at
        MTU 1024 the CC module "has 27 clock cycles for processing".
        """
        return round(self.rx_interval_ps / FPGA_CYCLE_PS)

    def pps_reduction_factor(self, cc_cycles: int) -> int:
        """How much a flow's per-packet rate must shrink so that a CC
        module needing ``cc_cycles`` stays conflict-free (Section 8:
        Cubic "can still operate properly by reducing the packets-per-
        second per flow")."""
        if cc_cycles <= 0:
            raise ConfigError(f"cc_cycles must be positive, got {cc_cycles}")
        budget = self.max_rmw_cycles
        if budget <= 0:
            raise ConfigError("RX period is below one FPGA cycle")
        return max(1, -(-cc_cycles // budget))

    def validate(self, cc_cycles: int) -> list[str]:
        """Check the Section 5.3 constraints; returns human-readable
        violations (empty list == configuration is safe)."""
        problems: list[str] = []
        if self.rx_interval_ps > self.tx_interval_ps:
            problems.append(
                f"RX period {self.rx_interval_ps} ps exceeds TX period "
                f"{self.tx_interval_ps} ps: RX FIFOs will overflow"
            )
        if cc_cycles > self.max_rmw_cycles:
            problems.append(
                f"CC module needs {cc_cycles} cycles but the RX period only "
                f"allows {self.max_rmw_cycles}: RMW conflicts will corrupt CC "
                f"parameters (reduce per-flow PPS by "
                f"{self.pps_reduction_factor(cc_cycles)}x)"
            )
        if self.n_test_ports * self.sche_interval_ps > self.tx_interval_ps:
            problems.append(
                f"{self.n_test_ports} ports emitting one SCHE per "
                f"{self.tx_interval_ps} ps exceed the 64 B line rate "
                f"({self.sche_interval_ps} ps per SCHE)"
            )
        return problems
