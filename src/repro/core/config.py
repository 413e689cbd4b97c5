"""Test configuration (paper Section 3.2).

Operators configure a test through the control-plane program: CC
algorithm selection and parameters, template (packet) size, test ports,
flows per port, and measurement options.  :class:`TestConfig` is that
configuration object; :class:`~repro.core.control_plane.ControlPlane`
"deploys" it by constructing the switch and FPGA models.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Optional

from repro.errors import ConfigError, as_int, require
from repro.units import MICROSECOND, MIN_FRAME_BYTES, NANOSECOND, RATE_100G, ROCE_MTU_BYTES


@dataclass
class TestConfig:
    """Everything the operator chooses before a test run."""

    #: Not a pytest test class, despite the name.
    __test__ = False

    #: Registered CC algorithm name (Section 3.2: "selecting the CC
    #: algorithm" flashes the matching firmware).
    cc_algorithm: str = "dctcp"
    #: Constructor parameters for the algorithm ("setting CC parameters").
    cc_params: dict[str, Any] = field(default_factory=dict)
    #: Template/DATA frame size; drives the amplification factor.
    template_bytes: int = ROCE_MTU_BYTES
    #: Test ports to use; None selects the Section 4.3 optimum.
    n_test_ports: Optional[int] = None
    port_rate_bps: int = RATE_100G
    #: Concurrent flows per test port.
    flows_per_port: int = 1
    #: Receiver behaviour: "auto" picks TCP for window algorithms and
    #: RoCE (go-back-N + CNP) for rate algorithms.
    receiver_mode: str = "auto"
    #: Per-flow CNP pacing at the notification point (RoCE mode).
    cnp_interval_ps: int = 50 * MICROSECOND
    #: Switch register-queue depth per egress port.
    queue_capacity: int = 128
    #: Tofino-class pipeline transit latency.
    pipeline_latency_ps: int = 400 * NANOSECOND
    #: Record every window/rate change via the QDMA logger.
    trace_cc: bool = False
    #: Stamp in-band telemetry on DATA and echo it to the CC module
    #: (needed by INT-based algorithms like HPCC).
    int_enabled: bool = False
    #: Raise on internal losses/conflicts instead of counting them.
    strict: bool = False
    #: Ablation switch: bypass the FPGA RX timers (Section 5.3).
    disable_rx_timer: bool = False
    #: Figure 2 dashed path: run receiver logic on the FPGA instead of
    #: the switch (one extra port on each device; Section 4.1).
    receiver_logic_on_fpga: bool = False
    #: Record probed RTT samples at the FPGA (latency analysis).
    sample_rtt: bool = False
    #: RNG seed for workloads.
    seed: int = 0

    def to_dict(self) -> dict[str, Any]:
        """Serializable form (for config files and the CLI)."""
        from dataclasses import asdict

        return asdict(self)

    @classmethod
    def from_dict(cls, payload: dict[str, Any]) -> "TestConfig":
        """Build a config from a dict, rejecting unknown keys."""
        from dataclasses import fields

        if not isinstance(payload, dict):
            raise ConfigError(
                f"TestConfig must be a JSON object, got {type(payload).__name__}"
            )
        known = {f.name for f in fields(cls)}
        unknown = set(payload) - known
        if unknown:
            raise ConfigError(f"unknown TestConfig keys: {sorted(unknown)}")
        config = cls(**payload)
        config.validate()
        return config

    def validate(self) -> None:
        """Check every field's type and range; raises :class:`ConfigError`."""
        require(
            isinstance(self.cc_algorithm, str),
            f"field 'cc_algorithm' must be a string, got {self.cc_algorithm!r}",
        )
        require(
            isinstance(self.cc_params, dict),
            f"field 'cc_params' must be an object, got {self.cc_params!r}",
        )
        require(
            self.receiver_mode in ("auto", "tcp", "roce"),
            f"receiver_mode must be auto/tcp/roce, got {self.receiver_mode!r}",
        )
        for name in _FLAGS:
            value = getattr(self, name)
            require(
                isinstance(value, bool),
                f"field {name!r} must be true or false, got {value!r}",
            )
        if self.n_test_ports is not None:
            as_int(self.n_test_ports, "n_test_ports")
        as_int(self.template_bytes, "template_bytes")
        require(
            self.template_bytes > MIN_FRAME_BYTES,
            f"template must exceed {MIN_FRAME_BYTES} B, got {self.template_bytes}",
        )
        for name, minimum in _INT_MINIMUMS:
            as_int(getattr(self, name), name, minimum=minimum)


#: The on/off fields.
_FLAGS = (
    "trace_cc", "int_enabled", "strict", "disable_rx_timer",
    "receiver_logic_on_fpga", "sample_rtt",
)
#: The other integer fields, each with its least valid value.
_INT_MINIMUMS = (
    ("port_rate_bps", 1),
    ("flows_per_port", 1),
    ("queue_capacity", 1),
    ("cnp_interval_ps", 0),
    ("pipeline_latency_ps", 0),
    ("seed", 0),
)
