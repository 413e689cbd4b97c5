"""Writing a custom CC algorithm against the Table 3 interface.

The paper's R2 requirement is *customizable CC*: operators write the CC
module in a high-level language against the HLS entry-function contract
(Table 3) and flash it onto the FPGA.  The software equivalent: subclass
:class:`repro.cc.CCAlgorithm`, declare its settable parameters and the
fast path's arithmetic (so the frequency-control analysis can check the
cycle budget), register it, and select it by name in the test
configuration.

The example implements AIMD-ECN — a deliberately simple window algorithm
that grows additively and halves on any ECN echo — then verifies it
drives flows to completion and shares a bottleneck fairly.

Run:  python examples/custom_cc.py
"""

from dataclasses import dataclass

from repro import ControlPlane, TestConfig, register_cc
from repro.cc import (
    CCAlgorithm,
    CCMode,
    EventType,
    IntrinsicInput,
    IntrinsicOutput,
    OpCounts,
    Param,
    TIMER_RTO,
)
from repro.fpga.hls import algorithm_cycles
from repro.fpga.timers import FrequencyControl
from repro.measure.fairness import jain_index
from repro.units import MS, US, format_rate


@dataclass
class AimdState:
    """Customized variable block: must fit the 64 B hardware budget."""

    last_ack: int = 0
    #: One multiplicative cut per window of data.
    cwr_end: int = -1


@register_cc
class AimdEcn(CCAlgorithm):
    """Additive increase, halve on ECN echo.  Window mode, no slow path."""

    name = "aimd-ecn"
    mode = CCMode.WINDOW
    # Fast path: a couple of compares, one add, one shift for the halving.
    ops = OpCounts(add_sub=2, compare=3, shift=1)

    # Settable parameters, each declared once: type, default and range.
    # The constructor checks them and stores them as attributes, so
    # ``cc_params={"increment": 0.5}`` works and ``{"rto_ps": 1.5}`` is a
    # ConfigError (the clock counts whole picoseconds).
    params = {
        "increment": Param(float, 1.0, "(0, inf)"),
        "rto_ps": Param(int, 200 * US, "(0, inf)"),
    }

    def initial_cust(self) -> AimdState:
        return AimdState()

    def initial_cwnd_or_rate(self, link_rate_bps: int) -> float:
        return 8.0

    def on_flow_start(self, cust, slow, now_ps) -> IntrinsicOutput:
        return IntrinsicOutput(rst_timers=[(TIMER_RTO, self.rto_ps)])

    def on_event(self, intr: IntrinsicInput, cust: AimdState, slow) -> IntrinsicOutput:
        if intr.evt_type == EventType.TIMEOUT:
            return IntrinsicOutput(
                cwnd_or_rate=1.0,
                rewind_to_una=True,
                rst_timers=[(TIMER_RTO, self.rto_ps)],
            )
        if intr.evt_type != EventType.RX or intr.psn <= cust.last_ack:
            return IntrinsicOutput()
        cust.last_ack = intr.psn
        cwnd = intr.cwnd_or_rate
        if intr.flags.ecn and intr.psn > cust.cwr_end:
            cwnd = max(cwnd / 2.0, 1.0)  # the shift in hardware
            cust.cwr_end = intr.nxt
        else:
            cwnd += self.increment / max(cwnd, 1.0)
        return IntrinsicOutput(
            cwnd_or_rate=cwnd, rst_timers=[(TIMER_RTO, self.rto_ps)]
        )


def main() -> None:
    # The frequency-control analysis every CC module should pass before
    # deployment (Section 5.3): does the fast path fit the RMW budget?
    cycles = algorithm_cycles(AimdEcn())
    control = FrequencyControl(template_bytes=1024, n_test_ports=12)
    print(f"aimd-ecn fast path: {cycles} cycles "
          f"(budget {control.max_rmw_cycles} at MTU 1024)")
    problems = control.validate(cycles)
    print("frequency-control verdict:", problems or "safe")

    # Deploy it by name, like any built-in algorithm.
    cp = ControlPlane()
    tester = cp.deploy(
        TestConfig(cc_algorithm="aimd-ecn", n_test_ports=4, flows_per_port=1)
    )
    cp.wire_loopback_fabric()
    sampler = tester.enable_rate_sampling(period_ps=500 * US)

    # Three flows into one port: the custom algorithm must share fairly.
    for src in range(3):
        tester.start_flow(port_index=src, dst_port_index=3, size_packets=10**9)
    cp.run(duration_ps=8 * MS)

    rates = {
        name: rate
        for name, rate in sampler.samples[-1].rates_bps.items()
        if name.startswith("flow")
    }
    print("\nper-flow rates on the shared bottleneck:")
    for name, rate in sorted(rates.items()):
        print(f"  {name}: {format_rate(rate)}")
    print(f"total: {format_rate(sum(rates.values()))}, "
          f"Jain fairness: {jain_index(list(rates.values())):.3f}")


if __name__ == "__main__":
    main()
