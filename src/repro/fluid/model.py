"""Flow-level CC model for the comprehensive test (Figure 10).

Under closed-loop load the per-port flow population is constant at ``n``,
so the long-run fair share of every flow is ``rho * C / n`` where ``rho``
is the algorithm's bottleneck utilization.  What distinguishes
algorithms at the short-flow end is the *startup rate profile*:

* **DCTCP** starts at one packet per RTT and doubles each RTT (slow
  start) until it reaches the fair share — a 10 kB flow completes in a
  handful of RTTs, far *faster* than its equal-share time but slower
  than a line-rate burst;
* **DCQCN** starts at line rate and is cut toward the fair share by CNPs
  with an exponential time constant — short flows complete in roughly a
  serialization time plus an RTT, the "significant improvement ... when
  sending short flows" the paper observes;
* the **ideal** reference sends at exactly ``C / n`` from the first byte.

For each flow the model integrates its rate profile until the flow's
bytes are exhausted, giving a closed-form FCT; closed-loop sequencing
(arrival == previous completion) strings flows through per-slot
timelines.  An optional lognormal jitter models queueing/scheduling
noise; it is deterministic under the experiment seed.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional

import numpy as np

from repro.errors import ConfigError
from repro.units import BITS_PER_BYTE, MICROSECOND, RATE_100G, SECOND
from repro.workload.distributions import EmpiricalCdf


@dataclass(frozen=True)
class FluidCcProfile:
    """Startup/steady-state rate profile of one CC algorithm."""

    name: str
    #: Bottleneck utilization at convergence (fraction of C shared).
    utilization: float
    #: "slow_start": rate doubles each RTT from one MSS/RTT.
    #: "line_rate_decay": rate starts at C and decays exp. to fair share.
    #: "constant": rate is the fair share from t=0 (the ideal).
    startup: str
    #: Time constant of the line-rate decay (ps), for DCQCN-style ramps.
    decay_tau_ps: float = 0.0
    #: Lognormal FCT jitter sigma (0 disables).
    jitter_sigma: float = 0.0

    def validate(self) -> None:
        if not 0.0 < self.utilization <= 1.0:
            raise ConfigError(f"utilization must be in (0, 1], got {self.utilization}")
        if self.startup not in ("slow_start", "line_rate_decay", "constant"):
            raise ConfigError(f"unknown startup profile {self.startup!r}")
        if self.startup == "line_rate_decay" and self.decay_tau_ps <= 0:
            raise ConfigError("line_rate_decay needs a positive decay_tau_ps")


def dctcp_profile(*, jitter_sigma: float = 0.35) -> FluidCcProfile:
    """DCTCP: slow-start ramp, high utilization, visible oscillation."""
    return FluidCcProfile(
        name="dctcp",
        utilization=0.94,
        startup="slow_start",
        jitter_sigma=jitter_sigma,
    )


def dcqcn_profile(
    *, decay_tau_us: float = 120.0, jitter_sigma: float = 0.25
) -> FluidCcProfile:
    """DCQCN: line-rate start decaying to fair share over ~CNP timescales."""
    return FluidCcProfile(
        name="dcqcn",
        utilization=0.96,
        startup="line_rate_decay",
        decay_tau_ps=decay_tau_us * MICROSECOND,
        jitter_sigma=jitter_sigma,
    )


def ideal_profile() -> FluidCcProfile:
    return FluidCcProfile(name="ideal", utilization=1.0, startup="constant")


#: Profile factories by name: what a campaign spec's ``algorithms``
#: field, ``repro fluid`` and ``repro report`` may ask for.
PROFILES = {
    "dctcp": dctcp_profile,
    "dcqcn": dcqcn_profile,
    "ideal": ideal_profile,
}


@dataclass
class FluidResult:
    """Outcome of one fluid run."""

    algorithm: str
    fcts_us: np.ndarray
    sizes_bytes: np.ndarray
    n_flows_per_port: int
    n_ports: int
    capacity_bps: float

    @property
    def total_flows(self) -> int:
        return int(self.fcts_us.size)

    def throughput_bps(self) -> float:
        """Aggregate goodput implied by the closed-loop timelines."""
        # Each slot is always busy moving its flow's bytes; aggregate rate
        # is total bytes / per-slot elapsed time summed over slots.
        total_bits = float(np.sum(self.sizes_bytes)) * BITS_PER_BYTE
        slot_time_us = float(np.sum(self.fcts_us)) / (
            self.n_flows_per_port * self.n_ports
        )
        if slot_time_us <= 0:
            return 0.0
        per_slot_bits = total_bits / (self.n_flows_per_port * self.n_ports)
        return per_slot_bits / (slot_time_us * 1e-6)


class FluidSimulator:
    """Closed-loop fluid FCT simulator for one tester."""

    def __init__(
        self,
        *,
        n_ports: int = 12,
        flows_per_port: int,
        port_capacity_bps: float = RATE_100G,
        base_rtt_ps: int = 6 * MICROSECOND,
        mss_bytes: int = 1000,
        ecn_threshold_bytes: int = 84_000,
        cnp_reaction_ps: int = 50 * MICROSECOND,
        seed: int = 0,
    ) -> None:
        if flows_per_port <= 0:
            raise ConfigError(f"flows_per_port must be positive, got {flows_per_port}")
        if n_ports <= 0:
            raise ConfigError(f"n_ports must be positive, got {n_ports}")
        self.n_ports = n_ports
        self.flows_per_port = flows_per_port
        self.port_capacity_bps = port_capacity_bps
        self.base_rtt_ps = base_rtt_ps
        self.mss_bytes = mss_bytes
        self.ecn_threshold_bytes = ecn_threshold_bytes
        self.cnp_reaction_ps = cnp_reaction_ps
        #: Transient overshoot a ramping flow sustains before congestion
        #: feedback pins it to the fair share (slow-start windows double
        #: for ~log2(overshoot) rounds past the fair rate).
        self.ramp_overshoot = 8.0
        self.seed = seed

    def effective_rtt_ps(self) -> float:
        """RTT including the ECN-managed standing queue, inflated when the
        per-flow fair share falls below one window-floor packet per RTT.

        Window algorithms cannot send less than one packet per RTT, so
        with ``n`` flows whose floor demand exceeds capacity the queue
        (and hence the RTT) grows until ``n * mss / rtt == C``.
        """
        ecn_delay = self.ecn_threshold_bytes * 8 * SECOND / self.port_capacity_bps
        base = self.base_rtt_ps + ecn_delay
        mss_bits = self.mss_bytes * BITS_PER_BYTE
        floor_rtt = (
            self.flows_per_port * mss_bits * SECOND / self.port_capacity_bps
        )
        return max(base, floor_rtt)

    # -- closed-form per-flow FCT --------------------------------------------------

    def flow_fct_ps(self, size_bytes: float, profile: FluidCcProfile) -> float:
        """Integrate the rate profile until ``size_bytes`` are delivered."""
        profile.validate()
        capacity = self.port_capacity_bps
        fair_bps = profile.utilization * capacity / self.flows_per_port
        bits = size_bytes * BITS_PER_BYTE
        if profile.startup == "constant":
            return bits / fair_bps * SECOND
        if profile.startup == "slow_start":
            return self._slow_start_fct_ps(bits, fair_bps)
        return self._decay_fct_ps(bits, fair_bps, profile.decay_tau_ps / SECOND)

    def _slow_start_fct_ps(self, bits: float, fair_bps: float) -> float:
        """Slow start doubling per effective RTT, then the fair share.

        A new flow's first windows outrun the long-run fair share — the
        transient unfairness that lets short flows beat equal-share FCT
        (the Figure 10 inset).  The ramp exits once the flow's rate
        reaches ``ramp_overshoot`` times the fair share (ECN marks take a
        few RTTs to tame the doubling) or a quarter of port capacity,
        whichever is lower; after that, feedback pins it to the fair
        share.
        """
        rtt_s = self.effective_rtt_ps() / SECOND
        mss_bits = self.mss_bytes * BITS_PER_BYTE
        ramp_exit_bps = min(
            self.port_capacity_bps / 4.0, self.ramp_overshoot * fair_bps
        )
        sent = 0.0
        round_bits = mss_bits
        elapsed_s = 0.0
        while round_bits / rtt_s < ramp_exit_bps:
            if sent + round_bits >= bits:
                # Finishes inside this round; a partial round still costs
                # (at least) the RTT to get the acknowledgements back.
                return (elapsed_s + rtt_s) * SECOND
            sent += round_bits
            elapsed_s += rtt_s
            round_bits *= 2.0
        # Converged: remaining bits at the fair share.
        remaining = max(bits - sent, 0.0)
        return (elapsed_s + remaining / fair_bps + rtt_s) * SECOND

    def _decay_fct_ps(self, bits: float, fair_bps: float, tau_s: float) -> float:
        """Rate C*e^(-t/tau) + fair*(1 - e^(-t/tau)), integrated exactly.

        Cumulative bits by time t: fair*t + extra(t), where the exponential
        head-start term extra(t) = (C - fair)*tau*(1 - e^(-t/tau)) is capped
        at the burst a flow can inject before CNPs throttle it — about
        C * (base RTT + CNP reaction time) of port time, shared with the
        other ramping flows (scaled down by sqrt(n), the typical number of
        concurrently bursting newcomers).  Monotone in t, solved by
        bisection; plus one *effective* RTT — the first packets must drain
        through the standing queue before their acknowledgements return.
        """
        capacity = self.port_capacity_bps
        rtt_s = self.effective_rtt_ps() / SECOND
        burst_cap_bits = (
            capacity
            * (self.base_rtt_ps + self.cnp_reaction_ps)
            / SECOND
            / math.sqrt(self.flows_per_port)
        )

        def delivered(t: float) -> float:
            extra = (capacity - fair_bps) * tau_s * (1.0 - math.exp(-t / tau_s))
            return fair_bps * t + min(extra, burst_cap_bits)

        low, high = 0.0, bits / fair_bps + 10.0 * tau_s
        for _ in range(80):
            mid = (low + high) / 2.0
            if delivered(mid) < bits:
                low = mid
            else:
                high = mid
        t_s = max(high, bits / capacity)
        return (t_s + rtt_s) * SECOND

    # -- batch simulation -----------------------------------------------------------

    def run(
        self,
        profile: FluidCcProfile,
        distribution: EmpiricalCdf,
        *,
        flows_total: int,
        duration_limit_us: Optional[float] = None,
    ) -> FluidResult:
        """Simulate ``flows_total`` closed-loop flows and collect FCTs.

        Vectorized over flows (the 65,536-flow Figure 10 runs sample
        100k+ flows); equivalence with the scalar :meth:`flow_fct_ps` is
        a test-suite invariant.
        """
        rng = np.random.default_rng(self.seed)
        sizes = distribution.sample_many(rng, flows_total)
        fcts_ps = self._fct_batch_ps(sizes.astype(float), profile)
        fcts_us = fcts_ps / MICROSECOND
        if profile.jitter_sigma > 0:
            jitter = rng.lognormal(0.0, profile.jitter_sigma, flows_total)
            fcts_us = fcts_us * jitter
        if duration_limit_us is not None:
            mask = fcts_us <= duration_limit_us
            fcts_us = fcts_us[mask]
            sizes = sizes[mask]
        return FluidResult(
            algorithm=profile.name,
            fcts_us=fcts_us,
            sizes_bytes=sizes,
            n_flows_per_port=self.flows_per_port,
            n_ports=self.n_ports,
            capacity_bps=self.port_capacity_bps,
        )

    # -- vectorized kernels -------------------------------------------------------

    def _fct_batch_ps(
        self, sizes_bytes: np.ndarray, profile: FluidCcProfile
    ) -> np.ndarray:
        profile.validate()
        fair_bps = profile.utilization * self.port_capacity_bps / self.flows_per_port
        bits = sizes_bytes * BITS_PER_BYTE
        if profile.startup == "constant":
            return bits / fair_bps * SECOND
        if profile.startup == "slow_start":
            return self._slow_start_batch_ps(bits, fair_bps)
        return self._decay_batch_ps(bits, fair_bps, profile.decay_tau_ps / SECOND)

    def _slow_start_batch_ps(self, bits: np.ndarray, fair_bps: float) -> np.ndarray:
        """Vectorized mirror of :meth:`_slow_start_fct_ps`.

        The ramp has a fixed number of rounds K (independent of flow
        size): round k delivers ``mss * 2^k`` bits.  A flow finishing in
        round k costs (k rounds + 1) RTTs; a flow outliving the ramp pays
        K RTTs plus its remainder at the fair share plus one RTT.
        """
        rtt_s = self.effective_rtt_ps() / SECOND
        mss_bits = float(self.mss_bytes * BITS_PER_BYTE)
        ramp_exit_bps = min(
            self.port_capacity_bps / 4.0, self.ramp_overshoot * fair_bps
        )
        # Cumulative bits through each ramp round, until the exit rate.
        ends = []
        round_bits = mss_bits
        total = 0.0
        while round_bits / rtt_s < ramp_exit_bps:
            total += round_bits
            ends.append(total)  # bits delivered through round k
            round_bits *= 2.0
        ramp_rounds = len(ends)
        sent_in_ramp = total

        fct_s = np.empty_like(bits)
        if ramp_rounds > 0:
            ends_arr = np.asarray(ends)
            # A flow finishes in the first round k with ends[k] >= bits,
            # costing k full round-trips (matching the scalar loop).
            finish_round = np.searchsorted(ends_arr, bits, side="left")
            in_ramp = bits <= sent_in_ramp
            fct_s[in_ramp] = finish_round[in_ramp] * rtt_s
        else:
            in_ramp = np.zeros(bits.shape, dtype=bool)
        beyond = ~in_ramp
        fct_s[beyond] = ramp_rounds * rtt_s + (bits[beyond] - sent_in_ramp) / fair_bps
        return (fct_s + rtt_s) * SECOND

    def _decay_batch_ps(
        self, bits: np.ndarray, fair_bps: float, tau_s: float
    ) -> np.ndarray:
        """Vectorized mirror of :meth:`_decay_fct_ps` (batched bisection)."""
        capacity = self.port_capacity_bps
        rtt_s = self.effective_rtt_ps() / SECOND
        burst_cap_bits = (
            capacity
            * (self.base_rtt_ps + self.cnp_reaction_ps)
            / SECOND
            / math.sqrt(self.flows_per_port)
        )

        def delivered(t: np.ndarray) -> np.ndarray:
            extra = (capacity - fair_bps) * tau_s * (1.0 - np.exp(-t / tau_s))
            return fair_bps * t + np.minimum(extra, burst_cap_bits)

        low = np.zeros_like(bits)
        high = bits / fair_bps + 10.0 * tau_s
        for _ in range(80):
            mid = (low + high) / 2.0
            under = delivered(mid) < bits
            low = np.where(under, mid, low)
            high = np.where(under, high, mid)
        t_s = np.maximum(high, bits / capacity)
        return (t_s + rtt_s) * SECOND
