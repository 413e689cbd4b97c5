"""Time-stepped columnar fluid solver: 10^5-10^6 concurrent flows per process.

The closed-form :class:`~repro.fluid.model.FluidSimulator` integrates
each flow's rate profile in isolation — exact, but static: the flow
population, the fair share, and the marking behaviour are inputs, not
outcomes.  This module is the dynamic counterpart: a discretized fluid
model in the style of the DCTCP/DCQCN fluid analyses, where congestion
feedback *emerges* from per-bottleneck queues and every per-flow
quantity lives in a NumPy column so one process sweeps a million
concurrent flows.

State layout (structure of arrays, one row per flow):

====================  =======  ==================================================
column                dtype    meaning
====================  =======  ==================================================
``rate_bps``          f8       current sending rate (0 for inactive rows)
``window_bits``       f8       congestion window (window kernels)
``alpha``             f8       EWMA congestion estimate (DCTCP / DCQCN)
``remaining_bits``    f8       bits left to deliver
``size_bits``         f8       original flow size
``start_ps``          f8       arrival time (fractional: completion-interpolated)
``bottleneck``        intp     index into the per-bottleneck arrays (as NumPy indexes)
``kernel``            i1       update-kernel code (:mod:`repro.cc.kernels`)
``active``            bool     row liveness mask
``flow_id``           i8       stable id (survives compaction)
====================  =======  ==================================================

Each :meth:`ColumnarFluidSolver.step` follows a *step plan* (row
selectors per kernel, per-flow bottlenecks and line rates, config
constants, scratch columns; built once per row layout) and does only
what the kernels present read, in place, all O(flows) NumPy:

1. **aggregate** — per-bottleneck offered load via ``np.bincount`` over
   the flow->bottleneck column; active-flow counts only for the ideal
   kernel or telemetry, the queue-inflated RTT and its derivatives only
   for window kernels — computed per bottleneck, gathered per flow;
2. **mark** — per-bottleneck queue integration (``q += (offered-C)*dt``)
   and DCTCP-style step marking (``mark = q > K``);
3. **update** — vectorized per-CC kernels (ideal constant share,
   slow-start doubling / AIMD, DCTCP alpha filter + proportional window
   cut, DCQCN line-rate decay/recovery) written with ``out=``: through
   a slice when one kernel owns every row, on gathered copies scattered
   back when kernels are mixed; ``active`` masks only while rows are dead.

The arithmetic is pinned bit for bit (golden digests in the tests, the
ledger's ``stats_digest``): see "Fluid step cost" in docs/PERFORMANCE.md.

Flows arrive (:meth:`~ColumnarFluidSolver.add_flows`) and depart
(completion) dynamically; completed rows are recycled in closed-loop
mode or left dead and periodically compacted away in open-loop mode, so
long campaigns stay O(live flows) in memory.  Everything is driven by
one ``numpy.random.Generator`` — the same seed replays bit-identical
state trajectories.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Sequence, Union

import numpy as np

from repro.cc.dcqcn import Dcqcn
from repro.cc.dctcp import Dctcp
from repro.cc.kernels import (
    KERNEL_DCQCN,
    KERNEL_DCTCP,
    KERNEL_IDEAL,
    KERNEL_SLOW_START,
    fluid_kernel,
)
from repro.errors import ConfigError
from repro.units import BITS_PER_BYTE, MICROSECOND, RATE_100G, SECOND, US
from repro.workload.distributions import SizeDistribution

__all__ = [
    "SolverConfig",
    "ColumnarFluidSolver",
    "SolverRunResult",
    "SolverTelemetry",
    "kernel_for_profile",
]


def kernel_for_profile(profile) -> int:
    """Kernel code for a :class:`~repro.fluid.model.FluidCcProfile`.

    Maps on the profile's *startup* shape (the property the closed-form
    model distinguishes algorithms by), else on its name.
    """
    startup = getattr(profile, "startup", None)
    if startup == "constant":
        return KERNEL_IDEAL
    if startup == "line_rate_decay":
        return KERNEL_DCQCN
    if startup == "slow_start":
        return KERNEL_DCTCP
    return fluid_kernel(profile.name)


# The model's CC constants.  DCTCP's gain and DCQCN's alpha-timer period
# are the packet-level modules' declared defaults; the others are the
# fluid model's own.
DCTCP_GAIN = Dctcp.params["g"].default
DCQCN_ALPHA_PERIOD_PS = Dcqcn.params["alpha_timer_ps"].default
#: DCQCN alpha gain: 1/16, where the packet-level ``Dcqcn`` declares 1/256.
DCQCN_ALPHA_GAIN = 0.0625
#: Segment size: 1,000 B, where the packet level sends 1,024 B templates.
MSS_BYTES = 1000
#: DCQCN rate-cut period: at packet level a cut is one CNP, paced by
#: ``TestConfig.cnp_interval_ps`` (also 50 us) and only while marked.
DCQCN_CUT_PERIOD_PS = 50 * US
#: DCQCN recovery toward line rate as one time constant; the packet level
#: steps its fast-recovery/AI/HAI stages per rate timer and byte counter.
DCQCN_RECOVERY_TAU_PS = 120 * US
#: Propagation RTT added to the queueing delay; the packet level has no
#: such constant, its RTT is what its links and pipeline add up to.
BASE_RTT_PS = 6 * US
#: Marking threshold K per bottleneck: a fabric setting at packet level
#: (``run_sweep_point``'s default is the same 84,000 B), not a CC one.
ECN_THRESHOLD_BYTES = 84_000


@dataclass(frozen=True)
class SolverConfig:
    """Discretization of the columnar solver (its CC constants are the
    module constants above)."""

    #: Step size.  Must resolve the fastest dynamics of interest (the
    #: effective RTT); FCTs are completion-interpolated, so the *ideal*
    #: kernel is exact at any dt.
    dt_ps: int = 5 * US
    #: Window cap in bottleneck BDPs (keeps slow start from overflowing
    #: float range while the queue-inflated RTT catches up).
    max_window_bdp: float = 8.0
    #: Rate floor so rate-mode flows can always finish.
    min_rate_bps: float = 10e6
    #: Compaction policy: compact when rows exceed ``compact_slack``
    #: times the active population (and at least ``compact_min_rows``).
    compact_min_rows: int = 4096
    compact_slack: float = 2.0

    def validate(self) -> None:
        # The step divides by dt and (through the window cap)
        # max_window_bdp; its plan precomputes those ratios.
        for name in ("dt_ps", "max_window_bdp", "min_rate_bps", "compact_min_rows"):
            if not getattr(self, name) > 0:
                raise ConfigError(
                    f"{name} must be positive, got {getattr(self, name)}"
                )
        if not self.compact_slack > 1.0:
            raise ConfigError("compact_slack must exceed 1.0")


@dataclass(frozen=True)
class SolverRunResult:
    """Completion log of a solver run (columnar, completion-ordered)."""

    fcts_us: np.ndarray
    sizes_bytes: np.ndarray
    flow_ids: np.ndarray
    sim_time_ps: float
    steps: int
    flow_steps: int


class SolverTelemetry:
    """Vectorized per-step timeseries of per-bottleneck aggregates.

    Opt-in via :meth:`ColumnarFluidSolver.enable_telemetry`.  Each
    sampled step appends one row of per-bottleneck values — standing
    queue (bytes), offered load (bps), step-marking indicator, active
    flow counts — plus the step's completion count, into preallocated
    NumPy arrays grown by doubling, so sampling a million-flow run adds
    a handful of O(n_bottlenecks) copies per step and never touches the
    per-flow columns.  ``sample_every=k`` keeps every k-th step.
    """

    def __init__(
        self, n_bottlenecks: int, *, sample_every: int = 1, capacity_hint: int = 1024
    ) -> None:
        if sample_every < 1:
            raise ConfigError(f"sample_every must be >= 1, got {sample_every}")
        self.n_bottlenecks = n_bottlenecks
        self.sample_every = sample_every
        self._step_counter = 0
        self._len = 0
        cap = max(16, int(capacity_hint))
        self._time_ps = np.zeros(cap, dtype=np.float64)
        self._queue_bytes = np.zeros((cap, n_bottlenecks), dtype=np.float64)
        self._offered_bps = np.zeros((cap, n_bottlenecks), dtype=np.float64)
        self._mark = np.zeros((cap, n_bottlenecks), dtype=np.float64)
        self._active_flows = np.zeros((cap, n_bottlenecks), dtype=np.float64)
        self._completions = np.zeros(cap, dtype=np.int64)

    def __len__(self) -> int:
        return self._len

    def _grow(self) -> None:
        for name in (
            "_time_ps", "_queue_bytes", "_offered_bps",
            "_mark", "_active_flows", "_completions",
        ):
            old = getattr(self, name)
            new = np.zeros((old.shape[0] * 2,) + old.shape[1:], dtype=old.dtype)
            new[: self._len] = old[: self._len]
            setattr(self, name, new)

    def sample(self, time_ps, queue_bits, offered_bps, mark, counts, completed) -> None:
        """Record one step (honouring ``sample_every``); driven by the solver."""
        due = self._step_counter % self.sample_every == 0
        self._step_counter += 1
        if not due:
            return
        if self._len == self._time_ps.shape[0]:
            self._grow()
        i = self._len
        self._time_ps[i] = time_ps
        self._queue_bytes[i] = queue_bits
        self._queue_bytes[i] /= BITS_PER_BYTE
        self._offered_bps[i] = offered_bps
        self._mark[i] = mark
        self._active_flows[i] = counts
        self._completions[i] = completed
        self._len = i + 1

    def arrays(self) -> dict[str, np.ndarray]:
        """Trimmed views of the sampled series (no copies)."""
        n = self._len
        return {
            "time_ps": self._time_ps[:n],
            "queue_bytes": self._queue_bytes[:n],
            "offered_bps": self._offered_bps[:n],
            "mark": self._mark[:n],
            "active_flows": self._active_flows[:n],
            "completions": self._completions[:n],
        }

    def save(self, path) -> None:
        """Write the series as a compressed ``.npz`` archive."""
        np.savez_compressed(path, **self.arrays())


class _StepPlan:
    """What ``_step_once`` needs that depends on the row layout or the
    config but not on the step.  Built by the first step after the layout
    changed and dropped by ``add_flows`` / ``compact``, the only places
    rows appear or move — so it may hold views of the columns."""

    def __init__(self, solver: "ColumnarFluidSolver") -> None:
        cfg = solver.config
        n = solver._n
        self.dt_s = cfg.dt_ps / SECOND
        self.base_rtt_s = BASE_RTT_PS / SECOND
        self.k_bits = ECN_THRESHOLD_BYTES * BITS_PER_BYTE
        self.mss_bits = MSS_BYTES * BITS_PER_BYTE
        self.alpha_ratio = cfg.dt_ps / DCQCN_ALPHA_PERIOD_PS
        self.cut_ratio = cfg.dt_ps / DCQCN_CUT_PERIOD_PS
        self.bdp_b = cfg.max_window_bdp * solver.capacity_bps
        bot = solver.bottleneck[:n]
        self.columns = (
            solver.active[:n], bot, solver.rate_bps[:n], solver.window_bits[:n],
            solver.alpha[:n], solver.remaining_bits[:n],
        )
        codes = solver.kernel[:n]
        present = np.flatnonzero(np.bincount(codes)).tolist()
        #: Mixed kernels select rows by index array: gathers copy and
        #: results are scattered back.  A single-kernel population (the
        #: usual campaign case) is one slice, every gather a view.
        self.scatter = len(present) > 1
        rows = [
            np.flatnonzero(codes == code) if self.scatter else slice(0, n)
            for code in present
        ]
        per_flow = [bot[idx] for idx in rows]
        # Scratch every step reuses in place of temporaries: one whole
        # column, and three as wide as the largest kernel.
        self.delivered = np.empty(n)
        self.mark_b = np.empty(solver.n_bottlenecks)
        scratch = np.empty((3, max(b.size for b in per_flow)))
        #: code -> (rows, their bottlenecks, their line rates [DCQCN], scratch).
        self.kernels = {
            code: (
                idx, b, solver.capacity_bps[b] if code == KERNEL_DCQCN else None,
                *scratch[:, : b.size],
            )
            for code, idx, b in zip(present, rows, per_flow)
        }
        self.window_kernels = [
            item for item in self.kernels.items()
            if item[0] in (KERNEL_SLOW_START, KERNEL_DCTCP)
        ]


class ColumnarFluidSolver:
    """Dynamic many-flow fluid model over shared bottlenecks.

    ``capacity_bps`` is a scalar (uniform ports) or one value per
    bottleneck.  Flows are added with :meth:`add_flows` and advanced
    with :meth:`step`; :meth:`run_closed_loop` keeps the population
    constant (a completion immediately respawns a new flow in the same
    slot with a freshly sampled size) until enough FCTs are collected —
    the regime of the paper's Figure 10 comprehensive test.
    """

    def __init__(
        self,
        *,
        n_bottlenecks: int = 1,
        capacity_bps: Union[float, Sequence[float]] = RATE_100G,
        config: Optional[SolverConfig] = None,
        seed: int = 0,
        capacity_hint: int = 1024,
    ) -> None:
        if n_bottlenecks <= 0:
            raise ConfigError(f"n_bottlenecks must be positive, got {n_bottlenecks}")
        self.config = config if config is not None else SolverConfig()
        self.config.validate()
        capacity = np.asarray(capacity_bps, dtype=np.float64)
        if capacity.ndim == 0:
            capacity = np.full(n_bottlenecks, float(capacity), dtype=np.float64)
        if capacity.shape != (n_bottlenecks,):
            raise ConfigError(
                f"capacity_bps must be scalar or length {n_bottlenecks}, "
                f"got shape {capacity.shape}"
            )
        if np.any(capacity <= 0):
            raise ConfigError("every bottleneck capacity must be positive")
        self.n_bottlenecks = n_bottlenecks
        self.capacity_bps = capacity
        self.queue_bits = np.zeros(n_bottlenecks, dtype=np.float64)
        self.seed = seed
        self.rng = np.random.default_rng(seed)
        self.now_ps: float = 0.0
        self.steps_run = 0
        #: Sum over steps of the live-flow count — the bench unit.
        self.flow_steps = 0
        self.flows_added = 0
        self.flows_completed = 0
        #: Times :meth:`compact` actually freed rows.
        self.compactions = 0
        #: Opt-in per-step telemetry (see :meth:`enable_telemetry`);
        #: None keeps the step loop free of sampling entirely.
        self._telemetry: Optional[SolverTelemetry] = None
        #: Opt-in :class:`repro.obs.flight.FlightRecorder` (rare events
        #: only: compactions).
        self._flight = None

        rows = max(16, int(capacity_hint))
        self._n = 0  # rows in use (live region: [0, _n))
        self._alloc(rows)
        self._n_active = 0
        self._next_flow_id = 0
        self._plan: Optional[_StepPlan] = None
        #: Closed-loop respawn source (None = open loop: flows depart).
        self._respawn: Optional[SizeDistribution] = None
        # Completion log: per-step arrays, concatenated on demand.
        self._done_fct_ps: list[np.ndarray] = []
        self._done_bytes: list[np.ndarray] = []
        self._done_ids: list[np.ndarray] = []

    # -- storage ---------------------------------------------------------------

    def _alloc(self, rows: int) -> None:
        self._cap = rows
        self.rate_bps = np.zeros(rows, dtype=np.float64)
        self.window_bits = np.zeros(rows, dtype=np.float64)
        self.alpha = np.zeros(rows, dtype=np.float64)
        self.remaining_bits = np.zeros(rows, dtype=np.float64)
        self.size_bits = np.zeros(rows, dtype=np.float64)
        self.start_ps = np.zeros(rows, dtype=np.float64)
        self.bottleneck = np.zeros(rows, dtype=np.intp)
        self.kernel = np.zeros(rows, dtype=np.int8)
        self.active = np.zeros(rows, dtype=bool)
        self.flow_id = np.zeros(rows, dtype=np.int64)

    _COLUMNS = (
        "rate_bps", "window_bits", "alpha", "remaining_bits", "size_bits",
        "start_ps", "bottleneck", "kernel", "active", "flow_id",
    )

    def _grow(self, need: int) -> None:
        rows = self._cap
        while rows < need:
            rows *= 2
        old = {name: getattr(self, name) for name in self._COLUMNS}
        n = self._n
        self._alloc(rows)
        for name, column in old.items():
            getattr(self, name)[:n] = column[:n]

    @property
    def n_rows(self) -> int:
        """Rows in use, live or dead (dead rows await compaction)."""
        return self._n

    @property
    def n_active(self) -> int:
        """Currently live flows."""
        return self._n_active

    # -- population ------------------------------------------------------------

    def add_flows(
        self,
        sizes_bytes: Union[Sequence[int], np.ndarray],
        *,
        bottleneck: Union[int, Sequence[int], np.ndarray] = 0,
        kernel: Union[int, str] = "dctcp",
        start_ps: Optional[float] = None,
    ) -> np.ndarray:
        """Append a batch of flows; returns their stable flow ids.

        ``bottleneck`` is a scalar or one index per flow; ``kernel`` is a
        code from :mod:`repro.cc.kernels` or an algorithm name.
        """
        sizes = np.asarray(sizes_bytes, dtype=np.float64)
        if sizes.ndim != 1 or sizes.size == 0:
            raise ConfigError("add_flows needs a non-empty 1-D size batch")
        if np.any(sizes <= 0):
            raise ConfigError("every flow size must be positive")
        code = fluid_kernel(kernel) if isinstance(kernel, str) else int(kernel)
        if not 0 <= code <= KERNEL_DCQCN:
            raise ConfigError(f"unknown fluid kernel code {code}")
        bot = np.asarray(bottleneck, dtype=np.intp)
        if bot.ndim == 0:
            bot = np.full(sizes.size, int(bot), dtype=np.intp)
        if bot.shape != sizes.shape:
            raise ConfigError("bottleneck must be scalar or one index per flow")
        if np.any(bot < 0) or np.any(bot >= self.n_bottlenecks):
            raise ConfigError(
                f"bottleneck indices must be in [0, {self.n_bottlenecks})"
            )
        k = sizes.size
        if self._n + k > self._cap:
            self._grow(self._n + k)
        rows = slice(self._n, self._n + k)
        mss_bits = MSS_BYTES * BITS_PER_BYTE
        self.size_bits[rows] = sizes * BITS_PER_BYTE
        self.remaining_bits[rows] = self.size_bits[rows]
        self.start_ps[rows] = self.now_ps if start_ps is None else float(start_ps)
        self.bottleneck[rows] = bot
        self.kernel[rows] = code
        self.active[rows] = True
        self.alpha[rows] = 0.0
        self.window_bits[rows] = mss_bits
        # Rate kernels start at line rate (DCQCN's defining behaviour);
        # window/ideal kernels derive their rate inside the next step.
        if code == KERNEL_DCQCN:
            self.rate_bps[rows] = self.capacity_bps[bot]
        else:
            self.rate_bps[rows] = 0.0
        ids = np.arange(self._next_flow_id, self._next_flow_id + k, dtype=np.int64)
        self.flow_id[rows] = ids
        self._next_flow_id += k
        self._n += k
        self._n_active += k
        self.flows_added += k
        self._plan = None
        return ids

    def compact(self) -> int:
        """Drop dead rows, preserving live-row order; returns rows freed.

        Stable ids, completion logs, and all live per-flow state are
        unaffected — only the physical row numbering changes.
        """
        n = self._n
        live = np.flatnonzero(self.active[:n])
        freed = n - live.size
        if freed == 0:
            return 0
        for name in self._COLUMNS:
            column = getattr(self, name)
            column[: live.size] = column[live]
        self._n = live.size
        self._plan = None
        self.compactions += 1
        if self._flight is not None:
            self._flight.record(
                int(self.now_ps), "solver", "compact",
                freed=int(freed), live=int(live.size),
            )
        return freed

    def _maybe_compact(self) -> None:
        if (
            self._respawn is None
            and self._n >= self.config.compact_min_rows
            and self._n > self.config.compact_slack * max(self._n_active, 1)
        ):
            self.compact()

    # -- the step loop ---------------------------------------------------------

    def step(self, n_steps: int = 1) -> None:
        """Advance the model ``n_steps`` ticks of ``config.dt_ps``."""
        for _ in range(n_steps):
            self._step_once()

    def enable_telemetry(
        self, *, sample_every: int = 1, capacity_hint: int = 1024
    ) -> SolverTelemetry:
        """Attach per-step aggregate sampling (opt-in; see
        :class:`SolverTelemetry`).  Sampling only *reads* model state, so
        a telemetered run stays bit-identical to an untelemetered one."""
        self._telemetry = SolverTelemetry(
            self.n_bottlenecks,
            sample_every=sample_every,
            capacity_hint=capacity_hint,
        )
        return self._telemetry

    def disable_telemetry(self) -> None:
        self._telemetry = None

    @property
    def telemetry(self) -> Optional[SolverTelemetry]:
        return self._telemetry

    def _step_once(self) -> None:
        cfg = self.config
        n = self._n
        if n == 0:
            if self._telemetry is not None:
                zeros = np.zeros(self.n_bottlenecks)
                self._telemetry.sample(
                    self.now_ps, self.queue_bits, zeros, zeros, zeros, 0
                )
            self.now_ps += cfg.dt_ps
            self.steps_run += 1
            return
        plan = self._plan
        if plan is None:
            plan = self._plan = _StepPlan(self)
        dt_s = plan.dt_s
        mss_bits = plan.mss_bits
        capacity = self.capacity_bps
        queue = self.queue_bits
        active, bot, rate, window, alpha, remaining = plan.columns
        kernels = plan.kernels
        scatter = plan.scatter
        # Dead rows exist only in open loop, between a retirement and the
        # next compaction; without one the mask is all ones (x * 1.0 == x).
        masked = self._n_active < n

        # (1) per-bottleneck aggregates, each only if a present kernel
        # reads it (RTT with the standing queue, step as a fraction of it,
        # slow-start growth factor, window cap; fair share), and the
        # rates they set: computed per bottleneck, gathered per flow.
        counts = None
        if KERNEL_IDEAL in kernels or self._telemetry is not None:
            counts = np.bincount(
                bot, weights=active if masked else None,
                minlength=self.n_bottlenecks,
            )
        if plan.window_kernels:
            rtt_b = plan.base_rtt_s + queue / capacity
            inv_rtt_b = 1.0 / rtt_b
            r_b = dt_s * inv_rtt_b
            exp2_r_b = np.exp2(r_b)
            window_cap_b = plan.bdp_b * rtt_b
        for code, (idx, b, _, m, *_) in kernels.items():
            if code == KERNEL_DCQCN:  # keeps its own rate state
                continue
            out = m if scatter else rate
            if code == KERNEL_IDEAL:
                (capacity / np.maximum(counts, 1.0)).take(b, out=out, mode="clip")
            else:
                inv_rtt_b.take(b, out=m, mode="clip")
                np.multiply(window[idx], m, out=out)
            if masked:
                np.multiply(out, active[idx], out=out)
            if scatter:
                rate[idx] = out

        # (2) offered load, service share, and queue/marking update.
        offered = np.bincount(bot, weights=rate, minlength=self.n_bottlenecks)
        share_dt = np.minimum(1.0, capacity / np.maximum(offered, 1e-9)) * dt_s
        delivered = plan.delivered
        share_dt.take(bot, out=delivered, mode="clip")
        np.multiply(rate, delivered, out=delivered)
        np.subtract(remaining, delivered, out=remaining)
        queue += (offered - capacity) * dt_s
        np.maximum(queue, 0.0, out=queue)
        mark_b = np.greater(queue, plan.k_bits, out=plan.mark_b)

        # (3) per-CC update kernels, in place on the columns (on gathered
        # copies, scattered back, when kernels are mixed).
        for code, (idx, b, _, m, r, t) in plan.window_kernels:
            mark_b.take(b, out=m, mode="clip")
            r_b.take(b, out=r, mode="clip")  # step fraction of this flow's RTT
            a = alpha[idx]
            w = window[idx]
            if code == KERNEL_DCTCP:
                np.subtract(m, a, out=t)
                t *= DCTCP_GAIN
                t *= r
                a += t
                np.multiply(a, 0.5, out=t)
                t *= m
            else:
                # The generic window kernel reuses the alpha column as an
                # ever-marked latch: one mark ends slow start for good.
                np.maximum(a, m, out=a)
                np.multiply(m, 0.5, out=t)
            t *= r
            np.subtract(1.0, t, out=t)  # the multiplicative cut
            # Slow-start doubling while the path has never pushed back
            # (alpha ~ 0 and unmarked); congestion-avoidance AI after.
            in_ss = (m == 0.0) & (a < 1e-3)
            t *= w
            r *= mss_bits
            t += r
            exp2_r_b.take(b, out=r, mode="clip")
            r *= w
            np.copyto(t, r, where=in_ss)
            np.maximum(t, mss_bits, out=t)
            window_cap_b.take(b, out=r, mode="clip")
            np.minimum(t, r, out=w)
            if scatter:
                alpha[idx] = a
                window[idx] = w
        if KERNEL_DCQCN in kernels:
            idx, b, line_rate, m, _, t = kernels[KERNEL_DCQCN]
            mark_b.take(b, out=m, mode="clip")
            a = alpha[idx]
            rr = rate[idx]
            np.subtract(m, a, out=t)
            t *= DCQCN_ALPHA_GAIN
            t *= plan.alpha_ratio
            a += t
            np.multiply(a, 0.5, out=t)
            t *= m
            t *= plan.cut_ratio
            np.subtract(1.0, t, out=t)
            t *= rr  # the decayed rate
            recover_b = (1.0 - mark_b) * cfg.dt_ps / DCQCN_RECOVERY_TAU_PS
            recover_b.take(b, out=m, mode="clip")
            np.subtract(line_rate, rr, out=rr)
            rr *= m
            np.add(t, rr, out=rr)
            np.maximum(rr, cfg.min_rate_bps, out=rr)
            np.minimum(rr, line_rate, out=rr)
            if masked:
                np.multiply(rr, active[idx], out=rr)
            if scatter:
                alpha[idx] = a
                rate[idx] = rr

        # (4) completions: interpolate within the step for exact FCTs,
        # then recycle (closed loop) or retire (open loop) the rows.
        finished = remaining <= 0.0
        if masked:
            finished &= active
        done = np.flatnonzero(finished)
        if done.size:
            overshoot = -remaining[done] / np.maximum(delivered[done], 1e-30)
            finish_ps = self.now_ps + cfg.dt_ps * (1.0 - np.minimum(overshoot, 1.0))
            self._done_fct_ps.append(finish_ps - self.start_ps[:n][done])
            self._done_bytes.append(self.size_bits[:n][done] / BITS_PER_BYTE)
            self._done_ids.append(self.flow_id[:n][done].copy())
            self.flows_completed += done.size
            if self._respawn is not None:
                sizes = self._respawn_sizes(done.size)
                self.size_bits[:n][done] = sizes * BITS_PER_BYTE
                remaining[done] = sizes * BITS_PER_BYTE
                self.start_ps[:n][done] = finish_ps
                # A respawn is a new logical flow: fresh stable id.
                self.flow_id[:n][done] = np.arange(
                    self._next_flow_id,
                    self._next_flow_id + done.size,
                    dtype=np.int64,
                )
                self._next_flow_id += done.size
                self.flows_added += done.size
                alpha[done] = 0.0
                window[done] = mss_bits
                is_dcqcn = self.kernel[:n][done] == KERNEL_DCQCN
                rate[done] = np.where(
                    is_dcqcn, capacity[bot[done]], 0.0
                )
            else:
                active[done] = False
                rate[done] = 0.0
                remaining[done] = 0.0
                self._n_active -= done.size

        if self._telemetry is not None:
            # Post-update aggregates: the state the *next* step will see,
            # except counts/offered which are this step's aggregation
            # pass (pre-completion) — documented in docs/OBSERVABILITY.md.
            self._telemetry.sample(
                self.now_ps, self.queue_bits, offered, mark_b, counts,
                int(done.size),
            )

        self.now_ps += cfg.dt_ps
        self.steps_run += 1
        self.flow_steps += self._n_active
        self._maybe_compact()

    def _respawn_sizes(self, k: int) -> np.ndarray:
        source = self._respawn
        if hasattr(source, "sample_many"):
            return source.sample_many(self.rng, k).astype(np.float64)
        return np.array(
            [source.sample_bytes(self.rng) for _ in range(k)], dtype=np.float64
        )

    # -- results ---------------------------------------------------------------

    def completions(self) -> SolverRunResult:
        """Everything completed so far, in completion order."""
        if self._done_fct_ps:
            fct_ps = np.concatenate(self._done_fct_ps)
            sizes = np.concatenate(self._done_bytes)
            ids = np.concatenate(self._done_ids)
        else:
            fct_ps = np.empty(0)
            sizes = np.empty(0)
            ids = np.empty(0, dtype=np.int64)
        return SolverRunResult(
            fcts_us=fct_ps / MICROSECOND,
            sizes_bytes=sizes,
            flow_ids=ids,
            sim_time_ps=self.now_ps,
            steps=self.steps_run,
            flow_steps=self.flow_steps,
        )

    def run_closed_loop(
        self,
        distribution: SizeDistribution,
        *,
        flows_total: int,
        max_steps: Optional[int] = None,
    ) -> SolverRunResult:
        """Step under closed-loop replacement until ``flows_total`` FCTs.

        Every completion immediately respawns a new flow in the same
        slot (constant per-bottleneck population — the closed-loop
        invariant of the paper's comprehensive test), with its size
        drawn from ``distribution`` under the solver's seeded RNG.
        """
        if flows_total <= 0:
            raise ConfigError(f"flows_total must be positive, got {flows_total}")
        if self._n_active == 0:
            raise ConfigError("seed the population with add_flows first")
        self._respawn = distribution
        try:
            steps = 0
            while self.flows_completed < flows_total:
                self._step_once()
                steps += 1
                if max_steps is not None and steps >= max_steps:
                    break
        finally:
            self._respawn = None
        result = self.completions()
        return SolverRunResult(
            fcts_us=result.fcts_us[:flows_total],
            sizes_bytes=result.sizes_bytes[:flows_total],
            flow_ids=result.flow_ids[:flows_total],
            sim_time_ps=result.sim_time_ps,
            steps=result.steps,
            flow_steps=result.flow_steps,
        )
