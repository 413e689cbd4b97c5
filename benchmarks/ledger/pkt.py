"""The two packet-level workloads and their layer decomposition.

``pkt_fanin_dcqcn`` times :func:`repro.core.sweep.run_sweep_point`, the
unit every packet campaign is made of: rate-based CC, three long-lived
flows into one ECN-marking bottleneck, CNPs and DCQCN timers.
``pkt_closedloop_dctcp`` is the paper's closed-loop traffic model at
packet level: window CC clocked by per-packet ACKs, 32 concurrent flows
with churn, and no ECN marks or CNPs.  The same layers, used differently
-- a gain bought on one path that costs the other shows.

The traced phase replays the op composed by hand from the same public
calls, with a span around each, and turns on ``sim.enable_profiling``
inside ``ControlPlane.run``.  Events do not nest, so the profiler's rows
partition callback time exactly; a row is *inclusive* of the synchronous
calls its callback makes (``Port.deliver`` carries the whole receive
chain).  Rows are summed by the ``repro`` sub-package that defines the
callback, and what is left of the run is the event loop.
"""

from __future__ import annotations

import dataclasses
import time
from typing import Any, Optional

import numpy as np

from repro import cc as cc_registry
from repro.cc import EventType, Flags, IntrinsicInput, TIMER_ALG_A, TIMER_ALG_B
from repro.core.config import TestConfig
from repro.core.control_plane import ControlPlane
from repro.core.sweep import SweepPoint, run_sweep_point, steady_state_flow_rates
from repro.measure.fairness import jain_index
from repro.net.device import Device
from repro.net.link import Link
from repro.net.packet import Packet
from repro.sim import Simulator
from repro.units import RATE_100G, ROCE_MTU_BYTES, US
from repro.workload import ClosedLoopGenerator, FlowSlot, hadoop

from .harness import Workload, digest
from .spans import NullRecorder, SpanRecorder

ECN_THRESHOLD_BYTES = 84_000

#: Eight DCQCN settings of near-equal cost (event counts within 2%).
#: ``--seed`` picks one, so the input varies with the seed while the
#: op's size does not -- a 1..8 Gbps grid varies op wall time by 40%,
#: which would drown a 10% bound in seed-to-seed spread.
FANIN_GRID = [{"rate_ai_bps": 4_000_000_000 + 100_000_000 * i} for i in range(8)]

#: ``repro`` sub-package of a callback -> the metric its time lands in.
_CALLBACK_METRIC = {
    "sim": "sim.timer_callback_s",
    "net": "net.callback_s",
    "pswitch": "pswitch.callback_s",
    "fpga": "fpga.callback_s",
}


class LayerProfiler:
    """``sim.enable_profiling()`` plug-in that keys rows by the callback
    function, so they can be summed by the module that defines it."""

    clock = staticmethod(time.perf_counter)

    def __init__(self) -> None:
        self._table: dict[Any, list] = {}

    def record(self, fn: Any, seconds: float) -> None:
        key = getattr(fn, "__func__", fn)
        cell = self._table.get(key)
        if cell is None:
            self._table[key] = [1, seconds]
        else:
            cell[0] += 1
            cell[1] += seconds

    def rows(self) -> list[tuple[str, str, int, float]]:
        """``(callback, metric, calls, seconds)``, hottest first."""
        rows = []
        for fn, (calls, seconds) in self._table.items():
            parts = getattr(fn, "__module__", "").split(".")
            package = parts[1] if len(parts) > 1 and parts[0] == "repro" else ""
            metric = _CALLBACK_METRIC.get(package, "other.callback_s")
            name = getattr(fn, "__qualname__", repr(fn))
            rows.append((name, metric, calls, seconds))
        return sorted(rows, key=lambda row: row[3], reverse=True)


@dataclasses.dataclass
class Composed:
    """One hand-composed op: the deployed model and what it read out."""

    cp: ControlPlane
    #: The op's simulated results, as hashed into ``stats_digest``.
    results: dict[str, Any]
    counters: dict[str, int]
    flows_started: int


class PacketWorkload(Workload):
    """Shared skeleton: compose, check conservation, decompose."""

    work_unit = "DATA pkts"
    algorithm = ""
    n_test_ports = 4
    duration_ps = 0

    def __init__(self, seed: int, sim_backend: str, quick: bool) -> None:
        super().__init__(seed, sim_backend, quick)
        self.reference: Optional[Composed] = None
        self.reference_digest = ""
        self.invariants_ok = False

    # -- the op, composed from public calls ------------------------------------

    def cc_params(self) -> dict[str, Any]:
        return {}

    def start_traffic(self, cp: ControlPlane) -> Any:
        raise NotImplementedError

    def read_out(self, cp: ControlPlane, traffic: Any) -> tuple[dict[str, Any], int]:
        """``(simulated results, flows started)``; the counters are read
        by the caller inside the same span."""
        raise NotImplementedError

    def compose(self, rec: Any, profiler: Optional[LayerProfiler] = None) -> Composed:
        with rec.span("op"):
            with rec.span("core.deploy"):
                cp = ControlPlane(sim_backend=self.sim_backend)
                cp.deploy(
                    TestConfig(
                        cc_algorithm=self.algorithm,
                        n_test_ports=self.n_test_ports,
                        cc_params=self.cc_params(),
                        seed=self.seed,
                    )
                )
            with rec.span("net.wire"):
                cp.wire_loopback_fabric(ecn_threshold_bytes=ECN_THRESHOLD_BYTES)
            with rec.span("fpga.start_flows"):
                traffic = self.start_traffic(cp)
            if profiler is not None:
                cp.sim.enable_profiling(profiler)
            with rec.span("sim.run"):
                cp.run(self.duration_ps)
            with rec.span("measure.read"):
                counters = cp.read_measurements()
                results, flows_started = self.read_out(cp, traffic)
        return Composed(cp, results, counters, flows_started)

    # -- harness interface -----------------------------------------------------

    def setup(self) -> None:
        self.reference = self.compose(NullRecorder())
        self.reference_digest = digest(self.reference.results)
        self.invariants_ok = not self.broken_invariants(self.reference)

    def op_digest(self, payload: Any) -> str:
        raise NotImplementedError

    def check(self, index: int, payload: Any) -> tuple[bool, float]:
        # The simulator is deterministic: an op whose results hash like
        # the reference did the reference's work and shares its counters.
        assert self.reference is not None
        same = self.op_digest(payload) == self.reference_digest
        work = self.reference.counters["switch.data_generated"]
        return same and self.invariants_ok, work

    def stats_digest(self) -> str:
        assert self.reference is not None
        return digest(
            {"results": self.reference.results, "counters": self.reference.counters}
        )

    def broken_invariants(self, composed: Composed) -> list[str]:
        """Packet conservation up to what is in flight at the stop time."""
        c = composed.counters
        broken = []
        if min(c.values()) < 0:
            broken.append("negative counter")
        if not (
            c["switch.data_generated"]
            <= c["switch.sche_accepted"]
            <= c["fpga.sche_emitted"]
        ):
            broken.append("data_generated <= sche_accepted <= sche_emitted")
        if c["switch.acks_generated"] > c["switch.data_generated"]:
            broken.append("acks_generated <= data_generated")
        if c["fpga.infos_processed"] > c["switch.infos_generated"]:
            broken.append("infos_processed <= infos_generated")
        fabric = composed.cp.fabric
        assert fabric is not None
        for port in fabric.ports:
            sent_bps = port.queue.stats.dequeued_bytes * 8 * 1e12 / self.duration_ps
            if sent_bps > port.rate_bps:
                broken.append(f"{port.name} throughput <= line rate")
        return broken

    # -- traced phase ----------------------------------------------------------

    def traced(self, rec: SpanRecorder, op_wall_p50: float) -> tuple[float, list[str]]:
        assert self.reference is not None
        profiler = LayerProfiler()
        composed = self.compose(rec, profiler)
        failed = self.broken_invariants(composed)
        if digest(composed.results) != self.reference_digest:
            failed.append("replay digest equals measured digest")

        (op_index,) = rec.find("op")
        op_wall = rec.spans[op_index].duration
        run_s = rec.total("sim.run")
        layer = self.layer
        layer["core.deploy_s"] = rec.total("core.deploy")
        layer["net.wire_s"] = rec.total("net.wire")
        layer["fpga.start_flows_s"] = rec.total("fpga.start_flows")
        layer["sim.run_s"] = run_s
        layer["measure.read_s"] = rec.total("measure.read")
        if rec.self_time(op_index) > 0.02 * op_wall:
            failed.append("phase spans sum to the traced op wall within 2%")

        callback_s = {metric: 0.0 for metric in _CALLBACK_METRIC.values()}
        callback_s["other.callback_s"] = 0.0
        calls = dict.fromkeys(callback_s, 0)
        rows = profiler.rows()
        for _, metric, n_calls, seconds in rows:
            callback_s[metric] += seconds
            calls[metric] += n_calls
        layer.update(callback_s)
        for metric in ("net", "pswitch", "fpga"):
            layer[f"{metric}.callback_calls"] = calls[f"{metric}.callback_s"]
        layer["sim.loop_s"] = run_s - sum(callback_s.values())
        self.extra["profile_rows"] = [
            {"callback": name, "metric": metric, "calls": n_calls, "seconds": seconds}
            for name, metric, n_calls, seconds in rows[:16]
        ]

        c = composed.counters
        events = composed.cp.sim.events_executed
        data = c["switch.data_generated"]
        layer["sim.events"] = events
        layer["sim.events_per_data_pkt"] = events / data
        for name in (
            "sche_accepted", "data_generated", "acks_generated",
            "infos_generated", "cnps_generated", "sche_dropped",
        ):
            layer[f"pswitch.{name}"] = c[f"switch.{name}"]
        for name in (
            "sche_emitted", "infos_processed", "timeouts_fired",
            "rmw_conflicts", "rx_fifo_drops", "flows_completed",
        ):
            layer[f"fpga.{name}"] = c[f"fpga.{name}"]
        tester = composed.cp.require_tester()
        ticks = sum(scheduler.ticks for scheduler in tester.nic.schedulers)
        layer["fpga.sched_ticks_per_sche"] = ticks / c["fpga.sche_emitted"]
        fabric = composed.cp.fabric
        assert fabric is not None
        queues = [port.queue.stats for port in fabric.ports]
        layer["net.fabric_tx_pkts"] = sum(q.dequeued_packets for q in queues)
        layer["net.ecn_marked_pkts"] = sum(q.ecn_marked_packets for q in queues)
        layer["net.dropped_pkts"] = sum(q.dropped_packets for q in queues)
        layer["net.peak_queue_bytes"] = max(q.max_backlog_bytes for q in queues)
        layer["workload.flows_started"] = composed.flows_started

        # Layer drives: a layer's public entry point, standalone, at the
        # op's own counts.  ``*_frac_est`` is drive cost x count over the
        # measured op's wall; the traced run is not used for shares
        # because profiling inflates the loop.
        scale = 10 if self.quick else 1
        loop_us = drive_loop(self.sim_backend, events // scale)
        layer["sim.loop_us_per_event"] = loop_us
        layer["sim.loop_frac_est"] = loop_us * 1e-6 * events / op_wall_p50
        layer["net.port_us_per_pkt"] = drive_port(self.sim_backend, 20_000 // scale)
        cc_events = c["fpga.infos_processed"] + c["fpga.timeouts_fired"]
        cc_us = drive_cc(
            self.algorithm,
            self.cc_params(),
            n_events=100_000 // scale,
            cnp_share=c["switch.cnps_generated"] / cc_events,
            timeout_share=c["fpga.timeouts_fired"] / cc_events,
        )
        layer["cc.events"] = cc_events
        layer["cc.us_per_event"] = cc_us
        layer["cc.frac_est"] = cc_us * 1e-6 * cc_events / op_wall_p50
        self.drive_extra(layer)
        return op_wall, failed

    def drive_extra(self, layer: dict[str, float]) -> None:
        pass


class FanInDcqcn(PacketWorkload):
    name = "pkt_fanin_dcqcn"
    algorithm = "dcqcn"
    n_senders = 3
    n_test_ports = n_senders + 1
    duration_ps = 1500 * US

    def cc_params(self) -> dict[str, Any]:
        return FANIN_GRID[self.seed % len(FANIN_GRID)]

    def start_traffic(self, cp: ControlPlane) -> Any:
        sampler = cp.require_tester().enable_rate_sampling(period_ps=500 * US)
        flow_ids = cp.start_flows(size_packets=10**9, pattern="fan_in")
        return sampler, flow_ids

    def read_out(self, cp: ControlPlane, traffic: Any) -> tuple[dict[str, Any], int]:
        sampler, flow_ids = traffic
        rates = steady_state_flow_rates(sampler)
        assert cp.fabric is not None
        point = SweepPoint(
            params=self.cc_params(),
            throughput_bps=sum(rates),
            fairness=jain_index(rates) if rates else 1.0,
            peak_queue_bytes=cp.fabric.ports[self.n_senders].queue.stats.max_backlog_bytes,
            flows_completed=len(cp.require_tester().fct),
        )
        return dataclasses.asdict(point), len(flow_ids)

    def op(self, index: int) -> SweepPoint:
        return run_sweep_point(
            self.algorithm,
            self.cc_params(),
            n_senders=self.n_senders,
            duration_ps=self.duration_ps,
            ecn_threshold_bytes=ECN_THRESHOLD_BYTES,
            seed=self.seed,
            sim_backend=self.sim_backend,
        )

    def op_digest(self, payload: SweepPoint) -> str:
        return digest(dataclasses.asdict(payload))

    def broken_invariants(self, composed: Composed) -> list[str]:
        broken = super().broken_invariants(composed)
        if not 0.0 < composed.results["fairness"] <= 1.0 + 1e-12:
            broken.append("Jain index in (0, 1]")
        return broken


class ClosedLoopDctcp(PacketWorkload):
    name = "pkt_closedloop_dctcp"
    algorithm = "dctcp"
    n_test_ports = 4
    duration_ps = 500 * US
    slots_per_port = 16

    def start_traffic(self, cp: ControlPlane) -> ClosedLoopGenerator:
        half = self.n_test_ports // 2
        slots = [
            FlowSlot(src, src + half)
            for src in range(half)
            for _ in range(self.slots_per_port)
        ]
        generator = ClosedLoopGenerator(
            cp.require_tester(), hadoop(), slots, rng=np.random.default_rng(self.seed)
        )
        generator.start()
        return generator

    def read_out(
        self, cp: ControlPlane, traffic: ClosedLoopGenerator
    ) -> tuple[dict[str, Any], int]:
        fct = cp.require_tester().fct
        results = {
            "fct_stats": dataclasses.asdict(fct.stats()),
            "fct_records": [dataclasses.astuple(record) for record in fct.records],
            "flows_started": traffic.flows_started,
        }
        return results, traffic.flows_started

    def op(self, index: int) -> Composed:
        return self.compose(NullRecorder())

    def op_digest(self, payload: Composed) -> str:
        return digest(payload.results)

    def drive_extra(self, layer: dict[str, float]) -> None:
        n = 2_000 if self.quick else 20_000
        distribution = hadoop()
        rng = np.random.default_rng(self.seed)
        start = time.perf_counter()
        for _ in range(n):
            distribution.sample_packets(rng, ROCE_MTU_BYTES)
        layer["workload.sample_us_per_flow"] = (time.perf_counter() - start) / n * 1e6


# -- layer drives --------------------------------------------------------------


def drive_loop(sim_backend: str, n_events: int) -> float:
    """us per event of the bare engine: ``n_events`` no-op events as 64
    self-rescheduling ``Simulator.after`` chains (a heap about as deep as
    a real run's).  Includes one push per event, which a real run pays
    inside its callbacks -- so this bounds the loop's share from above."""
    sim = Simulator(backend=sim_backend)

    def tick(period: int) -> None:
        sim.after(period, tick, period)

    for chain in range(64):
        sim.after(chain + 1, tick, 64 + chain)
    start = time.perf_counter()
    executed = sim.run(max_events=n_events)
    return (time.perf_counter() - start) / executed * 1e6


class _Sink(Device):
    def receive(self, packet: Packet, port: Any) -> None:
        pass


def drive_port(sim_backend: str, n_packets: int) -> float:
    """us per MTU packet through ``Port.send`` -> ``Link`` -> the peer's
    ``deliver`` into a sink: queue, transmitter and wire, two events."""
    sim = Simulator(backend=sim_backend)
    source, sink = _Sink(sim, "source"), _Sink(sim, "sink")
    port = source.add_port()
    Link(port, sink.add_port(), delay_ps=50_000)
    batch = [Packet("data", 1, 2, ROCE_MTU_BYTES) for _ in range(500)]
    start = time.perf_counter()
    for _ in range(n_packets // len(batch)):
        for packet in batch:
            port.send(packet)
        sim.run()
    return (time.perf_counter() - start) / n_packets * 1e6


def drive_cc(
    algorithm: str,
    params: dict[str, Any],
    *,
    n_events: int,
    cnp_share: float,
    timeout_share: float,
) -> float:
    """us per ``on_event`` over the workload's own mix of CNPs, timer
    expiries and plain ACKs (inputs are built before the clock starts)."""
    module = cc_registry.create(algorithm, **params)
    value = module.initial_cwnd_or_rate(RATE_100G)
    cust, slow = module.initial_cust(), module.initial_slow()
    n_cnp = round(cnp_share * n_events)
    n_timeout = round(timeout_share * n_events)
    kinds = ["cnp"] * n_cnp + ["timeout"] * n_timeout
    kinds += ["ack"] * (n_events - len(kinds))
    np.random.default_rng(0).shuffle(kinds)
    inputs = []
    for i, kind in enumerate(kinds):
        timeout = kind == "timeout"
        inputs.append(
            IntrinsicInput(
                evt_type=EventType.TIMEOUT if timeout else EventType.RX,
                psn=-1 if timeout else i,
                cwnd_or_rate=value,
                una=i,
                nxt=i + 16,
                flags=Flags(ack=not timeout, cnp=kind == "cnp"),
                prb_rtt=-1,
                tstamp=i * 100_000,
                timer_id=TIMER_ALG_A if i % 2 else TIMER_ALG_B,
            )
        )
    on_event = module.on_event
    start = time.perf_counter()
    for intr in inputs:
        on_event(intr, cust, slow)
    return (time.perf_counter() - start) / n_events * 1e6
