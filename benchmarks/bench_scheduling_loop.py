"""Section 5.2 ablation: the rescheduling-event scheduling loop.

Demonstrates the properties the paper argues for:

* **uniqueness** — the scheduling FIFO never holds more than one event
  per flow, so its depth is bounded by the active flow count and cannot
  overflow;
* **no wasted scans** — with many flows but few schedulable, service
  ticks go to schedulable flows instead of cycling through unschedulable
  ones (the naive scan the paper rejects would waste most ticks);
* **fairness** — active flows get equal service;
* plus a raw performance number: simulated scheduler events per second
  of host time (this is the one bench where the *simulator's* speed is
  the quantity of interest).
"""

from conftest import print_header, print_table, run_once

from repro.cc.base import CCMode
from repro.fpga.flow import FlowState
from repro.fpga.scheduler import PortScheduler, RESCHEDULE_LOOP_CYCLES
from repro.fpga.clock import cycles_to_ps
from repro.sim import Simulator
from repro.units import MS, US, serialization_time_ps, RATE_100G

TX_INTERVAL = serialization_time_ps(1024, RATE_100G)
N_FLOWS = 10_000
N_SCHEDULABLE = 16


def build_and_run(duration_ps):
    sim = Simulator()
    emitted = {}

    def emit(flow, psn, is_rtx):
        emitted[flow.flow_id] = emitted.get(flow.flow_id, 0) + 1

    scheduler = PortScheduler(sim, 0, TX_INTERVAL, CCMode.WINDOW, emit)
    flows = []
    for i in range(N_FLOWS):
        # Only the first N_SCHEDULABLE flows have an open window.
        cwnd = 1e9 if i < N_SCHEDULABLE else 1.0
        flow = FlowState(
            flow_id=i,
            port_index=0,
            src_addr=1,
            dst_addr=2,
            size_packets=10**9,
            frame_bytes=1024,
            cwnd_or_rate=cwnd,
        )
        if i >= N_SCHEDULABLE:
            flow.nxt = flow.una + 1  # window full: not schedulable
        flows.append(flow)
        scheduler.enqueue_flow(flow)
    sim.run(until_ps=duration_ps)
    return scheduler, emitted


def test_scheduling_loop(benchmark):
    duration = 2 * MS
    scheduler, emitted = run_once(benchmark, lambda: build_and_run(duration))

    ticks = scheduler.ticks
    productive = sum(emitted.values())
    max_depth = scheduler.sched_fifo.max_depth
    print_header(
        "Section 5.2: rescheduling-loop scheduling",
        f"{N_FLOWS} flows enqueued, {N_SCHEDULABLE} schedulable, "
        f"{duration / MS:.0f} ms at 11.97 Mpps service rate",
    )
    counts = [emitted.get(i, 0) for i in range(N_SCHEDULABLE)]
    print_table(
        [
            {"metric": "service ticks", "value": ticks},
            {"metric": "SCHE emitted (productive ticks)", "value": productive},
            {
                "metric": "wasted-tick fraction",
                "value": f"{1 - productive / ticks:.4f}",
            },
            {"metric": "scheduling FIFO max depth", "value": max_depth},
            {
                "metric": "per-flow SCHE (min/max over schedulable)",
                "value": f"{min(counts)}/{max(counts)}",
            },
            {
                "metric": "reschedule loop latency vs TX period",
                "value": (
                    f"{cycles_to_ps(RESCHEDULE_LOOP_CYCLES)} ps << {TX_INTERVAL} ps"
                ),
            },
        ],
        ["metric", "value"],
    )

    # Uniqueness bounds the FIFO by the flow count.
    assert max_depth <= N_FLOWS
    # Unschedulable flows are descheduled after ONE look each; thereafter
    # every tick serves a schedulable flow.  Wasted ticks are therefore
    # at most the initial (N_FLOWS - N_SCHEDULABLE) scan, a one-time cost
    # — not a recurring one as in the naive cyclic scan.
    assert ticks - productive <= (N_FLOWS - N_SCHEDULABLE) + 1
    # Fairness across schedulable flows.
    assert max(counts) - min(counts) <= 1
    # The rescheduling loop fits comfortably within a TX period.
    assert cycles_to_ps(RESCHEDULE_LOOP_CYCLES) < TX_INTERVAL


def test_scheduler_event_rate(benchmark):
    """Raw simulator performance: scheduler events per host second."""

    def run():
        return build_and_run(1 * MS)

    scheduler, emitted = benchmark(run)
    assert scheduler.ticks > 0
