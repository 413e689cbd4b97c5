"""Bind model components into a :class:`MetricsRegistry`.

The model's hot paths already count everything interesting as plain
``int`` attributes (queue stats, FIFO stats, scheduler counters, pool
stats — readable "like hardware registers").  These helpers register
*lazy bindings* over those attributes: the registry stores a callable
and reads it at collection time, so instrumentation adds **zero**
instructions to the simulation hot path — which is what makes the
``obs_overhead`` bench and the determinism property test trivially
safe.

All helpers are idempotent (re-binding replaces the callable) and
return the registry for chaining.  ``instrument_control_plane`` is the
one-call entry point used by the CLI.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Optional

from repro.obs.metrics import MetricsRegistry

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.core.control_plane import ControlPlane
    from repro.core.tester import MarlinTester
    from repro.fpga.fifos import Fifo
    from repro.fpga.logger import QdmaLogger
    from repro.net.queue import DropTailQueue
    from repro.net.switch import NetworkSwitch
    from repro.net.packet import PacketPool
    from repro.sim.engine import Simulator


def instrument_engine(sim: "Simulator", registry: MetricsRegistry) -> MetricsRegistry:
    """Event-engine internals: dispatch/cancel counters and heap shape."""
    registry.bind("repro_sim_events_executed_total", lambda: sim.events_executed)
    registry.bind("repro_sim_events_cancelled_total", lambda: sim.events_cancelled)
    registry.bind("repro_sim_heap_compactions_total", lambda: sim.compactions)
    registry.bind("repro_sim_heap_entries", lambda: sim.pending_events, kind="gauge")
    registry.bind("repro_sim_heap_dead_entries", lambda: sim.dead_entries, kind="gauge")
    registry.bind("repro_sim_time_ps", lambda: sim.now, kind="gauge")
    return registry


def instrument_queue(
    queue: "DropTailQueue", registry: MetricsRegistry, **labels: str
) -> MetricsRegistry:
    """One output queue's enqueue/drop/ECN-mark registers."""
    stats = queue.stats
    registry.bind(
        "repro_queue_enqueued_packets_total", lambda: stats.enqueued_packets, **labels
    )
    registry.bind(
        "repro_queue_enqueued_bytes_total", lambda: stats.enqueued_bytes, **labels
    )
    registry.bind(
        "repro_queue_dropped_packets_total", lambda: stats.dropped_packets, **labels
    )
    registry.bind(
        "repro_queue_dropped_bytes_total", lambda: stats.dropped_bytes, **labels
    )
    registry.bind(
        "repro_queue_ecn_marked_packets_total",
        lambda: stats.ecn_marked_packets,
        **labels,
    )
    registry.bind(
        "repro_queue_backlog_bytes", lambda: queue.backlog_bytes, kind="gauge", **labels
    )
    registry.bind(
        "repro_queue_max_backlog_bytes",
        lambda: stats.max_backlog_bytes,
        kind="gauge",
        **labels,
    )
    return registry


def instrument_network_switch(
    switch: "NetworkSwitch", registry: MetricsRegistry
) -> MetricsRegistry:
    """A tested-network switch: forwarding plus every port's queue."""
    name = switch.name
    registry.bind(
        "repro_switch_forwarded_packets_total",
        lambda: switch.forwarded_packets,
        switch=name,
    )
    registry.bind(
        "repro_switch_dropped_no_route_total",
        lambda: switch.dropped_no_route,
        switch=name,
    )
    for port in switch.ports:
        instrument_queue(port.queue, registry, switch=name, port=str(port.index))
    return registry


def instrument_fifo(
    fifo: "Fifo", registry: MetricsRegistry, **labels: str
) -> MetricsRegistry:
    """One hardware FIFO: push/pop/drop registers plus live occupancy."""
    labels.setdefault("fifo", fifo.name)
    stats = fifo.stats
    registry.bind("repro_fifo_pushed_total", lambda: stats.pushed, **labels)
    registry.bind("repro_fifo_popped_total", lambda: stats.popped, **labels)
    registry.bind("repro_fifo_dropped_total", lambda: stats.dropped, **labels)
    registry.bind("repro_fifo_depth", lambda: len(fifo), kind="gauge", **labels)
    registry.bind(
        "repro_fifo_max_depth", lambda: stats.max_depth, kind="gauge", **labels
    )
    return registry


def instrument_packet_pool(
    pool: "PacketPool", registry: MetricsRegistry
) -> MetricsRegistry:
    """The 64 B control-packet free-list pool."""
    registry.bind("repro_packet_pool_created_total", lambda: pool.created)
    registry.bind("repro_packet_pool_reused_total", lambda: pool.reused)
    registry.bind("repro_packet_pool_released_total", lambda: pool.released)
    registry.bind(
        "repro_packet_pool_free", lambda: len(pool._free), kind="gauge"
    )
    return registry


def instrument_qdma(
    logger: "QdmaLogger", registry: MetricsRegistry, **labels: str
) -> MetricsRegistry:
    """The QDMA logging path: records, uploads, bytes, batch state."""
    registry.bind("repro_qdma_records_total", lambda: logger.records_logged, **labels)
    registry.bind("repro_qdma_uploads_total", lambda: logger.uploads, **labels)
    registry.bind("repro_qdma_upload_bytes_total", lambda: logger.upload_bytes, **labels)
    registry.bind(
        "repro_qdma_pending_records", lambda: logger.pending_records, kind="gauge", **labels
    )
    registry.attach(logger.batch_records)
    return registry


def instrument_tester(
    tester: "MarlinTester", registry: MetricsRegistry
) -> MetricsRegistry:
    """The full tester: amplification path, schedulers, slow path, QDMA."""
    switch = tester.switch
    nic = tester.nic

    # Programmable-switch amplification path (SCHE -> DATA expansion,
    # ACK -> INFO compression, receiver logic).
    generator = switch.data_generator
    registry.bind("repro_pswitch_sche_accepted_total", lambda: generator.sche_accepted)
    registry.bind("repro_pswitch_sche_dropped_total", lambda: generator.sche_dropped)
    registry.bind("repro_pswitch_data_generated_total", lambda: generator.data_generated)
    receiver = switch.receiver
    registry.bind("repro_pswitch_acks_generated_total", lambda: receiver.acks_generated)
    registry.bind("repro_pswitch_nacks_generated_total", lambda: receiver.nacks_generated)
    registry.bind("repro_pswitch_cnps_generated_total", lambda: receiver.cnps_generated)
    registry.bind("repro_pswitch_ooo_dropped_total", lambda: receiver.ooo_dropped)
    info = switch.info_generator
    registry.bind("repro_pswitch_acks_compressed_total", lambda: info.acks_processed)
    registry.bind("repro_pswitch_infos_generated_total", lambda: info.infos_generated)
    registry.bind("repro_pswitch_unknown_packets_total", lambda: switch.unknown_packets)

    # FPGA NIC: RX FIFOs, per-port schedulers, slow path, timers.
    for fifo in nic.rx_fifos:
        instrument_fifo(fifo, registry, device="nic")
    for scheduler in nic.schedulers:
        port = str(scheduler.port_index)
        # A scheduler sleeping through shut pacing gates neither ticks nor
        # touches its FIFO: ``ticks`` and the scheduling FIFO's push/pop
        # counts are wake-ups executed, while ``reschedules``
        # (``skipped_pacing``) counts every TX period a shut gate kept
        # unsent, slept ones included (see repro.fpga.scheduler).
        instrument_fifo(scheduler.sched_fifo, registry, device="nic", port=port)
        instrument_fifo(scheduler.prio_fifo, registry, device="nic", port=port)
        registry.bind(
            "repro_scheduler_ticks_total", lambda s=scheduler: s.ticks, port=port
        )
        registry.bind(
            "repro_scheduler_sche_emitted_total",
            lambda s=scheduler: s.sche_emitted,
            port=port,
        )
        registry.bind(
            "repro_scheduler_rtx_emitted_total",
            lambda s=scheduler: s.rtx_emitted,
            port=port,
        )
        registry.bind(
            "repro_scheduler_reschedules_total",
            lambda s=scheduler: s.skipped_pacing,
            port=port,
        )
        registry.bind(
            "repro_scheduler_descheduled_total",
            lambda s=scheduler: s.descheduled,
            port=port,
        )
    slow = nic.slow_path
    registry.bind("repro_slow_path_events_total", lambda: slow.events_processed)
    registry.bind("repro_slow_path_overruns_total", lambda: slow.overruns)
    registry.bind("repro_nic_infos_processed_total", lambda: nic.infos_processed)
    registry.bind("repro_nic_rmw_stalls_total", lambda: nic.rmw_stalls)
    registry.bind("repro_nic_flows_completed_total", lambda: len(tester.fct))
    instrument_qdma(nic.logger, registry)
    return registry


def instrument_control_plane(
    cp: "ControlPlane", registry: Optional[MetricsRegistry] = None
) -> MetricsRegistry:
    """One call instruments everything a deployed control plane owns:
    engine, tester, fabric switch and packet pool."""
    from repro.net.packet import PACKET_POOL

    if registry is None:
        registry = MetricsRegistry()
    instrument_engine(cp.sim, registry)
    if cp.tester is not None:
        instrument_tester(cp.tester, registry)
    if cp.fabric is not None:
        instrument_network_switch(cp.fabric, registry)
    instrument_packet_pool(PACKET_POOL, registry)
    return registry
