"""Determinism regression for the tuple-heap engine overhaul.

The seed stored every event as an ``Event`` object and compared them in
Python; the overhaul stores fast events as bare tuples and cancellable
events behind :class:`EventHandle`.  These tests pin the observable
contract: a seeded multi-flow tester produces bit-identical
measurements, event counts, and trace series across runs — and the
old-style handle-returning scheduling API executes the exact same
schedule as the fast path.

:class:`TestGoldenMeasurements` pins *measurements*, not the event
stream: literal SHA-256 digests of counters, sweep-point fields, FCT
records and CC trace timestamps.  A change that removes events without
changing what the tester measures keeps them; ``events_executed`` is
deliberately not part of any digest.
"""

import dataclasses
import hashlib
import json

import numpy as np
import pytest

from repro import ControlPlane, TestConfig
from repro.core.sweep import SweepPoint, steady_state_flow_rates
from repro.measure.fairness import jain_index
from repro.units import MS, US
from repro.workload import ClosedLoopGenerator, FlowSlot, hadoop


def _trace_fingerprint(cp):
    trace = cp.tester.nic.logger.trace
    return tuple(
        (channel, tuple(record.time_ps for record in trace.channel(channel)))
        for channel in trace.channels()
    )


def _run_tester(route_through_handles: bool = False):
    cp = ControlPlane()
    if route_through_handles:
        _route_scheduling_through_handles(cp.sim)
    cp.deploy(TestConfig(cc_algorithm="dctcp", n_test_ports=2, flows_per_port=2, trace_cc=True))
    cp.wire_loopback_fabric()
    cp.start_flows(size_packets=600, pattern="fan_in")
    cp.run(duration_ps=2 * MS)
    return (
        tuple(sorted(cp.read_measurements().items())),
        cp.sim.events_executed,
        _trace_fingerprint(cp),
    )


def _route_scheduling_through_handles(sim):
    """Replace the fast-path scheduling methods with the old-style
    handle-returning API on one simulator instance."""

    def schedule(time_ps, fn, *args):
        sim.schedule_handle(time_ps, fn, *args)

    def after(delay_ps, fn, *args):
        sim.after_handle(delay_ps, fn, *args)

    def call_now(fn, *args):
        sim.schedule_handle(sim.now, fn, *args)

    sim.schedule = schedule
    sim.at = schedule
    sim.after = after
    sim.call_now = call_now


class TestSeededTesterDeterminism:
    def test_identical_across_runs(self):
        first = _run_tester()
        second = _run_tester()
        assert first[0] == second[0]  # measurements
        assert first[1] == second[1]  # events executed
        assert first[2] == second[2]  # trace series

    def test_old_style_scheduling_api_matches_fast_path(self):
        """Routing every schedule through EventHandle entries must not
        change a single measurement, event count, or trace timestamp:
        both entry shapes share one (time, seq) order."""
        fast = _run_tester()
        handled = _run_tester(route_through_handles=True)
        assert fast == handled

    def test_trace_fingerprint_is_nontrivial(self):
        measurements, events, trace = _run_tester()
        assert events > 1000
        assert any(times for _, times in trace)
        assert dict(measurements)["switch.data_generated"] > 0


# -- golden measurements --------------------------------------------------------


def _measured(cp, **extra):
    """Everything a run measures, in a canonical hashable shape."""
    tester = cp.require_tester()
    return {
        "measurements": sorted(cp.read_measurements().items()),
        "fct": [dataclasses.astuple(record) for record in tester.fct.records],
        "trace": [list(pair) for pair in _trace_fingerprint(cp)],
        **extra,
    }


def _drop_once(flow_id, psn):
    """A fabric packet filter that drops the first copy of one DATA."""
    dropped = []

    def keep(packet, port):
        if (
            not dropped
            and packet.ptype == "DATA"
            and packet.flow_id == flow_id
            and packet.psn == psn
        ):
            dropped.append(psn)
            return False
        return True

    return keep, dropped


def _fanin_dcqcn():
    """One 3-sender DCQCN sweep point: rate pacing below line rate, ECN
    marks, CNPs and DCQCN timers."""
    params = {"rate_ai_bps": 4e9}
    cp = ControlPlane()
    tester = cp.deploy(
        TestConfig(
            cc_algorithm="dcqcn", n_test_ports=4, cc_params=params,
            seed=3, trace_cc=True,
        )
    )
    cp.wire_loopback_fabric(ecn_threshold_bytes=84_000)
    sampler = tester.enable_rate_sampling(period_ps=250 * US)
    cp.start_flows(size_packets=10**9, pattern="fan_in")
    cp.run(duration_ps=1 * MS)
    rates = steady_state_flow_rates(sampler)
    point = SweepPoint(
        params=params,
        throughput_bps=sum(rates),
        fairness=jain_index(rates),
        peak_queue_bytes=cp.fabric.ports[3].queue.stats.max_backlog_bytes,
        flows_completed=len(tester.fct),
    )
    return _measured(cp, point=dataclasses.asdict(point))


def _closedloop_dctcp():
    """DCTCP closed loop: 16 slots with flow churn, ACK-clocked windows."""
    cp = ControlPlane()
    tester = cp.deploy(TestConfig(cc_algorithm="dctcp", n_test_ports=4, trace_cc=True))
    cp.wire_loopback_fabric()
    slots = [FlowSlot(src, src + 2) for src in range(2) for _ in range(8)]
    generator = ClosedLoopGenerator(
        tester, hadoop(), slots, rng=np.random.default_rng(5)
    )
    generator.start()
    cp.run(duration_ps=300 * US)
    return _measured(cp, flows_started=generator.flows_started)


def _receiver_on_fpga():
    """Receiver logic on the FPGA: RDATA over the second cable and the
    switch's FPGA-response path."""
    cp = ControlPlane()
    cp.deploy(
        TestConfig(
            cc_algorithm="dctcp", n_test_ports=4,
            receiver_logic_on_fpga=True, trace_cc=True,
        )
    )
    cp.wire_loopback_fabric()
    cp.start_flows(flows_per_port=2, size_packets=400, pattern="pairs")
    cp.run(duration_ps=300 * US)
    return _measured(cp)


def _dcqcn_drop():
    """Paced DCQCN flows, one DATA lost: go-back-N recovery and flow
    completions land while the schedulers sleep through shut gates, and a
    third flow joins a busy port mid-run."""
    cp = ControlPlane()
    tester = cp.deploy(TestConfig(cc_algorithm="dcqcn", n_test_ports=3, trace_cc=True))
    cp.wire_loopback_fabric(ecn_threshold_bytes=40_000)
    cp.fabric.packet_filter, dropped = _drop_once(flow_id=1, psn=900)
    tester.start_flow(port_index=0, dst_port_index=2, size_packets=1500)
    tester.start_flow(port_index=1, dst_port_index=2, size_packets=3000)
    tester.start_flow(
        port_index=0, dst_port_index=2, size_packets=600, start_at_ps=200 * US
    )
    cp.run(duration_ps=1 * MS)
    assert dropped == [900]
    return _measured(cp)


def _cubic_drop():
    """CUBIC under the per-flow PPS cap (window mode with a spacing gate):
    a fast retransmit through the priority FIFO, RMW stalls, and a second
    flow on a sleeping port."""
    cp = ControlPlane()
    tester = cp.deploy(TestConfig(cc_algorithm="cubic", n_test_ports=2, trace_cc=True))
    cp.wire_loopback_fabric()
    cp.fabric.packet_filter, dropped = _drop_once(flow_id=1, psn=300)
    cp.start_flows(size_packets=1000, pattern="pairs")
    tester.start_flow(
        port_index=0, dst_port_index=1, size_packets=200, start_at_ps=100 * US
    )
    cp.run(duration_ps=1 * MS)
    assert dropped == [300]
    assert tester.nic.schedulers[0].min_flow_spacing_ps > 0
    return _measured(cp)


#: SHA-256 of each case's measurements, captured before the packet path
#: stopped spending events on closed pacing gates, switch pipeline
#: transit and free RX slots.  The two DCQCN cases were re-captured when
#: a timer expiry started to wait out its flow's RMW window (their RMW
#: conflicts went 47 -> 0 and 23 -> 0, timeouts unchanged).  A digest
#: that moves means the tester now measures something different.
GOLDEN = {
    "fanin_dcqcn": (
        _fanin_dcqcn,
        "9a07265e7a67bad2dde343754facef11b9a7d4c7b390f4552081fe63b39f4748",
    ),
    "closedloop_dctcp": (
        _closedloop_dctcp,
        "44b5048ba78296a6d29229b2548057b8faa5bff4637d521d5f499a69f2dcc804",
    ),
    "receiver_on_fpga": (
        _receiver_on_fpga,
        "5807fd797932d2da63596c1f52bc59ad5aee07f96274e32b5df8c5302ef701cf",
    ),
    "dcqcn_drop": (
        _dcqcn_drop,
        "e9b0e0945de84b4d0aa6e1f8545329613b88e56688090262a920a66ef0ff935f",
    ),
    "cubic_drop": (
        _cubic_drop,
        "25045a24c545f373a4aa6f5c18b85d7231cca1112ec43214c904882be315f10f",
    ),
}


class TestGoldenMeasurements:
    @pytest.mark.parametrize("case", sorted(GOLDEN))
    def test_digest(self, case):
        scenario, expected = GOLDEN[case]
        payload = json.dumps(scenario(), sort_keys=True, default=repr)
        assert hashlib.sha256(payload.encode()).hexdigest() == expected
