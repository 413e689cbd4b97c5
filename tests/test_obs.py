"""Observability layer: metrics registry, export formats, profiler.

The load-bearing property here is the last class: exporting metrics and
profiling must never perturb a simulation (runs are event-for-event
identical with observability on or off).
"""

import math

import pytest

from repro.core import ControlPlane, TestConfig
from repro.obs import (
    MetricsRegistry,
    counters_registry,
    parse_prometheus_text,
    sanitize_metric_name,
    to_json,
    to_prometheus,
)
from repro.obs.profile import SimProfiler, callback_owner
from repro.sim import Simulator
from repro.units import MS, US


class TestRegistry:
    def test_counter_get_or_create(self):
        registry = MetricsRegistry()
        c1 = registry.counter("hits_total")
        c2 = registry.counter("hits_total")
        assert c1 is c2
        c1.inc()
        c1.value += 2
        assert registry.find("hits_total") == 3

    def test_names_are_distinct_series(self):
        registry = MetricsRegistry()
        registry.counter("port1_hits_total").inc(5)
        registry.counter("port2_hits_total").inc(7)
        assert registry.find("port1_hits_total") == 5
        assert registry.find("port2_hits_total") == 7
        assert registry.find("port3_hits_total") is None
        assert len(registry) == 2

    def test_kind_conflict_rejected(self):
        registry = MetricsRegistry()
        registry.counter("x_total")
        with pytest.raises(ValueError):
            registry.gauge("x_total")
        with pytest.raises(ValueError):
            registry.bind("x_total", lambda: 1, kind="gauge")

    def test_gauge_set_inc_dec(self):
        gauge = MetricsRegistry().gauge("depth")
        gauge.set(10)
        gauge.inc(5)
        gauge.dec(3)
        assert gauge.get() == 12

    def test_bind_is_lazy_and_idempotent(self):
        registry = MetricsRegistry()
        state = {"n": 0}
        registry.bind("lazy_total", lambda: state["n"])
        state["n"] = 41
        registry.bind("lazy_total", lambda: state["n"] + 1)  # replaces
        assert registry.find("lazy_total") == 42
        assert len(registry) == 1

    def test_snapshot_is_flat(self):
        registry = MetricsRegistry()
        registry.counter("hits_total").inc(9)
        registry.gauge("depth").set(3)
        registry.bind("lazy_total", lambda: 4)
        assert registry.snapshot() == {"depth": 3, "hits_total": 9, "lazy_total": 4}


class TestExport:
    def _registry(self):
        registry = MetricsRegistry()
        registry.counter("repro_hits_total").inc(5)
        registry.counter("repro_misses_total").inc(2)
        registry.gauge("repro_depth").set(7)
        registry.bind("repro_ratio", lambda: 0.25, kind="gauge")
        return registry

    def test_prometheus_round_trip(self):
        text = to_prometheus(self._registry())
        samples = parse_prometheus_text(text)
        assert samples == [
            ("repro_depth", {}, 7.0),
            ("repro_hits_total", {}, 5.0),
            ("repro_misses_total", {}, 2.0),
            ("repro_ratio", {}, 0.25),
        ]

    def test_type_lines_once_per_family(self):
        text = to_prometheus(self._registry())
        type_lines = [l for l in text.splitlines() if l.startswith("# TYPE")]
        assert "# TYPE repro_hits_total counter" in type_lines
        assert "# TYPE repro_ratio gauge" in type_lines
        assert len(type_lines) == len(set(type_lines)) == 4

    def test_empty_registry_exports(self):
        assert to_prometheus(MetricsRegistry()) == "\n"
        assert parse_prometheus_text(to_prometheus(MetricsRegistry())) == []
        assert to_json(MetricsRegistry()).strip() == "{}"

    @pytest.mark.parametrize(
        "bad",
        [
            "no value here",
            "1leading_digit 3",
            'name{unterminated="x} 1',
            'name{bad-label="x"} 1',
            "name 1 2 3",
            "# BOGUS comment line",
        ],
    )
    def test_parser_rejects_malformed(self, bad):
        with pytest.raises(ValueError):
            parse_prometheus_text(bad)

    def test_parser_keeps_label_grammar(self):
        # Nothing here exports labels, but the parser validates text from
        # elsewhere (a scraped daemon, a hand-edited file).
        text = 'a_total{port="1",name="q\\"x\\\\y",} 3\n'
        assert parse_prometheus_text(text) == [
            ("a_total", {"port": "1", "name": 'q"x\\y'}, 3.0)
        ]

    def test_parser_accepts_inf_nan(self):
        samples = parse_prometheus_text("a_bucket{le=\"+Inf\"} 3\nb NaN\n")
        assert samples[0][2] == 3.0
        assert math.isnan(samples[1][2])

    def test_sanitize_metric_name(self):
        assert sanitize_metric_name("switch.data_generated") == "switch_data_generated"
        assert sanitize_metric_name("9lives") == "_9lives"
        assert parse_prometheus_text(f"{sanitize_metric_name('a.b-c')} 1")


class TestEngineInstrumentation:
    def test_engine_binding_tracks_counters(self):
        """The engine counters ``repro report`` prints, bound lazily: a
        binding made before the run reads the values at collection."""
        sim = Simulator()
        registry = MetricsRegistry()
        registry.bind("sim_events_executed_total", lambda: sim.events_executed)
        registry.bind("sim_events_cancelled_total", lambda: sim.events_cancelled)
        registry.bind("sim_time_ps", lambda: sim.now, kind="gauge")
        handle = sim.schedule_handle(500, lambda: None)
        handle.cancel()
        sim.at(100, lambda: None)
        sim.run(until_ps=1000)
        assert registry.snapshot() == {
            "sim_events_cancelled_total": 1,
            "sim_events_executed_total": 1,
            "sim_time_ps": 1000,
        }


class TestCountersRegistry:
    def test_one_series_per_register(self):
        registry = counters_registry(
            {"switch.data_generated": 7, "fpga.rmw_conflicts": 0}
        )
        assert registry.snapshot() == {
            "repro_fpga_rmw_conflicts_total": 0,
            "repro_switch_data_generated_total": 7,
        }
        assert "# TYPE repro_fpga_rmw_conflicts_total counter" in to_prometheus(
            registry
        )

    def test_campaign_stats_keep_their_names(self):
        stats = {
            "tasks": 2, "failed": 0, "events_total": 10, "retries_total": 0,
            "timeouts": 0, "crashes": 0, "task_exceptions": 0, "workers": 1,
            "campaign_wall_s": 0.5, "tasks_per_sec": 4.0,
        }
        snapshot = counters_registry({"switch.data_generated": 3}, stats).snapshot()
        assert snapshot["repro_switch_data_generated_total"] == 3
        assert snapshot["repro_campaign_tasks_total"] == 2
        assert snapshot["repro_campaign_wall_seconds"] == 0.5
        assert len(snapshot) == 1 + len(stats)


class TestProfiler:
    def test_callback_owner_names(self):
        class Widget:
            def poke(self):
                pass

        assert callback_owner(Widget().poke) == "Widget.poke"

        def free_fn():
            pass

        assert "free_fn" in callback_owner(free_fn)

    def test_profiled_run_attributes_time(self):
        sim = Simulator()
        sim.enable_profiling()

        class Ticker:
            def __init__(self):
                self.n = 0

            def tick(self):
                self.n += 1
                if sim.now < 10_000:
                    sim.after(1000, self.tick)

        ticker = Ticker()
        sim.at(0, ticker.tick)
        sim.run(until_ps=20_000)
        report = sim.profile()
        assert report.total_calls == ticker.n
        owners = [row.owner for row in report.rows]
        assert owners == ["Ticker.tick"]
        assert "Ticker.tick" in report.table()

    def test_profile_requires_enable(self):
        from repro.errors import SimulationError

        with pytest.raises(SimulationError):
            Simulator().profile()

    def test_profiled_run_is_identical(self):
        """The _run_profiled loop must execute the same events in the
        same order as the hot path."""

        def scenario(profiled):
            cp = ControlPlane()
            cp.deploy(TestConfig(cc_algorithm="dctcp", n_test_ports=2, seed=3))
            cp.wire_loopback_fabric()
            if profiled:
                cp.sim.enable_profiling()
            cp.start_flows(size_packets=50, pattern="pairs")
            cp.run(duration_ps=200 * US)
            return cp.sim.events_executed, cp.read_measurements()

        assert scenario(False) == scenario(True)

    def test_record_accumulates(self):
        profiler = SimProfiler()

        def fn():
            pass

        profiler.record(fn, 0.25)
        profiler.record(fn, 0.25)
        (row,) = profiler.rows()
        assert row.calls == 2
        assert row.seconds == pytest.approx(0.5)


class TestObservabilityIsInert:
    """Exporting == not exporting, event for event."""

    def _scenario(self, exported):
        cp = ControlPlane()
        cp.deploy(TestConfig(cc_algorithm="dcqcn", n_test_ports=4, seed=7))
        cp.wire_loopback_fabric(ecn_threshold_bytes=84_000)
        cp.start_flows(size_packets=10**9, pattern="fan_in")
        registry = None
        if exported:
            # Fold and render mid-run too, as a heartbeat reads the
            # registers while the simulation is still going.
            cp.run(duration_ps=MS // 2)
            to_prometheus(counters_registry(cp.read_measurements()))
            cp.run(duration_ps=MS // 2)
            registry = counters_registry(cp.read_measurements())
            to_prometheus(registry)
        else:
            cp.run(duration_ps=1 * MS)
        fingerprint = (
            cp.sim.events_executed,
            cp.sim.now,
            tuple(sorted(cp.read_measurements().items())),
        )
        return fingerprint, registry

    def test_metrics_do_not_perturb_simulation(self):
        bare, _ = self._scenario(exported=False)
        observed, registry = self._scenario(exported=True)
        assert bare == observed
        # ... and the registry holds the run's registers.
        counters = dict(bare[2])
        assert counters["switch.data_generated"] > 0
        assert registry.find("repro_switch_data_generated_total") == (
            counters["switch.data_generated"]
        )
        assert registry.find("repro_fpga_rmw_conflicts_total") == (
            counters["fpga.rmw_conflicts"]
        )

    def test_prometheus_snapshot_of_real_run_parses(self):
        fingerprint, registry = self._scenario(exported=True)
        samples = parse_prometheus_text(to_prometheus(registry))
        assert {name: value for name, _, value in samples} == {
            f"repro_{key.replace('.', '_')}_total": value
            for key, value in fingerprint[2]
        }
