"""Cross-cutting observability: metrics, profiling, campaign telemetry.

Marlin's control plane exists to "retrieve data ... to evaluate the
network performance" (paper Section 3.2); ``repro.obs`` is that
retrieval layer for the tester *itself*:

* :mod:`repro.obs.metrics` — a Counter/Gauge registry with lazy
  bindings; the tester's registers enter it once, after a run, through
  :func:`repro.obs.export.counters_registry`, so an exported run
  executes the same event loop as a bare one
  (``tests/test_obs.py::TestObservabilityIsInert``);
* :mod:`repro.obs.profile` — opt-in wall-clock attribution per event
  callback owner (``sim.enable_profiling()`` / ``sim.profile()`` /
  ``repro report``);
* :mod:`repro.obs.heartbeat` — live progress snapshots streamed from
  campaign workers to the parent (``repro sweep`` renders them), with
  :mod:`repro.obs.manifest` stamping every run for comparability.

Export formats (JSON / Prometheus text) live in :mod:`repro.obs.export`.
"""

from repro.obs.export import (
    counters_registry,
    parse_prometheus_text,
    sanitize_metric_name,
    to_json,
    to_prometheus,
    write_metrics,
)
from repro.obs.flight import FlightRecorder
from repro.obs.heartbeat import Heartbeat, run_with_heartbeats
from repro.obs.manifest import build_manifest, config_hash, environment, write_manifest
from repro.obs.metrics import Counter, Gauge, MetricsRegistry, Sample
from repro.obs.profile import ProfileReport, ProfileRow, SimProfiler

__all__ = [
    "Counter",
    "Gauge",
    "MetricsRegistry",
    "Sample",
    "SimProfiler",
    "ProfileReport",
    "ProfileRow",
    "FlightRecorder",
    "Heartbeat",
    "run_with_heartbeats",
    "counters_registry",
    "to_prometheus",
    "to_json",
    "write_metrics",
    "parse_prometheus_text",
    "sanitize_metric_name",
    "build_manifest",
    "write_manifest",
    "config_hash",
    "environment",
]
