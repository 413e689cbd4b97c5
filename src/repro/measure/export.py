"""Export measurement artifacts to CSV and JSON.

The control plane "retrieves data ... to evaluate the network
performance" (Section 3.2); downstream users then want those artifacts
in tool-friendly formats.  Everything here writes plain stdlib CSV/JSON
— no extra dependencies — and every writer returns the path it wrote.

Empty collectors still produce valid artifacts: the CSV writers emit
their header row and the JSON writers an empty object, so downstream
tooling (and the round-trip tests in ``tests/test_measure_export.py``)
never special-case a run that recorded nothing.
"""

from __future__ import annotations

import csv
import json
from pathlib import Path
from typing import Union

from repro.measure.fct import FctCollector
from repro.measure.throughput import ThroughputSampler
from repro.sim.trace import TraceRecorder
from repro.units import MICROSECOND

PathLike = Union[str, Path]


def fct_to_csv(collector: FctCollector, path: PathLike) -> Path:
    """One row per completed flow: id, size, start/finish, FCT (us)."""
    path = Path(path)
    with path.open("w", newline="") as handle:
        writer = csv.writer(handle)
        writer.writerow(
            ["flow_id", "size_packets", "size_bytes", "start_ps", "finish_ps", "fct_us"]
        )
        for record in collector.records:
            writer.writerow(
                [
                    record.flow_id,
                    record.size_packets,
                    record.size_bytes,
                    record.start_ps,
                    record.finish_ps,
                    f"{record.fct_us:.3f}",
                ]
            )
    return path


def throughput_to_csv(sampler: ThroughputSampler, path: PathLike) -> Path:
    """One row per sample period, one column per meter (bps)."""
    path = Path(path)
    meters = sorted(sampler.meters)
    with path.open("w", newline="") as handle:
        writer = csv.writer(handle)
        writer.writerow(["time_us"] + meters)
        for sample in sampler.samples:
            writer.writerow(
                [f"{sample.time_ps / MICROSECOND:.3f}"]
                + [f"{sample.rates_bps.get(name, 0.0):.0f}" for name in meters]
            )
    return path


def _json_default(value: object) -> Union[float, str]:
    """Coerce non-JSON values: numerics (numpy scalars) to float,
    anything else to its string form rather than crashing the export."""
    try:
        return float(value)  # type: ignore[arg-type]
    except (TypeError, ValueError):
        return str(value)


def trace_to_json(trace: TraceRecorder, path: PathLike) -> Path:
    """All channels of a trace (e.g. the QDMA log) as one JSON object."""
    path = Path(path)
    payload = {
        channel: [
            {"time_ps": record.time_ps, **record.fields}
            for record in trace.channel(channel)
        ]
        for channel in trace.channels()
    }
    path.write_text(json.dumps(payload, indent=1, default=_json_default) + "\n")
    return path
