"""Metric export: the tester's registers, JSON and Prometheus text.

``counters_registry`` is the one place a tester register gets a metric
name: every ``--metrics-out`` and manifest folds ``read_counters()``
through it.  ``to_prometheus`` emits the text format scrapers understand
(`# TYPE` comments plus ``name number`` samples);
``parse_prometheus_text`` is a grammar-level parser of the full format,
labels included, used by the tests to prove the output round-trips and
to validate text from elsewhere.  ``write_metrics`` picks the format
from the file suffix, which is what backs the CLI ``--metrics-out``
flag.
"""

from __future__ import annotations

import json
import re
from pathlib import Path
from typing import Mapping, Optional, Union

from repro.obs.metrics import MetricsRegistry, Number

PathLike = Union[str, Path]

#: Prometheus metric-name and label-name grammar (the exposition format's
#: EBNF, abbreviated): names are ``[a-zA-Z_:][a-zA-Z0-9_:]*``.
_NAME_RE = re.compile(r"[a-zA-Z_:][a-zA-Z0-9_:]*")
_SAMPLE_RE = re.compile(
    r"^(?P<name>[a-zA-Z_:][a-zA-Z0-9_:]*)"
    r"(?:\{(?P<labels>[^}]*)\})?"
    r"\s+(?P<value>[+-]?(?:\d+\.?\d*(?:[eE][+-]?\d+)?|Inf|NaN))$"
)
_LABEL_RE = re.compile(r'([a-zA-Z_][a-zA-Z0-9_]*)="((?:[^"\\]|\\.)*)"')


def sanitize_metric_name(raw: str) -> str:
    """Map an arbitrary counter key (``switch.data_generated``) onto the
    Prometheus name grammar."""
    name = re.sub(r"[^a-zA-Z0-9_:]", "_", raw)
    if not name or not _NAME_RE.fullmatch(name):
        name = "_" + name
    return name


#: A campaign's statistics as exported beside its registers:
#: ``(series, key in CampaignSpec.run's "stats", kind)``.
_CAMPAIGN_SERIES = (
    ("repro_campaign_tasks_total", "tasks", "counter"),
    ("repro_campaign_tasks_failed_total", "failed", "counter"),
    ("repro_campaign_events_total", "events_total", "counter"),
    ("repro_campaign_retries_total", "retries_total", "counter"),
    ("repro_campaign_timeouts_total", "timeouts", "counter"),
    ("repro_campaign_crashes_total", "crashes", "counter"),
    ("repro_campaign_task_exceptions_total", "task_exceptions", "counter"),
    ("repro_campaign_workers", "workers", "gauge"),
    ("repro_campaign_wall_seconds", "campaign_wall_s", "gauge"),
    ("repro_campaign_tasks_per_second", "tasks_per_sec", "gauge"),
)


def counters_registry(
    counters: Mapping[str, Number],
    campaign: Optional[Mapping[str, Number]] = None,
) -> MetricsRegistry:
    """Fold a tester's registers into one exportable registry.

    ``counters`` is :meth:`MarlinTester.read_counters` (or a campaign's
    per-key sum of it); each key becomes the counter
    ``repro_<key>_total``, sanitised, so ``fpga.rmw_conflicts`` is
    ``repro_fpga_rmw_conflicts_total`` in every export.  ``campaign``
    (the ``stats`` of a finished campaign) adds the ``repro_campaign_*``
    series.
    """
    registry = MetricsRegistry()
    for key, value in counters.items():
        registry.counter(sanitize_metric_name(f"repro_{key}_total")).value = value
    if campaign is not None:
        for name, key, kind in _CAMPAIGN_SERIES:
            make = registry.counter if kind == "counter" else registry.gauge
            make(name).value = campaign[key]
    return registry


def _unescape_label_value(value: str) -> str:
    return (
        value.replace("\\n", "\n").replace('\\"', '"').replace("\\\\", "\\")
    )


def _format_value(value: Number) -> str:
    if value == float("inf"):
        return "+Inf"
    if value == float("-inf"):
        return "-Inf"
    if isinstance(value, float) and value.is_integer():
        return str(int(value))
    return repr(value) if isinstance(value, float) else str(value)


def to_prometheus(registry: MetricsRegistry) -> str:
    """The registry's current state in Prometheus text exposition format."""
    lines: list[str] = []
    for sample in registry.collect():
        lines.append(f"# TYPE {sample.name} {sample.kind}")
        lines.append(f"{sample.name} {_format_value(sample.value)}")
    return "\n".join(lines) + "\n"


def to_json(registry: MetricsRegistry, *, indent: int = 1) -> str:
    """The registry's flat snapshot as a JSON document."""
    return json.dumps(registry.snapshot(), indent=indent, sort_keys=True) + "\n"


def write_metrics(registry: MetricsRegistry, path: PathLike) -> Path:
    """Write the registry to ``path``: ``.prom``/``.txt`` selects the
    Prometheus text format, anything else JSON.  Returns the path."""
    path = Path(path)
    if path.suffix in (".prom", ".txt"):
        path.write_text(to_prometheus(registry))
    else:
        path.write_text(to_json(registry))
    return path


def parse_prometheus_text(text: str) -> list[tuple[str, dict[str, str], float]]:
    """Parse Prometheus text exposition format at the grammar level.

    Returns ``(name, labels, value)`` tuples in input order; raises
    :class:`ValueError` (with the offending line) on anything that does
    not match the sample or comment grammar.  This is a validator, not a
    full client: ``# HELP``/``# TYPE`` comments are checked for shape and
    skipped.
    """
    samples: list[tuple[str, dict[str, str], float]] = []
    for line_no, line in enumerate(text.splitlines(), start=1):
        if not line.strip():
            continue
        if line.startswith("#"):
            parts = line.split(None, 3)
            if len(parts) < 3 or parts[1] not in ("HELP", "TYPE"):
                raise ValueError(f"line {line_no}: malformed comment {line!r}")
            if parts[1] == "TYPE" and not _NAME_RE.fullmatch(parts[2]):
                raise ValueError(f"line {line_no}: bad metric name {parts[2]!r}")
            continue
        match = _SAMPLE_RE.match(line)
        if match is None:
            raise ValueError(f"line {line_no}: malformed sample {line!r}")
        labels: dict[str, str] = {}
        label_text = match.group("labels")
        if label_text:
            # Labels must tile the whole body: name="value" pairs joined
            # by commas (a trailing comma is legal in the format).
            pos = 0
            while pos < len(label_text):
                pair = _LABEL_RE.match(label_text, pos)
                if pair is None:
                    raise ValueError(
                        f"line {line_no}: malformed labels {label_text!r}"
                    )
                labels[pair.group(1)] = _unescape_label_value(pair.group(2))
                pos = pair.end()
                if pos < len(label_text):
                    if label_text[pos] != ",":
                        raise ValueError(
                            f"line {line_no}: malformed labels {label_text!r}"
                        )
                    pos += 1
        samples.append((match.group("name"), labels, float(match.group("value"))))
    return samples
