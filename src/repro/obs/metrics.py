"""The metrics registry: named counters and gauges.

Design constraints (docs/OBSERVABILITY.md):

* **Near-zero hot-path cost.**  An instrument is a plain object with a
  ``value`` slot; incrementing is ``counter.value += 1`` — one attribute
  store, no dict lookup, no lock (simulations are single-threaded per
  process).  A value that already lives elsewhere is *bound* instead:
  :meth:`MetricsRegistry.bind` stores a callable that is only evaluated
  at collection time.
* **Determinism.**  Nothing here schedules events or mutates model
  state; exporting metrics must never perturb a simulation (the property
  test in ``tests/test_obs.py`` holds runs event-for-event identical).
* **One series per name.**  The tester's registers are folded into a
  registry by :func:`repro.obs.export.counters_registry`, one series per
  ``read_counters()`` key, so no series needs labels.

Export to JSON and Prometheus text format lives in
:mod:`repro.obs.export`.
"""

from __future__ import annotations

from typing import Callable, Iterator, Optional, Union

Number = Union[int, float]


class Counter:
    """A monotonically increasing value.

    Hot paths increment ``.value`` directly; :meth:`inc` is the readable
    form for cold paths.
    """

    __slots__ = ("name", "value")
    kind = "counter"

    def __init__(self, name: str) -> None:
        self.name = name
        self.value: Number = 0

    def inc(self, amount: Number = 1) -> None:
        self.value += amount

    def get(self) -> Number:
        return self.value

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"<Counter {self.name} {self.value}>"


class Gauge:
    """A value that can go up and down (backlogs, occupancies)."""

    __slots__ = ("name", "value")
    kind = "gauge"

    def __init__(self, name: str) -> None:
        self.name = name
        self.value: Number = 0

    def set(self, value: Number) -> None:
        self.value = value

    def inc(self, amount: Number = 1) -> None:
        self.value += amount

    def dec(self, amount: Number = 1) -> None:
        self.value -= amount

    def get(self) -> Number:
        return self.value

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"<Gauge {self.name} {self.value}>"


class _Binding:
    """A lazily-evaluated metric: a callable read at collection time."""

    __slots__ = ("name", "fn", "kind")

    def __init__(self, name: str, fn: Callable[[], Number], kind: str) -> None:
        self.name = name
        self.fn = fn
        self.kind = kind

    @property
    def value(self) -> Number:
        return self.fn()


class Sample:
    """One collected value: ``(name, value, kind)``."""

    __slots__ = ("name", "value", "kind")

    def __init__(self, name: str, value: Number, kind: str) -> None:
        self.name = name
        self.value = value
        self.kind = kind

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"<Sample {self.name} {self.value}>"


class MetricsRegistry:
    """Owns instruments and lazy bindings; produces samples on demand.

    Creation methods are get-or-create on the name, so registering code
    can be re-run idempotently.  Asking for an existing name with a
    different instrument kind raises.
    """

    def __init__(self) -> None:
        self._instruments: dict[str, Union[Counter, Gauge, _Binding]] = {}

    def _get_or_create(self, cls: type, name: str) -> Union[Counter, Gauge]:
        existing = self._instruments.get(name)
        if existing is None:
            existing = self._instruments[name] = cls(name)
        elif not isinstance(existing, cls):
            raise ValueError(f"metric {name!r} already registered as {existing.kind}")
        return existing

    def counter(self, name: str) -> Counter:
        return self._get_or_create(Counter, name)

    def gauge(self, name: str) -> Gauge:
        return self._get_or_create(Gauge, name)

    def bind(
        self, name: str, fn: Callable[[], Number], *, kind: str = "counter"
    ) -> None:
        """Register a lazily-read metric: ``fn`` is called at collection
        time only.  Re-binding the same name replaces the callable."""
        if kind not in ("counter", "gauge"):
            raise ValueError(f"bind() supports counter/gauge, not {kind!r}")
        existing = self._instruments.get(name)
        if existing is not None and existing.kind != kind:
            raise ValueError(f"metric {name!r} already registered as {existing.kind}")
        self._instruments[name] = _Binding(name, fn, kind)

    def collect(self) -> Iterator[Sample]:
        """One sample per series, in name order."""
        for name in sorted(self._instruments):
            instrument = self._instruments[name]
            yield Sample(name, instrument.value, instrument.kind)

    def snapshot(self) -> dict[str, Number]:
        """A flat ``{series: value}`` dict, suitable for JSON heartbeats
        and manifests."""
        return {sample.name: sample.value for sample in self.collect()}

    def find(self, name: str) -> Optional[Number]:
        """The current value of one series, or None if absent."""
        instrument = self._instruments.get(name)
        return None if instrument is None else instrument.value

    def __len__(self) -> int:
        return len(self._instruments)
