"""Exception hierarchy for the Marlin reproduction.

Every error raised by the library derives from :class:`ReproError` so that
callers can catch library failures without masking programming errors.
"""

from __future__ import annotations

from typing import Any, Optional


class ReproError(Exception):
    """Base class for all library errors."""


class SimulationError(ReproError):
    """The discrete-event engine was used incorrectly (e.g. scheduling in
    the past or running a finished simulation)."""


class ConfigError(ReproError):
    """An experiment or tester configuration is invalid."""


class ResourceExceededError(ReproError):
    """A hardware resource budget was exceeded (pipeline stages, SRAM,
    register-queue capacity, BRAM, port count)."""


class RegisterQueueOverflow(ResourceExceededError):
    """A programmable-switch register queue overflowed.

    The paper calls this a *false packet loss* (Section 4.2): a SCHE packet's
    metadata was dropped inside the tester, so a DATA packet that congestion
    control believed was sent never reached the wire.
    """


class RMWConflictError(ReproError):
    """A read-modify-write conflict on CC parameters was detected in the
    FPGA BRAM model (Section 5.3, Challenge 3)."""


class CCModuleError(ReproError):
    """A CC algorithm module violated the Table 3 programming contract."""


class CampaignError(ReproError):
    """A sharded campaign (``repro.parallel``) was misconfigured, or one
    of its tasks failed after exhausting its retries."""


class PortAllocationError(ConfigError):
    """The requested port layout does not fit in a switch pipeline."""


def require(condition: bool, message: str) -> None:
    """Raise :class:`ConfigError` with ``message`` unless ``condition``."""
    if not condition:
        raise ConfigError(message)


def as_int(value: Any, field: str, *, minimum: Optional[int] = None) -> int:
    """``value`` checked as the integer config field ``field``."""
    # bool is an int subclass — `"seed": true` is a mistake.
    require(
        isinstance(value, int) and not isinstance(value, bool),
        f"field {field!r} must be an integer, got {value!r}",
    )
    if minimum is not None:
        require(value >= minimum, f"field {field!r} must be >= {minimum}, got {value}")
    return int(value)


def as_number(value: Any, field: str) -> float:
    """``value`` checked as the numeric config field ``field``."""
    require(
        isinstance(value, (int, float)) and not isinstance(value, bool),
        f"field {field!r} must be a number, got {value!r}",
    )
    return float(value)
