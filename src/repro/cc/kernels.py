"""CC algorithm -> columnar fluid kernel mapping.

The columnar fluid solver (:mod:`repro.fluid.solver`) advances every
flow with one of four vectorized update kernels.  This module is the
single source of truth for the kernel codes and the five names that
select them: ``dctcp`` (alpha-filtered window cut), ``dcqcn`` (line-rate
decay/recovery), ``slow_start`` (generic slow-start/AIMD window), and
``ideal`` / ``constant`` (the equal-share reference of Figure 10).  No
other CC algorithm has a fluid kernel: a TIMELY, HPCC, Swift, Reno or
Cubic population would silently run another algorithm's dynamics, so
naming one is a :class:`~repro.errors.ConfigError`.

Kernel codes are small ints so a million-flow population stores its
per-flow kernel selection in one ``int8`` column.
"""

from __future__ import annotations

from repro.errors import ConfigError

#: Equal-share reference: rate == capacity / active flows, always.
KERNEL_IDEAL = 0
#: Generic window kernel: slow-start doubling, then AIMD (halve on mark).
KERNEL_SLOW_START = 1
#: DCTCP window kernel: slow start + alpha-proportional window cut.
KERNEL_DCTCP = 2
#: DCQCN rate kernel: line-rate start, alpha cut on mark, exponential
#: recovery toward line rate.
KERNEL_DCQCN = 3

#: All kernel codes, in code order (index == code).
KERNEL_NAMES = ("ideal", "slow_start", "dctcp", "dcqcn")

#: The names that select a kernel.
_EXPLICIT: dict[str, int] = {
    "ideal": KERNEL_IDEAL,
    "constant": KERNEL_IDEAL,
    "slow_start": KERNEL_SLOW_START,
    "dctcp": KERNEL_DCTCP,
    "dcqcn": KERNEL_DCQCN,
}


def fluid_kernel(name: str) -> int:
    """Kernel code for one of the five kernel names (case-insensitive)."""
    try:
        return _EXPLICIT[name.lower()]
    except KeyError:
        raise ConfigError(
            f"no fluid kernel for {name!r}; choose from {sorted(_EXPLICIT)}"
        ) from None


def kernel_name(code: int) -> str:
    """Human-readable name of a kernel code."""
    if not 0 <= code < len(KERNEL_NAMES):
        raise ConfigError(f"unknown fluid kernel code {code}")
    return KERNEL_NAMES[code]
