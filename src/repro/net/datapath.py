"""Per-rate serialization tables for the packet datapath.

The serialization delay of a 64 B ACK on a 100 G port never changes,
so ports look frame sizes up in a :class:`SerTable` instead of
recomputing it per frame.  :func:`ser_table` hands every port at the
same rate the one process-wide table for that rate, so tables survive
across :class:`~repro.core.control_plane.ControlPlane` rebuilds inside a
campaign worker (safe: a table is a pure function of rate and size).

Tables are lazily populated — the first packet of a given size pays the
:func:`~repro.units.serialization_time_ps` call (the table's
``__missing__``), every later one is a dict hit — so arbitrary frame
sizes stay exact, not quantized to size classes.
"""

from __future__ import annotations

from repro.units import serialization_time_ps

__all__ = ["SerTable", "ser_table"]


class SerTable(dict):
    """``{frame_bytes: serialization_ps}`` at one port rate; indexing a
    size not seen yet computes and stores it."""

    __slots__ = ("rate_bps",)

    def __init__(self, rate_bps: int) -> None:
        super().__init__()
        self.rate_bps = rate_bps

    def __missing__(self, size_bytes: int) -> int:
        ps = self[size_bytes] = serialization_time_ps(size_bytes, self.rate_bps)
        return ps


_SER_TABLES: dict[int, SerTable] = {}


def ser_table(rate_bps: int) -> SerTable:
    """The live :class:`SerTable` for ``rate_bps``: ports cache it, and
    it extends itself in place on first sight of a new frame size."""
    table = _SER_TABLES.get(rate_bps)
    if table is None:
        table = _SER_TABLES[rate_bps] = SerTable(rate_bps)
    return table
