"""Shared precomputed tables for the per-packet datapath.

The packet hot path (``Port.send`` → queue → the arrival event on the
heap → ``NetworkSwitch.receive``) used to recompute the same integer
arithmetic for every frame: the serialization delay of a 64 B
ACK on a 100 G port never changes, and neither does the ECMP hash of a
flow.  :class:`DatapathState` is the small struct those tables hang off:
one instance is shared process-wide (``shared()``), so every port at the
same rate resolves frame sizes through one dict, and tables survive
across :class:`~repro.core.control_plane.ControlPlane` rebuilds inside a
campaign worker.

Tables are lazily populated — the first packet of a given size pays the
:func:`~repro.units.serialization_time_ps` call (the table's
``__missing__``), every later one is a dict hit — so arbitrary frame
sizes stay exact, not quantized to size classes.
"""

from __future__ import annotations

from repro.units import serialization_time_ps

__all__ = ["DatapathState", "SerTable", "shared"]


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


class DatapathState:
    """Precomputed integer tables shared by the packet datapath.

    ``ser_table(rate_bps)`` returns the :class:`SerTable` for that port
    rate.  It is the live table — ports cache it, and it extends itself
    in place on first sight of a new frame size.
    """

    __slots__ = ("_ser_tables",)

    def __init__(self) -> None:
        self._ser_tables: dict[int, SerTable] = {}

    def ser_table(self, rate_bps: int) -> SerTable:
        table = self._ser_tables.get(rate_bps)
        if table is None:
            table = self._ser_tables[rate_bps] = SerTable(rate_bps)
        return table


_SHARED = DatapathState()


def shared() -> DatapathState:
    """The process-wide table set (deterministic: tables are pure
    functions of rate and size, so sharing them across runs is safe)."""
    return _SHARED
