"""The packet model.

One class covers every packet in the system.  Marlin's five packet types
(TEMP, DATA, ACK, INFO, SCHE — Section 3.1) are distinguished by the
``ptype`` field; type-specific constructors live in
:mod:`repro.pswitch.packets`.

ECN follows RFC 3168 vocabulary: an ECN-capable packet carries ``ECT`` and
a congested queue rewrites it to ``CE``.  Receivers echo ``CE`` back to the
sender in the ``ecn_echo`` flag of ACKs.
"""

from __future__ import annotations

import itertools
from typing import Any, Optional

from repro.errors import PacketPoolError

#: ECN codepoints (subset of RFC 3168 relevant to the model).
NOT_ECT = 0
ECT = 1
CE = 3

_packet_uid = itertools.count()


class Packet:
    """A simulated frame.

    ``size_bytes`` is the on-wire frame size excluding preamble/IFG (those
    are added by :func:`repro.units.wire_bits` during serialization).
    """

    __slots__ = (
        "uid",
        "ptype",
        "src",
        "dst",
        "flow_id",
        "psn",
        "size_bytes",
        "ecn",
        "ecn_echo",
        "created_ps",
        "meta",
        "_freed",
    )

    def __init__(
        self,
        ptype: str,
        src: int,
        dst: int,
        size_bytes: int,
        *,
        flow_id: int = -1,
        psn: int = -1,
        ecn: int = NOT_ECT,
        ecn_echo: bool = False,
        created_ps: int = 0,
        meta: Optional[dict[str, Any]] = None,
    ) -> None:
        if size_bytes <= 0:
            raise ValueError(f"packet size must be positive, got {size_bytes}")
        self.uid = next(_packet_uid)
        self.ptype = ptype
        self.src = src
        self.dst = dst
        self.flow_id = flow_id
        self.psn = psn
        self.size_bytes = size_bytes
        self.ecn = ecn
        self.ecn_echo = ecn_echo
        self.created_ps = created_ps
        self.meta = meta if meta is not None else {}
        self._freed = False

    def mark_ce(self) -> None:
        """Apply a congestion-experienced mark if the packet is ECN-capable."""
        if self.ecn == ECT:
            self.ecn = CE

    @property
    def ce_marked(self) -> bool:
        return self.ecn == CE

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"<{self.ptype} uid={self.uid} {self.src}->{self.dst} "
            f"flow={self.flow_id} psn={self.psn} {self.size_bytes}B>"
        )


class _FreedMeta(dict):
    """Poisoned ``meta`` installed by :meth:`PacketPool.release` in debug
    mode: any access after release raises instead of silently reading a
    recycled packet."""

    def _use_after_release(self, *args: Any, **kwargs: Any) -> Any:
        raise PacketPoolError(
            "use-after-release: packet meta accessed after PacketPool.release()"
        )

    __getitem__ = _use_after_release
    __setitem__ = _use_after_release
    __contains__ = _use_after_release  # type: ignore[assignment]
    get = _use_after_release
    pop = _use_after_release
    setdefault = _use_after_release
    update = _use_after_release
    items = _use_after_release
    keys = _use_after_release
    values = _use_after_release


class PacketPool:
    """Free-list pool for the 64 B control packets (SCHE/ACK/INFO/TEMP/
    RDATA) that dominate allocation in the amplification path.

    Producers acquire through the :mod:`repro.pswitch.packets`
    constructors; the single consumer of each packet type releases it
    once its fields have been copied out (the switch after Module B/C
    consume ACK/SCHE, the NIC after the INFO parser).  Released packets
    are reinitialized in place on the next acquire — including a fresh
    ``uid`` and a cleared-and-reused ``meta`` dict — so a steady-state
    run allocates no packet objects at all on the control path.

    ``debug`` mode trades reuse for detection: released packets are
    poisoned (``ptype`` becomes ``"<freed>"`` and ``meta`` raises on any
    access) and double releases raise :class:`PacketPoolError`.
    """

    __slots__ = ("_free", "max_free", "debug", "enabled", "created", "reused", "released")

    def __init__(self, *, max_free: int = 4096, debug: bool = False) -> None:
        self._free: list[Packet] = []
        self.max_free = max_free
        self.debug = debug
        self.enabled = True
        self.created = 0
        self.reused = 0
        self.released = 0

    def acquire(
        self,
        ptype: str,
        src: int,
        dst: int,
        size_bytes: int,
        *,
        flow_id: int = -1,
        psn: int = -1,
        ecn: int = NOT_ECT,
        ecn_echo: bool = False,
        created_ps: int = 0,
    ) -> Packet:
        """A packet from the free list (reinitialized) or a fresh one.

        ``meta`` of a reused packet is the same dict object, cleared —
        callers fill it in place, so reuse allocates nothing.
        """
        free = self._free
        if not free:
            self.created += 1
            return Packet(
                ptype,
                src,
                dst,
                size_bytes,
                flow_id=flow_id,
                psn=psn,
                ecn=ecn,
                ecn_echo=ecn_echo,
                created_ps=created_ps,
            )
        if size_bytes <= 0:
            raise ValueError(f"packet size must be positive, got {size_bytes}")
        packet = free.pop()
        packet.uid = next(_packet_uid)
        packet.ptype = ptype
        packet.src = src
        packet.dst = dst
        packet.flow_id = flow_id
        packet.psn = psn
        packet.size_bytes = size_bytes
        packet.ecn = ecn
        packet.ecn_echo = ecn_echo
        packet.created_ps = created_ps
        packet.meta.clear()
        packet._freed = False
        self.reused += 1
        return packet

    def release(self, packet: Packet) -> None:
        """Return ``packet`` to the free list.  The caller must be the
        packet's final consumer: no other reference may be used again."""
        if packet._freed:
            if self.debug:
                raise PacketPoolError(f"double release of {packet!r}")
            return
        if not self.enabled:
            return
        packet._freed = True
        self.released += 1
        if self.debug:
            packet.ptype = "<freed>"
            packet.meta = _FreedMeta()
            return
        if len(self._free) < self.max_free:
            self._free.append(packet)

    def clear(self) -> None:
        """Drop the free list (tests; bounding memory between runs)."""
        self._free.clear()

    def stats(self) -> dict[str, int]:
        return {
            "created": self.created,
            "reused": self.reused,
            "released": self.released,
            "free": len(self._free),
        }


#: Process-wide pool used by the :mod:`repro.pswitch.packets` constructors.
PACKET_POOL = PacketPool()

