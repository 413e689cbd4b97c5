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

from typing import Any, Optional

#: ECN codepoints (subset of RFC 3168 relevant to the model).
NOT_ECT = 0
ECT = 1
CE = 3


class Packet:
    """A simulated frame.

    ``size_bytes`` is the on-wire frame size excluding preamble/IFG (those
    are added by :func:`repro.units.wire_bits` during serialization).
    """

    __slots__ = (
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

    def mark_ce(self) -> None:
        """Apply a congestion-experienced mark if the packet is ECN-capable."""
        if self.ecn == ECT:
            self.ecn = CE

    @property
    def ce_marked(self) -> bool:
        return self.ecn == CE

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"<{self.ptype} {self.src}->{self.dst} "
            f"flow={self.flow_id} psn={self.psn} {self.size_bytes}B>"
        )
