"""Constructors for Marlin's five packet types (paper Section 3.1).

* **TEMP** — template packets cycling at line rate on the loopback port;
* **DATA** — MTU-sized test traffic, transformed from multicast TEMPs
  using metadata dequeued from a register queue;
* **ACK** — 64 B acknowledgements produced by truncating DATA packets;
* **INFO** — 64 B flow-state digests of ACKs, sent to the FPGA;
* **SCHE** — 64 B scheduling instructions from the FPGA.

All carry their protocol fields in ``Packet.meta``; the 64-byte types are
size-checked so the Section 3.3 amplification arithmetic stays honest.

Every constructor returns a new :class:`~repro.net.packet.Packet`, and no
consumer recycles one: a packet lives as long as something references it,
so a packet held past its consumer (a capture, a delay stage) keeps its
fields.
"""

from __future__ import annotations

from repro.net import int_telemetry
from repro.net.packet import ECT, Packet
from repro.units import MIN_FRAME_BYTES

PTYPE_TEMP = "TEMP"
PTYPE_DATA = "DATA"
PTYPE_ACK = "ACK"
PTYPE_INFO = "INFO"
PTYPE_SCHE = "SCHE"
#: Truncated DATA forwarded to the FPGA when receiver logic is too
#: complex for the switch (the dashed path in Figure 2).
PTYPE_RDATA = "RDATA"

#: Addresses below this are reserved for tester-internal devices.
INTERNAL_ADDR = 0

__all__ = [
    "PTYPE_TEMP",
    "PTYPE_DATA",
    "PTYPE_ACK",
    "PTYPE_INFO",
    "PTYPE_SCHE",
    "PTYPE_RDATA",
    "INTERNAL_ADDR",
    "make_sche",
    "make_temp",
    "make_data",
    "make_ack",
    "make_cnp",
    "make_rdata",
    "make_info",
]


def make_sche(
    flow_id: int,
    psn: int,
    egress_port: int,
    *,
    src_addr: int,
    dst_addr: int,
    frame_bytes: int,
    is_rtx: bool = False,
    created_ps: int = 0,
) -> Packet:
    """A 64 B scheduling packet: FPGA -> programmable switch."""
    return Packet(
        PTYPE_SCHE,
        INTERNAL_ADDR,
        INTERNAL_ADDR,
        MIN_FRAME_BYTES,
        flow_id=flow_id,
        psn=psn,
        created_ps=created_ps,
        meta={
            "egress_port": egress_port,
            "src_addr": src_addr,
            "dst_addr": dst_addr,
            "frame_bytes": frame_bytes,
            "is_rtx": is_rtx,
        },
    )


def make_temp(frame_bytes: int, *, created_ps: int = 0) -> Packet:
    """A template packet; its length determines generated DATA length."""
    return Packet(
        PTYPE_TEMP, INTERNAL_ADDR, INTERNAL_ADDR, frame_bytes, created_ps=created_ps
    )


def make_data(
    flow_id: int,
    psn: int,
    *,
    src_addr: int,
    dst_addr: int,
    frame_bytes: int,
    tx_tstamp_ps: int,
    is_rtx: bool = False,
    created_ps: int = 0,
) -> Packet:
    """An MTU-sized test packet, ECN-capable (ECT)."""
    return Packet(
        PTYPE_DATA,
        src_addr,
        dst_addr,
        frame_bytes,
        flow_id=flow_id,
        psn=psn,
        ecn=ECT,
        created_ps=created_ps,
        meta={"tx_tstamp_ps": tx_tstamp_ps, "is_rtx": is_rtx},
    )


def make_ack(
    data: Packet,
    ack_psn: int,
    *,
    nack: bool = False,
    created_ps: int = 0,
) -> Packet:
    """Truncate a DATA packet into a 64 B ACK (Module A, step 4).

    Source/destination are swapped; the ACK echoes the DATA packet's CE
    mark, transmit timestamp (for RTT probing), and INT path if present.
    """
    ack = Packet(
        PTYPE_ACK,
        data.dst,
        data.src,
        MIN_FRAME_BYTES,
        flow_id=data.flow_id,
        psn=ack_psn,
        ecn_echo=data.ce_marked,
        created_ps=created_ps,
        meta={
            "echo_tstamp_ps": data.meta.get("tx_tstamp_ps", -1),
            "nack": nack,
            "cnp": False,
        },
    )
    int_telemetry.echo(data, ack)
    return ack


def make_cnp(data: Packet, *, created_ps: int = 0) -> Packet:
    """A DCQCN congestion notification packet, triggered by a CE mark."""
    return Packet(
        PTYPE_ACK,
        data.dst,
        data.src,
        MIN_FRAME_BYTES,
        flow_id=data.flow_id,
        psn=-1,
        ecn_echo=True,
        created_ps=created_ps,
        meta={"echo_tstamp_ps": -1, "nack": False, "cnp": True},
    )


def make_rdata(data: Packet, rx_port: int, *, created_ps: int = 0) -> Packet:
    """Truncate a DATA packet to 64 B for FPGA-side receiver logic
    (Figure 2's dashed path; Section 4.1).

    Keeps exactly what the receiver logic needs: flow ID, PSN, addresses,
    the CE mark, the transmit-timestamp echo, the INT path, and the test
    port the DATA arrived on (so the eventual ACK leaves the same port).
    """
    rdata = Packet(
        PTYPE_RDATA,
        data.src,
        data.dst,
        MIN_FRAME_BYTES,
        flow_id=data.flow_id,
        psn=data.psn,
        ecn=data.ecn,
        created_ps=created_ps,
        meta={
            "rx_port": rx_port,
            "tx_tstamp_ps": data.meta.get("tx_tstamp_ps", -1),
            "is_rtx": bool(data.meta.get("is_rtx", False)),
        },
    )
    int_telemetry.echo(data, rdata)
    return rdata


def make_info(ack: Packet, rx_port: int, *, created_ps: int = 0) -> Packet:
    """Reassemble an ACK into a 64 B INFO packet (Module B, step 6).

    ``rx_port`` records which switch test port the ACK arrived on; the
    FPGA uses it to pick the RX FIFO (Section 5.3, ingress direction).
    """
    info = Packet(
        PTYPE_INFO,
        INTERNAL_ADDR,
        INTERNAL_ADDR,
        MIN_FRAME_BYTES,
        flow_id=ack.flow_id,
        psn=ack.psn,
        ecn_echo=ack.ecn_echo,
        created_ps=created_ps,
        meta={
            "rx_port": rx_port,
            "echo_tstamp_ps": ack.meta.get("echo_tstamp_ps", -1),
            "nack": bool(ack.meta.get("nack", False)),
            "cnp": bool(ack.meta.get("cnp", False)),
        },
    )
    int_telemetry.echo(ack, info)
    return info
