"""Network substrate: packets, links, queues, switches, hosts, fabrics.

This package models the *tested network* that Marlin drives traffic
through, plus the plumbing that connects Marlin's own devices.  It is a
conventional packet-level simulation: output-queued switches, links with
serialization and propagation delay, and DCTCP-style ECN marking queues.
"""

from repro.net.packet import Packet, ECT, CE, NOT_ECT
from repro.net.link import Link
from repro.net.queue import DropTailQueue, EcnQueue, Fifo, QueueStats
from repro.net.device import Device, Port
from repro.net.switch import NetworkSwitch
from repro.net.host import Host
from repro.net.topology import Topology
from repro.net.fabric import Fabric, build_fabric, wire_tester
from repro.net.pfc import PfcController, enable_pfc
from repro.net import int_telemetry

__all__ = [
    "Packet",
    "ECT",
    "CE",
    "NOT_ECT",
    "Link",
    "DropTailQueue",
    "EcnQueue",
    "Fifo",
    "QueueStats",
    "Device",
    "Port",
    "NetworkSwitch",
    "Host",
    "Topology",
    "Fabric",
    "build_fabric",
    "wire_tester",
    "PfcController",
    "enable_pfc",
    "int_telemetry",
]
