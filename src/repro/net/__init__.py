"""Network substrate: packets, links, queues, switches, hosts, topologies.

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
from repro.net.topology import Topology, n_cast_1
from repro.net.leaf_spine import (
    LeafSpineFabric,
    attach_endpoint,
    build_leaf_spine,
    wire_tester_leaf_spine,
)
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
    "n_cast_1",
    "LeafSpineFabric",
    "attach_endpoint",
    "build_leaf_spine",
    "wire_tester_leaf_spine",
    "PfcController",
    "enable_pfc",
    "int_telemetry",
]
