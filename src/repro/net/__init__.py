"""Wireless network substrate for asynchronous BFT consensus.

The paper evaluates consensus on STM32F767 boards with LoRa radios; this
package provides the simulated equivalent: a deterministic discrete-event
simulator with

* a shared, half-duplex broadcast channel with collisions (:mod:`~repro.net.channel`),
* a CSMA/CA medium access layer (:mod:`~repro.net.csma`),
* a radio airtime model parameterised by bitrate (:mod:`~repro.net.radio`),
* a node runtime with a CPU busy-time model so cryptographic computation
  delays flow into consensus latency (:mod:`~repro.net.node`),
* single-hop and clustered multi-hop topologies plus inter-cluster routing
  (:mod:`~repro.net.topology`, :mod:`~repro.net.routing`),
* an asynchronous adversary able to delay and reorder messages and to control
  up to ``f`` Byzantine nodes (:mod:`~repro.net.adversary`), and
* per-run statistics: channel accesses, airtime, collisions, message and byte
  counts (:mod:`~repro.net.trace`).
"""

from repro.net.sim import PeriodicTimer, Simulator
from repro.net.radio import RadioConfig, LORA_SF7_125KHZ, LORA_FAST, WIFI_LIKE
from repro.net.channel import WirelessChannel, Transmission
from repro.net.csma import CsmaMac, CsmaConfig
from repro.net.node import NetworkNode, CpuConfig
from repro.net.topology import Topology, SingleHopTopology, MultiHopTopology, Cluster
from repro.net.trace import NetworkTrace, ChannelStats
from repro.net.adversary import AsyncAdversary, DelayModel

__all__ = [
    "Simulator",
    "PeriodicTimer",
    "RadioConfig",
    "LORA_SF7_125KHZ",
    "LORA_FAST",
    "WIFI_LIKE",
    "WirelessChannel",
    "Transmission",
    "CsmaMac",
    "CsmaConfig",
    "NetworkNode",
    "CpuConfig",
    "Topology",
    "SingleHopTopology",
    "MultiHopTopology",
    "Cluster",
    "NetworkTrace",
    "ChannelStats",
    "AsyncAdversary",
    "DelayModel",
]
