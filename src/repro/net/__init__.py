"""Wireless network substrate for asynchronous BFT consensus.

The paper evaluates consensus on STM32F767 boards with LoRa radios; this
package provides the simulated equivalent: a deterministic discrete-event
simulator with

* a shared, half-duplex broadcast channel with collisions (:mod:`~repro.net.channel`),
* a CSMA/CA medium access layer (:mod:`~repro.net.csma`),
* a radio airtime model parameterised by bitrate (:mod:`~repro.net.radio`),
* a node runtime with a CPU busy-time model so cryptographic computation
  delays flow into consensus latency (:mod:`~repro.net.node`), behind a DMA
  receive buffer with the packet-alignment optimisation of Section IV-B.2
  (:mod:`~repro.net.dma`),
* single-hop and clustered multi-hop topologies plus inter-cluster routing
  (:mod:`~repro.net.topology`, :mod:`~repro.net.routing`),
* an asynchronous adversary able to delay and reorder messages and to control
  up to ``f`` Byzantine nodes (:mod:`~repro.net.adversary`), and
* per-run statistics: channel accesses, airtime, collisions, message and byte
  counts (:mod:`~repro.net.trace`).

Import a name from the module that defines it; the package re-exports nothing.
"""
