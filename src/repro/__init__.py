"""Reproduction of "Asynchronous BFT Consensus Made Wireless" (ICDCS 2025).

This package implements the paper's contribution, **ConsensusBatcher**, together
with every substrate it depends on:

* :mod:`repro.net` -- a deterministic discrete-event wireless network simulator
  (shared half-duplex channel, CSMA/CA, collisions, airtime, DMA-style receive
  buffering, NACK-based reliability, single-hop and clustered multi-hop
  topologies).
* :mod:`repro.crypto` -- functionally faithful simulated threshold cryptography
  (threshold signatures, threshold coin flipping, threshold encryption) and
  digital signatures, with per-curve size/latency profiles taken from the
  paper's Figure 10.
* :mod:`repro.core` -- the ConsensusBatcher itself: the packet model of
  Figures 4-6 (field widths and NACK compression), vertical and horizontal
  batching, the DMA alignment model and the analytical message-overhead model
  of Table I.
* :mod:`repro.components` -- consensus components: Bracha/Cachin reliable
  broadcast, RBC-small, PRBC, CBC, CBC-small, Bracha's ABA (local coin),
  Cachin-style ABA (shared coin) and the coin-flipping ABA used by BEAT.
* :mod:`repro.protocols` -- asynchronous BFT consensus protocols built from the
  components: HoneyBadgerBFT (local-coin and shared-coin), BEAT0 and Dumbo2,
  each in ConsensusBatcher-batched and unbatched-baseline form, plus the
  two-phase multi-hop construction of Section V-B.
* :mod:`repro.testbed` -- the evaluation testbed: deployment harness, workload
  generators, latency/throughput metrics, Byzantine strategies and the canned
  scenarios used to regenerate every table and figure of the evaluation.

Import a name from the module that defines it; the package re-exports nothing.

Quickstart
----------

>>> from repro.testbed.harness import run_consensus
>>> from repro.testbed.scenarios import Scenario
>>> result = run_consensus("honeybadger-sc", Scenario.single_hop(num_nodes=4),
...                        seed=1)
>>> result.decided
True
"""
