"""The asynchronous wireless BFT consensus testbed (Section V-C).

The testbed glues the network substrate, the cryptographic module, the
consensus components and the consensus protocols into runnable experiments:

* :mod:`~repro.testbed.scenarios` -- deployment descriptions (single-hop four
  nodes, multi-hop sixteen nodes in four clusters, radio/MAC/crypto knobs);
* :mod:`~repro.testbed.workload`  -- transaction workload generators;
* :mod:`~repro.testbed.byzantine` -- fault/attack strategies for up to ``f``
  nodes per cluster;
* :mod:`~repro.testbed.harness`   -- builds deployments and runs consensus,
  broadcast-component and ABA experiments, batched or baseline;
* :mod:`~repro.testbed.streaming` -- the sustained-load subsystem: E
  back-to-back epochs, open-loop arrivals through the ingress layer
  (:mod:`~repro.testbed.ingress`), epoch pipelining and checkpoint/GC;
* :mod:`~repro.testbed.metrics`   -- latency / throughput (TPM) / overhead
  metrics extracted from runs;
* :mod:`~repro.testbed.invariants` -- safety/liveness conformance checking
  (agreement, total order, validity, liveness expectations);
* :mod:`~repro.testbed.campaign`  -- the deterministic fault-injection
  scenario-sweep engine (see TESTING.md and ``scripts/run_campaign.py``).

Import a name from the module that defines it; the package re-exports nothing.
"""
