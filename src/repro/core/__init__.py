"""ConsensusBatcher: the paper's primary contribution.

The packet of a wireless asynchronous BFT consensus node is divided into four
parts -- header, NACK, value and signature (Section IV-B.1).  ConsensusBatcher
merges the messages of N parallel consensus components into shared packets:

* **vertical batching** merges the same phase across the N parallel instances
  (e.g. the ECHO votes of all N RBC instances ride in one packet), and
* **horizontal batching** merges different phases of the same component
  (e.g. ECHO and READY, or the three RBC phases inside Bracha's ABA),

so that one channel-access contention serves what would otherwise be N (or
3N) separate transmissions.  The compressed NACK encoding drops the per-packet
NACK cost from O(N^2) to O(N) bits.

Modules
-------
:mod:`~repro.core.packet`   the logical message and the packet model (Figs. 4-6)
:mod:`~repro.core.batcher`  the batched (ConsensusBatcher) and baseline transports
:mod:`~repro.core.overhead` the analytical message-overhead model of Table I

Import a name from the module that defines it; the package re-exports nothing.
"""
