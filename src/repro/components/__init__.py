"""Consensus components (the paper's component layer, Fig. 9a).

Broadcast protocols:

* :class:`~repro.components.rbc.BrachaRbc` -- Bracha's reliable broadcast
  (INITIAL / ECHO / READY), the RBC used throughout the paper;
* :class:`~repro.components.rbc_small.RbcSmall` -- the Fig. 5a variant for
  small (two-bit) proposals;
* :class:`~repro.components.rbc_cachin.CachinRbc` -- Cachin's erasure-coded
  RBC (AVID style), provided for completeness / comparison;
* :class:`~repro.components.prbc.Prbc` -- provable reliable broadcast
  (RBC + DONE with a threshold-signature proof), used by Dumbo;
* :class:`~repro.components.cbc.Cbc` -- consistent broadcast
  (INITIAL / ECHO / FINISH with a threshold signature), used by Dumbo;
* :class:`~repro.components.cbc_small.CbcSmall` -- the Fig. 5b variant for
  node-id-list proposals (Dumbo's CBC_commit).

Asynchronous Byzantine agreement:

* :class:`~repro.components.aba_bracha.BrachaAba` -- local-coin ABA (ABA-LC);
* :class:`~repro.components.aba_cachin.CachinAba` -- shared-coin ABA (ABA-SC),
  the Mostefaoui-style binary agreement with a threshold-signature coin;
* :class:`~repro.components.aba_coinflip.CoinFlipAba` -- BEAT's ABA (ABA-CP)
  using threshold coin flipping.

The ECHO / READY rule of every Bracha-style broadcast above is
:class:`~repro.components.votes.BrachaVotes`; input, round advance and
DECIDED termination of every ABA are
:class:`~repro.components.aba_base.RoundBasedAba`; which ABA a coin kind
(``lc`` / ``sc`` / ``cp``) means, with which coin manager, is
:func:`~repro.components.aba_factory.aba_factory`.

All components run on top of either transport from :mod:`repro.core.batcher`,
so the same protocol logic executes batched (ConsensusBatcher) or unbatched
(baseline), as the paper's safety argument requires.

Import a name from the module that defines it; the package re-exports nothing.
"""
