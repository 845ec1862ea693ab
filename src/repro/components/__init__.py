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
"""

from repro.components.base import ComponentContext, Component, ComponentRouter
from repro.components.erasure import encode_blocks, decode_blocks, ErasureError
from repro.components.common_coin import CommonCoinManager
from repro.components.rbc import BrachaRbc
from repro.components.rbc_small import RbcSmall
from repro.components.rbc_cachin import CachinRbc
from repro.components.prbc import Prbc
from repro.components.cbc import Cbc
from repro.components.cbc_small import CbcSmall
from repro.components.aba_bracha import BrachaAba
from repro.components.aba_cachin import CachinAba
from repro.components.aba_coinflip import CoinFlipAba
from repro.components.aba_factory import ABA_BY_COIN, aba_factory, coin_schemes

__all__ = [
    "ComponentContext",
    "Component",
    "ComponentRouter",
    "encode_blocks",
    "decode_blocks",
    "ErasureError",
    "CommonCoinManager",
    "BrachaRbc",
    "RbcSmall",
    "CachinRbc",
    "Prbc",
    "Cbc",
    "CbcSmall",
    "BrachaAba",
    "CachinAba",
    "CoinFlipAba",
    "ABA_BY_COIN",
    "aba_factory",
    "coin_schemes",
]
