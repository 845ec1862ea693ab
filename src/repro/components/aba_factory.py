"""From the paper's coin kind to the agreement that pays for it.

``lc`` / ``sc`` / ``cp`` (ABA-LC / ABA-SC / ABA-CP) name an ABA class; the
class names the coin flavor its rounds draw on (``coin_flavor``), and
:data:`repro.crypto.timing.COIN_FLAVORS` gives the flavor its suite handle
and cost rows.  Protocols and the harness build agreements through here, so
an ABA is never wired to a coin manager of another flavor.
"""

from __future__ import annotations

from functools import partial
from typing import Any, Callable

from repro.components.aba_bracha import BrachaAba
from repro.components.aba_cachin import CachinAba
from repro.components.aba_coinflip import CoinFlipAba
from repro.components.base import ComponentContext, ComponentRouter
from repro.components.common_coin import CommonCoinManager

ABA_BY_COIN = {"lc": BrachaAba, "sc": CachinAba, "cp": CoinFlipAba}


def aba_factory(coin: str, ctx: ComponentContext, router: ComponentRouter,
                coin_tag: Any, coin_name: str) -> Callable:
    """``make(instance, tag=...)`` for ``coin``-kind ABAs.

    A shared-coin kind gets one :class:`CommonCoinManager` of the ABA
    class's flavor here, registered under ``coin_tag``, which every instance
    ``make`` builds draws on.
    """
    aba_class = ABA_BY_COIN[coin]
    if aba_class.coin_flavor is None:
        return partial(aba_class, ctx)
    manager = CommonCoinManager(ctx, tag=coin_tag, coin_name=coin_name,
                                flavor=aba_class.coin_flavor)
    router.register_kind_handler("coin", coin_tag, manager.handle)
    return partial(aba_class, ctx, coin=manager)
