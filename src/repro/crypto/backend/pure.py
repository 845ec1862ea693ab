"""The always-available pure-Python big-integer tier.

Delegates to the CPython builtins and the hand-optimised helpers in
:mod:`repro.crypto.fastpath`; this tier defines the reference semantics that
every native tier must reproduce bit-for-bit.

``powm`` additionally learns which bases recur.  A consensus run
exponentiates a small set of long-lived bases -- per-node verify keys,
threshold verify keys, the epoch's coin tag points and ciphertext
ephemerals -- tens to thousands of times each, and a stream of one-shot share
values exactly once each.  The second sighting of a ``(base, modulus)``
promotes it to a :class:`~repro.crypto.fastpath.CompactBaseTable`, one-shot
bases stay on builtin ``pow``, and all tables share one byte budget under
LRU eviction.  A table exponentiation is the same integer as ``pow``, so the
cache changes wall-clock time only.
"""

from __future__ import annotations

from collections import OrderedDict
from typing import Sequence

from repro.crypto import fastpath
from repro.crypto.fastpath import CompactBaseTable

#: Byte budget shared by every table (~17 KB each on the 256-bit group, so
#: ~120 of them: an 8x8 multi-hop run keeps about that many bases in play, an
#: n=4 run 50-60).  Bytes, not entries, and deliberately small: every fresh
#: seed brings fresh keys, so a roomier cache only fills up with the previous
#: runs' dead keys and shows as resident memory.
_TABLE_BUDGET_BYTES = 2 << 20
#: Bound on the first-sighting memo.  One-shot share values are the bulk of
#: distinct bases, so this FIFO only has to span the gap between a recurring
#: base's first and second use (a few dozen calls in every profiled run).
_SEEN_ONCE_MAX = 128

_table_bytes = CompactBaseTable.estimated_bytes


class PureBigint:
    """Big-integer primitives via CPython ``pow`` and the fastpath helpers."""

    name = "pure"

    def __init__(self) -> None:
        # (base, modulus) seen exactly once, oldest first
        self._seen_once: OrderedDict[tuple[int, int], None] = OrderedDict()
        # promoted bases, least recently used first
        self._tables: OrderedDict[tuple[int, int], CompactBaseTable] = \
            OrderedDict()
        self._held_bytes = 0

    @property
    def table_count(self) -> int:
        """Number of fixed-base tables currently held."""
        return len(self._tables)

    @property
    def table_bytes(self) -> int:
        """Estimated bytes of all tables held (never above the budget)."""
        return self._held_bytes

    def powm(self, base: int, exponent: int, modulus: int) -> int:
        if exponent < 0:
            raise ValueError("powm requires a non-negative exponent")
        key = (base, modulus)
        table = self._tables.get(key)
        if table is not None:
            self._tables.move_to_end(key)
        elif key in self._seen_once and modulus > 0 \
                and _table_bytes(modulus) <= _TABLE_BUDGET_BYTES:
            # Second sighting: the table costs ~1.5 ``pow`` calls to build
            # and answers in ~27% of one, so it has paid for itself by
            # the base's fourth use -- which every per-epoch tag point and
            # ephemeral reaches at n >= 2.
            del self._seen_once[key]
            table = self._tables[key] = CompactBaseTable(base, modulus)
            self._held_bytes += _table_bytes(modulus)
            while self._held_bytes > _TABLE_BUDGET_BYTES:
                (_, evicted_modulus), _ = self._tables.popitem(last=False)
                self._held_bytes -= _table_bytes(evicted_modulus)
        else:
            self._seen_once[key] = None
            if len(self._seen_once) > _SEEN_ONCE_MAX:
                self._seen_once.popitem(last=False)
            return pow(base, exponent, modulus)
        if exponent >= table.limit:
            return pow(base, exponent, modulus)
        return table.pow(exponent)

    @staticmethod
    def multi_powm(pairs: Sequence[tuple[int, int]], modulus: int) -> int:
        return fastpath.multi_exp(pairs, modulus)

    @staticmethod
    def jacobi(a: int, n: int) -> int:
        return fastpath.jacobi(a, n)
