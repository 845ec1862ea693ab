"""Threshold common coin (Cachin-Kursawe-Shoup style) and threshold coin flipping.

Shared-coin ABA (the paper's ABA-SC) obtains per-round randomness that no
``f`` Byzantine nodes can predict: each node releases a coin share
``H(tag)^{s_i}`` for the round tag; any ``f + 1`` valid shares combine into
``H(tag)^s`` whose hash parity is the coin value.

BEAT replaces the threshold-signature-based coin with *threshold coin
flipping* (the paper's ABA-CP), which is computationally cheaper.  In this
reproduction both use the same group machinery but are exposed as distinct
schemes so that their distinct cost profiles (Figure 10a vs. 10b) can be
attached and so protocols can select either.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass
from typing import Iterable, Optional, Sequence

from repro.crypto.group import ChaumPedersenProof, DEFAULT_GROUP, Group
from repro.crypto.threshold import (
    PrivateShare,
    Share,
    ShareHolder,
    SharePublicKey,
    deal,
)


class ThresholdCoinError(ValueError):
    """Raised on malformed coin shares or insufficient share sets."""


@dataclass(frozen=True)
class CoinShare(Share):
    """One node's contribution to the coin for a given tag."""

    signer: int
    tag: bytes
    value: int
    proof: ChaumPedersenProof


@dataclass(frozen=True)
class ThresholdCoinPublicKey(SharePublicKey):
    """Public material for the coin: per-node verification keys."""

    master_verify_key: int

    share_type = CoinShare
    about_type = bytes
    share_context = b"tcoin-share"
    error = ThresholdCoinError
    share_noun = "coin shares"

    def tag_point(self, tag: bytes) -> int:
        """Hash the coin tag to a group element."""
        return self.group.hash_to_group(b"tcoin", tag)

    def _statement(self, tag):
        return tag

    def _base(self, tag, _statement, share):
        return self.tag_point(tag) if share.tag == tag else None

    def _coin_digest(self, prefix: bytes, tag: bytes,
                     shares: Sequence[CoinShare], verify: bool) -> bytes:
        """SHA-256 of ``H(tag)^s`` under an output-domain ``prefix``."""
        combined = self._combine_element(tag, shares, verify)
        return hashlib.sha256(
            prefix + self.group.element_to_bytes(combined)).digest()

    def combine(self, tag: bytes, shares: Sequence[CoinShare],
                verify: bool = True) -> int:
        """Combine shares into the coin value for ``tag`` (0 or 1)."""
        return self._coin_digest(b"coin-out", tag, shares, verify)[0] & 1

    def combine_value(self, tag: bytes, shares: Sequence[CoinShare],
                      modulus: int, verify: bool = True) -> int:
        """Combine shares into an integer in ``[0, modulus)``.

        The wide coin a permutation seed needs.  No run calls it: Dumbo-SC
        seeds its global string pi from :meth:`combine`, one bit, so pi
        takes only two orders (finding ``dumbo-pi-one-bit``, ROADMAP).
        """
        digest = self._coin_digest(b"coin-wide", tag, shares, verify)
        return int.from_bytes(digest, "big") % modulus


ThresholdCoinPrivateShare = PrivateShare


class ThresholdCoinScheme(ShareHolder):
    """Per-node handle for producing and combining coin shares.

    ``flavor`` distinguishes the threshold-signature-based coin (``"tsig"``,
    used by ABA-SC) from threshold coin flipping (``"flip"``, used by ABA-CP).
    The cryptographic mechanics are identical in this reproduction; the cost
    model differs (Figure 10a vs. 10b).
    """

    def __init__(self, public_key: ThresholdCoinPublicKey,
                 private_share: PrivateShare,
                 flavor: str = "tsig") -> None:
        if flavor not in ("tsig", "flip"):
            raise ThresholdCoinError(f"unknown coin flavor {flavor!r}")
        super().__init__(public_key, private_share)
        self.flavor = flavor

    def coin_share(self, tag: bytes, rng) -> CoinShare:
        """Produce this node's coin share for ``tag``."""
        return self._make_share(self.public_key.tag_point(tag), tag, rng,
                                tag=tag)

    def combine_value(self, tag: bytes, shares: Iterable[CoinShare],
                      modulus: int, verify: bool = True) -> int:
        """Reveal a wide pseudorandom value for ``tag``."""
        return self.public_key.combine_value(tag, list(shares), modulus,
                                             verify=verify)


def deal_threshold_coin(num_parties: int, threshold: int, rng,
                        group: Group = DEFAULT_GROUP, flavor: str = "tsig",
                        master_secret: Optional[int] = None) -> list[ThresholdCoinScheme]:
    """Trusted-dealer setup for the threshold coin; one scheme per node."""
    master_key, key_fields, private_shares = deal(
        num_parties, threshold, rng, group, master_secret, ThresholdCoinError)
    public_key = ThresholdCoinPublicKey(master_verify_key=master_key,
                                        **key_fields)
    return [ThresholdCoinScheme(public_key, private, flavor=flavor)
            for private in private_shares]
