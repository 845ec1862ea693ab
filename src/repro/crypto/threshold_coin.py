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
from functools import cached_property, partial
from typing import Iterable, Optional, Sequence

from repro.crypto.group import (
    ChaumPedersenProof,
    DEFAULT_GROUP,
    Group,
    Stamped,
    combine_in_exponent,
    holds_published_share,
    mint,
    prove_dlog_equality,
    verify_dlog_equality,
)
from repro.crypto.shamir import ShamirDealer


class ThresholdCoinError(ValueError):
    """Raised on malformed coin shares or insufficient share sets."""


@dataclass(frozen=True)
class CoinShare(Stamped):
    """One node's contribution to the coin for a given tag."""

    signer: int
    tag: bytes
    value: int
    proof: ChaumPedersenProof

    def size_bytes(self) -> int:
        """Nominal wire size of the coin share."""
        return 32 + self.proof.size_bytes()


@dataclass(frozen=True)
class ThresholdCoinPublicKey:
    """Public material for the coin: per-node verification keys."""

    group: Group
    num_parties: int
    threshold: int
    master_verify_key: int
    share_verify_keys: tuple[int, ...]

    def tag_point(self, tag: bytes) -> int:
        """Hash the coin tag to a group element."""
        return self.group.hash_to_group(b"tcoin", tag)

    def verify_share(self, tag: bytes, share: CoinShare) -> bool:
        """Check a coin share's correctness proof.

        A share still carrying the stamp of the handle that made it, for
        this key and this tag, is valid by construction; anything else has
        its proof verified.  Wrong-typed input is an invalid share.
        """
        if not (isinstance(share, CoinShare)
                and isinstance(share.signer, int)
                and isinstance(tag, bytes)):
            return False
        if share._minted_for == (self, tag):
            return True
        if not 1 <= share.signer <= self.num_parties:
            return False
        if share.tag != tag:
            return False
        point = self.tag_point(tag)
        verify_key = self.share_verify_keys[share.signer - 1]
        return verify_dlog_equality(self.group, share.proof, base_h=point,
                                    value_g=verify_key, value_h=share.value,
                                    context=b"tcoin-share")

    def _combine_element(self, tag: bytes, shares: Sequence[CoinShare],
                         verify: bool) -> int:
        """Lagrange-combine shares into ``H(tag)^s``.

        With ``verify`` the first share per signer that :meth:`verify_share`
        accepts is kept; a caller that verified every share on arrival
        passes ``verify=False``.
        """
        return combine_in_exponent(
            self.group, shares, self.threshold, ThresholdCoinError,
            "coin shares",
            accept=partial(self.verify_share, tag) if verify else None)

    def combine(self, tag: bytes, shares: Sequence[CoinShare],
                verify: bool = True) -> int:
        """Combine shares into the coin value for ``tag`` (0 or 1)."""
        combined = self._combine_element(tag, shares, verify)
        digest = hashlib.sha256(
            b"coin-out" + self.group.element_to_bytes(combined)).digest()
        return digest[0] & 1

    def combine_value(self, tag: bytes, shares: Sequence[CoinShare],
                      modulus: int, verify: bool = True) -> int:
        """Combine shares into an integer in ``[0, modulus)``.

        Dumbo uses the coin output as a pseudorandom permutation seed (the
        global string pi); this helper exposes a wider output range.
        """
        combined = self._combine_element(tag, shares, verify)
        digest = hashlib.sha256(
            b"coin-wide" + self.group.element_to_bytes(combined)).digest()
        return int.from_bytes(digest, "big") % modulus


@dataclass(frozen=True)
class ThresholdCoinPrivateShare:
    """Node ``index``'s private coin key share."""

    index: int
    secret: int


class ThresholdCoinScheme:
    """Per-node handle for producing and combining coin shares.

    ``flavor`` distinguishes the threshold-signature-based coin (``"tsig"``,
    used by ABA-SC) from threshold coin flipping (``"flip"``, used by ABA-CP).
    The cryptographic mechanics are identical in this reproduction; the cost
    model differs (Figure 10a vs. 10b).
    """

    def __init__(self, public_key: ThresholdCoinPublicKey,
                 private_share: ThresholdCoinPrivateShare,
                 flavor: str = "tsig") -> None:
        if flavor not in ("tsig", "flip"):
            raise ThresholdCoinError(f"unknown coin flavor {flavor!r}")
        self.public_key = public_key
        self.private_share = private_share
        self.group = public_key.group
        self.flavor = flavor

    @property
    def threshold(self) -> int:
        """Number of shares needed to reveal the coin."""
        return self.public_key.threshold

    @cached_property
    def _holds_published_share(self) -> bool:
        return holds_published_share(self.group, self.private_share,
                                     self.public_key.share_verify_keys)

    def coin_share(self, tag: bytes, rng) -> CoinShare:
        """Produce this node's coin share for ``tag``."""
        point = self.public_key.tag_point(tag)
        value = self.group.exp(point, self.private_share.secret)
        # The dealer already published g^{s_i} as this node's verify key.
        proof = prove_dlog_equality(
            self.group, secret=self.private_share.secret, base_h=point,
            value_g=self.public_key.share_verify_keys[self.private_share.index - 1],
            value_h=value, rng=rng, context=b"tcoin-share")
        share = CoinShare(signer=self.private_share.index, tag=tag,
                          value=value, proof=proof)
        if self._holds_published_share:
            mint(share, self.public_key, tag)
        return share

    def verify_share(self, tag: bytes, share: CoinShare) -> bool:
        """Verify another node's coin share."""
        return self.public_key.verify_share(tag, share)

    def combine(self, tag: bytes, shares: Iterable[CoinShare],
                verify: bool = True) -> int:
        """Reveal the coin bit for ``tag``."""
        return self.public_key.combine(tag, list(shares), verify=verify)

    def combine_value(self, tag: bytes, shares: Iterable[CoinShare],
                      modulus: int, verify: bool = True) -> int:
        """Reveal a wide pseudorandom value for ``tag``."""
        return self.public_key.combine_value(tag, list(shares), modulus,
                                             verify=verify)


def deal_threshold_coin(num_parties: int, threshold: int, rng,
                        group: Group = DEFAULT_GROUP, flavor: str = "tsig",
                        master_secret: Optional[int] = None) -> list[ThresholdCoinScheme]:
    """Trusted-dealer setup for the threshold coin; one scheme per node."""
    if threshold < 1 or threshold > num_parties:
        raise ThresholdCoinError(
            f"threshold must be in [1, {num_parties}], got {threshold}")
    field = group.scalar_field
    secret = master_secret if master_secret is not None else group.random_scalar(rng)
    dealer = ShamirDealer(field, num_parties, threshold)
    shares = dealer.deal(secret, rng)
    public_key = ThresholdCoinPublicKey(
        group=group,
        num_parties=num_parties,
        threshold=threshold,
        master_verify_key=group.power_of_g(secret),
        share_verify_keys=tuple(group.power_of_g(s.value) for s in shares),
    )
    return [ThresholdCoinScheme(public_key,
                                ThresholdCoinPrivateShare(index=s.index, secret=s.value),
                                flavor=flavor)
            for s in shares]
