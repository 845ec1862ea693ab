"""(t, n) threshold signatures (pairing-free BLS analogue).

A trusted dealer Shamir-shares a master secret ``s``; node ``i`` holds
``s_i = f(i)`` and a public verification key ``v_i = g^{s_i}``.  A signature
share on message ``m`` is ``σ_i = H(m)^{s_i}`` together with a Chaum-Pedersen
proof that it matches ``v_i``.  Any ``threshold`` valid shares combine via
Lagrange interpolation in the exponent into the unique threshold signature
``σ = H(m)^s``.  The dealing, the share maker and the share verifier are the
ones every threshold scheme here has (:mod:`repro.crypto.threshold`); what a
receiver of the *combined* signature can check without a pairing is stated
at :meth:`ThresholdSigPublicKey.verify_signature`.

PRBC's DONE phase, CBC's FINISH phase and the shared-coin ABA all use this
scheme; its per-curve cost and byte size (BN158 ... FP512BN, Figure 10a/10c)
are modelled in :mod:`repro.crypto.curves`.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from typing import Optional

from repro.crypto import backend as crypto_backend
from repro.crypto.field import lagrange_coefficients_at_zero
from repro.crypto.group import ChaumPedersenProof, DEFAULT_GROUP, Group
from repro.crypto.threshold import (
    PrivateShare,
    Share,
    ShareHolder,
    SharePublicKey,
    deal,
)


class ThresholdSigError(ValueError):
    """Raised on malformed shares or insufficient share sets."""


@dataclass(frozen=True)
class ThresholdSigShare(Share):
    """A signature share ``H(m)^{s_i}`` from node ``signer`` with its proof."""

    signer: int
    message_point: int
    value: int
    proof: ChaumPedersenProof


# ``Cbc._encode`` is ``repr(value).encode()`` and Dumbo's CBC_value proposal
# holds these: the class name, field names and field order feed payload
# length, airtime and ``value_hash``.
@dataclass(frozen=True)
class ThresholdSignature:
    """A combined threshold signature ``H(m)^s``."""

    message_point: int
    value: int


@dataclass(frozen=True)
class ThresholdSigPublicKey(SharePublicKey):
    """Public material: the master key and every node's verification key."""

    master_verify_key: int

    share_type = ThresholdSigShare
    about_type = bytes
    share_context = b"tsig-share"
    error = ThresholdSigError
    share_noun = "shares"

    def hash_message(self, message: bytes) -> int:
        """Hash a message to the group (the base point of all shares on it)."""
        return self.group.hash_to_group(b"tsig", message)

    _statement = hash_message  # a stamp is keyed on the message's point

    def _base(self, message, point, share):
        return point if share.message_point == point else None

    def combine(self, message: bytes, shares, verify: bool = True
                ) -> ThresholdSignature:
        """Combine ``threshold`` valid shares into the threshold signature."""
        return ThresholdSignature(
            message_point=self.hash_message(message),
            value=self._combine_element(message, shares, verify))

    def verify_signature(self, message: bytes,
                         signature: ThresholdSignature) -> bool:
        """Check a combined signature's form -- not that it is ``H(m)^s``.

        Checked: ``signature`` is a :class:`ThresholdSignature` whose
        ``message_point`` is ``H(message)``, its ``value`` is a member of
        the order-``q`` subgroup, and the published share verify keys
        interpolate to the master key.  Not checked: that ``value`` is
        ``H(message)^s``.  Without a pairing that takes the share set, and a
        certificate here does not carry one, so *any* subgroup element
        passes for the right message; honest runs only ever see values
        their own combiner made from verified shares.  The owed fix is in
        ROADMAP.md ("forged-certificate").
        """
        if not isinstance(signature, ThresholdSignature):
            return False
        point = self.hash_message(message)
        if point != signature.message_point:
            return False
        if not self.group.is_member(signature.value):
            return False
        # depends on the public key alone, so it is memoised
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


ThresholdSigPrivateShare = PrivateShare


class ThresholdSigScheme(ShareHolder):
    """Per-node handle bundling the public key with this node's private share."""

    def sign_share(self, message: bytes, rng) -> ThresholdSigShare:
        """Produce this node's signature share on ``message``."""
        point = self.public_key.hash_message(message)
        return self._make_share(point, point, rng, message_point=point)

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
    master_key, key_fields, private_shares = deal(
        num_parties, threshold, rng, group, master_secret, ThresholdSigError)
    public_key = ThresholdSigPublicKey(master_verify_key=master_key,
                                       **key_fields)
    return [ThresholdSigScheme(public_key, private)
            for private in private_shares]
