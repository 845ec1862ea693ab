"""Labelled threshold encryption (threshold ElGamal, Baek-Zheng style).

HoneyBadgerBFT and BEAT threshold-encrypt each node's proposal so that the
adversary cannot censor specific transactions: the plaintext only becomes
readable after the Asynchronous Common Subset is fixed and ``f + 1`` nodes
have released decryption shares.

Construction (discrete-log analogue of the paper's pairing-based scheme):

* public key ``y = g^s`` with ``s`` Shamir-shared as ``s_i``;
* ``Encrypt(m)``: pick ``r``, ciphertext is ``(U = g^r, C = m xor KDF(y^r))``;
* node ``i``'s decryption share is ``U^{s_i}`` with a Chaum-Pedersen proof;
* ``f + 1`` valid shares Lagrange-combine to ``U^s = y^r``, which re-derives
  the KDF key and recovers ``m``.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass
from typing import Optional, Sequence

from repro.crypto.group import ChaumPedersenProof, DEFAULT_GROUP, Group
from repro.crypto.threshold import (
    PrivateShare,
    Share,
    ShareHolder,
    SharePublicKey,
    deal,
)


class ThresholdEncError(ValueError):
    """Raised on malformed ciphertexts, shares or insufficient share sets."""


def _mask(data: bytes, group: Group, shared: int, label: bytes) -> bytes:
    """``data`` XOR the SHA-256-CTR keystream keyed by the ElGamal secret
    ``shared`` and the label: encryption and decryption are the same map."""
    key_material = hashlib.sha256(
        b"tenc" + group.element_to_bytes(shared) + label).digest()
    length = len(data)
    keystream = b"".join(
        hashlib.sha256(key_material + counter.to_bytes(4, "big")).digest()
        for counter in range((length + 31) // 32))[:length]
    # one big-integer XOR, not a Python-level step per byte
    return (int.from_bytes(data, "big")
            ^ int.from_bytes(keystream, "big")).to_bytes(length, "big")


@dataclass(frozen=True)
class Ciphertext:
    """A labelled threshold-ElGamal ciphertext."""

    ephemeral: int
    payload: bytes
    label: bytes


def ciphertext_to_bytes(ciphertext: Ciphertext) -> bytes:
    """Serialise a ciphertext into a self-contained byte string.

    HoneyBadgerBFT / BEAT broadcast ciphertexts through RBC, which operates on
    opaque byte strings; this is the canonical wire encoding.
    """
    ephemeral = ciphertext.ephemeral.to_bytes(40, "big")
    label_length = len(ciphertext.label).to_bytes(2, "big")
    return ephemeral + label_length + ciphertext.label + ciphertext.payload


def ciphertext_from_bytes(data: bytes) -> Ciphertext:
    """Inverse of :func:`ciphertext_to_bytes`."""
    if len(data) < 42:
        raise ThresholdEncError("truncated ciphertext encoding")
    ephemeral = int.from_bytes(data[:40], "big")
    label_length = int.from_bytes(data[40:42], "big")
    if len(data) < 42 + label_length:
        raise ThresholdEncError("truncated ciphertext label")
    label = data[42:42 + label_length]
    payload = data[42 + label_length:]
    return Ciphertext(ephemeral=ephemeral, payload=payload, label=label)


@dataclass(frozen=True)
class DecryptionShare(Share):
    """Node ``signer``'s decryption share ``U^{s_i}`` with correctness proof."""

    signer: int
    value: int
    proof: ChaumPedersenProof


@dataclass(frozen=True)
class ThresholdEncPublicKey(SharePublicKey):
    """Public encryption key plus per-node share verification keys."""

    encryption_key: int

    share_type = DecryptionShare
    about_type = Ciphertext
    share_context = b"tenc-share"
    error = ThresholdEncError
    share_noun = "decryption shares"

    def encrypt(self, plaintext: bytes, label: bytes, rng) -> Ciphertext:
        """Encrypt ``plaintext`` under the master public key."""
        nonce = self.group.random_scalar(rng)
        ephemeral = self.group.power_of_g(nonce)
        shared = self.group.exp(self.encryption_key, nonce)
        return Ciphertext(ephemeral=ephemeral, label=label,
                          payload=_mask(plaintext, self.group, shared, label))

    def _statement(self, ciphertext):
        return ciphertext.ephemeral

    def _base(self, _ciphertext, ephemeral, _share):
        """Every share of a ciphertext whose ephemeral is not in the group
        is invalid: its ``f + 1`` subsets would combine to different
        plaintexts (no stamp exists for one, see ``decryption_share``)."""
        if isinstance(ephemeral, int) and self.group.is_member(ephemeral):
            return ephemeral
        return None

    def combine(self, ciphertext: Ciphertext,
                shares: Sequence[DecryptionShare], verify: bool = True) -> bytes:
        """Combine ``threshold`` valid decryption shares and recover the plaintext."""
        shared = self._combine_element(ciphertext, shares, verify)
        return _mask(ciphertext.payload, self.group, shared, ciphertext.label)


ThresholdEncPrivateShare = PrivateShare


class ThresholdEncScheme(ShareHolder):
    """Per-node handle bundling the public key with this node's key share."""

    def encrypt(self, plaintext: bytes, label: bytes, rng) -> Ciphertext:
        """Encrypt under the master public key (any node or client can do this)."""
        return self.public_key.encrypt(plaintext, label, rng)

    def decryption_share(self, ciphertext: Ciphertext, rng) -> DecryptionShare:
        """Produce this node's decryption share for ``ciphertext``.

        Refuses an ephemeral outside the group: ``base^secret`` for such a
        base is not a share of anything, and must never carry a stamp.
        """
        if not self.group.is_member(ciphertext.ephemeral):
            raise ThresholdEncError(
                "ciphertext ephemeral is not a group element")
        return self._make_share(ciphertext.ephemeral, ciphertext.ephemeral,
                                rng)


def deal_threshold_enc(num_parties: int, threshold: int, rng,
                       group: Group = DEFAULT_GROUP,
                       master_secret: Optional[int] = None) -> list[ThresholdEncScheme]:
    """Trusted-dealer setup for threshold encryption; one scheme per node."""
    master_key, key_fields, private_shares = deal(
        num_parties, threshold, rng, group, master_secret, ThresholdEncError)
    public_key = ThresholdEncPublicKey(encryption_key=master_key, **key_fields)
    return [ThresholdEncScheme(public_key, private)
            for private in private_shares]
