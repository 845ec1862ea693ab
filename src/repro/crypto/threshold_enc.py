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

    def size_bytes(self) -> int:
        """Nominal wire size: one group element plus the masked payload."""
        return 32 + len(self.payload)


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
class DecryptionShare(Stamped):
    """Node ``signer``'s decryption share ``U^{s_i}`` with correctness proof."""

    signer: int
    value: int
    proof: ChaumPedersenProof

    def size_bytes(self) -> int:
        """Nominal wire size of the share."""
        return 32 + self.proof.size_bytes()


@dataclass(frozen=True)
class ThresholdEncPublicKey:
    """Public encryption key plus per-node share verification keys."""

    group: Group
    num_parties: int
    threshold: int
    encryption_key: int
    share_verify_keys: tuple[int, ...]

    def encrypt(self, plaintext: bytes, label: bytes, rng) -> Ciphertext:
        """Encrypt ``plaintext`` under the master public key."""
        nonce = self.group.random_scalar(rng)
        ephemeral = self.group.power_of_g(nonce)
        shared = self.group.exp(self.encryption_key, nonce)
        return Ciphertext(ephemeral=ephemeral, label=label,
                          payload=_mask(plaintext, self.group, shared, label))

    def verify_share(self, ciphertext: Ciphertext, share: DecryptionShare) -> bool:
        """Check a decryption share's correctness proof.

        A share still carrying the stamp of the handle that made it, for
        this key and this ciphertext's ephemeral, is valid by construction;
        anything else has its proof verified.  Wrong-typed input is an
        invalid share, and so is every share of a ciphertext whose ephemeral
        is not in the group: its ``f + 1`` subsets would combine to
        different plaintexts (no stamp exists for one, see
        ``decryption_share``).
        """
        if not (isinstance(share, DecryptionShare)
                and isinstance(share.signer, int)
                and isinstance(ciphertext, Ciphertext)):
            return False
        if share._minted_for == (self, ciphertext.ephemeral):
            return True
        if not (1 <= share.signer <= self.num_parties
                and isinstance(ciphertext.ephemeral, int)
                and self.group.is_member(ciphertext.ephemeral)):
            return False
        verify_key = self.share_verify_keys[share.signer - 1]
        return verify_dlog_equality(self.group, share.proof,
                                    base_h=ciphertext.ephemeral,
                                    value_g=verify_key, value_h=share.value,
                                    context=b"tenc-share")

    def combine(self, ciphertext: Ciphertext,
                shares: Sequence[DecryptionShare], verify: bool = True) -> bytes:
        """Combine ``threshold`` valid decryption shares and recover the plaintext.

        With ``verify`` the first share per signer that :meth:`verify_share`
        accepts is kept; a caller that verified every share on arrival
        passes ``verify=False``.
        """
        shared = combine_in_exponent(
            self.group, shares, self.threshold, ThresholdEncError,
            "decryption shares",
            accept=partial(self.verify_share, ciphertext) if verify else None)
        return _mask(ciphertext.payload, self.group, shared, ciphertext.label)


@dataclass(frozen=True)
class ThresholdEncPrivateShare:
    """Node ``index``'s private decryption key share."""

    index: int
    secret: int


class ThresholdEncScheme:
    """Per-node handle bundling the public key with this node's key share."""

    def __init__(self, public_key: ThresholdEncPublicKey,
                 private_share: ThresholdEncPrivateShare) -> None:
        self.public_key = public_key
        self.private_share = private_share
        self.group = public_key.group

    @property
    def threshold(self) -> int:
        """Number of decryption shares needed."""
        return self.public_key.threshold

    @cached_property
    def _holds_published_share(self) -> bool:
        return holds_published_share(self.group, self.private_share,
                                     self.public_key.share_verify_keys)

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
        value = self.group.exp(ciphertext.ephemeral, self.private_share.secret)
        # The dealer already published g^{s_i} as this node's verify key.
        proof = prove_dlog_equality(
            self.group, secret=self.private_share.secret,
            base_h=ciphertext.ephemeral,
            value_g=self.public_key.share_verify_keys[self.private_share.index - 1],
            value_h=value, rng=rng, context=b"tenc-share")
        share = DecryptionShare(signer=self.private_share.index, value=value,
                                proof=proof)
        if self._holds_published_share:
            mint(share, self.public_key, ciphertext.ephemeral)
        return share

    def verify_share(self, ciphertext: Ciphertext, share: DecryptionShare) -> bool:
        """Verify another node's decryption share."""
        return self.public_key.verify_share(ciphertext, share)

    def combine(self, ciphertext: Ciphertext,
                shares: Iterable[DecryptionShare],
                verify: bool = True) -> bytes:
        """Recover the plaintext from enough valid shares."""
        return self.public_key.combine(ciphertext, list(shares), verify=verify)


def deal_threshold_enc(num_parties: int, threshold: int, rng,
                       group: Group = DEFAULT_GROUP,
                       master_secret: Optional[int] = None) -> list[ThresholdEncScheme]:
    """Trusted-dealer setup for threshold encryption; one scheme per node."""
    if threshold < 1 or threshold > num_parties:
        raise ThresholdEncError(
            f"threshold must be in [1, {num_parties}], got {threshold}")
    field = group.scalar_field
    secret = master_secret if master_secret is not None else group.random_scalar(rng)
    dealer = ShamirDealer(field, num_parties, threshold)
    shares = dealer.deal(secret, rng)
    public_key = ThresholdEncPublicKey(
        group=group,
        num_parties=num_parties,
        threshold=threshold,
        encryption_key=group.power_of_g(secret),
        share_verify_keys=tuple(group.power_of_g(s.value) for s in shares),
    )
    return [ThresholdEncScheme(public_key,
                               ThresholdEncPrivateShare(index=s.index, secret=s.value))
            for s in shares]
