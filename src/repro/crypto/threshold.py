"""The dealt share key behind the three threshold schemes.

Threshold signatures, the threshold coin and threshold decryption are one
object: a dealer Shamir-shares a secret ``s`` and publishes ``v_i = g^{s_i}``;
node ``i`` releases ``base^{s_i}`` with a Chaum-Pedersen proof that it matches
``v_i``; any ``threshold`` valid shares Lagrange-combine in the exponent into
``base^s``.  The schemes differ in what a share is *about* (a message, a coin
tag, a ciphertext), where ``base`` comes from, and what becomes of ``base^s``;
everything in front of that difference is here, once.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property, partial
from typing import ClassVar, Iterable, Optional

from repro.crypto.group import (
    Group,
    KnownPower,
    Stamped,
    combine_in_exponent,
    holds_published_share,
    mint,
    prove_dlog_equality,
    verify_dlog_equality,
)
from repro.crypto.shamir import ShamirDealer


@dataclass(frozen=True)
class PrivateShare:
    """Node ``index``'s private key share."""

    index: int
    secret: int


@dataclass(frozen=True)
class Share(Stamped):
    """A released share ``base^{s_i}`` of node ``signer``, with its proof.

    ``signer``, ``value`` and ``proof`` are declared by each scheme's
    subclass beside the field that is its own, in the order its ``repr`` and
    its pickle (``Stamped.__reduce__``) have always had.

    A share made on a base of known log holds its value as ``_power``, the
    exponent ``log(base) * s_i``, until ``value`` is first read: a combine
    takes the exponent and never reads it.  ``_power`` is no dataclass
    field, so a rebuild, ``replace``, ``copy`` or pickle drops it (rule 5 of
    "provenance", :mod:`repro.crypto.group`).
    """

    _power: ClassVar[Optional[KnownPower]] = None

    @classmethod
    def deferred(cls, power: KnownPower, **fields) -> "Share":
        """A share whose ``value`` is ``power.element``, computed on first
        read; ``fields`` are its other init fields."""
        share = object.__new__(cls)
        for name, value in fields.items():
            object.__setattr__(share, name, value)
        object.__setattr__(share, "_power", power)
        return share

    def __getattr__(self, name):
        # Reached only for a name the instance does not hold: ``value`` of
        # a deferred share is computed here, once; anything else is missing.
        power = self.__dict__.get("_power") if name == "value" else None
        if power is None:
            raise AttributeError(
                f"{type(self).__name__!r} object has no attribute {name!r}")
        value = power.element
        object.__setattr__(self, "value", value)
        return value


@dataclass(frozen=True)
class SharePublicKey:
    """Public material of one dealing: every node's verification key.

    A scheme's subclass adds the master key under its own name and supplies
    ``share_type`` (its :class:`Share`) and ``about_type`` (what a share is
    about), ``share_context`` (the proofs' domain separator), ``error`` and
    ``share_noun`` (raised on, and counting, an insufficient share set),
    the two hooks below, and its output tail.
    """

    group: Group
    num_parties: int
    threshold: int
    share_verify_keys: tuple[int, ...]

    share_type: ClassVar[type]
    about_type: ClassVar[type]
    share_context: ClassVar[bytes]
    error: ClassVar[type]
    share_noun: ClassVar[str]

    def _statement(self, about):
        """What a stamp on a share about ``about`` is keyed on."""
        raise NotImplementedError

    def _base(self, about, statement, share) -> Optional[int]:
        """The element a share about ``about`` is a power of; ``None`` when
        ``share`` claims to be about something else, or nothing valid is."""
        raise NotImplementedError

    def verify_share(self, about, share) -> bool:
        """Check that a share was correctly computed from the signer's key share.

        A share still carrying the stamp of the handle that made it, for
        this key and this statement, is valid by construction; anything else
        has its proof verified.  Wrong-typed input is an invalid share.
        """
        if not (isinstance(share, self.share_type)
                and isinstance(share.signer, int)
                and isinstance(about, self.about_type)):
            return False
        statement = self._statement(about)
        if share._minted_for == (self, statement):
            return True
        if not 1 <= share.signer <= self.num_parties:
            return False
        base = self._base(about, statement, share)
        return base is not None and verify_dlog_equality(
            self.group, share.proof, base_h=base,
            value_g=self.share_verify_keys[share.signer - 1],
            value_h=share.value, context=self.share_context)

    def _combine_element(self, about, shares, verify: bool) -> int:
        """Lagrange-combine shares into ``base^s``.

        With ``verify`` the first share per signer that :meth:`verify_share`
        accepts is kept; a caller that verified every share on arrival
        passes ``verify=False``.
        """
        return combine_in_exponent(
            self.group, shares, self.threshold, self.error, self.share_noun,
            accept=partial(self.verify_share, about) if verify else None)


class ShareHolder:
    """Per-node handle bundling the public key with this node's private share."""

    def __init__(self, public_key: SharePublicKey,
                 private_share: PrivateShare) -> None:
        self.public_key = public_key
        self.private_share = private_share
        self.group = public_key.group

    @cached_property
    def _holds_published_share(self) -> bool:
        return holds_published_share(self.group, self.private_share,
                                     self.public_key.share_verify_keys)

    def _make_share(self, base: int, statement, rng, **own_field) -> Share:
        """This node's share on the group member ``base``: ``base^{s_i}``,
        its proof and -- from a handle that holds the share the dealer
        published -- the stamp for ``statement``.  On a base of known log
        the value is deferred (see :class:`Share`)."""
        public_key, private = self.public_key, self.private_share
        power = self.group.known_power(base, private.secret)
        value = (self.group.exp(base, private.secret) if power is None
                 else power)
        # The dealer already published g^{s_i} as this node's verify key.
        proof = prove_dlog_equality(
            self.group, secret=private.secret, base_h=base,
            value_g=public_key.share_verify_keys[private.index - 1],
            value_h=value, rng=rng, context=public_key.share_context)
        if power is None:
            share = public_key.share_type(signer=private.index, value=value,
                                          proof=proof, **own_field)
        else:
            share = public_key.share_type.deferred(
                power, signer=private.index, proof=proof, **own_field)
        if self._holds_published_share:
            mint(share, public_key, statement)
        return share

    def verify_share(self, about, share) -> bool:
        """Verify another node's share."""
        return self.public_key.verify_share(about, share)

    def combine(self, about, shares: Iterable[Share], verify: bool = True):
        """Combine shares into the scheme's output."""
        return self.public_key.combine(about, list(shares), verify=verify)


def deal(num_parties: int, threshold: int, rng, group: Group,
         master_secret: Optional[int], error: type
         ) -> tuple[int, dict, list[PrivateShare]]:
    """Trusted-dealer setup: ``(g^s, public-key fields, private shares)``.

    Node ``i`` (0-based) gets the private share at list index ``i``, whose
    (1-based) index is ``i + 1``.  The only RNG draws of a dealing are the
    secret (unless given), then the Shamir polynomial.
    """
    if threshold < 1 or threshold > num_parties:
        raise error(
            f"threshold must be in [1, {num_parties}], got {threshold}")
    secret = master_secret if master_secret is not None else group.random_scalar(rng)
    shares = ShamirDealer(group.scalar_field, num_parties, threshold).deal(
        secret, rng)
    key_fields = dict(
        group=group, num_parties=num_parties, threshold=threshold,
        share_verify_keys=tuple(group.power_of_g(share.value)
                                for share in shares))
    return (group.power_of_g(secret), key_fields,
            [PrivateShare(index=share.index, secret=share.value)
             for share in shares])
