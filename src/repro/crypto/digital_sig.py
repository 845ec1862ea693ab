"""Per-node public-key digital signatures (micro-ecc stand-in).

Every packet in the wireless testbed carries a public-key digital signature
(Section IV-B.1), so its size and computation cost matter.  The paper uses
micro-ecc ECDSA over secp160r1..secp256k1; this module provides Schnorr
signatures over the reproduction's Schnorr group, which have the same
interface and security role.  The per-curve byte size and latency of the
original ECDSA operations are modelled by :mod:`repro.crypto.curves` and
charged by :mod:`repro.crypto.timing`.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

from repro.crypto.group import (
    DEFAULT_GROUP,
    Deferred,
    Group,
    Stamped,
    mint,
    run_scoped,
)


@dataclass(frozen=True)
class Signature(Stamped, Deferred):
    """A Schnorr signature ``(R, z)``."""

    commitment: int
    response: int

    @staticmethod
    def _prove(group: Group, secret: int, nonce: int, public_element: int,
               message: bytes) -> tuple[int, int]:
        commitment = group.power_of_g(nonce)
        challenge = _challenge(group, commitment, public_element, message)
        return commitment, (nonce + challenge * secret) % group.q


def _challenge(group: Group, commitment: int, public_element: int,
               message: bytes) -> int:
    """The Fiat-Shamir challenge of a Schnorr transcript (signer and
    verifier)."""
    return group.hash_to_scalar(
        b"schnorr",
        group.element_to_bytes(commitment),
        group.element_to_bytes(public_element),
        message,
    )


@dataclass(frozen=True)
class VerifyKey:
    """A public verification key ``pk = g^sk``."""

    group: Group
    public_element: int
    owner: int = -1

    def verify(self, message: bytes, signature: Signature) -> bool:
        """Verify a Schnorr signature on ``message``.

        Each distinct verdict is established once.  By its maker, when the
        maker is in this process: ``SigningKey.sign`` stamps the object it
        returns with the key and message it signed, ``g^z == R * pk^c``
        holds identically for it, and a matching stamp is answered ``True``
        without recomputing either side.  By the first verifier otherwise:
        a hand-built, altered, replayed, cross-key or unpickled signature
        has no matching stamp and runs the Schnorr check, memoised for the
        run (run-scoped, see :func:`repro.crypto.group.forget_run`) because
        every receiver of a broadcast frame verifies the same ``(key,
        message, signature)`` transcript.  The per-node CPU cost model is
        charged by the :class:`CryptoSuite` facade, so neither shortcut
        changes virtual time -- only wall clock.

        Wrong-typed input is an invalid signature, not an exception.  The
        field-type gate comes after the stamp comparison, which reads no
        field: a minted signature's fields are ints, and a stamped verdict
        must not compute them (see "lazy witnesses" in
        :mod:`repro.crypto.group`).
        """
        if not (isinstance(signature, Signature)
                and isinstance(message, bytes)):
            return False
        if signature._minted_for == (self.group, self.public_element, message):
            return True
        if not (isinstance(signature.commitment, int)
                and isinstance(signature.response, int)):
            return False
        return _verify_schnorr_cached(
            self.group.p, self.group.q, self.group.g, self.public_element,
            message, signature.commitment, signature.response)


@run_scoped(maxsize=32768)
def _verify_schnorr_cached(p: int, q: int, g: int, public_element: int,
                           message: bytes, commitment: int,
                           response: int) -> bool:
    group = Group(p=p, q=q, g=g)
    if not 1 <= commitment < p:
        return False
    # A commitment outside the order-q subgroup can never verify under a key
    # inside it: ``g^z`` and ``pk^c`` are members, so ``g^z == R * pk^c``
    # forces ``R`` to be one.  The key's membership is memoised (one Jacobi
    # symbol per key instead of one per signature); only a non-member key
    # still needs the explicit test on ``R``.
    if not group.is_member(public_element) and not group.is_member(commitment):
        return False
    challenge = _challenge(group, commitment, public_element, message)
    lhs = group.power_of_g(response)
    rhs = group.mul(commitment, group.exp(public_element, challenge))
    return lhs == rhs


@dataclass(frozen=True)
class SigningKey:
    """A private signing key; ``owner`` is the node id it belongs to."""

    group: Group
    secret: int
    owner: int = -1

    @cached_property
    def public_element(self) -> int:
        """``g^secret``, derived once per key (every signature hashes it)."""
        return self.group.power_of_g(self.secret)

    def verify_key(self) -> VerifyKey:
        """Derive the matching public key."""
        return VerifyKey(group=self.group, public_element=self.public_element,
                         owner=self.owner)

    def sign(self, message: bytes, rng) -> Signature:
        """Produce a Schnorr signature on ``message``.

        The nonce is drawn now; the commitment and the response are computed
        on the signature's first field read (see "lazy witnesses" in
        :mod:`repro.crypto.group`).
        """
        group, public_element = self.group, self.public_element
        signature = Signature.deferred(group, self.secret,
                                       group.random_scalar(rng),
                                       public_element, message)
        return mint(signature, group, public_element, message)


def generate_keypair(rng, owner: int = -1,
                     group: Group = DEFAULT_GROUP) -> tuple[SigningKey, VerifyKey]:
    """Generate a fresh (signing key, verify key) pair for a node."""
    secret = group.random_scalar(rng)
    signing_key = SigningKey(group=group, secret=secret, owner=owner)
    return signing_key, signing_key.verify_key()


def generate_keyring(num_nodes: int, rng,
                     group: Group = DEFAULT_GROUP) -> tuple[list[SigningKey], list[VerifyKey]]:
    """Generate keypairs for every node; index in the list is the node id."""
    signing_keys = []
    verify_keys = []
    for node_id in range(num_nodes):
        signing_key, verify_key = generate_keypair(rng, owner=node_id, group=group)
        signing_keys.append(signing_key)
        verify_keys.append(verify_key)
    return signing_keys, verify_keys
