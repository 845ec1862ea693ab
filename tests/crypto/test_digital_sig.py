"""Tests for per-node digital signatures (micro-ecc stand-in)."""

import random

from hypothesis import given, settings, strategies as st

from repro.crypto.digital_sig import (
    Signature,
    SigningKey,
    VerifyKey,
    generate_keypair,
    generate_keyring,
)
from repro.crypto.group import DEFAULT_GROUP

from tests.reference import is_member_reference, unstamped


class TestDigitalSignatures:
    def test_sign_verify_roundtrip(self):
        rng = random.Random(1)
        sk, vk = generate_keypair(rng, owner=3)
        signature = unstamped(sk.sign(b"packet contents", rng))
        assert vk.verify(b"packet contents", signature)

    def test_wrong_message_rejected(self):
        rng = random.Random(2)
        sk, vk = generate_keypair(rng)
        signature = sk.sign(b"original", rng)
        assert not vk.verify(b"tampered", signature)

    def test_wrong_key_rejected(self):
        rng = random.Random(3)
        sk1, _vk1 = generate_keypair(rng)
        _sk2, vk2 = generate_keypair(rng)
        signature = sk1.sign(b"message", rng)
        assert not vk2.verify(b"message", signature)

    def test_tampered_signature_rejected(self):
        rng = random.Random(4)
        sk, vk = generate_keypair(rng)
        signature = sk.sign(b"message", rng)
        forged = Signature(commitment=signature.commitment,
                           response=(signature.response + 1))
        assert not vk.verify(b"message", forged)

    def test_non_member_commitment_rejected(self):
        rng = random.Random(5)
        sk, vk = generate_keypair(rng)
        signature = sk.sign(b"message", rng)
        forged = Signature(commitment=0, response=signature.response)
        assert not vk.verify(b"message", forged)

    def test_wrong_typed_input_is_rejected_not_raised(self):
        rng = random.Random(10)
        sk, vk = generate_keypair(rng)
        good = sk.sign(b"message", rng)
        for signature in (None, "signature", (good.commitment, good.response),
                          Signature("1", good.response),
                          Signature(good.commitment, None),
                          Signature(1.5, good.response),
                          Signature(good.commitment, [good.response])):
            assert vk.verify(b"message", signature) is False
        for message in (None, "message", bytearray(b"message"), 7):
            assert vk.verify(message, good) is False
            assert vk.verify(message, unstamped(good)) is False

    def test_verify_key_derivation_consistent(self):
        rng = random.Random(6)
        sk, vk = generate_keypair(rng, owner=2)
        assert sk.verify_key().public_element == vk.public_element
        assert vk.owner == 2

    def test_keyring_generation(self):
        rng = random.Random(8)
        signing, verifying = generate_keyring(5, rng)
        assert len(signing) == len(verifying) == 5
        for node_id, (sk, vk) in enumerate(zip(signing, verifying)):
            assert sk.owner == node_id
            assert vk.owner == node_id
            sig = unstamped(sk.sign(b"hello", rng))
            assert vk.verify(b"hello", sig)
            other = verifying[(node_id + 1) % 5]
            assert not other.verify(b"hello", sig)

    def test_signatures_are_randomised(self):
        rng = random.Random(9)
        sk, vk = generate_keypair(rng)
        sig1 = unstamped(sk.sign(b"same message", rng))
        sig2 = unstamped(sk.sign(b"same message", rng))
        assert sig1 != sig2
        assert vk.verify(b"same message", sig1)
        assert vk.verify(b"same message", sig2)


def _verify_with_explicit_membership(key: VerifyKey, message: bytes,
                                     signature: Signature) -> bool:
    """The verifier as it was before the commitment's Jacobi symbol was
    dropped: explicit subgroup test on ``R``, builtin ``pow`` throughout."""
    group = key.group
    if not is_member_reference(group, signature.commitment):
        return False
    challenge = group.hash_to_scalar(
        b"schnorr",
        group.element_to_bytes(signature.commitment),
        group.element_to_bytes(key.public_element),
        message,
    )
    lhs = pow(group.g, signature.response % group.q, group.p)
    rhs = signature.commitment * pow(key.public_element, challenge,
                                     group.p) % group.p
    return lhs == rhs


class TestImpliedCommitmentMembership:
    """``VerifyKey.verify`` range-checks ``R`` and tests the *key's* subgroup
    membership once instead of ``R``'s on every signature.  The verdict must
    equal the explicit-membership verifier's on every input class."""

    @given(seed=st.integers(min_value=0, max_value=2**32),
           message=st.binary(max_size=40))
    @settings(max_examples=40, deadline=None)
    def test_verdicts_match_the_explicit_membership_verifier(self, seed,
                                                             message):
        group = DEFAULT_GROUP
        rng = random.Random(seed)
        sk, vk = generate_keypair(rng, owner=1)
        _other_sk, other_vk = generate_keypair(rng, owner=2)
        good = unstamped(sk.sign(message, rng))
        assert vk.verify(message, good)
        candidates = [good,
                      Signature(group.p - good.commitment, good.response),
                      Signature(good.commitment, good.response + 1)]
        candidates += [Signature(commitment, good.response)
                       for commitment in (0, 1, group.p, group.p + 1)]
        for key in (vk, other_vk):
            for signature in candidates:
                assert key.verify(message, signature) == \
                    _verify_with_explicit_membership(key, message, signature)
        for signature in candidates[1:]:
            assert not vk.verify(message, signature)

    def test_non_member_public_key_keeps_the_explicit_test(self):
        """With ``pk = -g^sk`` (order 2q) a negated commitment can satisfy
        ``g^z == R * pk^c`` whenever ``c`` is odd -- the one case where the
        membership of ``R`` is *not* implied, so the old test must remain."""
        group = DEFAULT_GROUP
        rng = random.Random(12)
        secret = group.random_scalar(rng)
        rogue_element = group.p - group.power_of_g(secret)
        rogue = VerifyKey(group=group, public_element=rogue_element)
        assert not group.is_member(rogue_element)
        message = b"rogue"
        found_equation_holding = False
        for _ in range(64):
            nonce = group.random_scalar(rng)
            commitment = group.p - group.power_of_g(nonce)
            challenge = group.hash_to_scalar(
                b"schnorr", group.element_to_bytes(commitment),
                group.element_to_bytes(rogue_element), message)
            signature = Signature(commitment,
                                  (nonce + challenge * secret) % group.q)
            if challenge % 2 == 1:
                lhs = pow(group.g, signature.response, group.p)
                rhs = commitment * pow(rogue_element, challenge,
                                       group.p) % group.p
                assert lhs == rhs  # only the membership test rejects it
                found_equation_holding = True
            assert not rogue.verify(message, signature)
            assert not _verify_with_explicit_membership(rogue, message,
                                                        signature)
        assert found_equation_holding
        # an honest-looking signature under the rogue key: both verifiers
        # agree whatever the verdict is
        honest = unstamped(
            SigningKey(group=group, secret=secret).sign(message, rng))
        assert rogue.verify(message, honest) == \
            _verify_with_explicit_membership(rogue, message, honest)

    def test_public_element_is_derived_once_and_signatures_unchanged(self):
        group = DEFAULT_GROUP
        sk, vk = generate_keypair(random.Random(21), owner=4)
        assert sk.public_element == vk.public_element == \
            pow(group.g, sk.secret, group.p)
        # byte-identical to the signature the seed implementation produced
        rng = random.Random(22)
        signature = sk.sign(b"pinned", rng)
        replay = random.Random(22)
        nonce = group.random_scalar(replay)
        commitment = pow(group.g, nonce, group.p)
        challenge = group.hash_to_scalar(
            b"schnorr", group.element_to_bytes(commitment),
            group.element_to_bytes(pow(group.g, sk.secret, group.p)),
            b"pinned")
        assert signature == Signature(
            commitment, (nonce + challenge * sk.secret) % group.q)
