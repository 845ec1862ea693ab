"""Tests for the Schnorr group and Chaum-Pedersen proofs."""

import random

from repro.crypto.group import (
    ChaumPedersenProof,
    DEFAULT_GROUP,
    _challenge,
    prove_dlog_equality,
    verify_dlog_equality,
)

from tests.reference import verify_dlog_equality_reference


class TestGroup:
    def test_generator_is_member(self):
        assert DEFAULT_GROUP.is_member(DEFAULT_GROUP.g)

    def test_identity_membership(self):
        assert DEFAULT_GROUP.is_member(1)
        assert not DEFAULT_GROUP.is_member(0)
        assert not DEFAULT_GROUP.is_member(DEFAULT_GROUP.p)

    def test_exp_mul_consistency(self):
        g = DEFAULT_GROUP
        a = g.power_of_g(5)
        b = g.power_of_g(7)
        assert g.mul(a, b) == g.power_of_g(12)

    def test_exponent_reduced_mod_q(self):
        g = DEFAULT_GROUP
        assert g.power_of_g(g.q + 3) == g.power_of_g(3)

    def test_hash_to_scalar_deterministic_and_in_range(self):
        g = DEFAULT_GROUP
        a = g.hash_to_scalar(b"alpha", b"beta")
        b = g.hash_to_scalar(b"alpha", b"beta")
        c = g.hash_to_scalar(b"alpha", b"gamma")
        assert a == b
        assert a != c
        assert 0 <= a < g.q

    def test_hash_to_group_members(self):
        g = DEFAULT_GROUP
        element = g.hash_to_group(b"message")
        assert g.is_member(element)
        assert element != g.hash_to_group(b"other message")

    def test_element_scalar_encodings(self):
        g = DEFAULT_GROUP
        assert len(g.element_to_bytes(g.g)) == 32

    def test_random_scalar_nonzero(self):
        rng = random.Random(1)
        for _ in range(50):
            s = DEFAULT_GROUP.random_scalar(rng)
            assert 1 <= s < DEFAULT_GROUP.q


class TestChaumPedersen:
    def _setup(self, seed=1):
        g = DEFAULT_GROUP
        rng = random.Random(seed)
        secret = g.random_scalar(rng)
        base_h = g.hash_to_group(b"base")
        value_g = g.power_of_g(secret)
        value_h = g.exp(base_h, secret)
        return g, rng, secret, base_h, value_g, value_h

    def test_valid_proof_verifies(self):
        g, rng, secret, base_h, value_g, value_h = self._setup()
        proof = prove_dlog_equality(g, secret, base_h, value_g, value_h, rng,
                                    context=b"test")
        assert verify_dlog_equality(g, proof, base_h, value_g, value_h,
                                    context=b"test")

    def test_wrong_context_rejected(self):
        g, rng, secret, base_h, value_g, value_h = self._setup()
        proof = prove_dlog_equality(g, secret, base_h, value_g, value_h, rng,
                                    context=b"test")
        assert not verify_dlog_equality(g, proof, base_h, value_g, value_h,
                                        context=b"other")

    def test_mismatched_statement_rejected(self):
        g, rng, secret, base_h, value_g, value_h = self._setup()
        proof = prove_dlog_equality(g, secret, base_h, value_g, value_h, rng)
        fake_value_h = g.exp(base_h, secret + 1)
        assert not verify_dlog_equality(g, proof, base_h, value_g, fake_value_h)

    def test_non_member_rejected(self):
        g, rng, secret, base_h, value_g, value_h = self._setup()
        proof = prove_dlog_equality(g, secret, base_h, value_g, value_h, rng)
        assert not verify_dlog_equality(g, proof, base_h, value_g, 0)

    def test_negated_commitments_rejected(self):
        # Both commitments negated (order-2q elements) with the response
        # recomputed for the resulting challenge: each proof equation is off
        # by exactly -1, so any check that multiplies the two equations
        # together accepts the forgery.  The verifier checks them one by one.
        g, rng, secret, base_h, value_g, value_h = self._setup(seed=6)
        nonce = g.random_scalar(rng)
        commitment_g = g.p - g.power_of_g(nonce)
        commitment_h = g.p - g.exp(base_h, nonce)
        challenge = _challenge(g, b"ctx", base_h, value_g, value_h,
                               commitment_g, commitment_h)
        forged = ChaumPedersenProof(
            commitment_g=commitment_g, commitment_h=commitment_h,
            response=(nonce + challenge * secret) % g.q)
        assert not verify_dlog_equality(g, forged, base_h, value_g, value_h,
                                        context=b"ctx")
        assert not verify_dlog_equality_reference(
            g, forged, base_h, value_g, value_h, context=b"ctx")
