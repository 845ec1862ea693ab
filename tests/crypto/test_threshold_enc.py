"""Tests for labelled threshold encryption."""

import random

import pytest
from hypothesis import given, settings, strategies as st

from tests.reference import unstamped
from repro.crypto.threshold_enc import (
    DecryptionShare,
    ThresholdEncError,
    ciphertext_from_bytes,
    ciphertext_to_bytes,
    deal_threshold_enc,
)


def _deal(n=4, t=2, seed=1):
    rng = random.Random(seed)
    return deal_threshold_enc(n, t, rng), rng


class TestThresholdEncryption:
    def test_encrypt_decrypt_roundtrip(self):
        schemes, rng = _deal()
        plaintext = b"a batch of transactions"
        ciphertext = schemes[0].encrypt(plaintext, b"epoch0|node0", rng)
        shares = [scheme.decryption_share(ciphertext, rng) for scheme in schemes[1:3]]
        assert schemes[3].combine(ciphertext, shares) == plaintext

    def test_ciphertext_hides_plaintext(self):
        schemes, rng = _deal()
        plaintext = b"sensitive proposal data"
        ciphertext = schemes[0].encrypt(plaintext, b"label", rng)
        assert plaintext not in ciphertext.payload

    def test_share_verification(self):
        schemes, rng = _deal()
        ciphertext = schemes[0].encrypt(b"payload", b"label", rng)
        share = unstamped(schemes[1].decryption_share(ciphertext, rng))
        assert schemes[2].verify_share(ciphertext, share)

    def test_forged_share_rejected(self):
        schemes, rng = _deal()
        ciphertext = schemes[0].encrypt(b"payload", b"label", rng)
        genuine = schemes[1].decryption_share(ciphertext, rng)
        forged = DecryptionShare(signer=3, value=genuine.value, proof=genuine.proof)
        assert not schemes[2].verify_share(ciphertext, forged)

    def test_insufficient_shares(self):
        schemes, rng = _deal(t=3)
        ciphertext = schemes[0].encrypt(b"payload", b"label", rng)
        shares = [schemes[1].decryption_share(ciphertext, rng)]
        with pytest.raises(ThresholdEncError):
            schemes[0].combine(ciphertext, shares)

    def test_different_labels_produce_different_ciphertexts(self):
        schemes, rng = _deal()
        ct_a = schemes[0].encrypt(b"same payload", b"label A", rng)
        ct_b = schemes[0].encrypt(b"same payload", b"label B", rng)
        assert ct_a.payload != ct_b.payload or ct_a.ephemeral != ct_b.ephemeral

    def test_dealer_parameter_validation(self):
        rng = random.Random(1)
        with pytest.raises(ThresholdEncError):
            deal_threshold_enc(4, 0, rng)
        with pytest.raises(ThresholdEncError):
            deal_threshold_enc(4, 5, rng)

    def test_empty_plaintext(self):
        schemes, rng = _deal()
        ciphertext = schemes[0].encrypt(b"", b"label", rng)
        shares = [scheme.decryption_share(ciphertext, rng) for scheme in schemes[:2]]
        assert schemes[0].combine(ciphertext, shares) == b""

    @given(payload=st.binary(min_size=0, max_size=300))
    @settings(max_examples=20, deadline=None)
    def test_roundtrip_arbitrary_payloads(self, payload):
        schemes, rng = _deal(seed=len(payload) + 1)
        ciphertext = schemes[0].encrypt(payload, b"prop", rng)
        shares = [scheme.decryption_share(ciphertext, rng) for scheme in schemes[2:]]
        assert schemes[1].combine(ciphertext, shares) == payload


class TestCiphertextSerialization:
    def test_roundtrip(self):
        schemes, rng = _deal()
        ciphertext = schemes[0].encrypt(b"wire format", b"the-label", rng)
        encoded = ciphertext_to_bytes(ciphertext)
        decoded = ciphertext_from_bytes(encoded)
        assert decoded.ephemeral == ciphertext.ephemeral
        assert decoded.payload == ciphertext.payload
        assert decoded.label == ciphertext.label

    def test_decrypt_after_serialization(self):
        schemes, rng = _deal()
        ciphertext = schemes[0].encrypt(b"round trip", b"label", rng)
        restored = ciphertext_from_bytes(ciphertext_to_bytes(ciphertext))
        shares = [scheme.decryption_share(restored, rng) for scheme in schemes[:2]]
        assert schemes[3].combine(restored, shares) == b"round trip"

    def test_truncated_encoding_rejected(self):
        with pytest.raises(ThresholdEncError):
            ciphertext_from_bytes(b"\x00" * 10)
