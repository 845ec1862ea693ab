"""Tests for (t, n) threshold signatures."""

import hashlib
import random

import pytest
from hypothesis import given, settings, strategies as st

from tests.reference import unstamped
from repro.crypto.threshold_sig import (
    ThresholdSigError,
    ThresholdSigShare,
    ThresholdSignature,
    deal_threshold_sig,
)


def _deal(n=4, t=3, seed=1):
    rng = random.Random(seed)
    return deal_threshold_sig(n, t, rng), rng


class TestThresholdSignatures:
    def test_share_verification(self):
        schemes, rng = _deal()
        message = b"prbc|0|2|abcdef"
        share = unstamped(schemes[1].sign_share(message, rng))
        assert schemes[0].verify_share(message, share)
        assert schemes[3].verify_share(message, share)

    def test_share_for_other_message_rejected(self):
        schemes, rng = _deal()
        share = schemes[1].sign_share(b"message A", rng)
        assert not schemes[0].verify_share(b"message B", share)

    def test_forged_share_rejected(self):
        schemes, rng = _deal()
        message = b"message"
        genuine = schemes[1].sign_share(message, rng)
        # claim node 3's identity while replaying node 2's share material
        forged = ThresholdSigShare(signer=3, message_point=genuine.message_point,
                                   value=genuine.value, proof=genuine.proof)
        assert not schemes[0].verify_share(message, forged)

    def test_combine_and_verify(self):
        schemes, rng = _deal()
        message = b"quorum statement"
        shares = [scheme.sign_share(message, rng) for scheme in schemes[:3]]
        signature = schemes[3].combine(message, shares)
        assert schemes[0].verify_signature(message, signature)

    def test_signature_unique_across_share_subsets(self):
        schemes, rng = _deal()
        message = b"unique"
        sig_a = schemes[0].combine(
            message, [scheme.sign_share(message, rng) for scheme in schemes[:3]])
        sig_b = schemes[0].combine(
            message, [scheme.sign_share(message, rng) for scheme in schemes[1:]])
        assert sig_a.value == sig_b.value

    def test_insufficient_shares_rejected(self):
        schemes, rng = _deal()
        message = b"too few"
        shares = [scheme.sign_share(message, rng) for scheme in schemes[:2]]
        with pytest.raises(ThresholdSigError):
            schemes[0].combine(message, shares)

    def test_invalid_shares_do_not_count_toward_threshold(self):
        schemes, rng = _deal()
        message = b"mixed"
        good = [scheme.sign_share(message, rng) for scheme in schemes[:2]]
        bad = ThresholdSigShare(signer=3, message_point=good[0].message_point,
                                value=12345, proof=good[0].proof)
        with pytest.raises(ThresholdSigError):
            schemes[0].combine(message, good + [bad])

    def test_duplicate_signer_shares_count_once(self):
        schemes, rng = _deal()
        message = b"dupes"
        share = schemes[0].sign_share(message, rng)
        with pytest.raises(ThresholdSigError):
            schemes[1].combine(message, [share, share, share])

    def test_bad_dealer_parameters(self):
        rng = random.Random(1)
        with pytest.raises(ThresholdSigError):
            deal_threshold_sig(4, 0, rng)
        with pytest.raises(ThresholdSigError):
            deal_threshold_sig(4, 5, rng)

    def test_threshold_property_exposed(self):
        schemes, _rng = _deal(n=7, t=5)
        assert all(scheme.public_key.threshold == 5 for scheme in schemes)

    def test_verify_signature_rejects_wrong_message(self):
        schemes, rng = _deal()
        message = b"signed message"
        shares = [scheme.sign_share(message, rng) for scheme in schemes[:3]]
        signature = schemes[0].combine(message, shares)
        assert not schemes[0].verify_signature(b"other message", signature)

    def test_verify_signature_checks_form(self):
        """What the pairing-free check does establish (see its docstring)."""
        schemes, rng = _deal()
        message = b"finish"
        key, group = schemes[0].public_key, schemes[0].group
        point = key.hash_message(message)
        outside = group.p - group.exp(point, 12345)  # order 2q: no member
        assert not key.verify_signature(
            message, ThresholdSignature(message_point=point, value=outside))
        assert not key.verify_signature(
            message, ThresholdSignature(message_point=point + 1,
                                        value=group.exp(point, 12345)))
        assert not key.verify_signature(message, (point, 12345))

    @pytest.mark.xfail(strict=True, reason=(
        "verify_signature accepts any subgroup element for the right "
        "message: a pairing-free certificate has to carry its share set "
        "(ROADMAP, active adversaries: forged-certificate)"))
    def test_verify_signature_rejects_a_random_subgroup_element(self):
        schemes, rng = _deal()
        message = b"cbc|finish|forged"
        key, group = schemes[0].public_key, schemes[0].group
        genuine = schemes[0].combine(
            message, [scheme.sign_share(message, rng) for scheme in schemes[:3]])
        forged = ThresholdSignature(message_point=key.hash_message(message),
                                    value=group.power_of_g(12345))
        assert forged.value != genuine.value
        assert key.verify_signature(message, genuine)
        assert not key.verify_signature(message, forged)

    @given(n=st.integers(min_value=4, max_value=10))
    @settings(max_examples=5, deadline=None)
    def test_combine_works_for_various_sizes(self, n):
        faults = (n - 1) // 3
        threshold = 2 * faults + 1
        rng = random.Random(n)
        schemes = deal_threshold_sig(n, threshold, rng)
        message = b"sweep"
        shares = [scheme.sign_share(message, rng) for scheme in schemes[:threshold]]
        signature = schemes[-1].combine(message, shares)
        assert schemes[0].verify_signature(message, signature)

    def test_transcript_digest_is_pinned(self):
        """One deal/sign/combine transcript, hashed: the group elements and
        proofs every recorded run used, whatever computes them."""
        rng = random.Random(99)
        schemes = deal_threshold_sig(7, 3, rng)
        message = b"backend-identity"
        shares = [scheme.sign_share(message, rng) for scheme in schemes[:5]]
        signature = schemes[0].combine(message, shares)
        hasher = hashlib.sha256()
        hasher.update(signature.value.to_bytes(40, "big"))
        for share in shares:
            hasher.update(share.value.to_bytes(40, "big"))
            hasher.update(share.proof.commitment_g.to_bytes(40, "big"))
            hasher.update(share.proof.commitment_h.to_bytes(40, "big"))
            hasher.update(share.proof.response.to_bytes(40, "big"))
        assert hasher.hexdigest()[:32] == "38f389556e54f3e58447083c167811b4"
