"""Verdicts by construction: a signature or share still carrying the stamp of
the in-process maker is answered from the stamp; everything else -- altered,
rebuilt, replayed under another key or statement, minted by a mismatched
handle, or pickled -- takes the long road and gets the long road's answer.

"The long road was taken" is asserted on the memoised verifiers' own
counters: every artefact below is fresh, so a real verification is exactly
one new miss.
"""

import copy
import dataclasses
import pickle
import random

import pytest
from hypothesis import given, settings, strategies as st

from repro.crypto import digital_sig, group as group_module
from repro.crypto import threshold, threshold_enc
from repro.crypto.digital_sig import _verify_schnorr_cached, generate_keypair
from repro.crypto.group import (
    ChaumPedersenProof,
    DEFAULT_GROUP,
    _verify_dlog_equality_cached,
    prove_dlog_equality,
)
from repro.crypto.threshold_enc import deal_threshold_enc
from repro.testbed.harness import run_consensus
from repro.testbed.scenarios import Scenario
from repro.testbed.streaming import StreamingSpec, run_streaming_consensus
from repro.testbed.workload import WorkloadSpec

from tests.crypto.families import FAMILIES, family_ids
from tests.reference import unstamped


def real_verifications(cached, check):
    """``(verdict, real verifications run)`` of ``check()``."""
    before = cached.cache_info().misses
    verdict = check()
    return verdict, cached.cache_info().misses - before


def rebuilt(artefact):
    """A copy built field by field through the public constructor."""
    return type(artefact)(**{field.name: getattr(artefact, field.name)
                             for field in dataclasses.fields(artefact)
                             if field.init})


def field_replacements(artefact):
    """``dataclasses.replace`` on every field in turn, value unchanged."""
    return [dataclasses.replace(artefact, **{field.name: getattr(artefact,
                                                                 field.name)})
            for field in dataclasses.fields(artefact) if field.init]


def stampless_copies(artefact):
    """Equal copies that must not inherit the stamp."""
    return [unstamped(artefact), rebuilt(artefact),
            pickle.loads(pickle.dumps(artefact)),
            pickle.loads(pickle.dumps(artefact, protocol=2)),
            copy.copy(artefact), copy.deepcopy(artefact),
            *field_replacements(artefact)]


class TestSignatureProvenance:
    @given(seed=st.integers(min_value=0, max_value=2**32),
           message=st.binary(max_size=40), other=st.binary(max_size=40))
    @settings(max_examples=25, deadline=None)
    def test_stamped_verdict_equals_the_long_road_verdict(self, seed, message,
                                                          other):
        rng = random.Random(seed)
        sk, vk = generate_keypair(rng, owner=1)
        _other_sk, other_vk = generate_keypair(rng, owner=2)
        signature = sk.sign(message, rng)
        verdict, real = real_verifications(
            _verify_schnorr_cached, lambda: vk.verify(message, signature))
        assert verdict and real == 0
        plain = unstamped(signature)
        assert plain == signature and hash(plain) == hash(signature)
        assert repr(plain) == repr(signature)
        for key in (vk, other_vk):
            for text in {message, other, message + b"!"}:
                assert key.verify(text, signature) == key.verify(text, plain)
                if key is not vk or text != message:
                    assert not key.verify(text, signature)

    def test_every_copy_takes_the_long_road(self):
        rng = random.Random(11)
        sk, vk = generate_keypair(rng, owner=0)
        count = len(stampless_copies(sk.sign(b"count", rng)))
        for index in range(count):
            message = b"copy %d" % index
            signature = sk.sign(message, rng)
            duplicate = stampless_copies(signature)[index]
            assert duplicate == signature and duplicate._minted_for is None
            verdict, real = real_verifications(
                _verify_schnorr_cached, lambda: vk.verify(message, duplicate))
            assert verdict and real == 1

    def test_another_key_or_message_takes_the_long_road(self):
        rng = random.Random(12)
        sk, vk = generate_keypair(rng, owner=0)
        _sk2, vk2 = generate_keypair(rng, owner=1)
        signature = sk.sign(b"minted for this", rng)
        for key, message in ((vk2, b"minted for this"), (vk, b"not this")):
            verdict, real = real_verifications(
                _verify_schnorr_cached, lambda: key.verify(message, signature))
            assert not verdict and real == 1
        # same key material in a different group object still matches ...
        twin = dataclasses.replace(vk, group=dataclasses.replace(vk.group))
        assert twin.verify(b"minted for this", signature)
        # ... the same element under other group parameters does not
        toy = dataclasses.replace(vk, group=dataclasses.replace(vk.group, g=4))
        verdict, real = real_verifications(
            _verify_schnorr_cached,
            lambda: toy.verify(b"minted for this", signature))
        assert not verdict and real == 1

    def test_a_tampered_field_is_rejected(self):
        rng = random.Random(13)
        sk, vk = generate_keypair(rng, owner=0)
        signature = sk.sign(b"m", rng)
        forged = dataclasses.replace(signature,
                                     response=signature.response + 1)
        assert forged._minted_for is None
        assert not vk.verify(b"m", forged)


@pytest.mark.parametrize("family", FAMILIES, ids=family_ids)
class TestShareProvenance:
    @given(seed=st.integers(min_value=0, max_value=2**32),
           label=st.binary(max_size=24), other=st.binary(max_size=24))
    @settings(max_examples=10, deadline=None)
    def test_stamped_verdict_equals_the_long_road_verdict(self, family, seed,
                                                          label, other):
        rng = random.Random(seed)
        schemes = family.deal(4, 2, rng)
        foreign = family.deal(4, 2, rng)
        statement = family.statement(schemes, rng, label)
        elsewhere = family.statement(schemes, rng, other + b"?")
        share = family.mint(schemes[1], statement, rng)
        verdict, real = real_verifications(
            _verify_dlog_equality_cached,
            lambda: schemes[0].verify_share(statement, share))
        assert verdict and real == 0
        plain = unstamped(share)
        assert plain == share and hash(plain) == hash(share)
        assert repr(plain) == repr(share)
        for verifier in (schemes[2], foreign[2]):
            for about in (statement, elsewhere):
                assert verifier.verify_share(about, share) == \
                    verifier.verify_share(about, plain)
                if verifier is not schemes[2] or about is not statement:
                    assert not verifier.verify_share(about, share)

    def test_every_copy_takes_the_long_road(self, family):
        rng = random.Random(21)
        schemes = family.deal(4, 2, rng)
        statement = family.statement(schemes, rng, b"copies")
        count = len(stampless_copies(family.mint(schemes[0], statement, rng)))
        for index in range(count):
            share = family.mint(schemes[index % 4], statement, rng)
            duplicate = stampless_copies(share)[index]
            assert duplicate == share and duplicate._minted_for is None
            verdict, real = real_verifications(
                _verify_dlog_equality_cached,
                lambda: schemes[3].verify_share(statement, duplicate))
            assert verdict and real == 1

    def test_a_tampered_field_is_rejected(self, family):
        rng = random.Random(22)
        schemes = family.deal(4, 2, rng)
        statement = family.statement(schemes, rng, b"tamper")
        share = family.mint(schemes[0], statement, rng)
        for forged in (dataclasses.replace(share, value=share.value + 1),
                       dataclasses.replace(share, signer=2)):
            assert forged._minted_for is None
            assert not schemes[3].verify_share(statement, forged)

    def test_a_mismatched_handle_mints_unstamped_shares(self, family):
        """Rule 2: a hand-built handle whose secret is not the one behind the
        dealer-published verify key must not vouch for what it makes."""
        rng = random.Random(23)
        schemes = family.deal(4, 2, rng)
        public_key = schemes[0].public_key
        statement = family.statement(schemes, rng, b"mismatch")
        first, last = schemes[0].private_share, schemes[3].private_share
        wrong_secret = family.mint(
            family.handle_type(public_key, family.private_type(
                index=2, secret=first.secret)), statement, rng)
        assert wrong_secret._minted_for is None
        verdict, real = real_verifications(
            _verify_dlog_equality_cached,
            lambda: schemes[3].verify_share(statement, wrong_secret))
        assert not verdict and real == 1
        # index 0 would read ``share_verify_keys[-1]``: the last node's key,
        # which this secret matches -- still no stamp, still rejected
        wrapped_index = family.mint(
            family.handle_type(public_key, family.private_type(
                index=0, secret=last.secret)), statement, rng)
        assert wrapped_index._minted_for is None
        assert not schemes[3].verify_share(statement, wrapped_index)
        # a hand-built handle that *does* hold the published share may stamp
        honest = family.handle_type(public_key, schemes[1].private_share)
        assert family.mint(honest, statement, rng)._minted_for is not None


@pytest.mark.parametrize("family", FAMILIES, ids=family_ids)
def test_wrong_typed_shares_are_rejected_not_raised(family):
    """The stamp check reads ``share._minted_for``, so the type guard comes
    first; it also turns every malformed peer-controlled share, stamped or
    not, into ``False`` instead of an ``AttributeError``/``TypeError``."""
    rng = random.Random(24)
    schemes = family.deal(4, 2, rng)
    statement = family.statement(schemes, rng, b"malformed")
    good = family.mint(schemes[0], statement, rng)
    proof = good.proof
    malformed = [None, "share", good.proof,
                 dataclasses.replace(good, proof=None),
                 dataclasses.replace(good, proof=(1, 2, 3)),
                 dataclasses.replace(good, proof=dataclasses.replace(
                     proof, response=None)),
                 dataclasses.replace(good, proof=dataclasses.replace(
                     proof, commitment_g="1")),
                 dataclasses.replace(good, proof=dataclasses.replace(
                     proof, commitment_h=1.5)),
                 dataclasses.replace(good, value=None),
                 dataclasses.replace(good, value="7"),
                 dataclasses.replace(good, signer=None),
                 dataclasses.replace(good, signer="1")]
    for share in malformed:
        assert schemes[1].verify_share(statement, share) is False
    for about in (None, "statement", 7):
        assert schemes[1].verify_share(about, good) is False
        assert schemes[1].verify_share(about, unstamped(good)) is False
    # the combiners reject the same shares instead of raising
    honest = [family.mint(scheme, statement, rng) for scheme in schemes[1:3]]
    for share in malformed[3:]:
        schemes[3].combine(statement, [share] + honest)


class TestStampsOnlyOnPowersOfGroupMembers:
    """Rule 2, second half.  The one peer-controlled base is a ciphertext's
    ephemeral; on ``P - U`` (order ``2q``) the share ``base^secret`` of an odd
    secret is no group member and fails the long road, so a stamp on it would
    be "stamped ``True``, long road ``False``"."""

    def test_no_share_of_a_non_member_ephemeral_is_made(self):
        rng = random.Random(41)
        schemes = deal_threshold_enc(4, 2, rng)
        group = schemes[0].group
        honest = schemes[0].encrypt(b"payload", b"label", rng)
        outside = [group.p - honest.ephemeral, 0, group.p,
                   group.p + honest.ephemeral]
        for ephemeral in outside:
            twisted = dataclasses.replace(honest, ephemeral=ephemeral)
            for scheme in schemes:
                with pytest.raises(threshold_enc.ThresholdEncError,
                                   match="not a group element"):
                    scheme.decryption_share(twisted, rng)

    def test_what_such_a_stamp_would_have_vouched_for(self):
        """The share the handle used to make, built by hand: no group member
        whenever the secret is odd, and ``verify_share`` refuses every share
        of such a ciphertext, so none of them combines."""
        rng = random.Random(42)
        schemes = deal_threshold_enc(4, 2, rng)
        group, public_key = schemes[0].group, schemes[0].public_key
        honest = schemes[0].encrypt(b"payload", b"label", rng)
        twisted = dataclasses.replace(
            honest, ephemeral=group.p - honest.ephemeral)
        odd_secrets, shares = 0, []
        for scheme in schemes:
            secret = scheme.private_share.secret
            value = pow(twisted.ephemeral, secret, group.p)
            share = threshold_enc.DecryptionShare(
                signer=scheme.private_share.index, value=value,
                proof=prove_dlog_equality(
                    group, secret=secret, base_h=twisted.ephemeral,
                    value_g=public_key.share_verify_keys[
                        scheme.private_share.index - 1],
                    value_h=value, rng=rng, context=b"tenc-share"))
            shares.append(share)
            assert not public_key.verify_share(twisted, share)
            if secret % 2:
                odd_secrets += 1
                assert not group.is_member(value)
        assert odd_secrets == 3  # of the four that seed 42 deals
        with pytest.raises(threshold_enc.ThresholdEncError, match="have 0$"):
            public_key.combine(twisted, shares)


class TestProofsAreNeverStamped:
    def test_prove_dlog_equality_proves_false_statements_unstamped(self):
        """Rule 1: the prover signs whatever it is handed, so its output has
        no stamp to carry and a false statement is caught by the verifier."""
        group = DEFAULT_GROUP
        rng = random.Random(31)
        secret = group.random_scalar(rng)
        base_h = group.hash_to_group(b"base")
        proof = prove_dlog_equality(
            group, secret=secret, base_h=base_h,
            value_g=group.power_of_g(secret),
            value_h=group.exp(base_h, secret + 1), rng=rng)
        assert "_minted_for" not in {
            field.name for field in dataclasses.fields(ChaumPedersenProof)}
        assert not hasattr(proof, "_minted_for")
        assert not group_module.verify_dlog_equality(
            group, proof, base_h, group.power_of_g(secret),
            group.exp(base_h, secret + 1))


class TestStampingOffChangesNothing:
    """The stamp moves host time only: with ``mint`` made a no-op in every
    module that calls it, whole runs return equal result dataclasses."""

    @staticmethod
    def _without_stamps(monkeypatch):
        for module in (digital_sig, threshold):
            monkeypatch.setattr(module, "mint",
                                lambda artefact, *minted_for: artefact)

    def test_one_epoch_run(self, monkeypatch):
        scenario = Scenario.single_hop(4)
        stamped = run_consensus("honeybadger-sc", scenario, seed=4101,
                                workload_spec=WorkloadSpec(batch_size=2))
        long_road = []
        with monkeypatch.context() as patch:
            self._without_stamps(patch)
            # counted during the run: its close empties the memo, counters
            # included
            patch.setattr(digital_sig, "_verify_schnorr_cached",
                          lambda *transcript: long_road.append(transcript)
                          or _verify_schnorr_cached(*transcript))
            signature = generate_keypair(random.Random(1))[0].sign(
                b"m", random.Random(2))
            assert signature._minted_for is None
            plain = run_consensus("honeybadger-sc", scenario, seed=4101,
                                  workload_spec=WorkloadSpec(batch_size=2))
        assert plain == stamped
        # and the unstamped run really verified its frames
        assert long_road

    def test_short_stream(self, monkeypatch):
        scenario = Scenario.single_hop(4)
        spec = StreamingSpec(epochs=3, batch_size=2)
        stamped = run_streaming_consensus("beat", scenario, spec, seed=4102)
        with monkeypatch.context() as patch:
            self._without_stamps(patch)
            plain = run_streaming_consensus("beat", scenario, spec, seed=4102)
        assert plain == stamped
        assert stamped.decided
