"""Tests for the cost-accounted CryptoSuite facade."""

import random

import pytest

from repro.crypto.digital_sig import generate_keyring
from repro.crypto.threshold_coin import deal_threshold_coin
from repro.crypto.threshold_enc import deal_threshold_enc
from repro.crypto.threshold_sig import deal_threshold_sig
from repro.crypto.timing import COIN_FLAVORS, CryptoSuite


def build_suites(n=4, ec_curve="secp160r1", threshold_curve="BN158", seed=1):
    rng = random.Random(seed)
    faults = (n - 1) // 3
    signing, verifying = generate_keyring(n, rng)
    tsig = deal_threshold_sig(n, 2 * faults + 1, rng)
    tcoin = deal_threshold_coin(n, faults + 1, rng, flavor="tsig")
    tflip = deal_threshold_coin(n, faults + 1, rng, flavor="flip")
    tenc = deal_threshold_enc(n, faults + 1, rng)
    costs = [0.0] * n
    suites = []
    for node_id in range(n):
        def sink(seconds, node_id=node_id):
            costs[node_id] += seconds
        suites.append(CryptoSuite(
            node_id=node_id, signing_key=signing[node_id], verify_keys=verifying,
            threshold_sig=tsig[node_id], threshold_coin=tcoin[node_id],
            coin_flip=tflip[node_id], threshold_enc=tenc[node_id],
            ec_curve=ec_curve, threshold_curve=threshold_curve,
            rng=random.Random(seed + node_id), cost_sink=sink))
    return suites, costs


class TestCryptoSuite:
    def test_sign_verify_with_cost(self):
        suites, costs = build_suites()
        signature = suites[0].sign(b"packet")
        assert suites[1].verify(0, b"packet", signature)
        assert not suites[1].verify(0, b"other", signature)
        assert costs[0] == pytest.approx(0.019)          # secp160r1 sign
        assert costs[1] == pytest.approx(2 * 0.022)      # two verifies

    def test_verify_unknown_signer(self):
        suites, _ = build_suites()
        signature = suites[0].sign(b"m")
        assert not suites[1].verify(99, b"m", signature)

    def test_threshold_signature_flow_and_costs(self):
        suites, costs = build_suites()
        message = b"cbc cert"
        shares = [suite.tsig_share(message) for suite in suites[:3]]
        assert all(suites[3].tsig_verify_share(message, share) for share in shares)
        signature = suites[3].tsig_combine(message, shares)
        assert suites[0].tsig_verify(message, signature)
        profile = suites[3].threshold_profile
        assert costs[3] == pytest.approx(
            (3 * profile.verify_share_ms + profile.combine_share_ms) / 1000)
        assert suites[3].crypto_seconds == costs[3]

    def test_coin_flow_both_flavors(self):
        suites, _ = build_suites()
        for flavor in ("tsig", "flip"):
            tag = f"round|{flavor}".encode()
            shares = [suite.coin_share(tag, flavor=flavor) for suite in suites[:2]]
            assert suites[2].coin_verify_share(tag, shares[0], flavor=flavor)
            assert suites[3].coin_combine(tag, shares, flavor=flavor) in (0, 1)

    def test_unknown_coin_flavor_is_a_named_error(self):
        """A mistyped flavor used to sign with the threshold-sig coin key and
        charge ``tsig_sign``; it must name the flavors and charge nothing."""
        suites, costs = build_suites()
        suite = suites[0]
        share = suite.coin_share(b"tag", flavor="flip")
        before = (costs[0], suite.crypto_seconds)
        for call in (lambda: suite.coin_share(b"tag", flavor="flp"),
                     lambda: suite.coin_verify_share(b"tag", share,
                                                     flavor="flp"),
                     lambda: suite.coin_combine(b"tag", [share], flavor=""),
                     lambda: suite.coin_combine_value(b"tag", [share], 4,
                                                      flavor=None)):
            with pytest.raises(ValueError, match=r"known: \['flip', 'tsig'\]"):
                call()
        assert (costs[0], suite.crypto_seconds) == before

    def test_coin_table_names_the_suite_handles_and_cost_rows(self):
        suites, _ = build_suites()
        suite = suites[0]
        assert set(COIN_FLAVORS) == {"tsig", "flip"}
        for flavor, coin in COIN_FLAVORS.items():
            assert getattr(suite, coin.handle).flavor == flavor
            for cost_row in (coin.sign, coin.verify, coin.combine):
                assert getattr(suite.threshold_profile, cost_row) > 0

    def test_coin_flip_cheaper_than_tsig_coin(self):
        suites, costs = build_suites()
        suites[0].coin_share(b"a", flavor="tsig")
        suites[1].coin_share(b"a", flavor="flip")
        assert 0 < costs[1] < costs[0]

    def test_encryption_flow(self):
        suites, _ = build_suites()
        ciphertext = suites[0].encrypt(b"batch", b"label")
        shares = [suite.decryption_share(ciphertext) for suite in suites[1:3]]
        assert suites[3].verify_decryption_share(ciphertext, shares[0])
        assert suites[3].decrypt(ciphertext, shares) == b"batch"

    def test_size_properties_follow_curves(self):
        suites, _ = build_suites(ec_curve="secp256r1", threshold_curve="FP512BN")
        assert suites[0].digital_signature_bytes == 64
        assert suites[0].threshold_signature_bytes == 65
        assert suites[0].threshold_share_bytes == 65

    def test_heavier_curve_costs_more(self):
        light, light_costs = build_suites(threshold_curve="BN158")
        heavy, heavy_costs = build_suites(threshold_curve="FP512BN")
        light[0].tsig_share(b"m")
        heavy[0].tsig_share(b"m")
        assert heavy_costs[0] > light_costs[0]

    def test_missing_scheme_raises(self):
        rng = random.Random(1)
        signing, verifying = generate_keyring(4, rng)
        bare = CryptoSuite(node_id=0, signing_key=signing[0],
                           verify_keys=verifying, rng=rng)
        with pytest.raises(RuntimeError):
            bare.tsig_share(b"m")
        with pytest.raises(RuntimeError):
            bare.coin_share(b"m")
        with pytest.raises(RuntimeError):
            bare.encrypt(b"m", b"l")
