"""The three threshold share families behind one shape, for the tests that
hold for all of them.  A ``statement`` is what a share is about: a message,
a coin tag, a ciphertext."""

from repro.crypto.threshold_coin import (
    ThresholdCoinPrivateShare,
    ThresholdCoinScheme,
    deal_threshold_coin,
)
from repro.crypto.threshold_enc import (
    ThresholdEncPrivateShare,
    ThresholdEncScheme,
    deal_threshold_enc,
)
from repro.crypto.threshold_sig import (
    ThresholdSigPrivateShare,
    ThresholdSigScheme,
    deal_threshold_sig,
)


class _Tsig:
    handle_type, private_type = ThresholdSigScheme, ThresholdSigPrivateShare
    deal = staticmethod(deal_threshold_sig)
    master_key = "master_verify_key"

    @staticmethod
    def statement(schemes, rng, label: bytes):
        return b"tsig|" + label

    @staticmethod
    def mint(scheme, statement, rng):
        return scheme.sign_share(statement, rng)


class _Coin:
    handle_type, private_type = ThresholdCoinScheme, ThresholdCoinPrivateShare
    deal = staticmethod(deal_threshold_coin)
    master_key = "master_verify_key"

    @staticmethod
    def statement(schemes, rng, label: bytes):
        return b"coin|" + label

    @staticmethod
    def mint(scheme, statement, rng):
        return scheme.coin_share(statement, rng)


class _Tenc:
    handle_type, private_type = ThresholdEncScheme, ThresholdEncPrivateShare
    deal = staticmethod(deal_threshold_enc)
    master_key = "encryption_key"

    @staticmethod
    def statement(schemes, rng, label: bytes):
        return schemes[0].encrypt(b"payload " + label, label, rng)

    @staticmethod
    def mint(scheme, statement, rng):
        return scheme.decryption_share(statement, rng)


FAMILIES = [_Tsig, _Coin, _Tenc]
family_ids = [family.__name__.strip("_").lower() for family in FAMILIES]
