"""Lightweight cryptography substrate for wireless asynchronous BFT consensus.

The paper's "cryptographic module" (Section IV-B.3) provides lightweight
implementations of public-key digital signatures and threshold cryptography on
top of MIRACL / micro-ecc.  This package provides a functionally faithful
substitute built on a Schnorr group (a prime-order subgroup of
``Z_P^*`` for a 256-bit safe prime ``P``):

* :mod:`~repro.crypto.digital_sig` -- Schnorr digital signatures standing in
  for micro-ecc ECDSA.
* :mod:`~repro.crypto.threshold_sig` -- (t, n) threshold signatures with
  Chaum-Pedersen share-correctness proofs, standing in for pairing-based
  BLS threshold signatures.
* :mod:`~repro.crypto.threshold_coin` -- the Cachin-Kursawe-Shoup style common
  coin built from the same machinery.
* :mod:`~repro.crypto.threshold_enc` -- labelled threshold ElGamal encryption
  (Baek-Zheng style) used by HoneyBadgerBFT/BEAT for censorship resilience.

These primitives are *real* (shares combine only above the threshold, forged
shares are rejected by verification, signatures verify against public keys);
what is simulated is the cost model: every operation is annotated with the
per-curve computation latency and signature byte size reported in the paper's
Figure 10 (:mod:`~repro.crypto.curves`, :mod:`~repro.crypto.timing`), so that
cryptographic cost flows into the simulated consensus latency exactly as it
does on the paper's STM32F767 testbed.
"""

from repro.crypto.group import Group, DEFAULT_GROUP
from repro.crypto.field import PrimeField, Polynomial, lagrange_coefficients_at_zero
from repro.crypto.shamir import ShamirDealer, ShamirShare
from repro.crypto.digital_sig import SigningKey, VerifyKey, Signature, generate_keypair
from repro.crypto.threshold_sig import (
    ThresholdSigScheme,
    ThresholdSigPublicKey,
    ThresholdSigShare,
    ThresholdSignature,
    deal_threshold_sig,
)
from repro.crypto.threshold_coin import (
    ThresholdCoinScheme,
    CoinShare,
    deal_threshold_coin,
)
from repro.crypto.threshold_enc import (
    ThresholdEncScheme,
    Ciphertext,
    DecryptionShare,
    deal_threshold_enc,
)
from repro.crypto.curves import (
    CurveProfile,
    ThresholdCurveProfile,
    EC_CURVES,
    THRESHOLD_CURVES,
    get_ec_curve,
    get_threshold_curve,
)
from repro.crypto.timing import CryptoSuite, CostLedger

__all__ = [
    "Group",
    "DEFAULT_GROUP",
    "PrimeField",
    "Polynomial",
    "lagrange_coefficients_at_zero",
    "ShamirDealer",
    "ShamirShare",
    "SigningKey",
    "VerifyKey",
    "Signature",
    "generate_keypair",
    "ThresholdSigScheme",
    "ThresholdSigPublicKey",
    "ThresholdSigShare",
    "ThresholdSignature",
    "deal_threshold_sig",
    "ThresholdCoinScheme",
    "CoinShare",
    "deal_threshold_coin",
    "ThresholdEncScheme",
    "Ciphertext",
    "DecryptionShare",
    "deal_threshold_enc",
    "CurveProfile",
    "ThresholdCurveProfile",
    "EC_CURVES",
    "THRESHOLD_CURVES",
    "get_ec_curve",
    "get_threshold_curve",
    "CryptoSuite",
    "CostLedger",
]
