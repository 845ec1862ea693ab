"""Per-curve size and computation-latency profiles (paper Figure 10).

The paper evaluates six MIRACL pairing curves for threshold cryptography
(BN158, BN254, BLS12383, BLS12381, FP256BN, FP512BN) and five micro-ecc
curves for public-key digital signatures (secp160r1 ... secp256k1) on an
STM32F767.  The headline findings it reports are:

* BN158 is the lightest threshold curve and produces 21-byte threshold
  signatures (Fig. 10c);
* secp160r1 produces the smallest (40-byte) digital signatures;
* threshold coin flipping is cheaper than threshold signatures (Fig. 10a vs.
  10b);
* lighter curves translate into lower consensus latency and higher throughput
  (Fig. 10d), which is why the consensus experiments use secp160r1 + BN158.

The numeric latency values below are *calibrated placeholders*: they follow
the ordering, rough magnitudes (single-digit to hundreds of milliseconds on a
Cortex-M7 class CPU) and relative gaps visible in the paper's log-scale plots,
but are not the authors' exact measurements, which are unavailable.  The
reproduction therefore matches the shape of Fig. 10 and the downstream impact
on Fig. 10d, not absolute milliseconds (RESULTS.md, Fig. 10a-10d).
"""

from __future__ import annotations

from dataclasses import dataclass


class UnknownCurveError(KeyError):
    """Raised when an unrecognised curve name is requested."""


@dataclass(frozen=True)
class CurveProfile:
    """Cost/size profile of an elliptic curve used for digital signatures."""

    name: str
    signature_bytes: int
    public_key_bytes: int
    sign_ms: float
    verify_ms: float


@dataclass(frozen=True)
class ThresholdCurveProfile:
    """Cost/size profile of a pairing curve used for threshold cryptography.

    ``*_ms`` attributes are the per-operation latencies of Fig. 10a (threshold
    signatures) and ``coin_*_ms`` those of Fig. 10b (threshold coin flipping).
    """

    name: str
    threshold_sig_bytes: int
    share_bytes: int
    dealer_ms: float
    sign_share_ms: float
    verify_share_ms: float
    combine_share_ms: float
    verify_signature_ms: float
    coin_dealer_ms: float
    coin_sign_ms: float
    coin_verify_share_ms: float
    coin_combine_ms: float

    def sig_op_latencies(self) -> dict[str, float]:
        """Threshold-signature operation latencies keyed like Fig. 10a."""
        return {
            "dealer": self.dealer_ms,
            "sign": self.sign_share_ms,
            "verifyshare": self.verify_share_ms,
            "combineshare": self.combine_share_ms,
            "verifysignature": self.verify_signature_ms,
        }

    def coin_op_latencies(self) -> dict[str, float]:
        """Threshold coin-flipping operation latencies keyed like Fig. 10b."""
        return {
            "dealer": self.coin_dealer_ms,
            "sign": self.coin_sign_ms,
            "verifyshare": self.coin_verify_share_ms,
            "combineshare": self.coin_combine_ms,
        }


EC_CURVES: dict[str, CurveProfile] = {
    "secp160r1": CurveProfile("secp160r1", signature_bytes=40, public_key_bytes=40,
                              sign_ms=19.0, verify_ms=22.0),
    "secp192r1": CurveProfile("secp192r1", signature_bytes=48, public_key_bytes=48,
                              sign_ms=29.0, verify_ms=33.0),
    "secp224r1": CurveProfile("secp224r1", signature_bytes=56, public_key_bytes=56,
                              sign_ms=44.0, verify_ms=50.0),
    "secp256r1": CurveProfile("secp256r1", signature_bytes=64, public_key_bytes=64,
                              sign_ms=62.0, verify_ms=71.0),
    "secp256k1": CurveProfile("secp256k1", signature_bytes=64, public_key_bytes=64,
                              sign_ms=58.0, verify_ms=66.0),
}

THRESHOLD_CURVES: dict[str, ThresholdCurveProfile] = {
    "BN158": ThresholdCurveProfile(
        "BN158", threshold_sig_bytes=21, share_bytes=21,
        dealer_ms=28.0, sign_share_ms=14.0, verify_share_ms=33.0,
        combine_share_ms=22.0, verify_signature_ms=38.0,
        coin_dealer_ms=18.0, coin_sign_ms=9.0, coin_verify_share_ms=20.0,
        coin_combine_ms=14.0),
    "BN254": ThresholdCurveProfile(
        "BN254", threshold_sig_bytes=33, share_bytes=33,
        dealer_ms=55.0, sign_share_ms=28.0, verify_share_ms=66.0,
        combine_share_ms=45.0, verify_signature_ms=75.0,
        coin_dealer_ms=35.0, coin_sign_ms=17.0, coin_verify_share_ms=40.0,
        coin_combine_ms=28.0),
    "BLS12383": ThresholdCurveProfile(
        "BLS12383", threshold_sig_bytes=49, share_bytes=49,
        dealer_ms=150.0, sign_share_ms=78.0, verify_share_ms=175.0,
        combine_share_ms=120.0, verify_signature_ms=200.0,
        coin_dealer_ms=95.0, coin_sign_ms=48.0, coin_verify_share_ms=110.0,
        coin_combine_ms=75.0),
    "BLS12381": ThresholdCurveProfile(
        "BLS12381", threshold_sig_bytes=49, share_bytes=49,
        dealer_ms=140.0, sign_share_ms=72.0, verify_share_ms=165.0,
        combine_share_ms=112.0, verify_signature_ms=188.0,
        coin_dealer_ms=88.0, coin_sign_ms=45.0, coin_verify_share_ms=102.0,
        coin_combine_ms=70.0),
    "FP256BN": ThresholdCurveProfile(
        "FP256BN", threshold_sig_bytes=33, share_bytes=33,
        dealer_ms=68.0, sign_share_ms=34.0, verify_share_ms=80.0,
        combine_share_ms=54.0, verify_signature_ms=90.0,
        coin_dealer_ms=42.0, coin_sign_ms=21.0, coin_verify_share_ms=48.0,
        coin_combine_ms=33.0),
    "FP512BN": ThresholdCurveProfile(
        "FP512BN", threshold_sig_bytes=65, share_bytes=65,
        dealer_ms=380.0, sign_share_ms=195.0, verify_share_ms=440.0,
        combine_share_ms=310.0, verify_signature_ms=490.0,
        coin_dealer_ms=240.0, coin_sign_ms=120.0, coin_verify_share_ms=270.0,
        coin_combine_ms=190.0),
}

#: The pairing chosen by the paper for the consensus experiments (Section VI-A).
DEFAULT_EC_CURVE = "secp160r1"
DEFAULT_THRESHOLD_CURVE = "BN158"


def get_ec_curve(name: str) -> CurveProfile:
    """Look up a digital-signature curve profile by name."""
    try:
        return EC_CURVES[name]
    except KeyError as exc:
        raise UnknownCurveError(
            f"unknown EC curve {name!r}; known: {sorted(EC_CURVES)}") from exc


def get_threshold_curve(name: str) -> ThresholdCurveProfile:
    """Look up a threshold-cryptography curve profile by name."""
    try:
        return THRESHOLD_CURVES[name]
    except KeyError as exc:
        raise UnknownCurveError(
            f"unknown threshold curve {name!r}; known: {sorted(THRESHOLD_CURVES)}") from exc
