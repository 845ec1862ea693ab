"""Cost-accounted cryptography facade used by consensus components.

Consensus latency on the paper's testbed is driven as much by cryptographic
computation as by airtime, so every cryptographic operation performed inside
the simulator must (a) be functionally real -- every signature, share and
proof is really made, and each distinct verdict on one is really established
once: by its maker when the maker is in this process (an artefact still
carrying its maker's stamp is valid by construction, see "provenance" in
:mod:`repro.crypto.group`), by the first verifier otherwise (memoised for
the other receivers of the same broadcast) -- and (b) charge the executing
node's CPU with the per-curve latency of Figure 10 on *every* call, whichever
way (a) was answered.  :class:`CryptoSuite` is the single entry point that
does both: components call its methods, the primitive answers, and the
configured ``cost_sink`` (normally the owning
:class:`repro.net.node.NetworkNode`) is charged with the modelled latency.
"""

from __future__ import annotations

from typing import Callable, Iterable, NamedTuple, Optional, Sequence

from repro.crypto.curves import (
    CurveProfile,
    DEFAULT_EC_CURVE,
    DEFAULT_THRESHOLD_CURVE,
    ThresholdCurveProfile,
    get_ec_curve,
    get_threshold_curve,
)
from repro.crypto.digital_sig import Signature, SigningKey, VerifyKey
from repro.crypto.threshold_coin import CoinShare, ThresholdCoinScheme
from repro.crypto.threshold_enc import Ciphertext, DecryptionShare, ThresholdEncScheme
from repro.crypto.threshold_sig import (
    ThresholdSigScheme,
    ThresholdSigShare,
    ThresholdSignature,
)

CostSink = Callable[[float], None]


class CoinFlavor(NamedTuple):
    """What one coin kind pays for: the :class:`CryptoSuite` handle it uses
    (also its dealer scheme name) and, per operation, the
    :class:`ThresholdCurveProfile` row it is charged."""

    handle: str
    description: str
    sign: str
    verify: str
    combine: str


#: The one place a coin flavor is given meaning.  ABA-SC's coin is a
#: threshold signature on the round tag (Fig. 10a rows); ABA-CP's is BEAT's
#: cheaper threshold coin flipping (Fig. 10b rows); ABA-LC has no coin.
COIN_FLAVORS: dict[str, CoinFlavor] = {
    "tsig": CoinFlavor(
        "threshold_coin", "threshold coin scheme",
        sign="sign_share_ms", verify="verify_share_ms",
        combine="combine_share_ms"),
    "flip": CoinFlavor(
        "coin_flip", "threshold coin-flipping scheme",
        sign="coin_sign_ms", verify="coin_verify_share_ms",
        combine="coin_combine_ms"),
}


class CryptoSuite:
    """Bundles one node's key material with the cost model.

    Parameters
    ----------
    node_id:
        The owning node (0-based).
    signing_key / verify_keys:
        The node's digital-signature keypair and everybody's verify keys.
    threshold_sig / threshold_coin / coin_flip / threshold_enc:
        The node's handles for the threshold schemes.  A deployment's suite
        holds all four; a suite built by hand may leave any ``None``, and
        an operation on it raises.
    ec_curve / threshold_curve:
        Curve profiles controlling byte sizes and operation latencies.
    rng:
        Randomness source for signing/encryption nonces.
    cost_sink:
        Callback charged with every operation's latency (seconds).  The node
        runtime installs a callback that extends its CPU-busy time.
    cost_scale:
        Multiplier on every charged latency.  The per-curve profiles model
        the paper's STM32F767 boards; large-n scale scenarios run on
        gateway-class hardware and scale the same relative costs down
        (``repro.testbed.scenarios.GATEWAY_CRYPTO_SCALE``).

    ``crypto_seconds`` is the running total of every charged latency: a
    stream charges thousands of operations per epoch, so no per-operation
    record is kept.
    """

    def __init__(self, node_id: int, signing_key: SigningKey,
                 verify_keys: Sequence[VerifyKey],
                 threshold_sig: Optional[ThresholdSigScheme] = None,
                 threshold_coin: Optional[ThresholdCoinScheme] = None,
                 coin_flip: Optional[ThresholdCoinScheme] = None,
                 threshold_enc: Optional[ThresholdEncScheme] = None,
                 ec_curve: str = DEFAULT_EC_CURVE,
                 threshold_curve: str = DEFAULT_THRESHOLD_CURVE,
                 rng=None, cost_sink: Optional[CostSink] = None,
                 cost_scale: float = 1.0) -> None:
        self.node_id = node_id
        self.signing_key = signing_key
        self.verify_keys = list(verify_keys)
        self.threshold_sig = threshold_sig
        self.threshold_coin = threshold_coin
        self.coin_flip = coin_flip
        self.threshold_enc = threshold_enc
        self.ec_profile: CurveProfile = get_ec_curve(ec_curve)
        self.threshold_profile: ThresholdCurveProfile = get_threshold_curve(threshold_curve)
        self.rng = rng
        self.cost_sink = cost_sink
        if cost_scale <= 0:
            raise ValueError(f"cost_scale must be positive, got {cost_scale}")
        self.cost_scale = cost_scale
        self.crypto_seconds = 0.0

    # ------------------------------------------------------------- accounting
    def _charge(self, milliseconds: float) -> None:
        seconds = milliseconds * self.cost_scale / 1000.0
        self.crypto_seconds += seconds
        if self.cost_sink is not None:
            self.cost_sink(seconds)

    # ----------------------------------------------------------------- sizes
    @property
    def digital_signature_bytes(self) -> int:
        """Wire size of one public-key digital signature."""
        return self.ec_profile.signature_bytes

    @property
    def threshold_signature_bytes(self) -> int:
        """Wire size of one combined threshold signature."""
        return self.threshold_profile.threshold_sig_bytes

    @property
    def threshold_share_bytes(self) -> int:
        """Wire size of one threshold signature/coin share."""
        return self.threshold_profile.share_bytes

    # --------------------------------------------------- digital signatures
    def sign(self, message: bytes) -> Signature:
        """Sign a packet payload with the node's digital signature key."""
        self._charge(self.ec_profile.sign_ms)
        return self.signing_key.sign(message, self.rng)

    def verify(self, signer: int, message: bytes, signature: Signature) -> bool:
        """Verify a packet signature from ``signer``."""
        self._charge(self.ec_profile.verify_ms)
        if not (isinstance(signer, int)
                and 0 <= signer < len(self.verify_keys)):
            return False
        return self.verify_keys[signer].verify(message, signature)

    # --------------------------------------------------- threshold signatures
    def tsig_share(self, message: bytes) -> ThresholdSigShare:
        """Produce a threshold-signature share."""
        self._require(self.threshold_sig, "threshold signature scheme")
        self._charge(self.threshold_profile.sign_share_ms)
        return self.threshold_sig.sign_share(message, self.rng)

    def tsig_verify_share(self, message: bytes, share: ThresholdSigShare) -> bool:
        """Verify a threshold-signature share."""
        self._require(self.threshold_sig, "threshold signature scheme")
        self._charge(self.threshold_profile.verify_share_ms)
        return self.threshold_sig.verify_share(message, share)

    def tsig_combine(self, message: bytes,
                     shares: Iterable[ThresholdSigShare],
                     verify: bool = True) -> ThresholdSignature:
        """Combine shares into a threshold signature.

        ``verify=False`` skips the combiner's redundant re-verification when
        the caller has already verified every share individually (the modelled
        combine cost is charged either way).
        """
        self._require(self.threshold_sig, "threshold signature scheme")
        self._charge(self.threshold_profile.combine_share_ms)
        return self.threshold_sig.combine(message, shares, verify=verify)

    def tsig_verify(self, message: bytes, signature: ThresholdSignature) -> bool:
        """Verify a combined threshold signature."""
        self._require(self.threshold_sig, "threshold signature scheme")
        self._charge(self.threshold_profile.verify_signature_ms)
        return self.threshold_sig.verify_signature(message, signature)

    # --------------------------------------------------------- common coin
    def _coin(self, flavor: str, operation: str) -> ThresholdCoinScheme:
        """The handle of the ``flavor`` coin, charged for one ``operation``."""
        try:
            coin = COIN_FLAVORS[flavor]
        except KeyError:
            raise ValueError(f"unknown coin flavor {flavor!r}; "
                             f"known: {sorted(COIN_FLAVORS)}") from None
        scheme = getattr(self, coin.handle)
        self._require(scheme, coin.description)
        self._charge(getattr(self.threshold_profile, getattr(coin, operation)))
        return scheme

    def coin_share(self, tag: bytes, flavor: str = "tsig") -> CoinShare:
        """Produce a coin share for the round tag."""
        return self._coin(flavor, "sign").coin_share(tag, self.rng)

    def coin_verify_share(self, tag: bytes, share: CoinShare,
                          flavor: str = "tsig") -> bool:
        """Verify a coin share."""
        return self._coin(flavor, "verify").verify_share(tag, share)

    def coin_combine(self, tag: bytes, shares: Iterable[CoinShare],
                     flavor: str = "tsig", verify: bool = True) -> int:
        """Reveal the coin bit (``verify=False`` when every share was
        already verified individually on receipt)."""
        return self._coin(flavor, "combine").combine(tag, shares,
                                                     verify=verify)

    def coin_combine_value(self, tag: bytes, shares: Iterable[CoinShare],
                           modulus: int, flavor: str = "tsig",
                           verify: bool = True) -> int:
        """Reveal a wide pseudorandom value.  Dumbo's global pi should be
        seeded from it but uses the one-bit :meth:`coin_combine` (finding
        ``dumbo-pi-one-bit``, ROADMAP)."""
        return self._coin(flavor, "combine").combine_value(
            tag, shares, modulus, verify=verify)

    # -------------------------------------------------- threshold encryption
    def encrypt(self, plaintext: bytes, label: bytes) -> Ciphertext:
        """Threshold-encrypt a proposal."""
        self._require(self.threshold_enc, "threshold encryption scheme")
        self._charge(self.threshold_profile.sign_share_ms)
        return self.threshold_enc.encrypt(plaintext, label, self.rng)

    def decryption_share(self, ciphertext: Ciphertext) -> DecryptionShare:
        """Produce a decryption share."""
        self._require(self.threshold_enc, "threshold encryption scheme")
        self._charge(self.threshold_profile.sign_share_ms)
        return self.threshold_enc.decryption_share(ciphertext, self.rng)

    def verify_decryption_share(self, ciphertext: Ciphertext,
                                share: DecryptionShare) -> bool:
        """Verify a decryption share."""
        self._require(self.threshold_enc, "threshold encryption scheme")
        self._charge(self.threshold_profile.verify_share_ms)
        return self.threshold_enc.verify_share(ciphertext, share)

    def decrypt(self, ciphertext: Ciphertext,
                shares: Iterable[DecryptionShare],
                verify: bool = True) -> bytes:
        """Combine decryption shares and recover the plaintext."""
        self._require(self.threshold_enc, "threshold encryption scheme")
        self._charge(self.threshold_profile.combine_share_ms)
        return self.threshold_enc.combine(ciphertext, shares, verify=verify)

    # ------------------------------------------------------------------ misc
    @staticmethod
    def _require(scheme, description: str) -> None:
        if scheme is None:
            raise RuntimeError(f"this CryptoSuite was built without a {description}")
