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

Import a name from the module that defines it; the package re-exports nothing.
"""
