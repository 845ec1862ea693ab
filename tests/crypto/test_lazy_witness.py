"""Lazy witnesses: a minted signature or share proof draws its nonce when it
is made and computes its commitments, challenge and response on the first
read of a declared field.  Pinned here:

* the forced artefact is the eager one -- ``repr``, pickle bytes and the RNG
  state after each call were recorded with the eager makers (the commit
  before the witnesses went lazy);
* what must not force does not: ``size_bytes``, a ``hasattr`` probe, a
  stamp-path verify;
* what reads a field forces, agrees with an eager twin, and a pickle carries
  the public fields only -- never the secret or the nonce.
"""

import copy
import dataclasses
import hashlib
import pickle
import random

import pytest

from repro.crypto.digital_sig import Signature, generate_keypair
from repro.crypto.group import (
    ChaumPedersenProof,
    DEFAULT_GROUP,
    _verify_dlog_equality_cached,
    prove_dlog_equality,
    verify_dlog_equality,
)
from repro.crypto.threshold_coin import deal_threshold_coin
from repro.crypto.threshold_enc import deal_threshold_enc
from repro.crypto.threshold_sig import deal_threshold_sig

from tests.crypto.families import FAMILIES, family_ids
from tests.reference import unstamped


def digest(data) -> str:
    if not isinstance(data, bytes):
        data = repr(data).encode()
    return hashlib.sha256(data).hexdigest()[:12]


def pending(artefact) -> bool:
    """Whether the witness (of a signature, or of a share's proof) is still
    unforced."""
    witnessed = getattr(artefact, "proof", artefact)
    return "_witness" in vars(witnessed)


def maker(kind: str, rng):
    """``(mint, secret)``: a zero-argument maker of ``kind`` artefacts dealt
    from ``rng`` and drawing from it, and the secret behind them."""
    if kind == "sign":
        signing_key, _ = generate_keypair(rng, owner=1)
        return (lambda: signing_key.sign(b"lazy", rng)), signing_key.secret
    if kind == "tsig":
        schemes = deal_threshold_sig(4, 2, rng)
        return ((lambda: schemes[1].sign_share(b"lazy", rng)),
                schemes[1].private_share.secret)
    if kind in ("coin-tsig", "coin-flip"):
        schemes = deal_threshold_coin(4, 2, rng, flavor=kind[len("coin-"):])
        return ((lambda: schemes[1].coin_share(b"lazy", rng)),
                schemes[1].private_share.secret)
    schemes = deal_threshold_enc(4, 2, rng)
    ciphertext = schemes[0].encrypt(b"payload", b"lazy", rng)
    return ((lambda: schemes[1].decryption_share(ciphertext, rng)),
            schemes[1].private_share.secret)


KINDS = ("sign", "tsig", "coin-tsig", "coin-flip", "tenc")

# (kind, seed) -> per call, "repr pickle rng-state-after-the-call", recorded
# with the eager makers.  The two coin flavors share their bytes: the flavor
# selects a cost row, not the mechanics.
PINS = {
    ("sign", 2601): ("cf1861ae578d c3b6eead5533 73963d9d9bce",
                     "acb0586b6822 abbc503ea35e 90b223a06082"),
    ("sign", 2602): ("7807277497b9 36ce7ef18d9f d8ec3dba9fd7",
                     "ed1c95e4b9b4 66738e13f8d5 f95bedbb9e50"),
    ("tsig", 2601): ("d63d702fc36b 4f60f59f6f28 90b223a06082",
                     "3e91bf5a4050 80f843e0c138 cd16868ab2c7"),
    ("tsig", 2602): ("abb9aa7b2c8d 8611aaef3155 f95bedbb9e50",
                     "7f6b4a8dd5b3 27dd70c948ae 35fc5a9d1158"),
    ("coin-tsig", 2601): ("65076f2f3104 249481c7eb2b 90b223a06082",
                          "0dc90957243d f1c703803933 cd16868ab2c7"),
    ("coin-tsig", 2602): ("a9e31d35cc80 b8ce631a8c0d f95bedbb9e50",
                          "1fba196206d7 f4780c270b67 35fc5a9d1158"),
    ("coin-flip", 2601): ("65076f2f3104 249481c7eb2b 90b223a06082",
                          "0dc90957243d f1c703803933 cd16868ab2c7"),
    ("coin-flip", 2602): ("a9e31d35cc80 b8ce631a8c0d f95bedbb9e50",
                          "1fba196206d7 f4780c270b67 35fc5a9d1158"),
    ("tenc", 2601): ("59e8dc610f0a 5b7478b12f4d cd16868ab2c7",
                     "212d46805835 865e9f7b887b 518e3217cb1c"),
    ("tenc", 2602): ("922d13112ca2 f20f7cb7025d 35fc5a9d1158",
                     "374248a605db 07f50ea41157 6970f510640e"),
}


@pytest.mark.parametrize("kind,seed", sorted(PINS))
def test_the_forced_bytes_are_the_eager_bytes(kind, seed):
    rng = random.Random(seed)
    mint, _secret = maker(kind, rng)
    found = []
    for _ in PINS[kind, seed]:
        artefact = mint()
        drawn = digest(rng.getstate())  # before anything forces
        assert pending(artefact)
        found.append(f"{digest(repr(artefact))} "
                     f"{digest(pickle.dumps(artefact))} {drawn}")
        assert not pending(artefact)
        assert digest(rng.getstate()) == drawn  # forcing draws nothing
    assert tuple(found) == PINS[kind, seed]


@pytest.mark.parametrize("kind", KINDS)
def test_what_must_not_force_does_not(kind):
    rng = random.Random(2611)
    mint, _secret = maker(kind, rng)
    artefact = mint()
    assert artefact.size_bytes() == (64 if kind == "sign" else 32 + 96)
    assert hasattr(artefact, "_minted_for")
    if kind != "sign":
        assert artefact.proof.size_bytes() == 96
        # the probe fails without consuming the witness ...
        assert not hasattr(artefact.proof, "_minted_for")
        assert not hasattr(artefact.proof, "__setstate__")
    assert pending(artefact)
    # ... and is still there for the first read (a share's copy shares its
    # proof object, so the copy's read forces the original's proof too)
    copied = unstamped(artefact)
    assert repr(copied) == repr(artefact) and not pending(artefact)
    assert copied._minted_for is None


def test_a_stamp_path_verify_does_not_force():
    rng = random.Random(2612)
    signing_key, verify_key = generate_keypair(rng, owner=0)
    signature = signing_key.sign(b"stamped", rng)
    assert verify_key.verify(b"stamped", signature) and pending(signature)
    # a statement the stamp does not cover takes the long road, which reads
    assert not verify_key.verify(b"other", signature)
    assert not pending(signature)


@pytest.mark.parametrize("family", FAMILIES, ids=family_ids)
def test_a_stamp_path_verify_share_does_not_force(family):
    rng = random.Random(2613)
    schemes = family.deal(4, 2, rng)
    statement = family.statement(schemes, rng, b"stamped")
    share = family.mint(schemes[0], statement, rng)
    assert schemes[2].verify_share(statement, share) and pending(share)
    assert schemes[2].combine(statement, [share, family.mint(
        schemes[1], statement, rng)], verify=False) is not None
    assert pending(share)  # the combine reads the eager value only


@pytest.mark.parametrize("kind", KINDS)
def test_equality_and_hash_agree_with_an_eager_twin(kind):
    lazy = maker(kind, random.Random(2621))[0]()
    forced = maker(kind, random.Random(2621))[0]()
    repr(forced)
    eager = dataclasses.replace(forced)
    if kind != "sign":
        eager = dataclasses.replace(eager, proof=ChaumPedersenProof(
            **{field.name: getattr(forced.proof, field.name)
               for field in dataclasses.fields(ChaumPedersenProof)}))
    assert pending(lazy) and not pending(eager)
    assert lazy == eager and eager == lazy
    assert hash(lazy) == hash(eager)
    assert repr(lazy) == repr(eager)


@pytest.mark.parametrize("kind", KINDS)
def test_a_pickle_carries_public_fields_only(kind):
    rng = random.Random(2631)
    mint, secret = maker(kind, rng)
    before = rng.getstate()
    artefact = mint()
    # the nonce is the first draw of every maker
    replay = random.Random()
    replay.setstate(before)
    nonce = DEFAULT_GROUP.random_scalar(replay)
    for data in (pickle.dumps(artefact), pickle.dumps(artefact, protocol=2),
                 pickle.dumps(artefact, protocol=0)):
        for private in (secret, nonce):
            assert pickle.encode_long(private) not in data
            assert str(private).encode() not in data
        loaded = pickle.loads(data)
        assert loaded == artefact and type(loaded) is type(artefact)
        assert loaded._minted_for is None and not pending(loaded)
    assert "_witness" not in vars(copy.copy(getattr(artefact, "proof",
                                                    artefact)))


def test_an_unpickled_artefact_passes_the_long_road():
    rng = random.Random(2632)
    signing_key, verify_key = generate_keypair(rng, owner=0)
    signature = pickle.loads(pickle.dumps(signing_key.sign(b"m", rng)))
    assert type(signature) is Signature and verify_key.verify(b"m", signature)
    schemes = deal_threshold_coin(4, 2, rng)
    share = pickle.loads(pickle.dumps(schemes[3].coin_share(b"tag", rng)))
    before = _verify_dlog_equality_cached.cache_info().misses
    assert schemes[0].verify_share(b"tag", share)
    assert _verify_dlog_equality_cached.cache_info().misses == before + 1


def test_a_handle_that_may_not_stamp_still_proves():
    """Rule 2: index 0 reads the last node's published key, which the last
    node's secret matches -- the handle may not stamp, but its proof is a
    true one and verifies once forced."""
    rng = random.Random(2641)
    schemes = deal_threshold_sig(4, 2, rng)
    public_key = schemes[0].public_key
    wrapped = type(schemes[0])(public_key, dataclasses.replace(
        schemes[3].private_share, index=0))
    share = wrapped.sign_share(b"rule 2", rng)
    assert share._minted_for is None and pending(share)
    assert verify_dlog_equality(
        public_key.group, share.proof, public_key.hash_message(b"rule 2"),
        public_key.share_verify_keys[-1], share.value,
        context=public_key.share_context)
    assert not pending(share)


def test_a_false_statement_forces_to_a_proof_that_fails():
    """Rule 1 unchanged: ``prove_dlog_equality`` proves what it is handed."""
    group, rng = DEFAULT_GROUP, random.Random(2642)
    secret = group.random_scalar(rng)
    base = group.hash_to_group(b"base")
    proof = prove_dlog_equality(group, secret, base, group.power_of_g(secret),
                                group.exp(base, secret + 1), rng)
    assert "_witness" in vars(proof)
    assert not verify_dlog_equality(group, proof, base,
                                    group.power_of_g(secret),
                                    group.exp(base, secret + 1))
    assert set(vars(proof)) == {"commitment_g", "commitment_h", "response"}
