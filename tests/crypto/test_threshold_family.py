"""What the three threshold schemes share, pinned per family: dealt key
material, share bytes and RNG consumption (recorded before the schemes were
folded onto one base, so the fold moved no draw and no byte), the pickle
round trip of dealt keys and of stamped shares (the forked shard pipe),
and the verdict of ``verify_share`` on every kind of bad share (the three
schemes used to run the same checks in three orders).

Backend-independent by the determinism contract: CI runs this file under
every big-integer tier.
"""

import dataclasses
import hashlib
import pickle
import random

import pytest

from repro.crypto.group import _verify_dlog_equality_cached

from tests.crypto.families import FAMILIES, family_ids


def digest(value) -> str:
    return hashlib.sha256(repr(value).encode()).hexdigest()[:12]


# (family, n, threshold, seed) -> "keys rng-after-dealing share
# rng-after-sharing", recorded at the commit before ``crypto/threshold.py``.
# The three dealers were byte-identical, so the first two columns repeat.
PINS = {
    ("tsig", 4, 2, 2401): "6b0c42c86d75 e20021a0455d d883844b3970 a036313c21ab",
    ("tsig", 4, 2, 2402): "1b863032d760 6c5a68d9ce89 d86af02cbb8f 4c056becc28d",
    ("tsig", 4, 3, 2401): "69a1cc330ad3 a036313c21ab f8b3c1ba916f 410694f3ad6c",
    ("tsig", 4, 3, 2402): "4bf12575cb95 4c056becc28d 4fe81f42fdb6 8092132482bc",
    ("tsig", 7, 3, 2401): "f357023e0c8d a036313c21ab f8b3c1ba916f 410694f3ad6c",
    ("tsig", 7, 3, 2402): "c744475e0474 4c056becc28d 4fe81f42fdb6 8092132482bc",
    ("coin", 4, 2, 2401): "6b0c42c86d75 e20021a0455d 84a9415224b6 a036313c21ab",
    ("coin", 4, 2, 2402): "1b863032d760 6c5a68d9ce89 c10120c102d2 4c056becc28d",
    ("coin", 4, 3, 2401): "69a1cc330ad3 a036313c21ab 3baa928a41d8 410694f3ad6c",
    ("coin", 4, 3, 2402): "4bf12575cb95 4c056becc28d 06649e55fb92 8092132482bc",
    ("coin", 7, 3, 2401): "f357023e0c8d a036313c21ab 3baa928a41d8 410694f3ad6c",
    ("coin", 7, 3, 2402): "c744475e0474 4c056becc28d 06649e55fb92 8092132482bc",
    ("tenc", 4, 2, 2401): "6b0c42c86d75 e20021a0455d 0f6a9cd43e92 410694f3ad6c",
    ("tenc", 4, 2, 2402): "1b863032d760 6c5a68d9ce89 0ccef5a3e1ca 8092132482bc",
    ("tenc", 4, 3, 2401): "69a1cc330ad3 a036313c21ab 32aecb05a357 faa7ee078bcb",
    ("tenc", 4, 3, 2402): "4bf12575cb95 4c056becc28d 822ed2e9b229 fb2282fb6405",
    ("tenc", 7, 3, 2401): "f357023e0c8d a036313c21ab 32aecb05a357 faa7ee078bcb",
    ("tenc", 7, 3, 2402): "c744475e0474 4c056becc28d 822ed2e9b229 fb2282fb6405",
}


def key_material(schemes, family):
    public_key = schemes[0].public_key
    return ([(scheme.private_share.index, scheme.private_share.secret)
             for scheme in schemes],
            public_key.share_verify_keys,
            getattr(public_key, family.master_key))


@pytest.mark.parametrize("family", FAMILIES, ids=family_ids)
class TestFamilyPins:
    def test_dealing_and_sharing_are_pinned(self, family):
        name = family_ids[FAMILIES.index(family)]
        for (pinned, n, threshold, seed), expected in PINS.items():
            if pinned != name:
                continue
            rng = random.Random(seed)
            schemes = family.deal(n, threshold, rng)
            keys, dealt = digest(key_material(schemes, family)), \
                digest(rng.getstate())
            statement = family.statement(schemes, rng, b"pin")
            share = family.mint(schemes[1], statement, rng)
            found = " ".join((keys, dealt,
                              digest((share.signer, share.value, share.proof)),
                              digest(rng.getstate())))
            assert found == expected, (name, n, threshold, seed)

    def test_a_dealt_scheme_list_survives_pickle(self, family):
        """A pickled copy of dealt keys: equal key material, handles that
        still make shares everybody accepts."""
        rng = random.Random(2411)
        schemes = family.deal(4, 2, rng)
        schemes[0]._holds_published_share  # a primed handle pickles too
        loaded = pickle.loads(pickle.dumps(schemes))
        assert key_material(loaded, family) == key_material(schemes, family)
        assert [type(scheme) for scheme in loaded] == \
            [type(scheme) for scheme in schemes]
        assert loaded[0].public_key == schemes[0].public_key
        assert all(scheme.public_key is loaded[0].public_key
                   for scheme in loaded)
        statement = family.statement(schemes, rng, b"disk")
        share = family.mint(loaded[2], statement, rng)
        assert share._minted_for is not None
        assert schemes[0].verify_share(statement, share)

    def test_a_stamped_share_survives_pickle_without_its_stamp(self, family):
        """The forked shard pipe: ``Stamped.__reduce__`` rebuilds from the
        init fields in order, so the copy is equal, unstamped, and verified
        by the long road."""
        rng = random.Random(2412)
        schemes = family.deal(4, 2, rng)
        statement = family.statement(schemes, rng, b"pipe")
        share = family.mint(schemes[3], statement, rng)
        assert share._minted_for is not None
        loaded = pickle.loads(pickle.dumps(share))
        assert loaded == share and type(loaded) is type(share)
        assert repr(loaded) == repr(share)
        assert loaded._minted_for is None
        before = _verify_dlog_equality_cached.cache_info().misses
        assert schemes[0].verify_share(statement, loaded) is True
        assert _verify_dlog_equality_cached.cache_info().misses == before + 1


# Verdicts recorded with the three pre-fold verifiers, which ran these checks
# in three different orders; one order must answer the same on all of them.
BAD_SHARE_VERDICTS = {
    "stamped": True,
    "replaced": True,            # unstamped copy: the long road agrees
    "signer True": True,         # True == 1, and this is signer 1's share
    "wrong type None": False,
    "wrong type str": False,
    "wrong type proof": False,
    "another family's share": False,
    "signer 0": False,
    "signer n+1": False,
    "wrong statement": False,
    "wrong statement, replaced": False,
    "forged proof": False,
    "forged value": False,
    "stamped for another key": False,
    "another key's share, replaced": False,
}


@pytest.mark.parametrize("family", FAMILIES, ids=family_ids)
def test_one_check_order_returns_the_three_old_verdicts(family):
    rng = random.Random(2421)
    schemes = family.deal(4, 2, rng)
    foreign = family.deal(4, 2, rng)
    statement = family.statement(schemes, rng, b"verdict")
    elsewhere = family.statement(schemes, rng, b"elsewhere")
    share = family.mint(schemes[0], statement, rng)
    assert share.signer == 1 and share._minted_for is not None
    other_family = FAMILIES[(FAMILIES.index(family) + 1) % len(FAMILIES)]
    other_schemes = other_family.deal(4, 2, rng)
    alien = other_family.mint(
        other_schemes[0],
        other_family.statement(other_schemes, rng, b"verdict"), rng)
    outsider = family.mint(foreign[0], statement, rng)
    assert outsider._minted_for is not None
    replace = dataclasses.replace
    cases = {
        "stamped": (statement, share),
        "replaced": (statement, replace(share)),
        "signer True": (statement, replace(share, signer=True)),
        "wrong type None": (statement, None),
        "wrong type str": (statement, "share"),
        "wrong type proof": (statement, share.proof),
        "another family's share": (statement, alien),
        "signer 0": (statement, replace(share, signer=0)),
        "signer n+1": (statement, replace(share, signer=5)),
        "wrong statement": (elsewhere, share),
        "wrong statement, replaced": (elsewhere, replace(share)),
        "forged proof": (statement, replace(share, proof=replace(
            share.proof, response=share.proof.response + 1))),
        "forged value": (statement, replace(
            share, value=schemes[0].group.mul(share.value, share.value))),
        "stamped for another key": (statement, outsider),
        "another key's share, replaced": (statement, replace(outsider)),
    }
    assert cases.keys() == BAD_SHARE_VERDICTS.keys()
    for name, (about, candidate) in cases.items():
        for verifier in (schemes[2], schemes[2].public_key):
            assert verifier.verify_share(about, candidate) is \
                BAD_SHARE_VERDICTS[name], name
    # and the outsider's stamp is good where it was minted
    assert foreign[2].verify_share(statement, outsider) is True
