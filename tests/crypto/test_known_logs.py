"""Known discrete logs: bases made here as ``g^x`` are raised from ``g``'s table.

``repro.crypto.group`` remembers the log of every element this process
computes as a power of ``g`` -- hash points, ciphertext ephemerals, dealt
keys, share values once read -- and answers ``Group.exp`` on such a base,
and a combine whose every value is known, as one fixed-base exponentiation.
A share made on a known base keeps its exponent instead of its value, and a
combine takes that exponent.  Six properties are pinned here:

* **bit identity** -- ``Group.exp`` equals builtin ``pow`` on known and
  unknown bases alike, and a known-log combine equals the ``multi_powm``
  tail over every signer subset, with all, some or none of the values known;
* **domain guard** -- a toy group whose ``g^q`` is not 1 never fills the
  memo (there, ``base^x`` and ``g^(log * x mod q)`` differ);
* **bounded memory** -- the memo never holds more than its bound, evicts the
  least recently used element first, and keeps a key that stays in use
  through a long stream of fresh points;
* **the honest path needs no backend** -- an honest one-epoch run of each
  protocol family makes zero backend ``powm`` calls;
* **one exponentiation per statement** -- a combined exponent is raised
  once, and an honest epoch leaves no share value in the memo, so a memo
  bounded far below its default makes no more ``multi_powm`` calls;
* **process-local** -- nothing pickled carries the memo.

Each test that counts or bounds entries builds its own memo
(``fresh_memo``), so no other test's state reaches it.
"""

import dataclasses
import pickle
import random
from itertools import combinations

import pytest
from hypothesis import given, settings, strategies as st

from repro.crypto import backend, fastpath, threshold_sig
from repro.crypto import group as group_module
from repro.crypto.group import DEFAULT_GROUP, Group, combine_in_exponent
from repro.crypto.threshold import ShareHolder
from repro.crypto.threshold_coin import ThresholdCoinError, deal_threshold_coin
from repro.crypto.threshold_enc import deal_threshold_enc
from repro.crypto.threshold_sig import deal_threshold_sig
from repro.protocols.base import PROTOCOL_NAMES
from repro.testbed import dealer_cache
from repro.testbed.harness import run_consensus
from repro.testbed.scenarios import Scenario

P, Q, G = DEFAULT_GROUP.p, DEFAULT_GROUP.q, DEFAULT_GROUP.g
#: a toy group whose generator's order does not divide ``q``: 2 has order
#: 11 modulo 23, so ``2^5 != 1``
TOY = Group(p=23, q=5, g=2)


@pytest.fixture()
def fresh_memo(monkeypatch):
    """An empty set of per-group generators, so the memo starts empty."""
    monkeypatch.setattr(group_module, "_GENERATORS", {})


def memo(group: Group = DEFAULT_GROUP):
    return group_module._generator(group.p, group.q, group.g).logs


@pytest.fixture()
def powm_calls(monkeypatch) -> list:
    """Every backend ``powm`` call from here on, as its argument tuple."""
    calls = []
    original = backend.powm

    def counting(*args):
        calls.append(args)
        return original(*args)

    monkeypatch.setattr(backend, "powm", counting)
    return calls


def known_bases(seed: int) -> dict:
    """One base of each kind the schemes raise to a key share."""
    rng = random.Random(seed)
    enc = deal_threshold_enc(4, 2, rng)
    tsig = deal_threshold_sig(4, 2, rng)
    public_key = enc[0].public_key
    ciphertext = enc[0].encrypt(b"payload", b"label", rng)
    return {
        "hash point": tsig[0].public_key.hash_message(b"m%d" % seed),
        "ephemeral": ciphertext.ephemeral,
        "encryption key": public_key.encryption_key,
        "verify key": public_key.share_verify_keys[2],
        "share value": enc[1].decryption_share(ciphertext, rng).value,
    }


# ------------------------------------------------------------ bit identity
class TestExpBitIdentity:
    @given(seed=st.integers(min_value=0, max_value=2**32),
           exponent=st.integers(min_value=-2 * Q, max_value=2**300))
    @settings(max_examples=40, deadline=None)
    def test_known_bases_match_pow_without_the_backend(self, seed, exponent):
        bases = known_bases(seed)
        calls = []
        original = backend.powm
        backend.powm = lambda *args: calls.append(args) or original(*args)
        try:
            for kind, base in bases.items():
                assert DEFAULT_GROUP.exp(base, exponent) == \
                    pow(base, exponent % Q, P), kind
        finally:
            backend.powm = original
        assert calls == []

    @given(base=st.integers(min_value=0, max_value=2 * P),
           exponent=st.integers(min_value=-2 * Q, max_value=2**300))
    @settings(max_examples=60, deadline=None)
    def test_unknown_bases_match_pow(self, base, exponent):
        assert DEFAULT_GROUP.exp(base, exponent) == pow(base, exponent % Q, P)

    def test_an_unreduced_alias_of_a_known_base_is_not_known(
            self, fresh_memo, powm_calls):
        point = DEFAULT_GROUP.hash_to_group(b"alias")
        for base in (point + P, point - P):
            assert DEFAULT_GROUP.exp(base, 12345) == pow(base, 12345, P)
        assert len(powm_calls) == 2

    def test_the_result_of_a_known_exponentiation_is_known(
            self, fresh_memo, powm_calls):
        value = DEFAULT_GROUP.exp(DEFAULT_GROUP.hash_to_group(b"chain"), 99)
        assert DEFAULT_GROUP.exp(value, 7) == pow(value, 7, P)
        assert powm_calls == []


# ------------------------------------------------------------- combines
def _shares(rng, schemes, about):
    return [scheme.coin_share(about, rng) for scheme in schemes]


class TestKnownLogCombine:
    @pytest.mark.parametrize("unknown_count", [0, 1, 2, 3])
    def test_equals_the_multi_powm_tail_over_every_subset(
            self, monkeypatch, unknown_count):
        """All, some or none of the values known: one integer either way."""
        rng = random.Random(41)
        schemes = deal_threshold_coin(6, 3, rng)
        public_key = schemes[0].public_key
        shares = _shares(rng, schemes, b"subsets")
        known = group_module._Generator.log
        for subset in combinations(shares, 3):
            # an eager copy has no recorded exponent: only the memo knows it
            eager = [dataclasses.replace(share) for share in subset]
            mixed = eager[:unknown_count] + list(subset[unknown_count:])
            forgotten = {share.value for share in eager[:unknown_count]}

            def partly_known(generator, element):
                return None if element in forgotten else known(generator,
                                                              element)

            def tail(generator, element):
                return None

            monkeypatch.setattr(group_module._Generator, "log", partly_known)
            got = combine_in_exponent(DEFAULT_GROUP, mixed, 3,
                                      ThresholdCoinError, "coin shares")
            monkeypatch.setattr(group_module._Generator, "log", tail)
            expected = combine_in_exponent(DEFAULT_GROUP, eager, 3,
                                           ThresholdCoinError, "coin shares")
            monkeypatch.setattr(group_module._Generator, "log", known)
            assert got == expected
            assert public_key.combine(b"subsets", list(subset)) == \
                public_key.combine(b"subsets", shares[:3])

    def test_a_known_combine_calls_no_backend(self, fresh_memo, powm_calls,
                                              monkeypatch):
        rng = random.Random(42)
        schemes = deal_threshold_sig(4, 2, rng)
        shares = [scheme.sign_share(b"known", rng) for scheme in schemes]
        multi_calls = []
        monkeypatch.setattr(backend, "multi_powm",
                            lambda *args: multi_calls.append(args))
        for pair in combinations(shares, 2):
            schemes[0].combine(b"known", pair, verify=False)
        assert powm_calls == [] and multi_calls == []

    def test_a_value_in_no_group_still_raises(self):
        rng = random.Random(43)
        schemes = deal_threshold_coin(4, 2, rng)
        good, other = _shares(rng, schemes, b"bad")[:2]
        bad = type(other)(signer=other.signer, tag=other.tag, value=7 * P,
                          proof=other.proof)
        with pytest.raises(ThresholdCoinError, match="not a group element"):
            combine_in_exponent(DEFAULT_GROUP, [good, bad], 2,
                                ThresholdCoinError, "coin shares")


# ---------------------------------------------------------- domain guard
class TestDomainGuard:
    def test_a_group_whose_generator_order_does_not_divide_q_never_fills(
            self, fresh_memo):
        assert pow(TOY.g, TOY.q, TOY.p) != 1
        for exponent in range(1, 40):
            element = TOY.power_of_g(exponent)
            assert TOY.exp(element, exponent) == \
                pow(element, exponent % TOY.q, TOY.p)
        TOY.hash_to_group(b"toy")
        assert memo(TOY) is None

    def test_a_group_whose_generator_order_divides_q_fills(self, fresh_memo):
        toy = Group(p=23, q=11, g=2)
        for exponent in range(1, 40):
            element = toy.power_of_g(exponent)
            for power in range(-3, 30):
                assert toy.exp(element, power) == \
                    pow(element, power % toy.q, toy.p)
        assert 0 < len(memo(toy)) <= toy.q


# --------------------------------------------------------- bounded memory
class TestBoundedMemory:
    def test_bound_holds_and_the_key_in_use_survives(self, fresh_memo,
                                                     monkeypatch):
        bound = 64
        monkeypatch.setattr(group_module, "KNOWN_LOGS_MAX", bound)
        rng = random.Random(44)
        enc = deal_threshold_enc(4, 2, rng)
        public_key = enc[0].public_key
        first_point = DEFAULT_GROUP.hash_to_group(b"fresh", b"0")
        for index in range(1, 20 * bound):
            DEFAULT_GROUP.hash_to_group(b"fresh", b"%d" % index)
            if index % (bound // 4) == 0:
                # the encryption key is read by every encryption
                public_key.encrypt(b"x", b"label", rng)
            assert len(memo()) <= bound
        logs = memo()
        assert len(logs) == bound
        assert public_key.encryption_key in logs
        assert first_point not in logs
        # the least recently used element is the next to go
        oldest = next(iter(logs))
        DEFAULT_GROUP.power_of_g(rng.randrange(Q))
        assert oldest not in memo()

    def test_an_evicted_base_falls_back_to_the_backend(self, fresh_memo,
                                                       powm_calls,
                                                       monkeypatch):
        monkeypatch.setattr(group_module, "KNOWN_LOGS_MAX", 4)
        base = DEFAULT_GROUP.power_of_g(31337)
        for exponent in range(1, 5):
            DEFAULT_GROUP.power_of_g(exponent)
        assert DEFAULT_GROUP.exp(base, 5) == pow(base, 5, P)
        assert len(powm_calls) == 1


# ------------------------------------------------------- the honest path
class TestHonestPathNeedsNoBackend:
    @pytest.mark.parametrize("protocol", PROTOCOL_NAMES)
    def test_zero_backend_powm_on_an_honest_epoch(self, protocol, monkeypatch,
                                                  powm_calls):
        # a fresh deal, so this process learned every dealt key's log
        monkeypatch.setattr(dealer_cache, "DEFAULT_DEALER_CACHE",
                            dealer_cache.DealerCache())
        assert run_consensus(protocol, Scenario.single_hop(4),
                             seed=8100).decided
        assert powm_calls == []


# ------------------------------------------- one exponentiation per statement
def _table_pows(monkeypatch) -> list:
    """Every fixed-base exponentiation from here on, as its exponent."""
    calls = []
    original = fastpath.FixedBaseTable.pow

    def counting(table, exponent):
        calls.append(exponent)
        return original(table, exponent)

    monkeypatch.setattr(fastpath.FixedBaseTable, "pow", counting)
    return calls


def _share_value(share) -> int:
    """A share's value, computed without reading (and so learning) it."""
    power = getattr(share, "_power", None)
    if power is not None and "value" not in vars(share):
        return pow(G, power.exponent, P)
    return vars(share)["value"]


class TestOneExponentiationPerStatement:
    def test_a_share_is_made_without_an_exponentiation(self, fresh_memo,
                                                       monkeypatch):
        rng = random.Random(46)
        schemes = deal_threshold_sig(4, 2, rng)
        point = schemes[0].public_key.hash_message(b"no pow")
        schemes[1].sign_share(b"warm", rng)  # checks the handle's key once
        pows = _table_pows(monkeypatch)
        share = schemes[1].sign_share(b"no pow", rng)
        assert pows == [] and "value" not in vars(share)
        assert _share_value(share) not in memo()
        assert share.value == pow(point, schemes[1].private_share.secret, P)
        assert len(pows) == 1 and share.value in memo()

    def test_every_signer_set_of_a_statement_raises_g_once(
            self, fresh_memo, powm_calls, monkeypatch):
        rng = random.Random(47)
        schemes = deal_threshold_coin(6, 3, rng)
        shares = _shares(rng, schemes, b"once")
        pows = _table_pows(monkeypatch)
        results = {schemes[0].public_key._combine_element(b"once", subset,
                                                          verify=False)
                   for subset in combinations(shares, 3)}
        assert len(results) == 1 and len(pows) == 1 and powm_calls == []
        assert all("value" not in vars(share) for share in shares)
        # the combined element is no base of anything: it is not learned
        assert results.pop() not in memo()

    def test_the_combined_powers_are_bounded_and_least_recently_used(
            self, fresh_memo, monkeypatch):
        bound = 8
        monkeypatch.setattr(group_module, "KNOWN_LOGS_MAX", bound)
        rng = random.Random(48)
        schemes = deal_threshold_coin(4, 2, rng)
        generator = group_module._generator(P, Q, G)
        first = _shares(rng, schemes, b"tag 0")[:2]
        for index in range(1, 4 * bound):
            schemes[0].combine(b"tag %d" % index,
                               _shares(rng, schemes, b"tag %d" % index)[:2])
            if index % (bound // 2) == 0:
                schemes[0].combine(b"tag 0", first)  # kept in use
            assert len(generator.powers) <= bound
        assert len(generator.powers) == bound
        pows = _table_pows(monkeypatch)
        schemes[0].combine(b"tag 0", first)
        assert pows == []

    @pytest.mark.parametrize("protocol", PROTOCOL_NAMES)
    def test_the_share_path_needs_no_room_in_the_memo(self, protocol,
                                                      monkeypatch):
        """An honest n=7 epoch learns no share value, so a memo bounded at
        100 elements makes no more ``multi_powm`` calls than the default."""
        made = []
        make_share = ShareHolder._make_share

        def recording(holder, *args, **kwargs):
            made.append(make_share(holder, *args, **kwargs))
            return made[-1]

        monkeypatch.setattr(ShareHolder, "_make_share", recording)
        multi_calls = []
        multi_powm = backend.multi_powm
        monkeypatch.setattr(
            backend, "multi_powm",
            lambda *args: multi_calls.append(args) or multi_powm(*args))

        def epoch() -> tuple[int, dict]:
            monkeypatch.setattr(group_module, "_GENERATORS", {})
            monkeypatch.setattr(dealer_cache, "DEFAULT_DEALER_CACHE",
                                dealer_cache.DealerCache())
            threshold_sig._reconstructed_master_key.cache_clear()
            made.clear()
            multi_calls.clear()
            assert run_consensus(protocol, Scenario.single_hop(7),
                                 seed=8200).decided
            return len(multi_calls), memo()

        default_calls, logs = epoch()
        assert made
        assert not {_share_value(share) for share in made} & set(logs)
        monkeypatch.setattr(group_module, "KNOWN_LOGS_MAX", 100)
        bounded_calls, _ = epoch()
        assert bounded_calls <= default_calls


# --------------------------------------------------------- process-local
class TestProcessLocal:
    def test_pickles_carry_no_memo(self, fresh_memo):
        rng = random.Random(45)
        schemes = deal_threshold_coin(4, 2, rng)
        schemes[0].coin_share(b"first", rng)
        before, known = pickle.dumps(schemes), len(memo())
        schemes[0].coin_share(b"second", rng)
        assert len(memo()) > known
        assert pickle.dumps(schemes) == before
        assert pickle.dumps(DEFAULT_GROUP) == \
            pickle.dumps(Group(p=P, q=Q, g=G))
