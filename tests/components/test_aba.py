"""Tests for the three ABA variants: ABA-LC, ABA-SC and ABA-CP.

Properties exercised (on the in-memory fabric, so deterministic):

* validity  -- unanimous inputs decide that input;
* agreement -- all honest nodes decide the same bit, also with mixed inputs,
  crashed nodes and shared round coins;
* termination helpers -- laggards decide via DECIDED notices.
"""

import tracemalloc

import pytest

from repro.components.aba_bracha import BrachaAba
from repro.components.aba_cachin import CachinAba
from repro.components.aba_coinflip import CoinFlipAba
from repro.components.aba_factory import ABA_BY_COIN, aba_factory
from repro.components.common_coin import CommonCoinManager
from repro.crypto.timing import COIN_FLAVORS

from tests.helpers import InMemoryNetwork, make_message


def install_abas(network, kind, instance=0, tag="aba-test", shared_coin=None):
    """Create one ABA instance (and coin manager where needed) per node."""
    decisions = {}
    abas = []
    for node in network.nodes:
        if kind == "lc":
            aba = BrachaAba(node.ctx, instance, tag=tag)
        else:
            if shared_coin is None:
                coin = CommonCoinManager(node.ctx, tag=(tag, "coin", instance),
                                         flavor="tsig" if kind == "sc" else "flip")
                node.router.register_kind_handler("coin", (tag, "coin", instance),
                                                  coin.handle)
            else:
                coin = shared_coin[node.node_id]
            aba_class = CachinAba if kind == "sc" else CoinFlipAba
            aba = aba_class(node.ctx, instance, coin=coin, tag=tag)
        aba.on_output = (
            lambda nid: lambda _inst, decision: decisions.setdefault(nid, decision)
        )(node.node_id)
        node.router.register(aba)
        abas.append(aba)
    return abas, decisions


@pytest.mark.parametrize("kind", ["lc", "sc", "cp"])
class TestAbaCommonProperties:
    def test_unanimous_one_decides_one(self, kind):
        network = InMemoryNetwork(4)
        abas, decisions = install_abas(network, kind)
        for aba in abas:
            aba.start(1)
        assert decisions == {0: 1, 1: 1, 2: 1, 3: 1}

    def test_unanimous_zero_decides_zero(self, kind):
        network = InMemoryNetwork(4)
        abas, decisions = install_abas(network, kind)
        for aba in abas:
            aba.start(0)
        assert decisions == {0: 0, 1: 0, 2: 0, 3: 0}

    def test_mixed_inputs_reach_agreement(self, kind):
        network = InMemoryNetwork(4, seed=11)
        abas, decisions = install_abas(network, kind)
        inputs = [0, 1, 0, 1]
        for aba, value in zip(abas, inputs):
            aba.start(value)
        assert set(decisions) == {0, 1, 2, 3}
        assert len(set(decisions.values())) == 1
        assert list(decisions.values())[0] in (0, 1)

    def test_agreement_with_crashed_node(self, kind):
        network = InMemoryNetwork(4, seed=5)
        abas, decisions = install_abas(network, kind)
        network.drop(3)
        for aba in abas[:3]:
            aba.start(1)
        honest_ids = {0, 1, 2}
        assert honest_ids.issubset(decisions)
        assert len({decisions[nid] for nid in honest_ids}) == 1

    def test_invalid_input_rejected(self, kind):
        network = InMemoryNetwork(4)
        abas, _decisions = install_abas(network, kind)
        with pytest.raises(ValueError):
            abas[0].start(2)

    def test_double_start_is_idempotent(self, kind):
        network = InMemoryNetwork(4)
        abas, decisions = install_abas(network, kind)
        for aba in abas:
            aba.start(1)
        before = dict(decisions)
        abas[0].start(0)  # ignored: already started
        assert decisions == before


class TestSharedCoinAcrossInstances:
    def test_parallel_instances_share_round_coins(self):
        # The wireless design lets all parallel ABA instances of an epoch use
        # the same round coin (paper challenge III).
        network = InMemoryNetwork(4, seed=3)
        coins = []
        for node in network.nodes:
            coin = CommonCoinManager(node.ctx, tag=("epoch", "coin"), flavor="tsig")
            node.router.register_kind_handler("coin", ("epoch", "coin"), coin.handle)
            coins.append(coin)
        all_decisions = []
        for instance in range(3):
            abas, decisions = install_abas(network, "sc", instance=instance,
                                           tag="epoch", shared_coin=coins)
            for node_id, aba in enumerate(abas):
                aba.start((node_id + instance) % 2)
            all_decisions.append(decisions)
        for decisions in all_decisions:
            assert len(set(decisions.values())) == 1

    def test_coin_share_traffic_is_per_round_not_per_instance(self):
        network = InMemoryNetwork(4, seed=3)
        coins = []
        for node in network.nodes:
            coin = CommonCoinManager(node.ctx, tag=("epoch2", "coin"), flavor="tsig")
            node.router.register_kind_handler("coin", ("epoch2", "coin"), coin.handle)
            coins.append(coin)
        for instance in range(3):
            abas, _ = install_abas(network, "sc", instance=instance,
                                   tag="epoch2", shared_coin=coins)
            for aba in abas:
                aba.start(1)
        # Unanimous inputs decide without the coin in round 0 of the standard
        # protocol only if values match the coin; at most a handful of rounds
        # run, and the number of coin shares node 0 sent equals the number of
        # distinct rounds requested, not 3x (one per instance).
        share_messages = [m for m in network.nodes[0].transport.sent
                          if m.kind == "coin"]
        rounds = {m.round for m in share_messages}
        assert len(share_messages) == len(rounds)


class TestBrachaAbaInternals:
    def test_rounds_counted(self):
        network = InMemoryNetwork(4, seed=7)
        abas, decisions = install_abas(network, "lc")
        for aba in abas:
            aba.start(1)
        # at least one node finishes a full round; laggards may decide via the
        # DECIDED-notice shortcut without completing a round themselves
        assert any(aba.rounds_executed >= 1 for aba in abas)
        assert decisions[0] == 1

    def test_decided_notice_lets_laggard_decide(self):
        from tests.helpers import make_message

        network = InMemoryNetwork(4)
        abas, decisions = install_abas(network, "lc")
        target = abas[0]
        for sender in (1, 2):
            target.handle(make_message("aba_lc", 0, "decided", sender=sender,
                                       payload={"value": 1}, tag="aba-test"))
        assert decisions.get(0) == 1


class TestCachinAbaInternals:
    def test_bval_relay_at_f_plus_1(self):
        from tests.helpers import make_message

        network = InMemoryNetwork(4)
        abas, _decisions = install_abas(network, "sc")
        target = abas[0]
        target.start(0)
        network.nodes[0].transport.sent.clear()
        # two BVAL(1) messages (f+1 = 2) force node 0 to relay BVAL(1)
        for sender in (1, 2):
            target.handle(make_message("aba_sc", 0, "bval", sender=sender,
                                       payload={"value": 1}, tag="aba-test"))
        relayed = [m for m in network.nodes[0].transport.sent
                   if m.phase == "bval" and m.payload["value"] == 1]
        assert len(relayed) == 1

    def test_coin_flavor_attribute(self):
        network = InMemoryNetwork(4)
        abas_sc, _ = install_abas(network, "sc", instance=1)
        abas_cp, _ = install_abas(network, "cp", instance=2)
        assert abas_sc[0].kind == "aba_sc"
        assert abas_cp[0].kind == "aba_cp"
        assert abas_cp[0].coin_flavor == "flip"


class TestAbaFactory:
    """The one place a coin kind becomes an ABA class and a coin manager of
    the class's own flavor."""

    def test_kinds_classes_and_flavors(self):
        assert ABA_BY_COIN == {"lc": BrachaAba, "sc": CachinAba,
                               "cp": CoinFlipAba}
        assert [ABA_BY_COIN[kind].coin_flavor for kind in ("lc", "sc", "cp")] \
            == [None, "tsig", "flip"]
        assert {aba_class.coin_flavor for aba_class in ABA_BY_COIN.values()} \
            == {None, *COIN_FLAVORS}

    @pytest.mark.parametrize("kind", ["lc", "sc", "cp"])
    def test_the_manager_has_the_flavor_of_the_aba_class(self, kind):
        network = InMemoryNetwork(4)
        node = network.nodes[0]
        make_aba = aba_factory(kind, node.ctx, node.router,
                               coin_tag=("t", "coin"), coin_name="test")
        first = make_aba(0, tag="t", max_rounds=7)
        second = make_aba(1, tag="t")
        assert type(first) is ABA_BY_COIN[kind]
        assert (first.instance, first.tag, first.max_rounds) == (0, "t", 7)
        assert second.max_rounds == 64
        handler = node.router._extra_handlers.get(("coin", ("t", "coin")))
        if kind == "lc":
            assert handler is None and not hasattr(first, "coin")
        else:
            assert first.coin is second.coin
            assert first.coin.flavor == first.coin_flavor
            assert (first.coin.tag, first.coin.coin_name) == \
                (("t", "coin"), "test")
            assert handler == first.coin.handle


@pytest.mark.parametrize("kind", ["lc", "sc"])
class TestDecidedTermination:
    """The DECIDED path of the shared base, driven once per agreement."""

    def _notice(self, kind, sender, value=1):
        return make_message(f"aba_{kind}", 0, "decided", sender=sender,
                            payload={"value": value}, tag="aba-test")

    def test_notices_decide_a_laggard_then_halt_it(self, kind):
        network = InMemoryNetwork(7)  # f = 2
        abas, decisions = install_abas(network, kind)
        laggard, sent = abas[0], network.nodes[0].transport.sent
        for sender in (1, 2):
            laggard.handle(self._notice(kind, sender))
        laggard.handle(self._notice(kind, 3, value=0))  # a lone dissenter
        laggard.handle(self._notice(kind, 1))  # a repeat is not a third notice
        assert 0 not in decisions and not sent
        laggard.handle(self._notice(kind, 4))  # f + 1 matching notices
        assert decisions[0] == 1 and laggard.decided_value == 1
        assert [m.payload for m in sent if m.phase == "decided"] == [{"value": 1}]
        # its own notice is the fourth; 2f + 1 = 5 halt it
        assert not laggard._halted
        laggard.handle(self._notice(kind, 5))
        assert laggard._halted
        assert len([m for m in sent if m.phase == "decided"]) == 1

    def test_max_rounds_forces_a_decision_when_a_round_ends_undecided(self, kind):
        network = InMemoryNetwork(4)
        abas, decisions = install_abas(network, kind)
        lone = abas[0]
        lone.start(1)  # nobody else starts: round 0 cannot end on its own
        assert 0 not in decisions
        lone._next_round(lone.max_rounds - 1)
        assert decisions[0] == 1 and lone._halted and lone.round == 0


class TestPeerValuesAreNeverShiftCounts:
    """Tallies are bitmasks of node ids, so only an authenticated sender id
    may become a shift count.  A Byzantine peer's payload -- the voter a
    mini-RBC vote names, the bit a BVAL or AUX carries -- is dropped or
    counted as a plain dict key: no exception, and no huge int is built
    (``1 << 10**6`` alone would take 122 KiB)."""

    BYZANTINE = 3  # n = 4, f = 1

    @staticmethod
    def _traced_growth(action):
        tracemalloc.start()
        try:
            before = tracemalloc.get_traced_memory()[0]
            action()
            return tracemalloc.get_traced_memory()[0] - before
        finally:
            tracemalloc.stop()

    def _forge(self, network, kind, phase, payload, round_number=0):
        network.broadcast(self.BYZANTINE, make_message(
            kind, 0, phase, self.BYZANTINE, payload, tag="aba-test",
            round_number=round_number))

    @pytest.mark.parametrize("voter", [-1, 2**70, 10**6, "x", None])
    @pytest.mark.parametrize("phase", ["p1_echo", "p1_ready"])
    def test_aba_lc_voter_field(self, phase, voter):
        network = InMemoryNetwork(4)
        abas, decisions = install_abas(network, "lc")
        grown = self._traced_growth(lambda: self._forge(
            network, "aba_lc", phase, {"voter": voter, "value": 1}))
        assert grown < 64 * 1024
        for aba in abas:
            mini = aba._rounds[0].mini
            if voter is None:
                assert not mini  # dropped
            else:
                assert list(mini) == [(1, voter)]  # a plain dict key
                votes = mini[1, voter]
                tally = votes.echoes if phase == "p1_echo" else votes.readies
                assert tally == {1: 1 << self.BYZANTINE}
        network.drop(self.BYZANTINE)  # and goes silent
        for aba in abas[:3]:
            aba.start(1)
        assert decisions == {0: 1, 1: 1, 2: 1}

    @pytest.mark.parametrize("phase", ["p0_initial", "p-1_echo", "p4_ready",
                                       "p99999999999_initial"])
    def test_aba_lc_phase_outside_the_round(self, phase):
        network = InMemoryNetwork(4)
        abas, _ = install_abas(network, "lc")
        self._forge(network, "aba_lc", phase, {"voter": 1, "value": 1})
        for aba in abas:  # dropped: no tally, and nothing echoed
            assert not aba._rounds[0].mini
        assert not any(node.transport.sent for node in network.nodes)

    @pytest.mark.parametrize("value", [-1, 2, 2**70, 10**6])
    @pytest.mark.parametrize("phase", ["bval", "aux"])
    def test_aba_sc_value_field(self, phase, value):
        network = InMemoryNetwork(4)
        abas, decisions = install_abas(network, "sc")
        sent = [len(node.transport.sent) for node in network.nodes]
        grown = self._traced_growth(lambda: self._forge(
            network, "aba_sc", phase, {"value": value}))
        assert grown < 64 * 1024
        for aba in abas:  # dropped: the round record is untouched
            state = aba._rounds[0]
            assert state.bval_received == [0, 0] and state.aux_received == [0, 0]
        assert [len(node.transport.sent) for node in network.nodes] == sent
        network.drop(self.BYZANTINE)
        for aba in abas[:3]:
            aba.start(0)
        assert decisions == {0: 0, 1: 0, 2: 0}
