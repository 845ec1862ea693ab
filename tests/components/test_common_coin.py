"""Tests for the shared common-coin manager."""

import pytest

from repro.components.common_coin import CommonCoinManager

from tests.helpers import InMemoryNetwork


def install_managers(network, tag="coin-test", flavor="tsig"):
    managers = []
    for node in network.nodes:
        manager = CommonCoinManager(node.ctx, tag=tag, flavor=flavor)
        node.router.register_kind_handler("coin", tag, manager.handle)
        managers.append(manager)
    return managers


class TestCommonCoinManager:
    def test_all_nodes_reveal_the_same_coin(self):
        network = InMemoryNetwork(4)
        managers = install_managers(network)
        revealed = {}
        for node_id, manager in enumerate(managers):
            manager.request(0, lambda _r, value, nid=node_id: revealed.setdefault(nid, value))
        assert set(revealed) == {0, 1, 2, 3}
        assert len(set(revealed.values())) == 1
        assert list(revealed.values())[0] in (0, 1)

    def test_coin_revealed_even_with_f_silent_nodes(self):
        network = InMemoryNetwork(4)
        managers = install_managers(network)
        network.drop(3)
        revealed = {}
        for node_id in range(3):
            managers[node_id].request(
                1, lambda _r, value, nid=node_id: revealed.setdefault(nid, value))
        assert set(revealed) == {0, 1, 2}
        assert len(set(revealed.values())) == 1

    def test_no_share_is_sent_before_the_round_is_requested(self):
        # Section V-A: premature coin-share release must be prevented.
        network = InMemoryNetwork(4)
        managers = install_managers(network)
        for node in network.nodes:
            shares = [m for m in node.transport.sent if m.kind == "coin"]
            assert shares == []
        managers[0].request(5, lambda _r, _v: None)
        shares = [m for m in network.nodes[0].transport.sent if m.kind == "coin"]
        assert len(shares) == 1
        assert shares[0].round == 5

    def test_late_requester_gets_cached_value(self):
        network = InMemoryNetwork(4)
        managers = install_managers(network)
        first = {}
        for node_id in range(3):
            managers[node_id].request(2, lambda _r, v, nid=node_id: first.setdefault(nid, v))
        late = []
        managers[3].request(2, lambda _r, v: late.append(v))
        assert late == [list(first.values())[0]]
        assert managers[3]._rounds[2].value == late[0]

    def test_different_rounds_are_independent(self):
        network = InMemoryNetwork(4)
        managers = install_managers(network)
        values = {}
        for round_number in range(16):
            for manager in managers:
                manager.request(round_number,
                                lambda r, v: values.setdefault(r, v))
        assert set(values.values()) == {0, 1}

    def test_flavors_validated(self):
        network = InMemoryNetwork(4)
        with pytest.raises(ValueError):
            CommonCoinManager(network.nodes[0].ctx, tag="x", flavor="bogus")

    def test_coin_flip_flavor_works(self):
        network = InMemoryNetwork(4)
        managers = install_managers(network, tag="flip-test", flavor="flip")
        revealed = []
        for manager in managers:
            manager.request(0, lambda _r, v: revealed.append(v))
        assert len(set(revealed)) == 1
