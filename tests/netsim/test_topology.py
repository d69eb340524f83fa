"""Tests for topology construction and the canned networks."""

import pytest

from repro.netsim import (Simulator, Topology, abilene_like, fat_tree,
                          figure2_topology, random_topology)
from tests.oracles.routing import build_graph


class TestBuilder:
    def test_duplicate_node_rejected(self, sim):
        topo = Topology(sim)
        topo.add_switch("s1")
        with pytest.raises(ValueError):
            topo.add_host("s1")

    def test_duplex_link_creates_both_directions(self, sim):
        topo = Topology(sim)
        topo.add_switch("a")
        topo.add_switch("b")
        topo.add_duplex_link("a", "b", 1e9, 0.001)
        assert topo.link("a", "b").capacity_bps == 1e9
        assert topo.link("b", "a").capacity_bps == 1e9

    def test_attach_host_sets_gateway(self, sim):
        topo = Topology(sim)
        topo.add_switch("s1")
        host = topo.attach_host("h1", "s1")
        assert host.gateway == "s1"
        assert topo.link("h1", "s1") is not None

    def test_typed_lookup_enforced(self, sim):
        topo = Topology(sim)
        topo.add_switch("s1")
        topo.attach_host("h1", "s1")
        with pytest.raises(TypeError):
            topo.switch("h1")
        with pytest.raises(TypeError):
            topo.host("s1")

    def test_unknown_lookups_raise_keyerror(self, sim):
        topo = Topology(sim)
        with pytest.raises(KeyError):
            topo.node("ghost")
        with pytest.raises(KeyError):
            topo.link("a", "b")

    def test_every_addition_bumps_version(self, sim):
        topo = Topology(sim)
        versions = [topo.version]
        topo.add_switch("s1")
        versions.append(topo.version)
        topo.add_host("h1", gateway="s1")
        versions.append(topo.version)
        topo.add_duplex_link("h1", "s1", 1e9, 0.001)
        versions.append(topo.version)
        assert versions == sorted(set(versions))

    def test_host_without_uplink_raises(self, sim):
        from repro.netsim.packet import Packet

        topo = Topology(sim)
        topo.add_switch("s1")
        host = topo.add_host("h1", gateway="s1")
        with pytest.raises(KeyError, match="no link to s1"):
            host.originate(Packet(src="h1", dst="s1"))
        with pytest.raises(KeyError, match="no link to s1"):
            host.originate_batch([Packet(src="h1", dst="s1")])

    def test_duplex_pairs_count_each_link_once(self, sim):
        topo = Topology(sim)
        for name in ("a", "b", "c"):
            topo.add_switch(name)
        topo.add_duplex_link("a", "b", 1e9, 0.001)
        topo.add_duplex_link("b", "c", 1e9, 0.001)
        assert topo.duplex_pairs() == [("a", "b"), ("b", "c")]

    def test_graph_export_has_attributes(self, sim):
        topo = Topology(sim)
        topo.add_switch("a")
        topo.add_switch("b")
        topo.add_duplex_link("a", "b", 2e9, 0.005)
        graph = build_graph(topo)
        assert graph.edges["a", "b"]["capacity"] == 2e9
        assert graph.edges["a", "b"]["delay"] == 0.005
        assert graph.nodes["a"]["is_switch"] is True


class TestFigure2:
    def test_structure(self, sim):
        net = figure2_topology(sim, n_clients=3, n_bots=5)
        topo = net.topo
        assert len(topo.switch_names) == 8
        assert len(net.client_hosts) == 3
        assert len(net.bot_hosts) == 5
        assert len(net.decoy_servers) == 2
        assert net.victim in topo.host_names

    def test_two_critical_links(self, sim):
        net = figure2_topology(sim)
        assert net.critical_links == [("s1", "sR"), ("s2", "sR")]
        for a, b in net.critical_links:
            assert net.topo.link(a, b) is not None

    def test_detour_paths_exist(self, sim):
        net = figure2_topology(sim)
        for path in net.detour_paths:
            for a, b in zip(path, path[1:]):
                assert net.topo.link(a, b) is not None

    def test_detours_have_higher_delay(self, sim):
        net = figure2_topology(sim)
        critical = net.topo.link("s1", "sR").delay_s
        detour = net.topo.link("s3", "s4").delay_s
        assert detour > critical


class TestFatTree:
    def test_k4_counts(self, sim):
        topo = fat_tree(sim, k=4)
        switches = topo.switch_names
        assert len([s for s in switches if s.startswith("core")]) == 4
        assert len([s for s in switches if s.startswith("agg")]) == 8
        assert len([s for s in switches if s.startswith("edge")]) == 8
        assert len(topo.host_names) == 8  # one per edge by default

    def test_odd_k_rejected(self, sim):
        with pytest.raises(ValueError):
            fat_tree(sim, k=3)

    def test_all_hosts_mutually_reachable(self, sim):
        import networkx as nx
        topo = fat_tree(sim, k=4)
        assert nx.is_connected(build_graph(topo))


class TestAbilene:
    def test_city_count(self, sim):
        topo = abilene_like(sim)
        assert len(topo.switch_names) == 11
        assert len(topo.host_names) == 11

    def test_connected(self, sim):
        import networkx as nx
        assert nx.is_connected(build_graph(abilene_like(sim)))


class TestRandom:
    def test_always_connected(self):
        import networkx as nx
        for seed in range(5):
            sim = Simulator(seed=seed)
            topo = random_topology(sim, n_switches=12, n_hosts=6,
                                   extra_edges=4)
            assert nx.is_connected(build_graph(topo))

    def test_host_count(self, sim):
        topo = random_topology(sim, n_switches=5, n_hosts=7)
        assert len(topo.host_names) == 7

    def test_zero_switches_rejected(self, sim):
        with pytest.raises(ValueError):
            random_topology(sim, n_switches=0, n_hosts=1)
