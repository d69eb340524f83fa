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


class TestNodeRemoval:
    """Regression tests: removing a node mid-run used to leave its
    engine-scheduled work (monitor samples, periodic agents, queued link
    deliveries) live, and ``remove_switch`` type-checked its target so
    hosts could never be removed at all."""

    def test_remove_switch_cancels_owned_periodic_work(self, sim):
        topo = Topology(sim)
        switch = topo.add_switch("s1")
        fired = []
        switch.own(sim.every(0.1, lambda: fired.append(sim.now)))
        sim.run(until=0.55)
        assert len(fired) == 6  # t=0.0 .. t=0.5
        topo.remove_switch("s1")
        sim.run(until=2.0)
        assert len(fired) == 6  # nothing after removal
        assert switch.retired

    def test_remove_monitored_switch_mid_run(self, sim):
        from repro.netsim import FlowSet, FluidNetwork, Monitor
        from repro.netsim.routing import install_host_routes
        from repro.netsim.sources import PacketSource

        net = figure2_topology(sim)
        topo = net.topo
        fluid = FluidNetwork(topo, FlowSet(), update_interval=0.1).start()
        monitor = Monitor(fluid, period=0.25).start()
        monitor.watch_link_utilization("s1", "sR")
        install_host_routes(topo)
        PacketSource(topo, "client0", "victim", rate_pps=500).start()
        sim.run(until=1.0)
        topo.remove_switch("s1")
        # Must not raise: queued deliveries on removed links degrade to
        # drops, the monitor keeps sampling the (detached) link probe,
        # and forwarding fails over to the surviving ECMP paths.
        sim.run(until=3.0)
        assert "s1" not in topo.nodes
        assert ("s1", "sR") not in topo.links
        assert ("sL", "s1") not in topo.links
        # Traffic still flows end to end via s2/detours after removal.
        assert topo.host("victim").received_count() > 500

    def test_queued_packets_on_removed_link_are_dropped(self, sim):
        from repro.netsim.packet import Packet

        topo = Topology(sim)
        topo.add_switch("s1")
        topo.add_switch("s2")
        # Tiny capacity so packets queue behind the serializer.
        topo.add_duplex_link("s1", "s2", capacity_bps=8_000, delay_s=0.01)
        link = topo.link("s1", "s2")
        packets = [Packet(src="s1", dst="s2", size_bytes=1000)
                   for _ in range(5)]
        for packet in packets:
            link.send(packet)
        sim.run(until=1.0)  # first transmission starts
        topo.remove_link("s1", "s2")
        sim.run(until=60.0)
        assert all(p.dropped for p in packets[1:])
        assert any(p.dropped == "link_removed" for p in packets)

    def test_remove_host(self, sim):
        topo = Topology(sim)
        topo.add_switch("s1")
        topo.attach_host("h0", "s1")
        topo.remove_host("h0")
        assert "h0" not in topo.nodes
        assert ("h0", "s1") not in topo.links
        assert ("s1", "h0") not in topo.links

    def test_remove_switch_accepts_hosts(self, sim):
        # The historical entry point no longer type-checks its target.
        topo = Topology(sim)
        topo.add_switch("s1")
        topo.attach_host("h0", "s1")
        topo.remove_switch("h0")
        assert "h0" not in topo.nodes

    def test_orphaned_host_drops_instead_of_crashing(self, sim):
        from repro.netsim.packet import Packet

        topo = Topology(sim)
        topo.add_switch("s1")
        host = topo.attach_host("h0", "s1")
        topo.remove_switch("s1")
        packet = Packet(src="h0", dst="elsewhere", size_bytes=100)
        assert host.originate(packet) is False
        assert packet.dropped == "no_gateway"

    def test_remove_unknown_node_raises(self, sim):
        topo = Topology(sim)
        with pytest.raises(KeyError):
            topo.remove_node("ghost")


class TestSubtopology:
    def test_induced_members_and_links(self, sim):
        net = figure2_topology(sim)
        sub = net.topo.subtopology(["sL", "s1", "s2", "client0"])
        assert sorted(sub.nodes) == ["client0", "s1", "s2", "sL"]
        assert ("sL", "s1") in sub.links and ("s1", "sL") in sub.links
        # Cut links (one endpoint outside) are not copied.
        assert ("s1", "sR") not in sub.links
        assert sub.host("client0").gateway == "sL"

    def test_link_parameters_copied(self, sim):
        net = figure2_topology(sim)
        sub = net.topo.subtopology(["sL", "s1"])
        original = net.topo.link("sL", "s1")
        copy = sub.link("sL", "s1")
        assert copy.capacity_bps == original.capacity_bps
        assert copy.delay_s == original.delay_s

    def test_gateway_outside_members_is_dropped(self, sim):
        net = figure2_topology(sim)
        sub = net.topo.subtopology(["client0", "s1"])
        assert sub.host("client0").gateway is None

    def test_unknown_member_rejected(self, sim):
        net = figure2_topology(sim)
        with pytest.raises(KeyError):
            net.topo.subtopology(["sL", "ghost"])

    def test_separate_simulator(self, sim):
        other = Simulator(seed=99)
        net = figure2_topology(sim)
        sub = net.topo.subtopology(["sL", "s1"], sim=other)
        assert sub.sim is other
        assert net.topo.sim is sim
