"""Tests for route computation and table installation."""

import pytest
from hypothesis import given, settings, strategies as st

from repro.netsim import (GBPS, NoRouteError, Packet, Path, Simulator,
                          clear_flow_route,
                          default_path_for,
                          install_flow_route, install_host_routes,
                          k_shortest_paths, random_topology, shortest_path)


class TestPath:
    def test_links_are_consecutive_pairs(self):
        path = Path.of(["a", "b", "c"])
        assert path.links() == [("a", "b"), ("b", "c")]

    def test_loop_rejected(self):
        with pytest.raises(ValueError):
            Path.of(["a", "b", "a"])

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            Path.of([])

    def test_latency_and_capacity(self, fig2):
        path = Path.of(["sL", "s1", "sR"])
        assert path.latency(fig2.topo) == pytest.approx(0.002)
        assert min(fig2.topo.link(a, b).capacity_bps
                   for a, b in path.link_keys) == 10 * GBPS

    def test_iteration_and_len(self):
        path = Path.of(["a", "b"])
        assert list(path) == ["a", "b"]
        assert len(path) == 2
        assert path.hops == 1


class TestComputation:
    def test_shortest_path_prefers_low_delay(self, fig2):
        path = shortest_path(fig2.topo, "client0", "victim")
        # Critical paths have half the delay of detours.
        assert path.nodes[1] == "sL"
        assert path.nodes[-2] == "sR"
        assert len(path.nodes) == 5

    def test_no_route_raises(self, sim):
        from repro.netsim import Topology
        topo = Topology(sim)
        topo.add_switch("a")
        topo.add_switch("b")  # disconnected
        with pytest.raises(NoRouteError):
            shortest_path(topo, "a", "b")

    def test_k_shortest_ordered_by_delay(self, fig2):
        paths = k_shortest_paths(fig2.topo, "client0", "victim", 4)
        delays = [p.latency(fig2.topo) for p in paths]
        assert delays == sorted(delays)
        assert len(paths) == 4

    def test_k_shortest_validates_k(self, fig2):
        with pytest.raises(ValueError):
            k_shortest_paths(fig2.topo, "client0", "victim", 0)


class TestInstallation:
    def test_host_routes_deliver_everywhere(self, fig2, sim):
        for dst in ("victim", "decoy0", "client0"):
            pkt = Packet(src="bot0", dst=dst)
            fig2.topo.host("bot0").originate(pkt)
        sim.run()
        assert fig2.topo.host("victim").received_count() == 1
        assert fig2.topo.host("decoy0").received_count() == 1
        assert fig2.topo.host("client0").received_count() == 1

    def test_switch_routes_reach_remote_switches(self, fig2, sim):
        table = fig2.topo.switch("sL").routes
        assert "sR" in table
        assert "s4" in table

    def test_default_path_matches_packet_forwarding(self, fig2, sim):
        expected = default_path_for(fig2.topo, "bot0", "victim")
        pkt = Packet(src="bot0", dst="victim")
        fig2.topo.host("bot0").originate(pkt)
        sim.run()
        assert tuple(pkt.path_taken) == expected.nodes

    def test_install_flow_route_changes_forwarding(self, fig2, sim):
        detour = Path.of(["bot0", "sL", "s3", "s4", "sR", "victim"])
        install_flow_route(fig2.topo, detour)
        pkt = Packet(src="bot0", dst="victim")
        fig2.topo.host("bot0").originate(pkt)
        sim.run()
        assert tuple(pkt.path_taken) == detour.nodes

    def test_clear_flow_route_restores_default(self, fig2, sim):
        detour = Path.of(["bot0", "sL", "s5", "s6", "sR", "victim"])
        install_flow_route(fig2.topo, detour)
        clear_flow_route(fig2.topo, "bot0", "victim")
        expected = default_path_for(fig2.topo, "bot0", "victim")
        pkt = Packet(src="bot0", dst="victim")
        fig2.topo.host("bot0").originate(pkt)
        sim.run()
        assert tuple(pkt.path_taken) == expected.nodes

    def test_flow_route_only_affects_its_pair(self, fig2, sim):
        detour = Path.of(["bot0", "sL", "s3", "s4", "sR", "victim"])
        install_flow_route(fig2.topo, detour)
        other = Packet(src="bot1", dst="victim")
        fig2.topo.host("bot1").originate(other)
        sim.run()
        assert "s3" not in other.path_taken or \
            default_path_for(fig2.topo, "bot1", "victim").nodes == \
            tuple(other.path_taken)


class TestRoutingProperties:
    @settings(max_examples=20, deadline=None)
    @given(seed=st.integers(min_value=0, max_value=10_000))
    def test_installed_routes_are_loop_free(self, seed):
        sim = Simulator(seed=seed)
        topo = random_topology(sim, n_switches=8, n_hosts=4, extra_edges=3)
        install_host_routes(topo)
        for src in topo.host_names:
            for dst in topo.host_names:
                if src == dst:
                    continue
                path = default_path_for(topo, src, dst)
                assert len(set(path.nodes)) == len(path.nodes)
                assert path.src == src and path.dst == dst
