"""Tests for the Crossfire attacker."""

import pytest

from repro.attacks import CrossfireAttacker
from repro.netsim import FlowSet, FluidNetwork


@pytest.fixture
def scene(fig2):
    fluid = FluidNetwork(fig2.topo, FlowSet())
    return fig2, fluid


class TestMapping:
    def test_mapping_then_flood(self, scene, sim):
        net, fluid = scene
        attacker = CrossfireAttacker(
            net.topo, fluid, bots=net.bot_hosts, decoys=net.decoy_servers,
            victim=net.victim, connections_per_bot=100,
            per_connection_bps=10e6)
        attacker.map_then_attack()
        fluid.start()
        sim.run(until=3.0)
        assert attacker.observed_path is not None
        assert attacker.observed_path[0] == "sL"
        assert attacker.observed_path[-1] == "sR"
        assert len(attacker.flows) == len(net.bot_hosts)
        assert all(f.malicious for f in attacker.flows)

    def test_target_link_is_last_hop(self, scene, sim):
        net, fluid = scene
        attacker = CrossfireAttacker(
            net.topo, fluid, bots=net.bot_hosts, decoys=net.decoy_servers,
            victim=net.victim)
        attacker.map_then_attack()
        sim.run(until=3.0)
        assert attacker.target_link in {("s1", "sR"), ("s2", "sR")}

    def test_flows_cross_target_link(self, scene, sim):
        net, fluid = scene
        attacker = CrossfireAttacker(
            net.topo, fluid, bots=net.bot_hosts, decoys=net.decoy_servers,
            victim=net.victim)
        attacker.map_then_attack()
        fluid.start()
        sim.run(until=3.0)
        target = attacker.target_link
        for flow in attacker.flows:
            assert target in flow.path.links()

    def test_flows_are_low_rate_aggregates(self, scene, sim):
        net, fluid = scene
        attacker = CrossfireAttacker(
            net.topo, fluid, bots=net.bot_hosts, decoys=net.decoy_servers,
            victim=net.victim, connections_per_bot=200,
            per_connection_bps=5e6)
        attacker.map_then_attack()
        sim.run(until=3.0)
        for flow in attacker.flows:
            assert flow.weight == 200
            assert flow.demand_bps == 200 * 5e6
            assert flow.elastic  # TCP-like, indistinguishable

    def test_repin_moves_all_flows(self, scene, sim):
        net, fluid = scene
        attacker = CrossfireAttacker(
            net.topo, fluid, bots=net.bot_hosts, decoys=net.decoy_servers,
            victim=net.victim)
        attacker.map_then_attack()
        sim.run(until=3.0)
        attacker.repin_flood(["sL", "s3", "s4", "sR"])
        for flow in attacker.flows:
            assert ("s3", "s4") in flow.path.links()
        assert attacker.target_link == ("s4", "sR")

    @pytest.mark.xfail(strict=True, reason=(
        "_pin_path appends the decoy's gateway to whatever hops a re-trace "
        "returned; a truncated trace pins a path over a pair with no link "
        "(ROADMAP item 20)"))
    def test_every_pinned_flood_path_is_a_chain_of_topology_links(
            self, scene):
        net, fluid = scene
        attacker = CrossfireAttacker(
            net.topo, fluid, bots=net.bot_hosts, decoys=net.decoy_servers,
            victim=net.victim)
        attacker.launch_flood(["sL", "s1", "sR"])
        # A re-trace that came back truncated: sL, s5, then nothing.
        attacker.repin_flood(["sL", "s5"])
        fluid.update()
        for flow in attacker.flows:
            assert all(key in net.topo.links for key in flow.path.link_keys)
            assert flow.rate_bps > 0.0

    def test_stop_all_flows(self, scene, sim):
        net, fluid = scene
        attacker = CrossfireAttacker(
            net.topo, fluid, bots=net.bot_hosts, decoys=net.decoy_servers,
            victim=net.victim)
        attacker.map_then_attack()
        fluid.start()
        sim.run(until=3.0)
        attacker.stop_all_flows()
        sim.run(until=4.0)
        assert attacker.attack_offered() == 0.0

    def test_validation(self, scene):
        net, fluid = scene
        with pytest.raises(ValueError):
            CrossfireAttacker(net.topo, fluid, bots=[], decoys=["decoy0"],
                              victim="victim")

    @pytest.mark.parametrize("kwargs, message", [
        ({"connections_per_bot": -5},
         "connections_per_bot must be finite and >= 1"),
        ({"per_connection_bps": -1.0},
         "per_connection_bps must be finite and positive"),
        ({"trace_timeout_s": float("nan")},
         "trace_timeout_s must be finite and positive"),
    ], ids=["connections_per_bot", "per_connection_bps", "trace_timeout_s"])
    def test_out_of_range_arguments_rejected(self, scene, kwargs, message):
        net, fluid = scene
        with pytest.raises(ValueError, match=message):
            CrossfireAttacker(net.topo, fluid, bots=net.bot_hosts,
                              decoys=net.decoy_servers, victim=net.victim,
                              **kwargs)
