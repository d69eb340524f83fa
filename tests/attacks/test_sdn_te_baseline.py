"""Tests for the SDN-TE baseline defense."""

import pytest

from repro.baselines import SdnTeDefense
from repro.netsim import (FlowSet, FluidNetwork, GBPS, Path,
                          default_path_for, install_flow_route, make_flow)


@pytest.fixture
def scene(fig2):
    flows = FlowSet()
    for index, client in enumerate(fig2.client_hosts):
        flows.add(make_flow(client, fig2.victim, 1.5 * GBPS,
                            sport=7000 + index))
    fluid = FluidNetwork(fig2.topo, flows)
    return fig2, fluid, flows


class TestScheduling:
    def test_reconfigures_every_period(self, scene, sim):
        net, fluid, flows = scene
        defense = SdnTeDefense(net.topo, fluid, period_s=5.0).start()
        fluid.start()
        sim.run(until=16.0)
        assert [r.time for r in defense.records] == [5.0, 10.0, 15.0]

    def test_stop_halts_reconfiguration(self, scene, sim):
        net, fluid, flows = scene
        defense = SdnTeDefense(net.topo, fluid, period_s=5.0).start()
        sim.schedule(6.0, defense.stop)
        sim.run(until=20.0)
        assert len(defense.records) == 1

    def test_period_validated(self, scene):
        net, fluid, flows = scene
        with pytest.raises(ValueError):
            SdnTeDefense(net.topo, fluid, period_s=0.0)

    def test_deploy_latency_delays_effect(self, scene, sim):
        net, fluid, flows = scene
        for flow in flows:
            flow.set_path(Path.of([flow.src, "sL", "s1", "sR", flow.dst]))
        defense = SdnTeDefense(net.topo, fluid, period_s=5.0,
                               deploy_latency_s=1.0).start()
        fluid.start()
        mid_config = {}
        sim.schedule(5.5, lambda: mid_config.update(
            paths={f.flow_id: f.path.nodes for f in flows}))
        sim.run(until=8.0)
        # At t=5.5 the new configuration (computed at 5.0) is not yet
        # deployed: all flows still share the s1 path.
        assert all("s1" in nodes for nodes in mid_config["paths"].values())
        after = {f.path.nodes for f in flows}
        assert len(after) > 1  # deployed config spreads the flows


class TestCongestionResponse:
    def test_flooded_link_avoided(self, scene, sim):
        net, fluid, flows = scene
        # All normal flows squeezed onto s1 with an attack-grade load.
        for flow in flows:
            flow.set_path(Path.of([flow.src, "sL", "s1", "sR", flow.dst]))
        attack = make_flow("bot0", "decoy0", 12 * GBPS, weight=200,
                           malicious=True,
                           path=Path.of(["bot0", "sL", "s1", "sR",
                                         "decoy0"]))
        fluid.flows.add(attack)
        defense = SdnTeDefense(net.topo, fluid, period_s=5.0,
                               deploy_latency_s=0.1).start()
        fluid.start()
        sim.run(until=7.0)
        record = defense.records[0]
        assert ("s1", "sR") in record.congested_links
        # Normal flows were moved off the flooded link.
        for flow in flows:
            assert ("s1", "sR") not in flow.path.link_keys
        assert record.flows_rerouted > 0

    def test_reconfiguration_visible_to_traceroute(self, scene, sim):
        net, fluid, flows = scene
        for flow in flows:
            flow.set_path(Path.of([flow.src, "sL", "s1", "sR", flow.dst]))
            install_flow_route(net.topo, flow.path)
        attack = make_flow("bot0", "decoy0", 12 * GBPS, weight=200,
                           malicious=True,
                           path=Path.of(["bot0", "sL", "s1", "sR",
                                         "decoy0"]))
        fluid.flows.add(attack)
        before = default_path_for(net.topo, "bot0", "victim")
        defense = SdnTeDefense(net.topo, fluid, period_s=5.0,
                               deploy_latency_s=0.1).start()
        fluid.start()
        sim.run(until=7.0)
        after = default_path_for(net.topo, "bot0", "victim")
        assert before.nodes != after.nodes, (
            "the SDN deploy must update switch tables, or the rolling "
            "attacker would have nothing to observe")

    def test_no_congestion_means_plain_min_max(self, scene, sim):
        net, fluid, flows = scene
        defense = SdnTeDefense(net.topo, fluid, period_s=5.0).start()
        fluid.start()
        sim.run(until=6.0)
        record = defense.records[0]
        assert record.congested_links == []
        assert record.max_utilization_planned <= 1.0
