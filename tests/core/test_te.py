"""Tests for the centralized TE optimizer."""

import pytest

from repro.core import (greedy_min_max_te, link_loads,
                        max_link_utilization, rebalance_excluding_links)
from repro.netsim import GBPS, make_flow, shortest_path


class TestGreedyMinMax:
    def test_spreads_over_all_paths(self, fig2):
        # With equal capacities everywhere min-max gives each flow its
        # own path: two critical, two detour.
        flows = [make_flow(f"client{i}", "victim", 2 * GBPS, sport=i)
                 for i in range(4)]
        te = greedy_min_max_te(fig2.topo, flows)
        used_mid_switches = {f.path.nodes[2] for f in flows}
        assert used_mid_switches == {"s1", "s2", "s3", "s5"}
        assert te.max_utilization == pytest.approx(0.2)

    def test_prefers_short_paths_when_uncongested(self, fig2):
        flows = [make_flow("client0", "victim", 0.1 * GBPS)]
        te = greedy_min_max_te(fig2.topo, flows)
        assert flows[0].path.hops == 4  # client-sL-sX-sR-victim

    def test_overload_spills_to_detours(self, fig2):
        # 30 Gbps into two 10 Gbps critical links: detours must be used.
        flows = [make_flow(f"client{i % 4}", "victim", 7.5 * GBPS, sport=i)
                 for i in range(4)]
        te = greedy_min_max_te(fig2.topo, flows)
        mids = {f.path.nodes[2] for f in flows}
        assert mids & {"s3", "s5"}, "expected some flows on detours"

    def test_assign_false_leaves_flows_untouched(self, fig2):
        flow = make_flow("client0", "victim", GBPS)
        te = greedy_min_max_te(fig2.topo, [flow], assign=False)
        assert flow.path is None
        assert te.paths[flow.flow_id] is not None

    def test_k_validated(self, fig2):
        with pytest.raises(ValueError):
            greedy_min_max_te(fig2.topo, [], k=0)

    def test_deterministic_given_same_input(self, fig2):
        def run():
            flows = [make_flow(f"client{i}", "victim", GBPS, sport=i)
                     for i in range(4)]
            te = greedy_min_max_te(fig2.topo, flows, assign=False)
            return [te.paths[f.flow_id].nodes for f in flows]

        assert run() == run()

    def test_beats_naive_shortest_path_on_max_utilization(self, fig2):
        flows = [make_flow(f"client{i}", "victim", 4 * GBPS, sport=i)
                 for i in range(4)]
        for flow in flows:
            flow.set_path(shortest_path(fig2.topo, flow.src, flow.dst))
        naive = max_link_utilization(fig2.topo, flows)
        te = greedy_min_max_te(fig2.topo, flows)
        assert te.max_utilization < naive


class TestLoadsAccounting:
    def test_link_loads_sum_demands(self, fig2):
        flows = [make_flow("client0", "victim", GBPS)]
        greedy_min_max_te(fig2.topo, flows)
        loads = link_loads(fig2.topo, flows)
        for key in flows[0].path.links():
            assert loads[key] == GBPS

    def test_pathless_flows_ignored(self, fig2):
        flow = make_flow("client0", "victim", GBPS)
        assert max_link_utilization(fig2.topo, [flow]) == 0.0


class TestRebalance:
    def test_avoids_banned_links(self, fig2):
        flows = [make_flow(f"client{i}", "victim", GBPS, sport=i)
                 for i in range(4)]
        banned = [("s1", "sR")]
        te = rebalance_excluding_links(fig2.topo, flows, banned)
        for flow in flows:
            keys = flow.path.link_keys
            assert ("s1", "sR") not in keys and ("sR", "s1") not in keys

    def test_falls_back_when_no_alternative(self, fig2):
        # Ban every middle switch's link to sR except nothing remains:
        flows = [make_flow("client0", "victim", GBPS)]
        banned = [("s1", "sR"), ("s2", "sR"), ("s4", "sR"), ("s6", "sR")]
        te = rebalance_excluding_links(fig2.topo, flows, banned, k=6)
        # All victim-ward paths cross a banned link; the optimizer must
        # still route the flow rather than drop it.
        assert flows[0].path is not None

    def test_banned_links_symmetric(self, fig2):
        flows = [make_flow("victim", "client0", GBPS)]
        te = rebalance_excluding_links(fig2.topo, flows, [("s1", "sR")])
        keys = flows[0].path.link_keys
        assert ("sR", "s1") not in keys and ("s1", "sR") not in keys
