"""Tests for the placement scheduler (Figure 1c)."""

from hypothesis import given, settings, strategies as st

from repro.boosters import logic_ppm, parser_ppm, sketch_ppm
from repro.core import (DataflowGraph, PpmRole, ProgramAnalyzer, Scheduler,
                        greedy_min_max_te)
from repro.dataplane import ResourceVector
from repro.netsim import (GBPS, Simulator, figure2_topology, make_flow,
                          random_topology)


def tiny_booster(booster="defense", detect_stages=1, mitigate_stages=1):
    graph = DataflowGraph(booster)
    graph.add_ppm(parser_ppm(booster, "parser", base=("src", "dst")))
    graph.add_ppm(logic_ppm(booster, "detect", PpmRole.DETECTION,
                            ResourceVector(stages=detect_stages)))
    graph.add_ppm(logic_ppm(booster, "mitigate", PpmRole.MITIGATION,
                            ResourceVector(stages=mitigate_stages)))
    graph.add_edge("parser", "detect", weight=8)
    graph.add_edge("detect", "mitigate", weight=8)
    return graph


def figure2_case(sim, graphs, pervasive=True):
    net = figure2_topology(sim)
    flows = [make_flow(f"client{i}", "victim", GBPS, sport=i)
             for i in range(4)]
    te = greedy_min_max_te(net.topo, flows)
    merged = ProgramAnalyzer().merge(graphs)
    paths = [te.paths[fid] for fid in sorted(te.paths)]
    placement = Scheduler(pervasive_detection=pervasive).place(
        merged, net.topo, paths)
    return net, merged, placement


class TestCoverage:
    def test_every_path_gets_a_detector(self, sim):
        net, merged, placement = figure2_case(sim, [tiny_booster()],
                                              pervasive=False)
        assert placement.feasible
        assert placement.metrics.path_coverage == 1.0

    def test_pervasive_mode_uses_all_switches(self, sim):
        net, merged, placement = figure2_case(sim, [tiny_booster()],
                                              pervasive=True)
        assert len(placement.switches_hosting("defense.detect")) == \
            len(net.topo.switch_names)

    def test_cover_only_mode_uses_few_switches(self, sim):
        net, merged, placement = figure2_case(sim, [tiny_booster()],
                                              pervasive=False)
        # All four client->victim paths share sL and sR: one switch covers.
        assert len(placement.switches_hosting("defense.detect")) == 1

    def test_mitigation_near_detection(self, sim):
        net, merged, placement = figure2_case(sim, [tiny_booster()],
                                              pervasive=False)
        metrics = placement.metrics
        assert metrics.mitigation_colocated + \
            metrics.mitigation_downstream >= 1
        assert metrics.mitigation_detoured == 0

    def test_support_colocated_with_dependents(self, sim):
        net, merged, placement = figure2_case(sim, [tiny_booster()],
                                              pervasive=False)
        for switch, specs in placement.assignments.items():
            names = {s.qualified_name for s in specs}
            if "defense.detect" in names:
                assert "shared.parser" in names


class TestResourceSafety:
    def test_placement_respects_switch_budgets(self, sim):
        graphs = [tiny_booster(f"booster{i}", detect_stages=3)
                  for i in range(4)]
        net, merged, placement = figure2_case(sim, graphs)
        for switch_name, specs in placement.assignments.items():
            total = ResourceVector.total(s.requirement for s in specs)
            budget = net.topo.switch(switch_name).ledger.budget
            assert total.fits_within(budget), (
                f"{switch_name} overcommitted: {total} > {budget}")

    def test_oversized_detector_flagged_infeasible(self, sim):
        graphs = [tiny_booster("huge", detect_stages=1000)]
        net, merged, placement = figure2_case(sim, graphs)
        assert not placement.feasible
        assert any("uncovered" in reason
                   for reason in placement.infeasibility_reasons)

    @settings(max_examples=15, deadline=None)
    @given(seed=st.integers(0, 500), n_boosters=st.integers(1, 5))
    def test_never_overcommits_on_random_networks(self, seed, n_boosters):
        sim = Simulator(seed=seed)
        topo = random_topology(sim, n_switches=6, n_hosts=4, extra_edges=2)
        hosts = topo.host_names
        flows = [make_flow(hosts[i % len(hosts)],
                           hosts[(i + 1) % len(hosts)], GBPS, sport=i)
                 for i in range(4)
                 if hosts[i % len(hosts)] != hosts[(i + 1) % len(hosts)]]
        te = greedy_min_max_te(topo, flows)
        graphs = [tiny_booster(f"b{i}", detect_stages=2 + i % 3)
                  for i in range(n_boosters)]
        merged = ProgramAnalyzer().merge(graphs)
        paths = [te.paths[fid] for fid in sorted(te.paths)]
        placement = Scheduler().place(merged, topo, paths)
        for switch_name, specs in placement.assignments.items():
            total = ResourceVector.total(s.requirement for s in specs)
            budget = topo.switch(switch_name).ledger.budget
            assert total.fits_within(budget)


class TestSharingHelpsPacking:
    def test_merged_graph_fits_where_unmerged_does_not(self, sim):
        # Two boosters, each with an identical 5-stage sketch.  Unshared
        # they need 10 stages of detection per switch; shared only 5.
        def sketchy(booster):
            graph = DataflowGraph(booster)
            graph.add_ppm(parser_ppm(booster, "parser", base=("src",)))
            graph.add_ppm(sketch_ppm(booster, "sketch", width=256, depth=5))
            graph.add_ppm(logic_ppm(booster, "classify", PpmRole.DETECTION,
                                    ResourceVector(stages=4)))
            graph.add_edge("parser", "sketch", weight=8)
            graph.add_edge("sketch", "classify", weight=8)
            return graph

        graphs = [sketchy("a"), sketchy("b")]
        merged = ProgramAnalyzer().merge(graphs)
        unmerged = ProgramAnalyzer(merge_all_parsers=False)
        # Detection stage demand: shared 5+4+4=13 < unshared 5+5+4+4=18.
        assert merged.report.requirement_after.stages < \
            merged.report.requirement_before.stages
