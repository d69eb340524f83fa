"""Tests for the joint program analyzer (Figure 1a -> 1b)."""

import pytest

from repro.boosters import logic_ppm, parser_ppm, sketch_ppm
from repro.core import DataflowGraph, PpmRole, ProgramAnalyzer
from repro.dataplane import ResourceVector


def booster_graph(booster, sketch_width=1024):
    graph = DataflowGraph(booster)
    graph.add_ppm(parser_ppm(booster, "parser", base=("src", "dst")))
    graph.add_ppm(sketch_ppm(booster, "sketch", width=sketch_width))
    graph.add_ppm(logic_ppm(booster, "verdict", PpmRole.MITIGATION,
                            ResourceVector(stages=1)))
    graph.add_edge("parser", "sketch", weight=13)
    graph.add_edge("sketch", "verdict", weight=32)
    return graph


class TestMerging:
    def test_equivalent_sketches_collapse(self):
        analyzer = ProgramAnalyzer()
        merged = analyzer.merge([booster_graph("a"), booster_graph("b")])
        # 6 PPMs in, 4 out: shared parser + shared sketch + 2 logics.
        assert merged.report.total_ppms_before == 6
        assert merged.report.total_ppms_after == 4
        assert merged.report.shared_groups == 2

    def test_different_sketches_stay_separate(self):
        analyzer = ProgramAnalyzer()
        merged = analyzer.merge([booster_graph("a", sketch_width=64),
                                 booster_graph("b", sketch_width=128)])
        names = {s.qualified_name for s in merged.merged.ppms()}
        assert "a.sketch" in names and "b.sketch" in names

    def test_mapping_points_members_to_shared_node(self):
        merged = ProgramAnalyzer().merge([booster_graph("a"),
                                          booster_graph("b")])
        shared_node = merged.merged_name("a.sketch")
        assert merged.merged_name("b.sketch") == shared_node
        assert shared_node.startswith("shared.")
        assert sorted(orig for orig, node in merged.mapping.items()
                      if node == shared_node) == ["a.sketch", "b.sketch"]

    def test_unknown_original_raises(self):
        merged = ProgramAnalyzer().merge([booster_graph("a")])
        with pytest.raises(KeyError):
            merged.merged_name("ghost.module")

    def test_edges_remapped_and_weights_summed(self):
        merged = ProgramAnalyzer().merge([booster_graph("a"),
                                          booster_graph("b")])
        parser_node = merged.merged_name("a.parser")
        sketch_node = merged.merged_name("a.sketch")
        edge = merged.merged.edge(parser_node, sketch_node)
        assert edge is not None
        assert edge.weight == 26  # two collapsed 13-weight edges

    def test_resource_savings_reported(self):
        merged = ProgramAnalyzer().merge([booster_graph("a"),
                                          booster_graph("b")])
        savings = merged.report.savings
        assert savings.stages > 0
        assert savings.sram_mb > 0

    def test_requires_nonempty_input(self):
        with pytest.raises(ValueError):
            ProgramAnalyzer().merge([])
        with pytest.raises(ValueError):
            ProgramAnalyzer().merge([DataflowGraph("empty")])


class TestParserHandling:
    def test_all_parsers_merge_to_union(self):
        a = DataflowGraph("a")
        a.add_ppm(parser_ppm("a", "parser", base=("src",)))
        b = DataflowGraph("b")
        b.add_ppm(parser_ppm("b", "parser", base=("dst",), custom=("x",)))
        merged = ProgramAnalyzer(merge_all_parsers=True).merge([a, b])
        parsers = [s for s in merged.merged.ppms()
                   if s.qualified_name.startswith("shared.")]
        assert len(parsers) == 1
        assert set(parsers[0].params["base_fields"]) == {"src", "dst"}

    def test_strict_mode_only_merges_equal_parsers(self):
        a = DataflowGraph("a")
        a.add_ppm(parser_ppm("a", "parser", base=("src",)))
        b = DataflowGraph("b")
        b.add_ppm(parser_ppm("b", "parser", base=("dst",)))
        merged = ProgramAnalyzer(merge_all_parsers=False).merge([a, b])
        assert merged.report.total_ppms_after == 2

    def test_module_table_lists_merged_modules(self):
        merged = ProgramAnalyzer().merge([booster_graph("a")])
        table = merged.report.module_table(merged)
        names = [row[0] for row in table]
        assert len(table) == len(merged.merged)
        assert any("sketch" in name for name in names)
