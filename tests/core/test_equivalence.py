"""Tests for PPM functional-equivalence detection.

Sharing is decided by signature equality (``EquivalenceClasses``
groups by ``PpmSpec.signature()``), so that is what these assert.
"""

import pytest

from repro.boosters import flow_table_ppm, parser_ppm, sketch_ppm
from repro.core import (DataflowGraph, EquivalenceClasses, ProgramAnalyzer,
                        merge_parsers)


class TestEquivalent:
    def test_same_function_different_authors(self):
        # Two boosters wrote "the same sketch" with different names and
        # different internal style: FastFlex must recognize them.
        a = sketch_ppm("heavy_hitter", "byteCounter", width=1024, depth=4,
                       coding_style="tofino_macros")
        b = sketch_ppm("ddos_guard", "pkt_count_sketch", width=1024,
                       depth=4, coding_style="handwritten")
        assert a.signature() == b.signature()

    def test_different_parameters_not_equivalent(self):
        a = sketch_ppm("x", "s", width=1024, depth=4)
        b = sketch_ppm("y", "s", width=2048, depth=4)
        assert a.signature() != b.signature()

    def test_different_kinds_not_equivalent(self):
        a = sketch_ppm("x", "s", width=1024)
        b = flow_table_ppm("y", "s", capacity=1024)
        assert a.signature() != b.signature()

    def test_flow_tables_compare_key_fields(self):
        five = flow_table_ppm("x", "t", capacity=1024,
                              key_fields=("src", "dst"))
        five_again = flow_table_ppm("y", "conn", capacity=1024,
                                    key_fields=("dst", "src"))
        per_src = flow_table_ppm("z", "t", capacity=1024,
                                 key_fields=("src",))
        assert five.signature() == five_again.signature()
        assert five.signature() != per_src.signature()


class TestParsers:
    def test_exact_field_equality(self):
        a = parser_ppm("x", "p", base=("src", "dst"))
        b = parser_ppm("y", "q", base=("dst", "src"))
        assert a.signature() == b.signature()

    def test_merge_parsers_union(self):
        a = parser_ppm("x", "p", base=("src",), custom=("epoch",))
        b = parser_ppm("y", "q", base=("dst",))
        merged = merge_parsers([a, b])
        assert set(merged.params["base_fields"]) == {"src", "dst"}
        assert set(merged.params["custom_fields"]) == {"epoch"}
        assert merged.booster == "shared"

    def test_merge_requires_parsers(self):
        with pytest.raises(ValueError):
            merge_parsers([sketch_ppm("x", "s")])
        with pytest.raises(ValueError):
            merge_parsers([])


class TestPartition:
    def test_groups_by_signature(self):
        specs = [
            sketch_ppm("a", "s1", width=64, depth=2),
            sketch_ppm("b", "s2", width=64, depth=2),
            sketch_ppm("c", "s3", width=128, depth=2),
        ]
        classes = EquivalenceClasses.partition(specs)
        assert len(classes.groups) == 2
        shared = [members for members in classes.groups.values()
                  if len(members) > 1]
        assert len(shared) == 1
        assert {s.booster for s in shared[0]} == {"a", "b"}

    def test_savings_counts_duplicates_only(self):
        # The analyzer installs one instance per class, so three
        # identical sketches save two sketches' worth.
        graphs = []
        for booster in ("a", "b", "c"):
            graph = DataflowGraph(booster)
            graph.add_ppm(sketch_ppm(booster, "s", width=64, depth=2))
            graphs.append(graph)
        report = ProgramAnalyzer().merge(graphs).report
        single = graphs[0].ppms()[0].requirement
        assert report.savings.stages == pytest.approx(2 * single.stages)

    def test_no_duplicates_no_savings(self):
        graphs = []
        for booster, width in (("a", 64), ("b", 128)):
            graph = DataflowGraph(booster)
            graph.add_ppm(sketch_ppm(booster, "s", width=width))
            graphs.append(graph)
        report = ProgramAnalyzer().merge(graphs).report
        assert report.shared_groups == 0
        assert report.savings.stages == 0

    def test_representative_is_first_seen(self):
        # The analyzer installs a group's first member as its instance.
        first = sketch_ppm("a", "s", width=64)
        second = sketch_ppm("b", "s", width=64)
        classes = EquivalenceClasses.partition([first, second])
        assert classes.groups[first.signature()] == [first, second]
