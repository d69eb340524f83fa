"""Tests for match-action tables and stage layout."""

import pytest

from repro.dataplane import (MatchActionTable, MatchKind,
                             PipelineLayoutError, layout_tables)


class TestTable:
    def test_exact_lookup(self):
        table = MatchActionTable("t")
        table.insert("10.0.0.1", "drop")
        assert table.lookup("10.0.0.1") == ("drop", {})
        assert table.lookup("10.0.0.2") == ("no_op", {})

    def test_params_returned(self):
        table = MatchActionTable("t")
        table.insert("k", "forward", params={"port": 3})
        assert table.lookup("k") == ("forward", {"port": 3})

    def test_priority_breaks_ties(self):
        table = MatchActionTable("t", match_kind=MatchKind.TERNARY)
        table.insert(lambda k: k.startswith("10."), "low", priority=1)
        table.insert(lambda k: k.startswith("10.0."), "high", priority=5)
        assert table.lookup("10.0.0.1")[0] == "high"
        assert table.lookup("10.1.0.1")[0] == "low"

    def test_capacity_enforced(self):
        table = MatchActionTable("t", max_entries=1)
        table.insert("a", "x")
        with pytest.raises(OverflowError):
            table.insert("b", "y")

    def test_delete_by_match(self):
        table = MatchActionTable("t")
        table.insert("a", "x")
        table.insert("b", "y")
        assert table.delete("a") == 1
        assert len(table) == 1
        assert table.lookup("a") == ("no_op", {})

    def test_exact_insert_upserts_duplicate_match(self):
        # Regression: duplicate exact-match inserts used to leave two
        # entries — lookup returned the stale first one while delete
        # removed both.  Exact tables have one slot per key: re-insert
        # updates in place.
        table = MatchActionTable("t")
        first = table.insert("a", "x", params={"old": 1})
        second = table.insert("a", "y", params={"new": 2}, priority=5)
        assert second is first
        assert len(table) == 1
        assert table.lookup("a") == ("y", {"new": 2})
        assert table.delete("a") == 1
        assert table.lookup("a") == ("no_op", {})

    def test_exact_upsert_does_not_trip_capacity(self):
        table = MatchActionTable("t", max_entries=1)
        table.insert("a", "x")
        table.insert("a", "y")  # upsert, not a second entry
        assert table.lookup("a") == ("y", {})

    def test_ternary_duplicates_keep_priority_tie_order(self):
        # Ternary tables allow overlapping entries; on a priority tie the
        # earlier insert wins (documented hardware semantics).
        table = MatchActionTable("t", match_kind=MatchKind.TERNARY)
        table.insert(lambda k: True, "first", priority=3)
        table.insert(lambda k: True, "second", priority=3)
        assert table.lookup("anything")[0] == "first"

    def test_memory_kind_depends_on_match(self):
        exact = MatchActionTable("e", MatchKind.EXACT, max_entries=100,
                                 entry_bytes=10)
        ternary = MatchActionTable("t", MatchKind.TERNARY, max_entries=100,
                                   entry_bytes=10)
        assert exact.memory_requirement().sram_mb > 0
        assert exact.memory_requirement().tcam_kb == 0
        assert ternary.memory_requirement().tcam_kb > 0
        assert ternary.memory_requirement().sram_mb == 0


class TestLayout:
    def make_tables(self, n, entry_bytes=1000):
        return [MatchActionTable(f"t{i}", max_entries=100,
                                 entry_bytes=entry_bytes)
                for i in range(n)]

    def test_independent_tables_pack_into_first_stage(self):
        tables = self.make_tables(3, entry_bytes=10)
        layout = layout_tables(tables, {}, n_stages=4,
                               stage_sram_mb=1.0, stage_tcam_kb=10)
        assert layout.stages_used == 1

    def test_dependency_forces_later_stage(self):
        tables = self.make_tables(2, entry_bytes=10)
        layout = layout_tables(tables, {"t1": ["t0"]}, n_stages=4,
                               stage_sram_mb=1.0, stage_tcam_kb=10)
        assert layout.stage_of("t1") > layout.stage_of("t0")

    def test_chain_uses_one_stage_per_link(self):
        tables = self.make_tables(4, entry_bytes=10)
        deps = {"t1": ["t0"], "t2": ["t1"], "t3": ["t2"]}
        layout = layout_tables(tables, deps, n_stages=4,
                               stage_sram_mb=1.0, stage_tcam_kb=10)
        assert layout.stages_used == 4

    def test_memory_pressure_spills_to_next_stage(self):
        # Each table needs 0.1 MB; a stage holds 0.15 MB.
        tables = self.make_tables(3)  # 100 entries x 1000 B = 0.1 MB
        layout = layout_tables(tables, {}, n_stages=4,
                               stage_sram_mb=0.15, stage_tcam_kb=0)
        assert layout.stages_used == 3

    def test_insufficient_stages_raises(self):
        tables = self.make_tables(3, entry_bytes=10)
        deps = {"t1": ["t0"], "t2": ["t1"]}
        with pytest.raises(PipelineLayoutError):
            layout_tables(tables, deps, n_stages=2,
                          stage_sram_mb=1.0, stage_tcam_kb=0)

    def test_cycle_detected(self):
        tables = self.make_tables(2, entry_bytes=10)
        with pytest.raises(PipelineLayoutError):
            layout_tables(tables, {"t0": ["t1"], "t1": ["t0"]},
                          n_stages=4, stage_sram_mb=1.0, stage_tcam_kb=0)

    def test_unknown_dependency_rejected(self):
        tables = self.make_tables(1, entry_bytes=10)
        with pytest.raises(ValueError):
            layout_tables(tables, {"t0": ["ghost"]}, n_stages=2,
                          stage_sram_mb=1.0, stage_tcam_kb=0)

    def test_stage_of_unknown_table(self):
        tables = self.make_tables(1, entry_bytes=10)
        layout = layout_tables(tables, {}, n_stages=2,
                               stage_sram_mb=1.0, stage_tcam_kb=0)
        with pytest.raises(KeyError):
            layout.stage_of("ghost")
