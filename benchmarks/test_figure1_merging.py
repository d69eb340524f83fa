"""Figure 1a-b — joint analysis: dataflow graphs to a merged graph.

Regenerates the figure's module table (module / stages / SRAM / TCAM)
for the full booster catalog and reports the sharing savings that
motivate Challenge 1 (resource multiplexing).
"""


from repro.experiments.figure1 import run_merge


def test_merge_full_catalog():
    merged, summary = run_merge()
    assert summary.ppms_after < summary.ppms_before
    assert summary.shared_groups >= 1
    assert summary.sram_savings_fraction > 0.05

    print()
    print("Figure 1 module table (merged catalog)")
    print(f"{'module':<34}{'stages':>7}{'SRAM MB':>9}{'TCAM KB':>9}")
    for name, stages, sram, tcam in summary.module_table:
        print(f"{name:<34}{stages:>7.0f}{sram:>9.2f}{tcam:>9.0f}")
    print(f"PPMs {summary.ppms_before} -> {summary.ppms_after}; "
          f"SRAM saved {summary.sram_savings_fraction:.1%}")


def test_merge_identifies_cross_booster_equivalence():
    """Two differently-written but equivalent modules collapse to one."""
    from repro.boosters import sketch_ppm
    from repro.core import DataflowGraph, ProgramAnalyzer

    def build_and_merge():
        graphs = []
        for author, style in (("alice", "macros"), ("bob", "handwritten")):
            graph = DataflowGraph(author)
            graph.add_ppm(sketch_ppm(author, f"{author}_counter",
                                     width=2048, depth=4, style=style))
            graphs.append(graph)
        return ProgramAnalyzer().merge(graphs)

    merged = build_and_merge()
    assert merged.report.total_ppms_after == 1
    assert merged.merged_name("alice.alice_counter") == \
        merged.merged_name("bob.bob_counter")
