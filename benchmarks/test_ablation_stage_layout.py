"""Ablation — RMT realizability: placements admit per-stage layouts.

The scheduler budgets stages as a scalar; real RMT hardware additionally
requires a dependency-respecting *assignment of tables to physical
stages* with per-stage memory slices.  This bench takes the actual
per-switch module assignments produced for the Figure 2 network and lays
each switch's modules out with the stage allocator — proving the
placements are realizable, not just arithmetically feasible.
"""


from repro.dataplane import (MatchActionTable, MatchKind,
                             PipelineLayoutError, layout_tables)
from repro.experiments.figure1 import run_placement

#: A Tofino-like physical profile: 12 stages, per-stage memory slices.
N_STAGES = 12
STAGE_SRAM_MB = 1.5
STAGE_TCAM_KB = 128


def tables_for_assignment(specs):
    """One synthetic match-action table per stage a module occupies,
    carrying a proportional share of its memory."""
    tables = []
    dependencies = {}
    for spec in specs:
        stages = max(int(spec.requirement.stages), 0)
        if stages == 0:
            continue  # parser-block modules occupy no match stages
        sram_per_stage = spec.requirement.sram_mb / stages
        tcam_per_stage = spec.requirement.tcam_kb / stages
        previous = None
        for index in range(stages):
            kind = (MatchKind.TERNARY if tcam_per_stage > 0
                    else MatchKind.EXACT)
            entry_bytes = 16
            memory = (tcam_per_stage * 1e3 if kind == MatchKind.TERNARY
                      else sram_per_stage * 1e6)
            max_entries = max(1, int(memory / entry_bytes))
            name = f"{spec.qualified_name}#{index}"
            tables.append(MatchActionTable(
                name, match_kind=kind, max_entries=max_entries,
                entry_bytes=entry_bytes))
            if previous is not None:
                dependencies[name] = [previous]
            previous = name
    return tables, dependencies


def test_every_switch_assignment_is_stage_realizable():
    def check_all():
        summary = run_placement("figure2")
        results = {}
        for switch, specs in sorted(
                summary.placement.assignments.items()):
            tables, deps = tables_for_assignment(specs)
            layout = layout_tables(tables, deps, n_stages=N_STAGES,
                                   stage_sram_mb=STAGE_SRAM_MB,
                                   stage_tcam_kb=STAGE_TCAM_KB)
            results[switch] = layout.stages_used
        return results

    stages_used = check_all()
    print()
    for switch, used in sorted(stages_used.items()):
        print(f"{switch}: {used}/{N_STAGES} physical stages")
        assert used <= N_STAGES


def test_overpacked_switch_fails_layout():
    """Sanity: the allocator does reject genuinely infeasible loads."""

    def overpack():
        tables = [MatchActionTable(f"t{i}", max_entries=1000,
                                   entry_bytes=2000)  # 2 MB > stage slice
                  for i in range(3)]
        deps = {}
        try:
            layout_tables(tables, deps, n_stages=1,
                          stage_sram_mb=STAGE_SRAM_MB,
                          stage_tcam_kb=STAGE_TCAM_KB)
        except PipelineLayoutError:
            return True
        return False

    assert overpack()
