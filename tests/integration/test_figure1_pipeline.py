"""Integration: the Figure 1 pipeline on the full booster catalog."""

import pytest

from repro.core.verify import verify_catalog
from repro.dataplane import ResourceVector
from repro.experiments.figure1 import (booster_suite, run_merge,
                                       run_placement, run_scaling_demo)

#: Figure 1's module table, exactly: (module, stages, SRAM MB, TCAM KB).
MODULE_TABLE = [
    ("dropper.blocklist", 1, 0.001024, 0),
    ("dropper.policer", 1, 0.05, 0.0),
    ("heavy_hitter.counter", 4, 0.003072, 0),
    ("heavy_hitter.filter", 1, 0.1, 0.0),
    ("hop_count.enforcer", 1, 0.02, 0.0),
    ("hop_count.hc_table", 2, 0.5, 0.0),
    ("lfa_detector.classifier", 1, 0.02, 0.0),
    ("lfa_detector.link_monitor", 1, 0.05, 0.0),
    ("netwarden.channel_detector", 1, 0.1, 0.0),
    ("netwarden.normalizer", 1, 0.02, 0.0),
    ("obfuscation.obfuscator", 2, 0.3, 64),
    ("poise.policy_table", 2, 0.1, 8),
    ("poise.verdict", 1, 0.02, 0.0),
    ("rate_limiter.limiter", 1, 0.05, 0.0),
    ("rate_limiter.tenant_counts", 4, 0.016384, 0),
    ("reroute.path_table", 1, 0.2, 0.0),
    ("reroute.probe_engine", 2, 0.1, 0.0),
    ("shared.flow_state", 2, 0.262144, 0),
    ("shared.parser", 0, 0.15, 0),
]

#: Logic modules with no runtime program.  NetWarden's and Poise's
#: detection modules are catalog declarations only (they once carried
#: a runtime factory), so their two warnings may or may not appear.
PLANNING_ONLY = [
    "lfa_detector.link_monitor", "lfa_detector.classifier",
    "reroute.path_table", "dropper.policer", "hop_count.enforcer",
    "rate_limiter.limiter", "netwarden.normalizer", "poise.verdict",
]
CATALOG_ONLY = ["netwarden.channel_detector", "poise.policy_table"]


class TestMerge:
    def test_sharing_found_across_catalog(self):
        merged, summary = run_merge()
        assert summary.ppms_after < summary.ppms_before
        assert summary.shared_groups >= 1
        assert summary.sram_savings_fraction > 0

    def test_module_table_covers_merged_graph(self):
        merged, summary = run_merge()
        assert len(summary.module_table) == summary.ppms_after

    def test_strict_parser_mode_shares_less(self):
        _, loose = run_merge(merge_all_parsers=True)
        _, strict = run_merge(merge_all_parsers=False)
        assert strict.ppms_after >= loose.ppms_after


def test_figure1_numbers_are_pinned():
    """Figure 1 reads only the boosters' dataflow graphs: these exact
    numbers must survive any change to the boosters' runtimes."""
    _, summary = run_merge(booster_suite())
    assert summary.module_table == MODULE_TABLE
    assert (summary.ppms_before, summary.ppms_after,
            summary.shared_groups) == (28, 19, 2)
    assert summary.requirement_before == ResourceVector(
        stages=31.0, sram_mb=2.6447680000000005, tcam_kb=72.0, alus=50.0)
    assert summary.requirement_after == ResourceVector(
        stages=29.0, sram_mb=2.062624, tcam_kb=72.0, alus=46.0)

    for topology, detectors in (("figure2", 8), ("abilene", 11)):
        place = run_placement(topology, boosters=booster_suite())
        assert (place.detector_switches, place.path_coverage,
                place.feasible) == (detectors, 1.0, True)

    report = verify_catalog(booster_suite(), n_switches=8)
    assert all(f.check == "runtime" for f in report.findings)
    flagged = [f.message.split()[0] for f in report.findings]
    assert [m for m in flagged if m not in CATALOG_ONLY] == PLANNING_ONLY
    assert [m for m in flagged if m in CATALOG_ONLY] in ([], CATALOG_ONLY)
    assert all(f.message.endswith("declares no runtime factory; it is "
                                  "planning-only") for f in report.findings)


class TestPlacement:
    @pytest.mark.parametrize("topology", ["figure2", "abilene"])
    def test_full_catalog_placement_feasible(self, topology):
        summary = run_placement(topology)
        assert summary.feasible, summary.placement.infeasibility_reasons
        assert summary.path_coverage == 1.0
        assert summary.detector_switches >= 1

    def test_cover_only_uses_fewer_detectors(self):
        pervasive = run_placement("abilene", pervasive=True)
        minimal = run_placement("abilene", pervasive=False)
        assert minimal.detector_switches <= pervasive.detector_switches


class TestScaling:
    def test_scale_out_replicates_with_state(self):
        summary = run_scaling_demo()
        assert summary.instances_before == 1
        assert summary.instances_after == 2
        assert summary.state_seeded
        assert summary.seed_latency_s < 0.5
