"""Figure 1c — the scheduler maps the merged graph onto the network.

Reports the placement quality metrics the figure depicts: detector
coverage (pervasive distribution), mitigation proximity, feasibility
under the multi-dimensional resource constraints, and the min-max TE
objective for the default mode.
"""

import pytest

from repro.experiments.figure1 import run_placement


@pytest.mark.parametrize("topology", ["figure2", "abilene"])
def test_placement(topology):
    summary = run_placement(topology)
    assert summary.feasible, summary.placement.infeasibility_reasons
    assert summary.path_coverage == 1.0
    assert summary.te_max_utilization <= 1.0
    metrics = summary.placement.metrics
    print()
    print(f"Figure 1c placement on {topology}: "
          f"{summary.detector_switches} detector switches, "
          f"coverage {summary.path_coverage:.0%}, "
          f"TE max util {summary.te_max_utilization:.2f}, "
          f"mitigation co-located {metrics.mitigation_colocated} / "
          f"downstream {metrics.mitigation_downstream} / "
          f"detoured {metrics.mitigation_detoured}")


def test_pervasive_vs_minimal_cover():
    """The §3.2 trade: pervasive detection vs. minimal path cover."""

    pervasive = run_placement("abilene", pervasive=True)
    minimal = run_placement("abilene", pervasive=False)
    assert pervasive.detector_switches >= minimal.detector_switches
    assert minimal.path_coverage == 1.0
