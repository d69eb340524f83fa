"""Figure 2 — the multimode data plane sequence, panel by panel.

Regenerates the figure's four states as measurable events: default-off
gating (a), probe-carried activation (b), selective mitigation (c), and
robustness to rolling (d) — plus the caption's mixed-vector co-existing
modes.
"""

from repro.experiments.figure2 import run_mixed_vector, run_mode_sequence


def test_mode_sequence():
    result = run_mode_sequence(duration_s=25.0)
    # (a) default mode: only detectors on.
    gating = result.default_mode_boosters["sL"]
    assert gating == {"lfa_detector": True, "reroute": False,
                      "dropper": False, "obfuscation": False}
    # (b) millisecond propagation.
    assert len(result.activation_times) == 8
    assert result.propagation_delay_s < 0.05
    # (c) selective mitigation.
    assert result.suspicious_rerouted == result.suspicious_total
    assert result.normal_pinned == result.normal_total
    assert result.forged_traceroute_replies > 0
    assert result.policed_flows > 0
    # (d) rolling defeated.
    assert result.attacker_rolls == 0
    assert result.attacker_perceived_success

    print()
    print(f"Figure 2: detection at t={result.detection_time:.2f}s; "
          f"all 8 switches in mitigation within "
          f"{result.propagation_delay_s * 1e3:.1f} ms; "
          f"{result.suspicious_rerouted}/{result.suspicious_total} "
          f"suspicious rerouted, {result.normal_pinned}/"
          f"{result.normal_total} normal pinned; attacker rolls: "
          f"{result.attacker_rolls}")


def test_mixed_vector_coexisting_modes():
    result = run_mixed_vector()
    assert result.lfa_region and result.ddos_region
    assert not (result.lfa_region & result.ddos_region & {"sw_seattle",
                                                          "sw_washington"})
    print()
    print(f"mixed vectors: LFA mode in {sorted(result.lfa_region)}; "
          f"DDoS mode in {sorted(result.ddos_region)}")
