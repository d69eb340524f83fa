"""Figure 1d — dynamic scaling: replicating a booster at runtime.

The figure shows booster E being replicated when its region runs hot.
This bench replicates a loaded heavy-hitter instance onto a second
switch, seeding it with FEC-protected state transfer, and reports the
replication latency.
"""


from repro.experiments.figure1 import run_scaling_demo


def test_scale_out_with_state():
    summary = run_scaling_demo()
    assert summary.instances_before == 1
    assert summary.instances_after == 2
    assert summary.state_seeded
    assert summary.seed_latency_s < 0.5
    print()
    print(f"Figure 1d scale-out: 1 -> 2 instances, state seeded in "
          f"{summary.seed_latency_s * 1e3:.1f} ms of simulated time")
