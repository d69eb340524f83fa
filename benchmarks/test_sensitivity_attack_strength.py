"""Sensitivity — attack strength sweep (where the crossover falls).

The Figure 3 gap should grow with attack strength: a weak flood barely
hurts the baseline (TE absorbs it), while a strong one collapses it; the
FastFlex line stays flat throughout.  The strength axis runs as a grid
through the sweep runner (one group per per-bot connection count), so
the numbers come with checkpoints and per-group aggregation for free.
"""


from repro.sweep import SweepSpec, params_slug, run_sweep

#: connections per bot: 6 bots x conns x 10 Mbps of offered attack load.
STRENGTHS = {
    "weak": 50,       # 3 Gbps — below the critical-link capacity
    "paper": 200,     # 12 Gbps — the Figure 3 operating point
    "strong": 400,    # 24 Gbps
}


def _group_key(conns):
    return params_slug({"connections_per_bot": conns, "duration_s": 40.0})


def test_strength_sweep(tmp_path):
    result = run_sweep(
        SweepSpec(experiment="figure3", seeds=[7],
                  base_params={"duration_s": 40.0},
                  grid={"connections_per_bot": list(STRENGTHS.values())},
                  raw_seeds=True),
        out_dir=tmp_path / "strength")
    assert result.ok, result.errors
    assert len(result.aggregates) == len(STRENGTHS)

    means = {}
    print()
    print(f"{'attack':>8}{'offered':>10}{'baseline':>10}{'fastflex':>10}")
    for name, conns in STRENGTHS.items():
        scalars = result.aggregates[_group_key(conns)]["scalars"]
        base = scalars["baseline_mean_during_attack"]["mean"]
        fast = scalars["fastflex_mean_during_attack"]["mean"]
        means[name] = (base, fast)
        offered = 6 * conns * 10e6 / 1e9
        print(f"{name:>8}{offered:>9.1f}G{base:>10.1%}{fast:>10.1%}")

    weak_base, weak_fast = means["weak"]
    paper_base, paper_fast = means["paper"]
    strong_base, strong_fast = means["strong"]

    # FastFlex flat across strengths.
    assert min(weak_fast, paper_fast, strong_fast) > 0.9
    # Baseline damage grows with strength (weak attack under capacity
    # barely registers; strong attack collapses it).
    assert weak_base > 0.9, "a sub-capacity flood should not hurt"
    assert paper_base < 0.75
    assert strong_base <= paper_base + 0.05
