"""Ablation — PPM clustering: heavy edges stay co-located (§3.1).

"Ideally, we should identify clusters of PPMs, where intra-cluster edges
are dense and have heavy weights and inter-cluster edges have opposite
properties."  The cut weight of a partition is the number of state bits
packets must carry between switches when the partition's groups land on
different hardware.  This bench compares the analyzer's weight-threshold
clustering against naive splits on the real booster catalog.
"""

import random


from repro.experiments.figure1 import booster_suite, run_merge


def catalog_graph():
    merged, _ = run_merge()
    return merged.merged


def test_cluster_cut_beats_random_splits():
    graph = catalog_graph()
    clusters = graph.clusters(weight_threshold=16)
    cluster_cut = graph.cut_weight(clusters)

    # Random balanced 2-way splits for comparison.
    names = [p.qualified_name for p in graph.ppms()]
    rng = random.Random(7)
    random_cuts = []
    for _ in range(50):
        shuffled = list(names)
        rng.shuffle(shuffled)
        half = len(shuffled) // 2
        random_cuts.append(graph.cut_weight(
            [set(shuffled[:half]), set(shuffled[half:])]))
    mean_random = sum(random_cuts) / len(random_cuts)

    print()
    print(f"clustering cut weight: {cluster_cut:.0f} bits/packet vs "
          f"random split mean {mean_random:.0f} "
          f"(min {min(random_cuts):.0f})")
    assert cluster_cut < mean_random


def test_threshold_trades_cluster_size_for_cut():
    graph = catalog_graph()
    rows = []
    for threshold in (1, 8, 16, 32, 64):
        clusters = graph.clusters(weight_threshold=threshold)
        cut = graph.cut_weight(clusters)
        biggest = max(len(c) for c in clusters)
        rows.append((threshold, len(clusters), biggest, cut))
    print()
    print(f"{'threshold':>10}{'clusters':>10}{'largest':>9}{'cut bits':>10}")
    for threshold, n, biggest, cut in rows:
        print(f"{threshold:>10}{n:>10}{biggest:>9}{cut:>10.0f}")
    # Raising the threshold fragments clusters and exposes more state to
    # carrying: cut weight is monotone non-decreasing in the threshold,
    # cluster count non-decreasing too.
    cuts = [cut for *_rest, cut in rows]
    counts = [n for _, n, _, _ in rows]
    assert cuts == sorted(cuts)
    assert counts == sorted(counts)


def test_per_booster_clusters_are_coherent():
    """Within one booster, the heavy parser->state->logic chain should
    cluster together at moderate thresholds."""

    def per_booster():
        results = {}
        for booster in booster_suite():
            graph = booster.dataflow()
            clusters = graph.clusters(weight_threshold=8)
            results[booster.name] = (len(graph), len(clusters))
        return results

    results = per_booster()
    for name, (n_ppms, n_clusters) in sorted(results.items()):
        assert n_clusters <= n_ppms
        # Every booster's dataflow is connected by >=8-bit edges into at
        # most two clusters (its modules are meant to co-locate).
        assert n_clusters <= 2, (name, n_clusters)
