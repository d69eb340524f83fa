"""Byte-identity property tests for the sharded run.

The contract (DESIGN.md "Sharded simulation"), all compared via
``json.dumps(..., sort_keys=True)``:

* ``run_sharded(s, n_regions=1)`` — the anchor — equals
  :func:`repro.shard.scenario.run_single` on samples, per-flow finals,
  update and pass counts: region construction and stepping the
  region's simulator in windows add nothing when nothing is cut.
* With more regions, and every flow inside its source host's region,
  samples and per-flow finals match :func:`run_single` up to float
  rounding: regions share no link and no flow.
* For any region count the full record (minus the wall-clock
  ``transport`` section and the literal ``workers`` field) is the same
  for every worker count.
* ``aggregate_samples`` is split-invariant, so no partitioning can move
  a goodput sum.
"""

from __future__ import annotations

from dataclasses import replace
import json
import random

import pytest

from repro.netsim import Simulator, shortest_path
from repro.shard import (partition_topology, random_scenario, run_sharded,
                         run_single)
from repro.shard.scenario import (DemandChange, FlowSpec,
                                  aggregate_samples, build_topology)

#: Keys both run_single and run_sharded emit with identical meaning.
STABLE_KEYS = ("samples", "flows", "updates", "allocation_passes")


def canonical(record, keys=STABLE_KEYS):
    return json.dumps({key: record[key] for key in keys}, sort_keys=True)


def full_canonical(record):
    """The whole record minus the fields that legitimately vary between
    runs: wall/cpu accounting and the workers count."""
    record = dict(record)
    record.pop("transport", None)
    record.pop("workers", None)
    return json.dumps(record, sort_keys=True)


EPOCH_S = 0.05
N_HOSTS = 24
#: Demand levels for the flows and the churn.  The two heavy ones
#: congest shared links, so max-min has bottlenecks to resolve and
#: flow-id tie-breaks matter.
LEVELS_BPS = (50e6, 300e6, 700e6, 4e9, 8e9)


def _empty_scenario(seed, duration_s):
    return random_scenario(
        seed=seed, n_switches=12, n_hosts=N_HOSTS, n_flows=0,
        extra_edges=6, duration_s=duration_s, fluid_interval_s=EPOCH_S,
        sample_period_s=0.25)


def _with_churn(scenario, flows, rng, changes_per_epoch):
    n_flows = len(flows)
    changes = [
        DemandChange(time_s=(epoch + 0.5) * EPOCH_S,
                     flow_index=rng.randrange(n_flows),
                     demand_bps=rng.choice(LEVELS_BPS))
        for epoch in range(int(scenario.duration_s / EPOCH_S))
        for _ in range(changes_per_epoch)]
    return replace(scenario, flows=flows, changes=changes)


def churn_scenario(seed, duration_s=2.0, n_flows=40, changes_per_epoch=3):
    """A small random topology with seeded demand churn in every fluid
    epoch: the shape of the benchmark's churn workloads.  The flows
    join random host pairs instead of the generator's same-gateway
    pairs, so their paths cross switches (and, split into several
    regions, region boundaries)."""
    scenario = _empty_scenario(seed, duration_s)
    rng = random.Random(f"churn:{seed}")
    flows = []
    for sport in range(n_flows):
        src, dst = rng.sample(range(N_HOSTS), 2)
        flows.append(FlowSpec(src=f"h{src}", dst=f"h{dst}",
                              demand_bps=rng.choice(LEVELS_BPS[:3]),
                              sport=sport))
    return _with_churn(scenario, flows, rng, changes_per_epoch)


def local_churn_scenario(seed, n_regions, duration_s=2.0, n_flows=40,
                         changes_per_epoch=3):
    """:func:`churn_scenario`'s shape, keeping only random host pairs
    whose shortest path stays inside the source host's region of the
    ``n_regions`` split ``run_sharded`` makes."""
    scenario = _empty_scenario(seed, duration_s)
    full = build_topology(scenario, Simulator(seed=seed))
    assignment = partition_topology(full, n_regions, seed=seed).assignment
    rng = random.Random(f"local-churn:{seed}")
    flows = []
    while len(flows) < n_flows:
        src, dst = (f"h{i}" for i in rng.sample(range(N_HOSTS), 2))
        nodes = shortest_path(full, src, dst).nodes
        if all(assignment[node] == assignment[src] for node in nodes):
            flows.append(FlowSpec(src=src, dst=dst,
                                  demand_bps=rng.choice(LEVELS_BPS[:3]),
                                  sport=len(flows)))
    return _with_churn(scenario, flows, rng, changes_per_epoch)


class TestExactByteIdentity:
    def test_25_seeds_one_region_matches_single(self):
        for seed in range(25):
            scenario = churn_scenario(seed)
            assert canonical(run_sharded(scenario, n_regions=1)) \
                == canonical(run_single(scenario)), (
                    f"seed {seed}: one region diverged from the single "
                    f"engine")

    def test_generator_flows_one_region_match_single(self):
        """The generator's own same-gateway flows, with no churn."""
        scenario = random_scenario(seed=4, n_switches=20, n_hosts=40,
                                   n_flows=60)
        assert canonical(run_sharded(scenario, n_regions=1)) \
            == canonical(run_single(scenario))

    def test_worker_count_never_changes_results(self):
        """Full-record identity, merged telemetry included, across
        inline regions (workers=1), a pool of 2 processes running 4
        region tasks, and one process per region."""
        for seed in range(5):
            for n_regions in (2, 4):
                scenario = local_churn_scenario(seed, n_regions)
                inline = full_canonical(
                    run_sharded(scenario, n_regions=n_regions))
                for workers in (2, 4):
                    pooled = run_sharded(scenario, n_regions=n_regions,
                                         workers=workers)
                    assert full_canonical(pooled) == inline, (
                        f"seed {seed}, {n_regions} regions: "
                        f"workers={workers} diverged from inline")

    def test_longer_horizon_stays_identical(self):
        scenario = churn_scenario(3, duration_s=4.0)
        single = canonical(run_single(scenario))
        assert canonical(run_sharded(scenario, n_regions=1)) == single

    def test_explicit_window_length_is_neutral(self):
        # A region's simulator stops at every window end and nothing
        # else happens there, so where the windows fall cannot matter.
        scenario = churn_scenario(11)
        default = canonical(run_sharded(scenario, n_regions=1))
        small = canonical(run_sharded(scenario, n_regions=1,
                                      window_s=0.17))
        assert small == default


class TestRegionLocalFlows:
    def test_4_regions_match_single_on_10_churn_seeds(self):
        """Region-local flows make regions independent: samples and
        per-flow finals equal the single engine up to float rounding
        (allocation order within a region differs)."""
        for seed in range(10):
            scenario = local_churn_scenario(seed, n_regions=4)
            single = run_single(scenario)
            sharded = run_sharded(scenario, n_regions=4)
            for key in ("samples", "flows"):
                assert len(sharded[key]) == len(single[key])
                for got, want in zip(sharded[key], single[key]):
                    assert got == pytest.approx(want, rel=1e-9,
                                                abs=1e-12), (
                        f"seed {seed}: {key} diverged")


class TestAggregateSamples:
    def test_fold_over_record_lists_equals_fold_over_concatenation(self):
        """Split one sampler's per-flow goodputs (magnitudes spread over
        nine decades) across R samplers in shuffled order: the fold
        stays bit-equal."""
        rng = random.Random(15)
        ticks = [(0.5 * i,
                  [rng.uniform(0, 1e9) * 10 ** rng.randrange(-6, 3)
                   for _ in range(40)],
                  [rng.uniform(0, 2e9) for _ in range(12)])
                 for i in range(20)]
        whole = aggregate_samples([ticks])
        for n_lists in (2, 3, 7):
            split = [[] for _ in range(n_lists)]
            for t, normal, attack in ticks:
                normal, attack = list(normal), list(attack)
                rng.shuffle(normal)
                rng.shuffle(attack)
                for r in range(n_lists):
                    split[r].append((t, normal[r::n_lists],
                                     attack[r::n_lists]))
            assert json.dumps(aggregate_samples(split)) == json.dumps(whole)
