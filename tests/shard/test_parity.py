"""Byte-identity property tests for the sharded run.

The contract (DESIGN.md "Sharded simulation"), all compared via
``json.dumps(..., sort_keys=True)``:

* ``run_sharded(s, n_regions=1)`` — the anchor — equals
  :func:`repro.shard.scenario.run_single` on samples, per-flow finals,
  update and pass counts: region construction, windowing and the
  resident transport add nothing when nothing is cut.
* For any region count the full record (minus the wall-clock
  ``transport`` section and the literal ``workers`` field) is the same
  for every worker count.
* ``aggregate_samples`` is split-invariant, so no partitioning can move
  a goodput sum.
"""

from __future__ import annotations

import json
import random

from repro.shard import figure3_scenario, run_sharded, run_single
from repro.shard.scenario import aggregate_samples

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


def scenario_for(seed):
    # Short horizon with the attack wave and demand churn inside it, so
    # every seed exercises active-set changes and version bumps.
    return figure3_scenario(seed=seed, duration_s=2.0, attack_start_s=1.0)


class TestExactByteIdentity:
    def test_25_seeds_one_region_matches_single(self):
        for seed in range(25):
            scenario = scenario_for(seed)
            assert canonical(run_sharded(scenario, n_regions=1)) \
                == canonical(run_single(scenario)), (
                    f"seed {seed}: one region diverged from the single "
                    f"engine")

    def test_worker_count_never_changes_results(self):
        """Full-record identity, merged telemetry included, across
        inline hosts (workers=1), shared workers (2 workers hosting 4
        regions) and one process per region."""
        for seed in range(5):
            scenario = scenario_for(seed)
            for n_regions in (2, 4):
                inline = full_canonical(
                    run_sharded(scenario, n_regions=n_regions))
                for workers in (2, 4):
                    pooled = run_sharded(scenario, n_regions=n_regions,
                                         workers=workers)
                    assert full_canonical(pooled) == inline, (
                        f"seed {seed}, {n_regions} regions: "
                        f"workers={workers} diverged from inline")

    def test_longer_horizon_stays_identical(self):
        scenario = figure3_scenario(seed=3, duration_s=4.0,
                                    attack_start_s=2.5)
        single = canonical(run_single(scenario))
        assert canonical(run_sharded(scenario, n_regions=1)) == single

    def test_explicit_window_length_is_neutral(self):
        # With nothing cut there are no pins to exchange, so where the
        # barriers fall cannot matter.
        scenario = scenario_for(11)
        default = canonical(run_sharded(scenario, n_regions=1))
        small = canonical(run_sharded(scenario, n_regions=1,
                                      window_s=0.17))
        assert small == default


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
