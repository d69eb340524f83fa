"""Region-world mechanics: link segments, boundary-pin sync."""

from __future__ import annotations

from dataclasses import replace
import math
import multiprocessing
import pickle

import pytest

from repro.netsim import Simulator
from repro.shard import (LinkSegment, partition_topology, random_scenario,
                         run_sharded, run_single)
from repro.shard.region import build_region, compute_paths
from repro.shard.scenario import build_topology
from tests.shard.test_parity import churn_scenario


def build_churn_region(region_index=0, n_regions=2, seed=0):
    scenario = churn_scenario(seed)
    full = build_topology(scenario, Simulator(seed=seed))
    partition = partition_topology(full, n_regions, seed=seed)
    paths = compute_paths(full, scenario)
    region = build_region(full, scenario, partition, region_index, paths)
    return scenario, full, partition, region


class TestLinkSegment:
    def test_quacks_like_a_path(self):
        segment = LinkSegment("a", "z", (("a", "s1"), ("s1", "s2")))
        assert segment.links() == [("a", "s1"), ("s1", "s2")]
        assert segment.link_keys == (("a", "s1"), ("s1", "s2"))

    def test_pickle_roundtrip(self):
        segment = LinkSegment("a", "z", (("a", "s1"),))
        clone = pickle.loads(pickle.dumps(segment))
        assert (clone.src, clone.dst) == ("a", "z")
        assert clone.link_keys == (("a", "s1"),)


class TestLocalSync:
    def test_tracks_single_engine_when_demand_limited(self):
        # No churn to heavy demands, so no link congests: every flow is
        # demand-limited, and per-region allocators agree with the
        # global one to within the boundary-pin headroom.
        scenario = replace(churn_scenario(0), changes=[])
        single = run_single(scenario)
        local = run_sharded(scenario, n_regions=2)
        assert len(local["samples"]) == len(single["samples"])
        for single_tick, local_tick in zip(single["samples"],
                                           local["samples"]):
            assert local_tick[0] == single_tick[0]
            assert local_tick[1] == pytest.approx(single_tick[1], rel=0.05)

    def test_crossing_flows_get_boundary_pins(self):
        _, _, _, region = build_churn_region()
        assert region.crossing_specs, \
            "some flow must cross a 2-region split of the random topology"
        idx = region.crossing_specs[0]
        region.set_boundary_pins({idx: 1.0e9})
        assert region.flow_by_spec[idx].pinned_rate_bps == 1.0e9
        region.set_boundary_pins({idx: None})
        assert region.flow_by_spec[idx].pinned_rate_bps is None


class TestValidation:
    def test_bad_sync_mode_rejected(self):
        """The retired option: only its one surviving value is legal,
        and the error points at the exact-bytes replacement."""
        scenario = churn_scenario(0, duration_s=1.0)
        for sync in ("exact", "fast-and-loose"):
            with pytest.raises(ValueError, match="removed.*run_single"):
                run_sharded(scenario, n_regions=2, sync=sync)
        run_sharded(scenario, n_regions=2, sync="local")

    def test_bad_region_and_worker_counts_rejected(self):
        scenario = churn_scenario(0, duration_s=1.0)
        with pytest.raises(ValueError, match="n_regions must be >= 1"):
            run_sharded(scenario, n_regions=0)
        with pytest.raises(ValueError, match="workers must be >= 1"):
            run_sharded(scenario, n_regions=2, workers=0)

    @pytest.mark.parametrize("kwargs, message", [
        pytest.param({"n_regions": 0, "workers": 2},
                     "n_regions must be >= 1", id="regions"),
        pytest.param({"n_regions": 2, "workers": -1},
                     "workers must be >= 1", id="workers"),
    ])
    def test_bad_count_rejected_before_forking(self, kwargs, message):
        with pytest.raises(ValueError, match=message):
            run_sharded(churn_scenario(0, duration_s=1.0), **kwargs)
        assert multiprocessing.active_children() == []

    # Regression: a NaN window never advanced t, so the run hung.
    @pytest.mark.parametrize("window_s", [-1.0, 0.0, math.nan, math.inf])
    def test_bad_window_rejected(self, window_s):
        with pytest.raises(ValueError,
                           match="window_s must be positive and finite"):
            run_sharded(churn_scenario(0, duration_s=1.0), n_regions=2,
                        window_s=window_s)

    @pytest.mark.parametrize("duration_s", [-1.0, 0.0, math.nan, math.inf])
    def test_bad_duration_rejected(self, duration_s):
        with pytest.raises(ValueError,
                           match="duration_s must be finite and > 0"):
            random_scenario(duration_s=duration_s)

    @pytest.mark.parametrize("duration_s", [-1.0, 0.0, math.nan])
    def test_replaced_bad_duration_rejected(self, duration_s):
        """A built scenario given a new horizon, the way the benchmark
        derives its workloads, is checked again."""
        with pytest.raises(ValueError,
                           match="duration_s must be finite and > 0"):
            replace(random_scenario(n_flows=5), duration_s=duration_s)

    @pytest.mark.parametrize("kwargs, message", [
        pytest.param({"n_switches": 0}, "n_switches must be >= 1",
                     id="switches"),
        pytest.param({"n_hosts": 0}, "n_hosts must be >= 1", id="hosts"),
        pytest.param({"n_flows": -3}, "n_flows must be >= 0", id="flows"),
    ])
    def test_bad_generator_size_rejected(self, kwargs, message):
        with pytest.raises(ValueError, match=message):
            random_scenario(**kwargs)
