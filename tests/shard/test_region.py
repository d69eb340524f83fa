"""Region-world mechanics: portals, link segments, boundary-pin sync."""

from __future__ import annotations

import pickle

import pytest

from repro.netsim import Simulator
from repro.netsim.packet import Packet
from repro.shard import (LinkSegment, figure3_scenario, partition_topology,
                         run_sharded, run_single)
from repro.shard.region import build_region, compute_paths
from repro.shard.scenario import build_topology


def build_figure3_region(region_index=0, exchange_packets=False,
                         n_regions=2, seed=0):
    scenario = figure3_scenario(seed=seed, duration_s=2.0,
                                attack_start_s=1.0)
    full = build_topology(scenario, Simulator(seed=seed))
    partition = partition_topology(full, n_regions, seed=seed)
    paths = compute_paths(full, scenario)
    region = build_region(full, scenario, partition, region_index, paths,
                          exchange_packets=exchange_packets)
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


class TestPortals:
    def test_portals_stand_in_for_external_neighbors(self):
        _, full, partition, region = build_figure3_region(
            exchange_packets=True)
        out = partition.boundary_out(region.region_index)
        assert out, "2-region figure2 split must cut at least one link"
        for inside, outside in out:
            assert outside in region.portals
            assert outside not in region.topo.nodes
            portal = region.portals[outside]
            stitch = region.topo.nodes[inside].links[outside]
            assert stitch.dst is portal
            assert stitch.delay_s == 0.0
            assert stitch.capacity_bps == full.links[(inside,
                                                      outside)].capacity_bps
            # The stitch is node-attached only: the regional allocator
            # never sees the cut link.
            assert (inside, outside) not in region.topo.links
            assert portal.delays[inside] == full.links[(inside,
                                                        outside)].delay_s

    def test_portal_records_logical_arrival_in_outbox(self):
        _, full, partition, region = build_figure3_region(
            exchange_packets=True)
        inside, outside = partition.boundary_out(region.region_index)[0]
        portal = region.portals[outside]
        stitch = region.topo.nodes[inside].links[outside]
        packet = Packet(src="client0", dst="victim")
        portal.receive(packet, from_link=stitch)
        assert region.outbox == [
            (region.sim.now + full.links[(inside, outside)].delay_s,
             outside, packet)]
        assert region.drain_outbox() == [
            (region.sim.now + full.links[(inside, outside)].delay_s,
             outside, packet)]
        assert region.outbox == []

    def test_no_portals_without_exchange_packets(self):
        _, _, _, region = build_figure3_region(exchange_packets=False)
        assert region.portals == {}

    def test_oversized_window_rejected(self):
        scenario = figure3_scenario(seed=0, duration_s=2.0,
                                    attack_start_s=1.0)
        with pytest.raises(ValueError, match="conservative-sync"):
            run_sharded(scenario, n_regions=2, exchange_packets=True,
                        window_s=10.0)

    def test_window_auto_bounded_by_min_boundary_delay(self):
        scenario = figure3_scenario(seed=0, duration_s=0.01,
                                    attack_start_s=1.0)
        full = build_topology(scenario, Simulator(seed=0))
        partition = partition_topology(full, 2, seed=0)
        min_delay = partition.min_boundary_delay(full)
        record = run_sharded(scenario, n_regions=2, exchange_packets=True)
        assert record["window_s"] <= min_delay


class TestLocalSync:
    def test_tracks_single_engine_when_demand_limited(self):
        # No attack inside the horizon: every bottleneck is interior or
        # demand-limited, so per-region allocators agree with the global
        # one to within the boundary-pin headroom.
        scenario = figure3_scenario(seed=0, duration_s=2.0,
                                    attack_start_s=5.0)
        single = run_single(scenario)
        local = run_sharded(scenario, n_regions=2)
        assert len(local["samples"]) == len(single["samples"])
        for single_tick, local_tick in zip(single["samples"],
                                           local["samples"]):
            assert local_tick[0] == single_tick[0]
            assert local_tick[1] == pytest.approx(single_tick[1], rel=0.05)

    def test_attack_run_completes_with_full_coverage(self):
        # With bots contending on cut links the local answer is
        # approximate (boundary-link capacity is not itself allocated),
        # but the record stays complete: every tick, every flow.
        scenario = figure3_scenario(seed=0, duration_s=2.0,
                                    attack_start_s=1.0)
        single = run_single(scenario)
        local = run_sharded(scenario, n_regions=4)
        assert [tick[0] for tick in local["samples"]] \
            == [tick[0] for tick in single["samples"]]
        assert len(local["flows"]) == len(single["flows"])
        assert all(final[1] >= 0.0 for final in local["flows"])

    def test_crossing_flows_get_boundary_pins(self):
        _, _, _, region = build_figure3_region()
        assert region.crossing_specs, \
            "client->victim flows must cross a 2-region figure2 split"
        idx = region.crossing_specs[0]
        region.set_boundary_pins({idx: 1.0e9})
        assert region.flow_by_spec[idx].pinned_rate_bps == 1.0e9
        region.set_boundary_pins({idx: None})
        assert region.flow_by_spec[idx].pinned_rate_bps is None


class TestValidation:
    def test_bad_sync_mode_rejected(self):
        """The retired option: only its one surviving value is legal,
        and the error points at the exact-bytes replacement."""
        scenario = figure3_scenario(seed=0, duration_s=1.0)
        for sync in ("exact", "fast-and-loose"):
            with pytest.raises(ValueError, match="removed.*run_single"):
                run_sharded(scenario, n_regions=2, sync=sync)
        run_sharded(scenario, n_regions=2, sync="local")

    def test_bad_region_and_worker_counts_rejected(self):
        scenario = figure3_scenario(seed=0, duration_s=1.0)
        with pytest.raises(ValueError):
            run_sharded(scenario, n_regions=0)
        with pytest.raises(ValueError):
            run_sharded(scenario, n_regions=2, workers=0)
