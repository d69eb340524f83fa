"""Resident worker processes: protocol, crash handling, id sequences."""

from __future__ import annotations

import os
import signal

import pytest

from repro.netsim import flows as flows_module
from repro.shard import ShardWorkerError, figure3_scenario, run_sharded
from repro.shard import coordinator
from repro.shard.coordinator import _ProcessTransport, _Tally
from repro.shard.region import compute_paths, hosted_counts
from repro.shard.scenario import build_topology
from repro.shard.workers import WorkerInit, install_sequences
from repro.netsim.engine import Simulator
from repro.shard.partition import partition_topology


def scenario_for(seed=0):
    return figure3_scenario(seed=seed, duration_s=2.0, attack_start_s=1.0)


def make_init(scenario, n_regions):
    full = build_topology(scenario, Simulator(seed=scenario.seed))
    partition = partition_topology(full, n_regions, seed=scenario.seed)
    paths = compute_paths(full, scenario)
    counts = hosted_counts(partition, paths)
    offsets = [sum(counts[:i]) for i in range(n_regions)]
    return WorkerInit(scenario=scenario, partition=partition, paths=paths,
                      exchange_packets=False,
                      base_sequences={"repro.netsim.flows:_flow_ids": (0,)},
                      flow_id_offsets=offsets)


class TestInstallSequences:
    def test_offset_applies_to_the_flow_sequence_only(self):
        saved = flows_module._flow_ids
        try:
            install_sequences({"repro.netsim.flows:_flow_ids": (10,)}, 5)
            assert next(flows_module._flow_ids) == 15
            assert next(flows_module._flow_ids) == 16
        finally:
            flows_module._flow_ids = saved

    def test_zero_offset_restores_the_base_exactly(self):
        saved = flows_module._flow_ids
        try:
            install_sequences({"repro.netsim.flows:_flow_ids": (42,)}, 0)
            assert next(flows_module._flow_ids) == 42
        finally:
            flows_module._flow_ids = saved


class TestShardWorkerError:
    def test_message_names_region_and_window(self):
        err = ShardWorkerError(2, 3, 1.5, "boom")
        assert "worker 2" in str(err)
        assert "region 3" in str(err)
        assert "t=1.5s" in str(err)
        assert "boom" in str(err)

    def test_control_channel_form(self):
        err = ShardWorkerError(0, None, None, "pipe closed")
        assert "control channel" in str(err)
        assert "pipe closed" in str(err)


class TestWorkerProtocol:
    def test_unknown_command_yields_shard_worker_error(self):
        scenario = scenario_for()
        transport = _ProcessTransport(make_init(scenario, 2), n_regions=2,
                                      workers=2, tally=_Tally())
        try:
            transport.build_regions()
            handle = transport.handles[0]
            handle.conn.send(("frobnicate", 0))
            with pytest.raises(ShardWorkerError, match="frobnicate"):
                transport._recv(handle, 0, None)
        finally:
            transport.close()
        for handle in transport.handles:
            assert not handle.process.is_alive()

    def test_worker_failure_reply_carries_the_traceback(self):
        scenario = scenario_for()
        transport = _ProcessTransport(make_init(scenario, 2), n_regions=2,
                                      workers=1, tally=_Tally())
        try:
            # A window against a region that was never built fails inside
            # the worker; the loop must survive and report the traceback.
            handle = transport.handles[0]
            handle.conn.send(("window", 0, 0.5, None))
            with pytest.raises(ShardWorkerError, match="KeyError"):
                transport._recv(handle, 0, 0.5)
            # The worker is still serving: a real build now succeeds.
            transport.build_regions()
        finally:
            transport.close()


class TestWorkerCrash:
    def test_sigkilled_worker_surfaces_region_and_window(self, monkeypatch):
        """SIGKILL one worker between windows: the coordinator raises a
        ShardWorkerError naming the dead worker's region and the window,
        and still reaps every remaining worker process."""
        scenario = scenario_for()
        seen = {"handles": None}

        def kill_first(window_index, handles):
            seen["handles"] = list(handles)
            if window_index == 1:
                os.kill(handles[0].process.pid, signal.SIGKILL)
                handles[0].process.join(timeout=10)

        monkeypatch.setattr(coordinator, "_barrier_hook", kill_first)
        with pytest.raises(ShardWorkerError) as excinfo:
            run_sharded(scenario, n_regions=2, workers=2)
        message = str(excinfo.value)
        assert "worker 0" in message
        assert "region 0" in message
        assert "t=" in message
        # Cleanup ran despite the failure: no orphaned worker processes.
        for handle in seen["handles"]:
            assert not handle.process.is_alive()
