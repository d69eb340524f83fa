"""Region tasks: id sequences, failures, and the inline globals restore."""

from __future__ import annotations

from concurrent.futures.process import BrokenProcessPool
import multiprocessing
import os
import signal

import pytest

from repro.checkpoint import capture_globals
from repro.netsim import flows as flows_module
from repro.shard import coordinator, run_sharded
from repro.shard.coordinator import install_sequences
from tests.shard.test_parity import local_churn_scenario


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


class RegionFailure(RuntimeError):
    """Raised inside one region's task by the tests below."""


def _fail_region_1(monkeypatch, fail):
    """Make building region 1 call ``fail()``; other regions build as
    usual.  Forked pool workers inherit the patch."""
    real = coordinator.build_region

    def build_region(full, scenario, partition, region_index, paths):
        if region_index == 1:
            fail()
        return real(full, scenario, partition, region_index, paths)

    monkeypatch.setattr(coordinator, "build_region", build_region)


def _raise():
    raise RegionFailure("region 1 failed")


def _scenario():
    return local_churn_scenario(0, n_regions=2, duration_s=0.5)


class TestRegionTaskFailure:
    def test_killed_worker_breaks_the_pool_and_is_reaped(self, monkeypatch):
        _fail_region_1(monkeypatch,
                       lambda: os.kill(os.getpid(), signal.SIGKILL))
        with pytest.raises(BrokenProcessPool):
            run_sharded(_scenario(), n_regions=2, workers=2)
        assert multiprocessing.active_children() == []

    @pytest.mark.parametrize("workers", [1, 2])
    def test_task_exception_reaches_the_caller_with_its_type(
            self, monkeypatch, workers):
        _fail_region_1(monkeypatch, _raise)
        with pytest.raises(RegionFailure, match="region 1 failed"):
            run_sharded(_scenario(), n_regions=2, workers=workers)
        assert multiprocessing.active_children() == []


def _watch_inline(monkeypatch):
    """Record ``capture_globals()`` on entry to and exit from the inline
    path: the coordinator's own topology build, path computation and
    accounting fall outside it, in the caller's registry on purpose."""
    seen = {}
    real = coordinator._run_inline

    def run_inline(*args):
        seen["before"] = capture_globals()
        try:
            return real(*args)
        finally:
            seen["after"] = capture_globals()

    monkeypatch.setattr(coordinator, "_run_inline", run_inline)
    return seen


class TestInlineGlobals:
    def test_success_restores_the_callers_globals(self, monkeypatch):
        seen = _watch_inline(monkeypatch)
        run_sharded(_scenario(), n_regions=2, workers=1)
        assert seen["after"] == seen["before"]

    def test_failure_in_region_1_restores_the_callers_globals(
            self, monkeypatch):
        _fail_region_1(monkeypatch, _raise)
        seen = _watch_inline(monkeypatch)
        with pytest.raises(RegionFailure):
            run_sharded(_scenario(), n_regions=2, workers=1)
        assert seen["after"] == seen["before"]


class TestTransportRecord:
    def test_one_task_per_region_and_no_state_bytes(self):
        def tasks():
            family = capture_globals()["metrics"]["shard_messages_total"]
            return family.get("labels", {}).get("region", 0.0)

        before = tasks()
        record = run_sharded(_scenario(), n_regions=2, workers=2,
                             window_s=0.125)
        transport = record["transport"]
        assert transport["windows"] == 4
        assert transport["messages"] == {"region": 2}
        assert tasks() - before == 2
        assert transport["state_bytes"] == {"from_workers": 0,
                                            "to_workers": 0}
        assert 1 <= len(transport["cpu_time_s"]["workers"]) <= 2
        assert multiprocessing.active_children() == []
