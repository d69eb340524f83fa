"""Tests for the traceroute client (renamed from netsim.tracing)."""


import pytest

from repro.netsim import TracerouteClient


class TestTraceroute:
    def test_full_path_reported(self, fig2, sim):
        tracer = TracerouteClient(fig2.topo, "bot0")
        results = []
        tracer.trace("victim", callback=results.append)
        sim.run(until=2.0)
        assert len(results) == 1
        result = results[0]
        assert result.reached
        # bot0 -> sL -> (s1|s2) -> sR -> victim
        assert result.path[0] == "sL"
        assert result.path[-1] == "victim"
        assert len(result.path) == 4

    def test_hops_indexed_by_ttl(self, fig2, sim):
        tracer = TracerouteClient(fig2.topo, "bot0")
        results = []
        tracer.trace("decoy0", callback=results.append)
        sim.run(until=2.0)
        result = results[0]
        assert result.hops_by_ttl[1] == "sL"
        assert result.reached_ttl == 4

    def test_timeout_fires_when_unreachable(self, fig2, sim):
        tracer = TracerouteClient(fig2.topo, "bot0", timeout_s=0.5)
        results = []
        tracer.trace("ghost_host", callback=results.append)
        sim.run(until=2.0)
        assert len(results) == 1
        assert not results[0].reached

    def test_concurrent_traces_do_not_mix(self, fig2, sim):
        tracer = TracerouteClient(fig2.topo, "bot0")
        results = {}
        tracer.trace("victim", callback=lambda r: results.update(v=r))
        tracer.trace("decoy0", callback=lambda r: results.update(d=r))
        sim.run(until=2.0)
        assert results["v"].path[-1] == "victim"
        assert results["d"].path[-1] == "decoy0"

    def test_result_lookup_by_id(self, fig2, sim):
        tracer = TracerouteClient(fig2.topo, "bot0")
        trace_id = tracer.trace("victim")
        sim.run(until=2.0)
        assert tracer.result(trace_id).reached

    def test_two_clients_independent(self, fig2, sim):
        tracer_a = TracerouteClient(fig2.topo, "bot0")
        tracer_b = TracerouteClient(fig2.topo, "client0")
        results = []
        tracer_a.trace("victim", callback=results.append)
        tracer_b.trace("victim", callback=results.append)
        sim.run(until=2.0)
        assert len(results) == 2
        assert all(r.reached for r in results)
        assert {r.src for r in results} == {"bot0", "client0"}


class TestTracingShimRemoved:
    """The ``repro.netsim.tracing`` deprecation shim is gone: it fired a
    module-level DeprecationWarning on import, which polluted warning
    capture in every downstream test that transitively imported it."""

    def test_traceroute_imports_clean(self):
        import importlib
        import sys
        import warnings

        sys.modules.pop("repro.netsim.traceroute", None)
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            module = importlib.import_module("repro.netsim.traceroute")
        assert caught == []
        assert module.TracerouteClient is not None

    def test_old_alias_is_gone(self):
        import importlib
        import sys

        sys.modules.pop("repro.netsim.tracing", None)
        with pytest.raises(ModuleNotFoundError):
            importlib.import_module("repro.netsim.tracing")
