"""Tests for the fluid max-min allocator and the FluidNetwork driver."""

import pytest
from hypothesis import given, settings, strategies as st

from repro.netsim import (FlowSet, FluidNetwork, Path, Simulator, Topology,
                          make_flow, max_min_allocate)
from repro.netsim.fluid import _stall_freeze


def tandem(sim, capacities=(1e9, 1e9)):
    """h1 - s1 - s2 - h2 with configurable switch-switch capacity, plus a
    second host pair sharing only the middle link."""
    topo = Topology(sim)
    topo.add_switch("s1")
    topo.add_switch("s2")
    topo.attach_host("h1", "s1", capacity_bps=100e9)
    topo.attach_host("h2", "s2", capacity_bps=100e9)
    topo.attach_host("h3", "s1", capacity_bps=100e9)
    topo.attach_host("h4", "s2", capacity_bps=100e9)
    topo.add_duplex_link("s1", "s2", capacities[0], 0.001)
    return topo


PATH_A = Path.of(["h1", "s1", "s2", "h2"])
PATH_B = Path.of(["h3", "s1", "s2", "h4"])


class TestMaxMinBasics:
    def test_two_equal_flows_split_evenly(self, sim):
        topo = tandem(sim)
        flows = [make_flow("h1", "h2", 2e9, path=PATH_A),
                 make_flow("h3", "h4", 2e9, path=PATH_B)]
        result = max_min_allocate(topo, flows)
        assert result.rates[flows[0].flow_id] == pytest.approx(0.5e9)
        assert result.rates[flows[1].flow_id] == pytest.approx(0.5e9)

    def test_weights_scale_shares(self, sim):
        topo = tandem(sim)
        flows = [make_flow("h1", "h2", 2e9, weight=3.0, path=PATH_A),
                 make_flow("h3", "h4", 2e9, weight=1.0, path=PATH_B)]
        result = max_min_allocate(topo, flows)
        assert result.rates[flows[0].flow_id] == pytest.approx(0.75e9)
        assert result.rates[flows[1].flow_id] == pytest.approx(0.25e9)

    def test_demand_cap_redistributes_surplus(self, sim):
        topo = tandem(sim)
        flows = [make_flow("h1", "h2", 0.2e9, path=PATH_A),
                 make_flow("h3", "h4", 5e9, path=PATH_B)]
        result = max_min_allocate(topo, flows)
        assert result.rates[flows[0].flow_id] == pytest.approx(0.2e9)
        assert result.rates[flows[1].flow_id] == pytest.approx(0.8e9)

    def test_pathless_flow_gets_zero(self, sim):
        topo = tandem(sim)
        flow = make_flow("h1", "h2", 1e9)
        result = max_min_allocate(topo, [flow])
        assert result.rates[flow.flow_id] == 0.0

    def test_elastic_traffic_never_overloads_links(self, sim):
        topo = tandem(sim)
        flows = [make_flow("h1", "h2", 10e9, path=PATH_A),
                 make_flow("h3", "h4", 10e9, path=PATH_B)]
        result = max_min_allocate(topo, flows)
        for key, load in result.link_load.items():
            assert load <= topo.links[key].capacity_bps * (1 + 1e-9)

    def test_inelastic_charges_full_demand_and_loses_excess(self, sim):
        topo = tandem(sim)
        udp = make_flow("h1", "h2", 2e9, elastic=False, path=PATH_A)
        result = max_min_allocate(topo, [udp])
        assert result.rates[udp.flow_id] == pytest.approx(2e9)
        assert result.link_loss[("s1", "s2")] == pytest.approx(0.5)

    def test_inelastic_starves_elastic(self, sim):
        topo = tandem(sim)
        udp = make_flow("h1", "h2", 1e9, elastic=False, path=PATH_A)
        tcp = make_flow("h3", "h4", 1e9, path=PATH_B)
        result = max_min_allocate(topo, [udp, tcp])
        assert result.rates[tcp.flow_id] == pytest.approx(0.0, abs=1e3)

    def test_policed_flow_capped(self, sim):
        topo = tandem(sim)
        flow = make_flow("h1", "h2", 1e9, path=PATH_A)
        flow.police_rate_bps = 0.1e9
        result = max_min_allocate(topo, [flow])
        assert result.rates[flow.flow_id] == pytest.approx(0.1e9)


def diamond(sim, capacity=1e9):
    """h1 - s1 - {s2 | s3-s4} - s5 - h2: two distinct s1->s5 routes."""
    topo = Topology(sim)
    for name in ("s1", "s2", "s3", "s4", "s5"):
        topo.add_switch(name)
    topo.attach_host("h1", "s1", capacity_bps=100e9)
    topo.attach_host("h2", "s5", capacity_bps=100e9)
    topo.add_duplex_link("s1", "s2", capacity, 0.001)
    topo.add_duplex_link("s2", "s5", capacity, 0.001)
    topo.add_duplex_link("s1", "s3", capacity, 0.001)
    topo.add_duplex_link("s3", "s4", capacity, 0.001)
    topo.add_duplex_link("s4", "s5", capacity, 0.001)
    return topo


SHORT = Path.of(["h1", "s1", "s2", "s5", "h2"])
LONG = Path.of(["h1", "s1", "s3", "s4", "s5", "h2"])
#: Names the pair s1-s4, which has no link: the shape of a pinned path
#: whose hops were truncated.
NOT_A_CHAIN = Path.of(["h1", "s1", "s4", "s5", "h2"])


class TestAllocatorRegressions:
    """Pins for the epsilon, stall-guard, and non-chain-path bugs."""

    def test_bps_scale_links_saturate_fully(self, sim):
        """Regression: the saturation epsilon must be capacity-relative.
        With an absolute 1e-6 epsilon, float residue on 10 Gbps-scale
        capacities (~2e-6 after x - (x/w)*w) kept links unfrozen and the
        filling loop spinning; every overdemanded flow must end with its
        exact fair share and the link exactly full."""
        topo = tandem(sim, capacities=(10e9,))
        flows = []
        for i in range(7):
            path = PATH_A if i % 2 == 0 else PATH_B
            flows.append(make_flow(path.src, path.dst, 20e9,
                                   weight=1.0 + 0.3 * i, path=path))
        result = max_min_allocate(topo, flows)
        total_weight = sum(f.weight for f in flows)
        for flow in flows:
            expected = 10e9 * flow.weight / total_weight
            assert result.rates[flow.flow_id] == pytest.approx(expected,
                                                               rel=1e-9)
        assert result.link_load[("s1", "s2")] == pytest.approx(10e9,
                                                               rel=1e-9)

    def test_no_flow_left_unfrozen_below_fair_share(self, sim):
        """Regression for the silent stall `break`: every elastic flow
        must end at its demand or pinned by a saturated link — never
        abandoned mid-fill with a partial rate."""
        import random
        rng = random.Random(5)
        topo = tandem(sim, capacities=(10e9,))
        flows = []
        for i in range(40):
            path = PATH_A if i % 2 == 0 else PATH_B
            flows.append(make_flow(path.src, path.dst,
                                   rng.uniform(1e6, 40e9),
                                   weight=rng.uniform(0.5, 80.0),
                                   path=path))
        result = max_min_allocate(topo, flows)
        capacities = {k: l.capacity_bps for k, l in topo.links.items()}
        for flow in flows:
            rate = result.rates[flow.flow_id]
            if rate >= flow.demand_bps * (1 - 1e-9):
                continue
            saturated = [key for key in flow.path.links()
                         if result.link_load[key]
                         >= capacities[key] * (1 - 1e-6)]
            assert saturated, (
                f"flow {flow.flow_id} stopped at {rate:.0f} bps below its "
                f"demand with no saturated link on its path")

    def test_stall_guard_freezes_most_loaded_link_members(self):
        link_count = {("a", "b"): 2, ("b", "c"): 1, ("c", "d"): 0}
        remaining = {("a", "b"): 5e8, ("b", "c"): 1e6, ("c", "d"): 0.0}
        capacities = {("a", "b"): 1e9, ("b", "c"): 1e9, ("c", "d"): 1e9}
        f1 = make_flow("h1", "h2", 1e9, path=Path.of(["h1", "h2"]))
        f2 = make_flow("h1", "h2", 1e9, path=Path.of(["h1", "h2"]))
        members = {("a", "b"): [f1, f2], ("b", "c"): [f2], ("c", "d"): []}
        unfrozen = {f1.flow_id: (f1, ()), f2.flow_id: (f2, ())}
        # ("c", "d") has zero headroom but no unfrozen members; the guard
        # must pick ("b", "c") — the least-headroom *active* link.
        assert _stall_freeze(link_count, remaining, capacities, members,
                             unfrozen) == [f2.flow_id]

    def test_flow_over_non_adjacent_pair_allocated_zero(self, sim):
        topo = diamond(sim)
        broken = make_flow("h1", "h2", 1e9, path=NOT_A_CHAIN)
        long = make_flow("h1", "h2", 1e9, path=LONG, sport=1)
        result = max_min_allocate(topo, [broken, long])
        assert result.rates[broken.flow_id] == 0.0
        assert result.rates[long.flow_id] == pytest.approx(1e9)
        assert ("s1", "s4") not in result.link_load


class TestMaxMinProperties:
    """Water-filling invariants under random workloads (hypothesis)."""

    @settings(max_examples=40, deadline=None)
    @given(data=st.data())
    def test_invariants(self, data):
        sim = Simulator(seed=0)
        topo = tandem(sim)
        n_flows = data.draw(st.integers(1, 8))
        flows = []
        for index in range(n_flows):
            demand = data.draw(st.floats(1e6, 5e9))
            weight = data.draw(st.floats(0.5, 100.0))
            path = PATH_A if index % 2 == 0 else PATH_B
            flows.append(make_flow(path.src, path.dst, demand,
                                   weight=weight, path=path))
        result = max_min_allocate(topo, flows)

        capacities = {k: l.capacity_bps for k, l in topo.links.items()}
        eps = 1e-3
        for flow in flows:
            rate = result.rates[flow.flow_id]
            # Non-negative and demand-bounded.
            assert rate >= -eps
            assert rate <= flow.demand_bps + eps
        for key, load in result.link_load.items():
            assert load <= capacities[key] * (1 + 1e-6)

        # Max-min: a flow below its demand must have a saturated link on
        # its path where no co-resident flow has a larger per-weight rate.
        for flow in flows:
            rate = result.rates[flow.flow_id]
            if rate >= flow.demand_bps - eps:
                continue
            normalized = rate / flow.weight
            bottlenecked = False
            for key in flow.path.links():
                if result.link_load[key] < capacities[key] * (1 - 1e-6):
                    continue
                others = [f for f in flows if key in f.path.links()]
                if all(result.rates[o.flow_id] / o.weight
                       <= normalized + eps or
                       result.rates[o.flow_id] >= o.demand_bps - eps
                       for o in others):
                    bottlenecked = True
                    break
            assert bottlenecked, (
                f"flow {flow.flow_id} is rate-limited without a "
                f"justifying bottleneck")


class TestFluidNetwork:
    def test_update_interval_validated(self, sim):
        topo = tandem(sim)
        with pytest.raises(ValueError):
            FluidNetwork(topo, update_interval=0.0)

    def test_rates_converge_with_smoothing(self, sim):
        topo = tandem(sim)
        flows = FlowSet()
        # Start mid-run so the flow ramps from zero (TCP-style) instead of
        # being part of the initial allocation.
        flow = flows.add(make_flow("h1", "h2", 0.5e9, path=PATH_A,
                                   start_time=0.1))
        fluid = FluidNetwork(topo, flows, update_interval=0.01,
                             tcp_tau=0.05).start()
        sim.run(until=0.15)
        partial = flow.rate_bps
        sim.run(until=1.5)
        assert 0 < partial < 0.5e9
        assert flow.rate_bps == pytest.approx(0.5e9, rel=1e-3)

    def test_goodput_deducts_congestion_loss(self, sim):
        topo = tandem(sim)
        flows = FlowSet()
        udp = flows.add(make_flow("h1", "h2", 2e9, elastic=False,
                                  path=PATH_A))
        fluid = FluidNetwork(topo, flows).start()
        sim.run(until=0.5)
        assert udp.rate_bps == pytest.approx(2e9)
        assert udp.goodput_bps == pytest.approx(1e9, rel=1e-6)
        assert udp.loss_rate == pytest.approx(0.5, rel=1e-6)

    def test_bytes_delivered_accumulate(self, sim):
        topo = tandem(sim)
        flows = FlowSet()
        flow = flows.add(make_flow("h1", "h2", 0.8e9, path=PATH_A))
        FluidNetwork(topo, flows, tcp_tau=0.0).start()
        sim.run(until=1.0)
        expected = 0.8e9 / 8  # one second at full rate
        assert flow.bytes_delivered == pytest.approx(expected, rel=0.05)

    def test_links_see_fluid_load(self, sim):
        topo = tandem(sim)
        flows = FlowSet()
        flows.add(make_flow("h1", "h2", 0.6e9, path=PATH_A))
        FluidNetwork(topo, flows, tcp_tau=0.0).start()
        sim.run(until=0.2)
        assert topo.link("s1", "s2").utilization == pytest.approx(0.6,
                                                                  rel=1e-3)

    def test_inactive_flows_zeroed(self, sim):
        topo = tandem(sim)
        flows = FlowSet()
        flow = flows.add(make_flow("h1", "h2", 1e9, path=PATH_A,
                                   end_time=0.5))
        FluidNetwork(topo, flows, tcp_tau=0.0).start()
        sim.run(until=1.0)
        assert flow.rate_bps == 0.0
        assert flow.goodput_bps == 0.0

    def test_normal_goodput_excludes_malicious(self, sim):
        topo = tandem(sim)
        flows = FlowSet()
        flows.add(make_flow("h1", "h2", 0.3e9, path=PATH_A))
        flows.add(make_flow("h3", "h4", 0.3e9, path=PATH_B,
                            malicious=True))
        fluid = FluidNetwork(topo, flows, tcp_tau=0.0).start()
        sim.run(until=0.2)
        assert fluid.normal_goodput() == pytest.approx(0.3e9, rel=1e-3)

    def test_stop_halts_updates(self, sim):
        topo = tandem(sim)
        flows = FlowSet()
        flow = flows.add(make_flow("h1", "h2", 1e9, path=PATH_A,
                                   start_time=0.5))
        fluid = FluidNetwork(topo, flows, tcp_tau=0.0).start()
        sim.schedule(0.2, fluid.stop)
        sim.run(until=1.0)
        assert flow.rate_bps == 0.0  # never observed after its start

    def test_observers_called(self, sim):
        topo = tandem(sim)
        fluid = FluidNetwork(topo, FlowSet(), update_interval=0.1)
        ticks = []
        fluid.on_update.append(lambda now, result: ticks.append(now))
        fluid.start()
        sim.run(until=0.35)
        assert len(ticks) == 4  # t = 0, 0.1, 0.2, 0.3


class TestSteadyStateFastPath:
    """The dirty-flag contract: unchanged epochs skip reallocation."""

    def test_unchanged_epochs_reuse_allocation(self, sim):
        topo = tandem(sim)
        flows = FlowSet()
        flow = flows.add(make_flow("h1", "h2", 0.5e9, path=PATH_A))
        fluid = FluidNetwork(topo, flows, update_interval=0.01).start()
        sim.run(until=1.0)
        assert fluid.updates >= 100  # one per 10 ms epoch
        assert fluid.allocation_passes == 1
        # Smoothing still ran every epoch: the rate converged.
        assert flow.rate_bps == pytest.approx(0.5e9, rel=1e-3)

    def test_reroute_marks_dirty(self, sim):
        topo = diamond(sim)
        flows = FlowSet()
        flow = flows.add(make_flow("h1", "h2", 0.5e9, path=SHORT))
        fluid = FluidNetwork(topo, flows, tcp_tau=0.0,
                             update_interval=0.01).start()
        sim.schedule(0.1, flow.set_path, LONG)
        sim.run(until=0.2)
        assert fluid.allocation_passes == 2
        assert fluid.last_result.link_load[("s3", "s4")] == \
            pytest.approx(0.5e9)

    def test_rewriting_same_path_stays_clean(self, sim):
        topo = diamond(sim)
        flows = FlowSet()
        flow = flows.add(make_flow("h1", "h2", 0.5e9, path=SHORT))
        fluid = FluidNetwork(topo, flows, update_interval=0.01).start()
        # A TE pass that re-installs the identical route must not defeat
        # the fast path.
        sim.schedule(0.1, flow.set_path, Path.of(list(SHORT.nodes)))
        sim.run(until=0.2)
        assert fluid.allocation_passes == 1

    def test_demand_change_marks_dirty(self, sim):
        topo = tandem(sim)
        flows = FlowSet()
        flow = flows.add(make_flow("h1", "h2", 0.2e9, path=PATH_A))
        fluid = FluidNetwork(topo, flows, tcp_tau=0.0,
                             update_interval=0.01).start()

        def pulse():
            flow.demand_bps = 0.9e9

        sim.schedule(0.1, pulse)
        sim.run(until=0.2)
        assert fluid.allocation_passes == 2
        assert flow.rate_bps == pytest.approx(0.9e9)

    def test_policing_marks_dirty(self, sim):
        topo = tandem(sim)
        flows = FlowSet()
        flow = flows.add(make_flow("h1", "h2", 0.8e9, path=PATH_A))
        fluid = FluidNetwork(topo, flows, tcp_tau=0.0,
                             update_interval=0.01).start()

        def police():
            flow.police_rate_bps = 0.1e9

        sim.schedule(0.1, police)
        sim.run(until=0.2)
        assert fluid.allocation_passes == 2
        assert flow.rate_bps == pytest.approx(0.1e9)

    def test_flow_add_and_activation_mark_dirty(self, sim):
        topo = tandem(sim)
        flows = FlowSet()
        flows.add(make_flow("h1", "h2", 0.2e9, path=PATH_A))
        fluid = FluidNetwork(topo, flows, update_interval=0.01).start()

        def join():
            flows.add(make_flow("h3", "h4", 0.2e9, path=PATH_B, sport=1))

        sim.schedule(0.05, join)
        # A third flow is registered up front but only activates at 0.15;
        # the activation alone must also trigger a pass.
        flows.add(make_flow("h3", "h4", 0.2e9, path=PATH_B, sport=2,
                            start_time=0.15))
        sim.run(until=0.25)
        assert fluid.allocation_passes == 3

    def test_link_addition_marks_dirty(self, sim):
        topo = tandem(sim)
        flows = FlowSet()
        flow = flows.add(make_flow("h1", "h2", 2e9, path=PATH_A))
        fluid = FluidNetwork(topo, flows, tcp_tau=0.0,
                             update_interval=0.01).start()
        sim.schedule(0.1, topo.add_duplex_link, "h3", "h4", 1e9, 0.001)
        sim.run(until=0.2)
        assert fluid.allocation_passes == 2
        assert flow.rate_bps == pytest.approx(1e9)
        assert topo.link("h3", "h4").fluid_load_bps == 0.0


class TestNonChainPaths:
    """A flow pinned to a path that names a node pair with no link is
    zero-routed, not a KeyError, until a reroute gives it a real path."""

    def test_update_zero_routes_non_chain_path(self, sim):
        topo = diamond(sim)
        flows = FlowSet()
        stranded = flows.add(make_flow("h1", "h2", 0.5e9, path=SHORT))
        detoured = flows.add(make_flow("h1", "h2", 0.5e9, path=LONG,
                                       sport=1))
        fluid = FluidNetwork(topo, flows, tcp_tau=0.0,
                             update_interval=0.01).start()
        sim.schedule(0.1, stranded.set_path, NOT_A_CHAIN)
        sim.run(until=0.2)
        assert stranded.rate_bps == 0.0
        assert stranded.goodput_bps == 0.0
        assert stranded.loss_rate == 1.0
        assert detoured.rate_bps == pytest.approx(0.5e9)

    def test_rerouted_flow_recovers(self, sim):
        topo = diamond(sim)
        flows = FlowSet()
        flow = flows.add(make_flow("h1", "h2", 0.5e9, path=NOT_A_CHAIN))
        fluid = FluidNetwork(topo, flows, tcp_tau=0.0,
                             update_interval=0.01).start()
        sim.run(until=0.1)
        assert flow.rate_bps == 0.0 and flow.loss_rate == 1.0
        sim.schedule(0.05, flow.set_path, LONG)
        sim.run(until=0.25)
        assert flow.rate_bps == pytest.approx(0.5e9)
        assert flow.loss_rate == 0.0
