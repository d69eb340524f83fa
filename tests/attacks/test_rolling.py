"""Tests for the rolling attacker's feedback loop."""

import pytest

from repro.attacks import RollingAttacker
from repro.netsim import (FlowSet, FluidNetwork, Path, install_path_route)


@pytest.fixture
def scene(fig2):
    fluid = FluidNetwork(fig2.topo, FlowSet())
    attacker = RollingAttacker(
        fig2.topo, fluid, bots=fig2.bot_hosts, decoys=fig2.decoy_servers,
        victim=fig2.victim, check_period_s=0.5, reaction_delay_s=0.5,
        connections_per_bot=100, per_connection_bps=10e6)
    return fig2, fluid, attacker


class TestRolling:
    def test_no_route_change_no_roll(self, scene, sim):
        net, fluid, attacker = scene
        attacker.map_then_attack()
        fluid.start()
        sim.run(until=10.0)
        assert attacker.roll_count == 0

    def test_visible_route_change_triggers_roll(self, scene, sim):
        net, fluid, attacker = scene
        attacker.map_then_attack()
        fluid.start()
        sim.run(until=3.0)
        original = list(attacker.target_hops)
        # The operator reroutes victim-bound traffic onto a detour —
        # visibly (switch tables change, as an SDN TE deploy would).
        new_path = Path.of(["sL", "s3", "s4", "sR", "victim"])
        install_path_route(net.topo, new_path, dst="victim")
        sim.run(until=8.0)
        assert attacker.roll_count == 1
        assert attacker.target_hops == ["sL", "s3", "s4", "sR"]
        assert attacker.target_hops != original
        # The flood followed the roll.
        for flow in attacker.flows:
            assert ("s3", "s4") in flow.path.links()

    def test_roll_events_logged(self, scene, sim):
        net, fluid, attacker = scene
        attacker.map_then_attack()
        fluid.start()
        sim.run(until=3.0)
        install_path_route(net.topo,
                           Path.of(["sL", "s5", "s6", "sR", "victim"]),
                           dst="victim")
        sim.run(until=8.0)
        kinds = [e.kind for e in attacker.events]
        assert "roll_detected" in kinds and "roll" in kinds

    def test_max_rolls_bounds_adaptation(self, scene, sim):
        net, fluid, attacker = scene
        attacker.max_rolls = 1
        attacker.map_then_attack()
        fluid.start()
        sim.run(until=3.0)
        install_path_route(net.topo,
                           Path.of(["sL", "s3", "s4", "sR", "victim"]),
                           dst="victim")
        sim.run(until=6.0)
        install_path_route(net.topo,
                           Path.of(["sL", "s5", "s6", "sR", "victim"]),
                           dst="victim")
        sim.run(until=12.0)
        assert attacker.roll_count == 1

    def test_starvation_on_stable_path_reads_as_success(self, scene, sim):
        net, fluid, attacker = scene
        attacker.map_then_attack()
        fluid.start()
        sim.run(until=3.0)
        # Police the attack to a trickle without any visible route change
        # (what the FastFlex dropper does).
        for flow in attacker.flows:
            flow.police_rate_bps = 0.01 * flow.demand_bps
        sim.run(until=8.0)
        assert attacker.perceived_success
        assert attacker.roll_count == 0

    def test_reaction_delay_respected(self, scene, sim):
        net, fluid, attacker = scene
        attacker.reaction_delay_s = 2.0
        attacker.map_then_attack()
        fluid.start()
        sim.run(until=3.0)
        install_path_route(net.topo,
                           Path.of(["sL", "s3", "s4", "sR", "victim"]),
                           dst="victim")
        sim.run(until=20.0)
        detected = next(e.time for e in attacker.events
                        if e.kind == "roll_detected")
        rolled = next(e.time for e in attacker.events if e.kind == "roll")
        assert rolled - detected == pytest.approx(2.0, abs=0.01)


class TestArgumentChecks:
    @pytest.mark.parametrize("kwargs, error, message", [
        ({"check_period_s": 0.0}, ValueError,
         "check_period_s must be finite and positive"),
        ({"reaction_delay_s": -1.0}, ValueError,
         "reaction_delay_s must be finite and >= 0"),
        ({"reaction_delay_s": float("nan")}, ValueError,
         "reaction_delay_s must be finite and >= 0"),
        ({"max_rolls": -1}, ValueError,
         "max_rolls must be None or finite and >= 0"),
        ({"max_rolls": "x"}, TypeError, "not supported between"),
    ], ids=["check_period", "negative_delay", "nan_delay", "negative_rolls",
            "str_rolls"])
    def test_bad_argument_rejected_before_any_side_effect(
            self, fig2, sim, kwargs, error, message):
        """Regression: these were accepted and then failed about a second
        of simulated time later, inside the attacker's own events."""
        fluid = FluidNetwork(fig2.topo, FlowSet())
        with pytest.raises(error, match=message):
            RollingAttacker(fig2.topo, fluid, bots=fig2.bot_hosts,
                            decoys=fig2.decoy_servers, victim=fig2.victim,
                            **kwargs)
        assert sim.pending() == 0
