"""Tests for the multimode abstraction: registry, tables, event bus."""

import pytest

from repro.core import (DEFAULT_MODE, ModeChangeEvent, ModeEventBus,
                        ModeRegistry, ModeSpec, ModeTable)


@pytest.fixture
def registry():
    reg = ModeRegistry()
    reg.register(ModeSpec.of("lfa_mitigate", "lfa",
                             boosters_on=("reroute", "dropper")))
    reg.register(ModeSpec.of("lfa_aggressive", "lfa",
                             boosters_on=("dropper",), priority=5))
    reg.register(ModeSpec.of("ddos_filter", "ddos",
                             boosters_on=("hh_filter",)))
    reg.always_on.add("detector")
    return reg


class TestRegistry:
    def test_duplicate_mode_rejected(self, registry):
        with pytest.raises(ValueError):
            registry.register(ModeSpec.of("lfa_mitigate", "lfa", ()))

    def test_default_mode_is_implicit(self, registry):
        with pytest.raises(ValueError):
            registry.register(ModeSpec.of(DEFAULT_MODE, "lfa", ()))
        spec = registry.get("lfa", DEFAULT_MODE)
        assert spec.boosters_on == frozenset()

    def test_unknown_mode_raises(self, registry):
        with pytest.raises(KeyError):
            registry.get("lfa", "ghost_mode")

    def test_attack_types_listed(self, registry):
        assert registry.attack_types() == ["ddos", "lfa"]


class TestModeTable:
    def test_starts_in_default(self, registry):
        table = ModeTable(registry)
        assert table.mode_for("lfa") == DEFAULT_MODE
        assert table.epoch_for("lfa") == 0
        assert table.active_modes() == {}

    def test_apply_newer_epoch_wins(self, registry):
        table = ModeTable(registry)
        assert table.apply("lfa", "lfa_mitigate", 1)
        assert table.mode_for("lfa") == "lfa_mitigate"
        assert not table.apply("lfa", "lfa_mitigate", 1)  # duplicate
        assert not table.apply("lfa", DEFAULT_MODE, 0)    # stale

    def test_epochs_monotone(self, registry):
        table = ModeTable(registry)
        table.apply("lfa", "lfa_mitigate", 3)
        table.apply("lfa", DEFAULT_MODE, 7)
        assert table.epoch_for("lfa") == 7
        assert not table.apply("lfa", "lfa_mitigate", 5)
        assert table.mode_for("lfa") == DEFAULT_MODE

    def test_equal_epoch_resolved_by_priority(self, registry):
        a = ModeTable(registry)
        b = ModeTable(registry)
        # Two concurrent epoch-1 updates in opposite orders must converge.
        a.apply("lfa", "lfa_mitigate", 1)
        a.apply("lfa", "lfa_aggressive", 1)
        b.apply("lfa", "lfa_aggressive", 1)
        b.apply("lfa", "lfa_mitigate", 1)
        assert a.mode_for("lfa") == b.mode_for("lfa") == "lfa_aggressive"

    def test_attack_types_independent(self, registry):
        table = ModeTable(registry)
        table.apply("lfa", "lfa_mitigate", 1)
        table.apply("ddos", "ddos_filter", 1)
        assert table.active_modes() == {"lfa": "lfa_mitigate",
                                        "ddos": "ddos_filter"}

    def test_booster_gating(self, registry):
        table = ModeTable(registry)
        assert table.booster_enabled("detector")       # always on
        assert not table.booster_enabled("reroute")
        table.apply("lfa", "lfa_mitigate", 1)
        assert table.booster_enabled("reroute")
        assert table.booster_enabled("dropper")
        assert not table.booster_enabled("hh_filter")
        table.apply("lfa", DEFAULT_MODE, 2)
        assert not table.booster_enabled("reroute")

    def test_unknown_mode_rejected_on_apply(self, registry):
        table = ModeTable(registry)
        with pytest.raises(KeyError):
            table.apply("lfa", "nonexistent", 1)

    def test_listeners_see_transitions(self, registry):
        table = ModeTable(registry)
        events = []
        table.on_change(lambda *args: events.append(args))
        table.apply("lfa", "lfa_mitigate", 1)
        table.apply("lfa", DEFAULT_MODE, 2)
        assert events == [("lfa", DEFAULT_MODE, "lfa_mitigate", 1),
                          ("lfa", "lfa_mitigate", DEFAULT_MODE, 2)]

    def test_next_epoch(self, registry):
        table = ModeTable(registry)
        assert table.next_epoch("lfa") == 1
        table.apply("lfa", "lfa_mitigate", 4)
        assert table.next_epoch("lfa") == 5


class TestEventBus:
    def event(self, t, switch, mode, epoch=1, attack="lfa"):
        return ModeChangeEvent(time=t, switch=switch, attack_type=attack,
                               old_mode=DEFAULT_MODE, new_mode=mode,
                               epoch=epoch)

    def test_switches_in_mode_uses_latest(self):
        bus = ModeEventBus()
        bus.publish(self.event(1.0, "s1", "lfa_mitigate"))
        bus.publish(self.event(2.0, "s1", DEFAULT_MODE, epoch=2))
        bus.publish(self.event(1.5, "s2", "lfa_mitigate"))
        assert bus.switches_in_mode("lfa", "lfa_mitigate") == {"s2"}

    def test_first_activation(self):
        bus = ModeEventBus()
        bus.publish(self.event(1.0, "s1", "lfa_mitigate"))
        bus.publish(self.event(2.0, "s2", "lfa_mitigate"))
        first = bus.first_activation("lfa", "lfa_mitigate")
        assert first.switch == "s1"
        assert bus.first_activation("ddos", "x") is None
