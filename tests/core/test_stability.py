"""Tests for the anti-flapping stability guard (§6)."""

import pytest

from repro.core import StabilityGuard


class TestDwell:
    def test_first_change_always_allowed(self):
        guard = StabilityGuard(min_dwell_s=1.0)
        assert guard.allow_change("lfa", "mitigate", now=0.0)

    def test_change_within_dwell_blocked(self):
        guard = StabilityGuard(min_dwell_s=1.0)
        guard.record_change("lfa", "mitigate", now=0.0)
        assert not guard.allow_change("lfa", "default", now=0.5)
        assert guard.stats.blocked_dwell == 1

    def test_change_after_dwell_allowed(self):
        guard = StabilityGuard(min_dwell_s=1.0)
        guard.record_change("lfa", "mitigate", now=0.0)
        assert guard.allow_change("lfa", "default", now=1.5)

    def test_reasserting_current_mode_always_allowed(self):
        guard = StabilityGuard(min_dwell_s=10.0)
        guard.record_change("lfa", "mitigate", now=0.0)
        assert guard.allow_change("lfa", "mitigate", now=0.1)

    def test_attack_types_tracked_independently(self):
        guard = StabilityGuard(min_dwell_s=1.0)
        guard.record_change("lfa", "mitigate", now=0.0)
        assert guard.allow_change("ddos", "filter", now=0.1)


class TestFlapLock:
    def make_flapping_guard(self):
        return StabilityGuard(min_dwell_s=0.0, max_changes=3,
                              window_s=10.0, cooldown_s=100.0)

    def test_rapid_changes_trip_the_lock(self):
        guard = self.make_flapping_guard()
        for i in range(4):
            mode = "mitigate" if i % 2 == 0 else "default"
            guard.record_change("lfa", mode, now=float(i))
        assert guard.stats.locks_triggered == 1
        assert 5.0 < guard._locked_until.get("lfa", 0.0)
        assert not guard.allow_change("lfa", "default", now=5.0)
        assert guard.stats.blocked_cooldown == 1

    def test_lock_expires_after_cooldown(self):
        guard = self.make_flapping_guard()
        for i in range(4):
            guard.record_change("lfa", f"m{i % 2}", now=float(i))
        assert guard.allow_change("lfa", "default", now=3.0 + 101.0)

    def test_slow_changes_never_lock(self):
        guard = self.make_flapping_guard()
        for i in range(10):
            guard.record_change("lfa", f"m{i % 2}", now=float(i * 20))
        assert guard.stats.locks_triggered == 0

    def test_window_slides(self):
        guard = StabilityGuard(min_dwell_s=0.0, max_changes=2,
                               window_s=1.0, cooldown_s=10.0)
        guard.record_change("lfa", "a", now=0.0)
        guard.record_change("lfa", "b", now=5.0)
        guard.record_change("lfa", "a", now=10.0)
        # Never more than 2 inside any 1 s window.
        assert guard.stats.locks_triggered == 0


class TestValidation:
    def test_invalid_intervals_rejected(self):
        with pytest.raises(ValueError):
            StabilityGuard(min_dwell_s=-1.0)
        with pytest.raises(ValueError):
            StabilityGuard(window_s=0.0)
        with pytest.raises(ValueError):
            StabilityGuard(max_changes=0)

    def test_allowed_counter_tracks_records(self):
        guard = StabilityGuard(min_dwell_s=0.0)
        guard.record_change("lfa", "a", 0.0)
        guard.record_change("lfa", "b", 1.0)
        assert guard.stats.allowed == 2
