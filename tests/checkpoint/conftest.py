"""Checkpoint-test isolation.

``unpack_state`` intentionally mutates the process-wide telemetry layer
(it restores the packed registry and trace state).  Tests elsewhere in
the suite assume that layer starts quiet, so restore it after every
test here.
"""

import pytest

from repro import telemetry


@pytest.fixture(autouse=True)
def _quiet_telemetry_after():
    trace = telemetry.trace()
    enabled_before = trace.enabled
    yield
    trace.enabled = enabled_before
    telemetry.reset()
