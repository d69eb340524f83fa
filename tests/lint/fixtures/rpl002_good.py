"""Simulation clock and telemetry timers only."""
from repro.telemetry import phase_timer


def elapsed(sim):
    return sim.now


def profiled(registry):
    with phase_timer("allocate", registry=registry) as timing:
        pass
    return timing.elapsed


def schedule(sim, delay_s):
    return sim.now + delay_s
