"""Seeded streams only; RPL001 stays quiet."""
import random

from repro.sweep.spec import derive_seed


def make_stream(seed):
    return random.Random(seed)


def derived_stream(experiment, params, logical_seed):
    return random.Random(derive_seed(experiment, params, logical_seed))


def labeled_stream(sim):
    return random.Random(f"probe:{sim.seed}")


def draw(rng):
    return rng.random()
