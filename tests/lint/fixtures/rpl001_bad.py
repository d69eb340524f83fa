"""Every flavour of unseeded randomness RPL001 must flag."""
import importlib
import random


def jitter():
    return random.random()  # EXPECT: RPL001


def make_stream():
    return random.Random()  # EXPECT: RPL001


def os_entropy():
    return random.SystemRandom()  # EXPECT: RPL001


def reseed_global():
    random.seed(42)  # EXPECT: RPL001


def smuggled():
    rng = __import__("random")  # EXPECT: RPL001
    return rng.random()


def smuggled_importlib():
    return importlib.import_module("random")  # EXPECT: RPL001
