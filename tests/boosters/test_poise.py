"""Tests for the Poise-style context-aware access control booster."""

import pickle

import pytest

from repro.boosters import (AccessPolicy, CONTEXT_HEADER, PoiseBooster)
from repro.core import ModeEventBus, ModeRegistry, install_mode_agents
from repro.netsim import Packet


def make_booster():
    return PoiseBooster(policies=[
        AccessPolicy.require("managed_devices_only", ["victim"],
                             device="managed"),
        AccessPolicy.deny_all("default_deny", ["victim"]),
    ])


@pytest.fixture
def deployed(fig2, sim):
    booster = make_booster()
    registry = ModeRegistry()
    for spec in booster.modes():
        registry.register(spec)
    agents = install_mode_agents(fig2.topo, registry, bus=ModeEventBus())
    switch = fig2.topo.switch("sL")
    switch.install_program(booster._make_program(switch))
    return fig2, booster, agents


def send(fig2, sim, context=None, dst="victim", src="client0"):
    headers = {} if context is None else {CONTEXT_HEADER: context}
    pkt = Packet(src=src, dst=dst, headers=headers)
    fig2.topo.host(src).originate(pkt)
    sim.run(until=sim.now + 0.2)
    return pkt


class TestPolicyEvaluation:
    def test_require_matches_context(self):
        booster = make_booster()
        assert booster.evaluate("victim", {"device": "managed"})
        assert not booster.evaluate("victim", {"device": "byod"})
        assert not booster.evaluate("victim", {})

    def test_require_policy_pickles(self):
        # Policies are reachable from engine checkpoints.
        policy = AccessPolicy.require("managed", ["victim"], device="managed")
        clone = pickle.loads(pickle.dumps(policy))
        assert clone == policy
        assert clone.predicate({"device": "managed"})
        assert not clone.predicate({"device": "byod"})

    def test_unprotected_destination_default_allow(self):
        booster = make_booster()
        assert booster.evaluate("elsewhere", {})

    def test_priority_orders_rules(self):
        booster = PoiseBooster(policies=[
            AccessPolicy("deny_guests", frozenset({"srv"}),
                         lambda ctx: ctx.get("role") == "guest",
                         allow=False, priority=20),
            AccessPolicy.require("anyone_managed", ["srv"],
                                 device="managed"),
        ])
        assert booster.evaluate("srv", {"device": "managed",
                                        "role": "employee"})
        assert not booster.evaluate("srv", {"device": "managed",
                                            "role": "guest"})


class TestEnforcement:
    def test_managed_device_admitted(self, deployed, sim):
        fig2, booster, agents = deployed
        pkt = send(fig2, sim, context={"device": "managed"})
        assert pkt.dropped is None
        assert fig2.topo.host("victim").received_count() == 1

    def test_byod_denied(self, deployed, sim):
        fig2, booster, agents = deployed
        pkt = send(fig2, sim, context={"device": "byod"})
        assert pkt.dropped == "poise_policy_denied"
        assert booster.programs["sL"].packets_denied == 1

    def test_unprotected_destination_untouched(self, deployed, sim):
        fig2, booster, agents = deployed
        pkt = send(fig2, sim, dst="decoy0")
        assert pkt.dropped is None

    def test_enforcement_active_in_default_mode(self, deployed, sim):
        """Access control is not mode gated — it IS the default."""
        fig2, booster, agents = deployed
        table = agents["sL"].mode_table
        assert not table.booster_enabled("poise")  # quarantine off...
        pkt = send(fig2, sim, context={"device": "byod"})
        assert pkt.dropped == "poise_policy_denied"  # ...but rules apply


class TestQuarantine:
    def test_contextless_allowed_normally(self, deployed, sim):
        fig2, booster, agents = deployed
        # Missing context evaluates against {}: default_deny applies for
        # the protected destination, so it is still denied by policy —
        # but as a policy denial, not a quarantine.
        pkt = send(fig2, sim, context=None)
        assert pkt.dropped == "poise_policy_denied"
        assert booster.programs["sL"].packets_quarantined == 0

    def test_quarantine_rejects_contextless_outright(self, deployed, sim):
        fig2, booster, agents = deployed
        agents["sL"].initiate("endpoint_compromise", "quarantine")
        sim.run(until=sim.now + 0.5)
        pkt = send(fig2, sim, context=None)
        assert pkt.dropped == "poise_no_context"
        assert booster.programs["sL"].packets_quarantined == 1

    def test_quarantine_still_admits_valid_context(self, deployed, sim):
        fig2, booster, agents = deployed
        agents["sL"].initiate("endpoint_compromise", "quarantine")
        sim.run(until=sim.now + 0.5)
        pkt = send(fig2, sim, context={"device": "managed"})
        assert pkt.dropped is None
