"""Tests for runtime switch repurposing and scale-out (§3.4, Fig. 1d)."""

import pytest

from repro.core import ScalingManager, StateTransferService
from repro.dataplane import CountMinSketch
from repro.netsim import Packet, SwitchProgram


class Stateful(SwitchProgram):
    def __init__(self, name="app"):
        super().__init__(name)
        self.sketch = CountMinSketch(name, width=16, depth=2)

    def process(self, switch, packet):
        return None

    def export_state(self):
        return self.sketch.export_state()

    def import_state(self, state):
        self.sketch.import_state(state)


@pytest.fixture
def manager(fig2):
    service = StateTransferService(fig2.topo)
    service.install_agents()
    return ScalingManager(fig2.topo, service, reconfig_seconds=1.0)


class TestRepurpose:
    def test_swap_installs_after_downtime(self, fig2, sim, manager):
        switch = fig2.topo.switch("s1")
        switch.install_program(Stateful("old_app"))
        done = []
        record = manager.repurpose(
            "s1", remove=["old_app"],
            install=[lambda: Stateful("new_app")],
            on_complete=done.append)
        sim.run(until=0.5)
        assert switch.reconfiguring  # mid-window
        assert not switch.has_program("old_app")
        sim.run(until=2.0)
        assert done and not switch.reconfiguring
        assert switch.has_program("new_app")
        assert record.completed_at == pytest.approx(1.0, abs=0.05)

    def test_neighbors_told_to_avoid_then_cleared(self, fig2, sim, manager):
        manager.repurpose("s1", remove=[], install=[])
        sim.run(until=0.5)
        assert "s1" in fig2.topo.switch("sL").avoid_neighbors
        sim.run(until=2.0)
        assert "s1" not in fig2.topo.switch("sL").avoid_neighbors

    def test_traffic_fast_reroutes_during_downtime(self, fig2, sim,
                                                   manager):
        manager.repurpose("s1", remove=[], install=[])
        sent = []

        def probe():
            pkt = Packet(src="client0", dst="victim")
            fig2.topo.host("client0").originate(pkt)
            sent.append(pkt)

        sim.schedule(0.5, probe)   # during the window
        sim.run(until=3.0)
        pkt = sent[0]
        assert pkt.dropped is None
        assert "s1" not in pkt.path_taken
        assert fig2.topo.host("victim").received_count() == 1

    def test_hitless_mode_keeps_forwarding(self, fig2, sim, manager):
        switch = fig2.topo.switch("s1")
        manager.repurpose("s1", remove=[], install=[], hitless=True)
        sim.run(until=0.1)
        assert not switch.reconfiguring

    def test_state_shipped_to_takeover_switch(self, fig2, sim, manager):
        switch = fig2.topo.switch("s1")
        program = Stateful("app")
        for i in range(30):
            program.sketch.update(i % 5)
        switch.install_program(program)
        record = manager.repurpose("s1", remove=["app"],
                                   transfer_state_to="s2")
        sim.run(until=3.0)
        assert record.state_transfer_id is not None
        assert record.state_transfer_ok is True

    def test_double_repurpose_rejected(self, fig2, sim, manager):
        manager.repurpose("s1")
        sim.run(until=0.05)
        with pytest.raises(RuntimeError):
            manager.repurpose("s1")

    def test_records_accumulate(self, fig2, sim, manager):
        manager.repurpose("s1")
        sim.run(until=3.0)
        manager.repurpose("s2", hitless=True)
        sim.run(until=6.0)
        assert [r.switch for r in manager.records] == ["s1", "s2"]
        assert manager.records[0].downtime_s == 1.0
        assert manager.records[1].downtime_s == 0.0


class TestScaleOut:
    def test_new_instance_with_copied_state(self, fig2, sim, manager):
        source = fig2.topo.switch("s1")
        program = Stateful("app")
        for _ in range(10):
            program.sketch.update("hot_key")
        source.install_program(program)

        ready = []
        manager.scale_out("app", "s1", "s2", factory=lambda: Stateful("app"),
                          on_ready=ready.append)
        sim.run(until=2.0)
        assert ready == [True]
        assert manager.instances_of("app") == ["s1", "s2"]
        replica = fig2.topo.switch("s2").get_program("app")
        assert replica.sketch.estimate("hot_key") == 10

    def test_missing_source_program_raises(self, fig2, manager):
        with pytest.raises(KeyError):
            manager.scale_out("ghost", "s1", "s2",
                              factory=lambda: Stateful("ghost"))

    def test_validation(self, fig2):
        service = StateTransferService(fig2.topo)
        with pytest.raises(ValueError):
            ScalingManager(fig2.topo, service, reconfig_seconds=-1.0)
