#!/usr/bin/env python
"""Writing your own booster: a SYN-flood guard in ~80 lines.

The FastFlex platform promise: a defense author declares (1) a PPM
dataflow graph for the analyzer/scheduler, (2) the modes it
participates in, and (3) mode-gated runtime switch programs — and the
platform handles sharing, placement, and distributed activation.

This example builds a complete SYN-flood booster from scratch: a
count-min sketch of SYN rates per source (always on), a mode-gated
blocker, and a periodic trigger that initiates the mode change through
the local agent.  It is then deployed and exercised packet by packet.

Run:  python examples/custom_booster.py
"""

from repro.boosters import logic_ppm, parser_ppm, sketch_ppm
from repro.core import (Booster, DataflowGraph, FastFlexController,
                        GatedProgram, ModeSpec, PpmRole)
from repro.dataplane import CountMinSketch, ResourceVector
from repro.netsim import (Drop, FlowSet, PacketKind, Simulator, TcpFlags,
                          figure2_topology)
from repro.netsim.sources import PacketSource, ThroughputMeter


class SynGuardProgram(GatedProgram):
    """Counts SYNs per source; blocks flagged sources when gated on."""

    def __init__(self, booster, name):
        super().__init__(booster.name, name,
                         ResourceVector(stages=4, sram_mb=0.1, alus=4))
        self.booster = booster
        self.sketch = CountMinSketch(name, width=512, depth=4)

    def process(self, switch, packet):
        if packet.kind != PacketKind.DATA:
            return None
        if packet.tcp_flags & TcpFlags.SYN:
            self.sketch.update(packet.src)
        if packet.src in self.booster.blocked and self.enabled_on(switch):
            return Drop("syn_flood_guard")
        return None

    def export_state(self):
        return self.sketch.export_state()

    def import_state(self, state):
        self.sketch.import_state(state)


class SynFloodBooster(Booster):
    """SYN-flood detection (always counting) + mode-gated blocking."""

    name = "syn_guard"
    attack_types = ("syn_flood",)

    def __init__(self, syn_threshold=200, check_period_s=0.5):
        self.syn_threshold = syn_threshold
        self.check_period_s = check_period_s
        self.blocked = set()
        self.programs = {}

    def dataflow(self):
        graph = DataflowGraph(self.name)
        graph.add_ppm(parser_ppm(self.name, "parser",
                                 base=("src", "tcp_flags")))
        graph.add_ppm(sketch_ppm(self.name, "syn_counter", width=512,
                                 depth=4, factory=self._make_program))
        graph.add_ppm(logic_ppm(self.name, "blocker", PpmRole.MITIGATION,
                                ResourceVector(stages=1, alus=1)))
        graph.add_edge("parser", "syn_counter", weight=9)
        graph.add_edge("syn_counter", "blocker", weight=4)
        return graph

    def modes(self):
        return [ModeSpec.of("syn_block", "syn_flood",
                            boosters_on=(self.name,))]

    def always_on(self):
        return False  # counting is unconditional; blocking is the mode

    def _make_program(self, switch):
        program = SynGuardProgram(self, f"{self.name}.syn_counter")
        self.programs[switch.name] = program
        return program

    def on_deployed(self, deployment):
        sim = deployment.topo.sim
        # A bound method, not a closure: the event heap must stay
        # picklable for checkpoints.
        for switch_name in sorted(self.programs):
            sim.every(self.check_period_s, self._check, deployment,
                      switch_name, start=self.check_period_s)

    def _check(self, deployment, switch_name):
        program = self.programs.get(switch_name)
        agent = deployment.mode_agents.get(switch_name)
        if program is None or agent is None:
            return
        offenders = {src for src in self._candidate_sources(deployment)
                     if program.sketch.estimate(src) > self.syn_threshold}
        program.sketch.clear()
        if offenders:
            self.blocked |= offenders
            agent.initiate("syn_flood", "syn_block")

    @staticmethod
    def _candidate_sources(deployment):
        return deployment.topo.host_names


def main() -> None:
    sim = Simulator(seed=2)
    net = figure2_topology(sim)

    booster = SynFloodBooster(syn_threshold=100)
    controller = FastFlexController(net.topo, [booster])
    deployment = controller.setup(FlowSet())
    print(f"deployed syn_guard on "
          f"{len(deployment.placement.assignments)} switches "
          f"(verifier: clean)")

    meter = ThroughputMeter(net.topo, "victim", window_s=0.5)
    legit = PacketSource(net.topo, "client0", "victim", rate_pps=50,
                         size_bytes=600, tcp_flags=TcpFlags.ACK).start()
    flood = PacketSource(net.topo, "bot0", "victim", rate_pps=500,
                         size_bytes=60,
                         tcp_flags=TcpFlags.SYN).start(delay_s=2.0)

    sim.run(until=8.0)

    active = deployment.bus.switches_in_mode("syn_flood", "syn_block")
    first = deployment.bus.first_activation("syn_flood", "syn_block")
    print(f"\nflood started t=2.0s; syn_block mode initiated "
          f"t={first.time:.2f}s, active on {len(active)} switches")
    print(f"blocked sources: {sorted(booster.blocked)}")
    print(f"victim deliveries — legit client: "
          f"{meter.delivered('client0')}/{legit.packets_sent} sent; "
          f"SYN flood: {meter.delivered('bot0')}/{flood.packets_sent} "
          f"sent")
    drops = sum(
        net.topo.switch(s).stats.packets_dropped_by_program
        for s in net.topo.switch_names)
    print(f"packets dropped by the guard: {drops}")


if __name__ == "__main__":
    main()
