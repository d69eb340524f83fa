"""Batch-path equivalence and plumbing tests at the netsim layer.

The contract under test: delivering a window of packets through
``ProgrammableSwitch.receive_batch`` / ``Link.send_batch`` leaves every
program structure, every counter, and every per-packet drop decision in
exactly the state the per-packet path produces.  Plus the plumbing:
batch sources, host batch origination, scalar-program fallback, and the
batch telemetry counters.
"""

import random

import pytest

from repro.boosters.heavy_hitter import (HeavyHitterFilterProgram,
                                         HeavyHitterProgram)
from repro.boosters.hop_count import (HopCountFilterBooster,
                                      HopCountFilterProgram)
from repro.boosters.lfa_detector import LfaDetectorProgram
from repro.boosters.packet_dropper import PacketDropperProgram
from repro.boosters.rate_limiter import (TENANT_HEADER,
                                         GlobalRateLimiterBooster,
                                         RateLimiterProgram)
from repro.netsim import (BatchPacketSource, Consume, Drop, Forward, Packet,
                          PacketKind, Protocol, Simulator, SwitchProgram,
                          Topology)

SEEDS = range(50)


def build_topology(seed):
    """One switch, one destination host, the five batch-capable boosters."""
    sim = Simulator(seed=seed)
    topo = Topology(sim)
    topo.add_switch("s1")
    topo.add_host("h_dst", gateway="s1")
    topo.add_duplex_link("s1", "h_dst", 10e9, 0.001)
    sw = topo.switch("s1")
    sw.set_route("h_dst", ["h_dst"])
    hh = HeavyHitterProgram("hh", "hh.counter", stages=2, slots_per_stage=8)
    filt = HeavyHitterFilterProgram("hh.filter", "hh.filter")
    filt.flag("src3")
    filt.flag("src7")
    dropper = PacketDropperProgram("dropper", "dropper.blocklist",
                                   size_bits=512)
    limiter = RateLimiterProgram(
        GlobalRateLimiterBooster(limits={"tA": 1.0}),
        "rate_limiter.tenant_counts")
    hop = HopCountFilterProgram(HopCountFilterBooster(),
                                "hop_count.hc_table")
    lfa = LfaDetectorProgram("lfa_detector", "lfa_detector.flow_state",
                             capacity=64)
    programs = (hh, filt, dropper, limiter, hop, lfa)
    for program in programs:
        sw.install_program(program)
    return sim, topo, sw, programs


def make_packets(seed, dropper):
    rng = random.Random(seed)
    packets = []
    for _ in range(150):
        packet = Packet(
            src=f"src{rng.randrange(10)}", dst="h_dst",
            size_bytes=rng.choice([64, 512, 1500]),
            proto=Protocol.UDP, sport=rng.randrange(4), dport=80,
            ttl=64 - rng.randrange(3),
            headers=({TENANT_HEADER: "tA"} if rng.random() < 0.5 else {}))
        if rng.random() < 0.1:
            packet.kind = PacketKind.PROBE
        packets.append(packet)
        if rng.random() < 0.05:
            dropper.block(packet.flow_key)
    return packets


class TestSwitchBatchEquivalence:
    @pytest.mark.parametrize("seed", SEEDS)
    def test_batch_path_is_byte_identical(self, seed):
        sim_a, topo_a, sw_a, progs_a = build_topology(seed)
        sim_b, topo_b, sw_b, progs_b = build_topology(seed)
        pkts_a = make_packets(seed + 1000, progs_a[2])
        pkts_b = make_packets(seed + 1000, progs_b[2])

        for packet in pkts_a:
            sw_a.receive(packet)
        sw_b.receive_batch(pkts_b)
        sim_a.run()
        sim_b.run()

        # Per-structure state is byte-identical.
        hh_a, filt_a, dropper_a, limiter_a, hop_a, lfa_a = progs_a
        hh_b, filt_b, dropper_b, limiter_b, hop_b, lfa_b = progs_b
        assert hh_a.pipe.export_state() == hh_b.pipe.export_state()
        assert (dropper_a.blocklist.export_state()
                == dropper_b.blocklist.export_state())
        assert limiter_a.export_state() == limiter_b.export_state()
        assert hop_a.learned == hop_b.learned
        assert lfa_a.table.export_state() == lfa_b.table.export_state()
        assert (filt_a.packets_dropped, dropper_a.packets_dropped,
                limiter_a.packets_dropped, hop_a.packets_dropped,
                hop_a.mismatches) == \
               (filt_b.packets_dropped, dropper_b.packets_dropped,
                limiter_b.packets_dropped, hop_b.packets_dropped,
                hop_b.mismatches)

        # Same forwarding stats and the same per-packet drop decisions.
        stats_a, stats_b = sw_a.stats, sw_b.stats
        assert (stats_a.packets_forwarded, stats_a.packets_dropped_by_program,
                stats_a.packets_consumed, stats_a.ttl_expired,
                stats_a.packets_dropped_no_route) == \
               (stats_b.packets_forwarded, stats_b.packets_dropped_by_program,
                stats_b.packets_consumed, stats_b.ttl_expired,
                stats_b.packets_dropped_no_route)
        assert ([p.dropped for p in pkts_a]
                == [p.dropped for p in pkts_b])
        host_a, host_b = topo_a.host("h_dst"), topo_b.host("h_dst")
        assert dict(host_a.received_by_kind) == dict(host_b.received_by_kind)


class _ScalarTagger(SwitchProgram):
    """A per-packet-only program (no batch kernel) used to exercise the
    fallback path."""

    def __init__(self):
        super().__init__("tagger")
        self.seen = 0

    def process(self, switch, packet):
        self.seen += 1
        packet.headers["tagged"] = True
        if packet.headers.get("please_drop"):
            return Drop("tagged_drop")
        if packet.headers.get("please_consume"):
            return Consume()
        if packet.headers.get("detour"):
            return Forward(packet.headers["detour"])
        return None


class TestFallbackAndDecisions:
    def test_scalar_program_falls_back_per_packet(self):
        sim = Simulator(seed=0)
        topo = Topology(sim)
        topo.add_switch("s1")
        topo.add_host("h_dst", gateway="s1")
        topo.add_duplex_link("s1", "h_dst", 10e9, 0.001)
        sw = topo.switch("s1")
        sw.set_route("h_dst", ["h_dst"])
        tagger = _ScalarTagger()
        sw.install_program(tagger)

        packets = [Packet(src="a", dst="h_dst") for _ in range(5)]
        packets[1].headers["please_drop"] = True
        packets[3].headers["please_consume"] = True
        sw.receive_batch(packets)
        sim.run()

        assert tagger.seen == 5
        assert all(p.headers.get("tagged") for p in packets)
        assert packets[1].dropped == "tagged_drop"
        assert sw.stats.packets_dropped_by_program == 1
        assert sw.stats.packets_consumed == 1
        assert sw.stats.packets_forwarded == 3
        assert topo.host("h_dst").received_count() == 3

    def test_forward_override_applies_on_batch_path(self):
        sim = Simulator(seed=0)
        topo = Topology(sim)
        topo.add_switch("s1")
        topo.add_switch("s2")
        topo.add_host("h_dst", gateway="s2")
        topo.add_duplex_link("s1", "h_dst", 10e9, 0.001)
        topo.add_duplex_link("s1", "s2", 10e9, 0.001)
        topo.add_duplex_link("s2", "h_dst", 10e9, 0.001)
        sw1, sw2 = topo.switch("s1"), topo.switch("s2")
        sw1.set_route("h_dst", ["h_dst"])  # default: direct
        sw2.set_route("h_dst", ["h_dst"])
        sw1.install_program(_ScalarTagger())

        packet = Packet(src="a", dst="h_dst", headers={"detour": "s2"})
        sw1.receive_batch([packet])
        sim.run()
        assert packet.path_taken[:2] == ["s1", "s2"]

    def test_reconfiguring_switch_drops_whole_batch(self):
        sim = Simulator(seed=0)
        topo = Topology(sim)
        topo.add_switch("s1")
        topo.add_host("h_dst", gateway="s1")
        topo.add_duplex_link("s1", "h_dst", 10e9, 0.001)
        sw = topo.switch("s1")
        sw.set_route("h_dst", ["h_dst"])
        sw.reconfiguring = True
        packets = [Packet(src="a", dst="h_dst") for _ in range(3)]
        sw.receive_batch(packets)
        assert sw.stats.packets_dropped_reconfig == 3
        assert all(p.dropped == "switch_reconfiguring" for p in packets)

    def test_ttl_expiry_leaves_batch_and_replies(self):
        sim = Simulator(seed=0)
        topo = Topology(sim)
        topo.add_switch("s1")
        topo.add_host("h_src", gateway="s1")
        topo.add_host("h_dst", gateway="s1")
        topo.add_duplex_link("s1", "h_src", 10e9, 0.001)
        topo.add_duplex_link("s1", "h_dst", 10e9, 0.001)
        sw = topo.switch("s1")
        sw.set_route("h_dst", ["h_dst"])
        sw.set_route("h_src", ["h_src"])
        expired = Packet(src="h_src", dst="h_dst", ttl=1,
                         kind=PacketKind.TRACEROUTE)
        healthy = Packet(src="h_src", dst="h_dst")
        sw.receive_batch([expired, healthy])
        sim.run()
        assert sw.stats.ttl_expired == 1
        assert topo.host("h_dst").received_count() == 1
        assert topo.host("h_src").received_count(
            PacketKind.ICMP_TTL_EXCEEDED) == 1


class TestLinkSendBatch:
    def _link(self, queue_bytes=None):
        sim = Simulator(seed=0)
        topo = Topology(sim)
        topo.add_switch("s1")
        topo.add_host("h", gateway="s1")
        kwargs = {} if queue_bytes is None else {"queue_bytes": queue_bytes}
        topo.add_duplex_link("s1", "h", 1e9, 0.001, **kwargs)
        return sim, topo, topo.link("s1", "h")

    def test_accepts_and_delivers_as_one_window(self):
        sim, topo, link = self._link()
        packets = [Packet(src="a", dst="h", size_bytes=1000)
                   for _ in range(10)]
        events_before = sim.pending()
        assert link.send_batch(packets) == 10
        # One delivery event + one serializer-free event, not 10 pairs.
        assert sim.pending() - events_before == 2
        sim.run()
        assert topo.host("h").received_count() == 10
        assert link.stats.packets_sent == 10
        assert link.stats.bytes_sent == 10_000

    def test_queue_overflow_matches_sequential_admission(self):
        # Queue fits 3 x 1000B: the 4th+ packets tail-drop, like send().
        sim, topo, link = self._link(queue_bytes=3000)
        packets = [Packet(src="a", dst="h", size_bytes=1000)
                   for _ in range(5)]
        accepted = link.send_batch(packets)
        assert accepted == 3
        assert link.stats.packets_dropped_queue == 2
        assert [p.dropped for p in packets] == \
            [None, None, None, "queue_overflow", "queue_overflow"]

    def test_down_link_drops_everything(self):
        sim, topo, link = self._link()
        link.set_down()
        packets = [Packet(src="a", dst="h") for _ in range(3)]
        assert link.send_batch(packets) == 0
        assert link.stats.packets_dropped_down == 3
        assert all(p.dropped == "link_down" for p in packets)

    def test_congestion_draws_match_sequential(self):
        # Same seed, same loss rate -> identical RNG verdicts on both
        # paths (the draw-order contract).
        def run(batched):
            sim, topo, link = self._link()
            link.fluid_load_bps = 2e9  # 50% congestion loss
            packets = [Packet(src="a", dst="h") for _ in range(40)]
            if batched:
                link.send_batch(packets)
            else:
                for packet in packets:
                    link.send(packet)
            return [p.dropped for p in packets]

        assert run(batched=True) == run(batched=False)


class TestHostAndSource:
    def _topo(self):
        sim = Simulator(seed=0)
        topo = Topology(sim)
        topo.add_switch("s1")
        topo.add_host("h_src", gateway="s1")
        topo.add_host("h_dst", gateway="s1")
        topo.add_duplex_link("s1", "h_src", 10e9, 0.001)
        topo.add_duplex_link("s1", "h_dst", 10e9, 0.001)
        topo.switch("s1").set_route("h_dst", ["h_dst"])
        topo.switch("s1").set_route("h_src", ["h_src"])
        return sim, topo

    def test_originate_batch_short_circuits_local(self):
        sim, topo = self._topo()
        host = topo.host("h_src")
        packets = [Packet(src="h_src", dst="h_src"),
                   Packet(src="h_src", dst="h_dst")]
        assert host.originate_batch(packets) == 2
        sim.run()
        assert host.received_count() == 1
        assert topo.host("h_dst").received_count() == 1

    def test_batch_source_hits_exact_rate(self):
        sim, topo = self._topo()
        source = BatchPacketSource(topo, "h_src", "h_dst",
                                   rate_pps=330.0, window_s=0.01).start()
        sim.run(until=1.0)
        source.stop()
        # 3.3 packets/window: credit accumulation must not lose the
        # fractional remainder (within one window's worth at the edge).
        assert abs(source.packets_sent - 330) <= 4
        assert source.batches_sent > 0
        assert topo.host("h_dst").received_count() == source.packets_sent

    def test_batch_source_validation(self):
        sim, topo = self._topo()
        with pytest.raises(ValueError):
            BatchPacketSource(topo, "h_src", "h_dst", rate_pps=0)
        with pytest.raises(ValueError):
            BatchPacketSource(topo, "h_src", "h_dst", rate_pps=10,
                              window_s=0)


class TestGatedBatch:
    def test_disabled_booster_skips_batch_kernel(self):
        sim = Simulator(seed=0)
        topo = Topology(sim)
        topo.add_switch("s1")
        topo.add_host("h_dst", gateway="s1")
        topo.add_duplex_link("s1", "h_dst", 10e9, 0.001)
        sw = topo.switch("s1")
        sw.set_route("h_dst", ["h_dst"])
        filt = HeavyHitterFilterProgram("hh.filter", "hh.filter")
        filt.flag("bad")
        filt.enabled_on = lambda switch: False  # gate closed
        sw.install_program(filt)
        packets = [Packet(src="bad", dst="h_dst") for _ in range(3)]
        sw.receive_batch(packets)
        sim.run()
        assert filt.packets_dropped == 0
        assert topo.host("h_dst").received_count() == 3
