"""Tests for link transmission, queues, and congestion accounting."""

import pytest

from repro.netsim import Host, Link, Packet


def make_pair(sim, capacity=1e9, delay=0.001, queue_bytes=3000):
    a = Host(sim, "a")
    b = Host(sim, "b")
    link = Link(sim, a, b, capacity, delay, queue_bytes=queue_bytes)
    a.attach_link(link)
    return a, b, link


class TestDelivery:
    def test_packet_arrives_after_serialization_plus_propagation(self, sim):
        a, b, link = make_pair(sim, capacity=1e6, delay=0.01)
        pkt = Packet(src="a", dst="b", size_bytes=1250)  # 10 kbit
        link.send(pkt)
        sim.run()
        # 10 kbit / 1 Mbps = 10 ms serialization + 10 ms propagation.
        assert b.received_count() == 1
        assert sim.now == pytest.approx(0.02)

    def test_back_to_back_packets_serialize(self, sim):
        a, b, link = make_pair(sim, capacity=1e6, delay=0.0)
        for _ in range(3):
            link.send(Packet(src="a", dst="b", size_bytes=1250))
        sim.run()
        assert b.received_count() == 3
        assert sim.now == pytest.approx(0.03)

    def test_stats_count_sent_bytes(self, sim):
        a, b, link = make_pair(sim)
        link.send(Packet(src="a", dst="b", size_bytes=500))
        sim.run()
        assert link.stats.packets_sent == 1
        assert link.stats.bytes_sent == 500


class TestQueueing:
    def test_queue_overflow_drops(self, sim):
        a, b, link = make_pair(sim, capacity=1e3, queue_bytes=2500)
        results = [link.send(Packet(src="a", dst="b", size_bytes=1000))
                   for _ in range(5)]
        # First packet starts transmitting immediately; the queue holds at
        # most 2500 bytes beyond it.
        assert results.count(False) >= 1
        assert link.stats.packets_dropped_queue >= 1

    def test_dropped_packet_has_reason(self, sim):
        a, b, link = make_pair(sim, capacity=1e3, queue_bytes=1000)
        packets = [Packet(src="a", dst="b", size_bytes=1000)
                   for _ in range(4)]
        for pkt in packets:
            link.send(pkt)
        dropped = [p for p in packets if p.dropped]
        assert dropped and all(p.dropped == "queue_overflow" for p in dropped)


class TestFailure:
    def test_down_link_refuses_traffic(self, sim):
        a, b, link = make_pair(sim)
        link.set_down()
        assert link.send(Packet(src="a", dst="b")) is False
        assert link.stats.packets_dropped_down == 1

    def test_link_down_mid_flight_drops_delivery(self, sim):
        a, b, link = make_pair(sim, delay=1.0)
        link.send(Packet(src="a", dst="b"))
        sim.schedule(0.5, link.set_down)
        sim.run()
        assert b.received_count() == 0

    def test_link_recovers(self, sim):
        a, b, link = make_pair(sim)
        link.set_down()
        link.set_up()
        assert link.send(Packet(src="a", dst="b")) is True


class TestCongestionCoupling:
    def test_utilization_tracks_fluid_load(self, sim):
        a, b, link = make_pair(sim, capacity=1e9)
        link.fluid_load_bps = 5e8
        assert link.utilization == pytest.approx(0.5)

    def test_no_loss_below_capacity(self, sim):
        a, b, link = make_pair(sim, capacity=1e9)
        link.fluid_load_bps = 0.99e9
        assert link.congestion_loss_rate == 0.0

    def test_loss_rate_matches_excess(self, sim):
        a, b, link = make_pair(sim, capacity=1e9)
        link.fluid_load_bps = 2e9
        assert link.congestion_loss_rate == pytest.approx(0.5)

    def test_flooded_link_drops_control_packets(self, sim):
        a, b, link = make_pair(sim)
        link.fluid_load_bps = 100e9  # 99% loss
        delivered = sum(
            1 for _ in range(200)
            if link.send(Packet(src="a", dst="b", size_bytes=64)))
        assert delivered < 50  # overwhelming majority dropped

    def test_queuing_delay_grows_with_utilization(self, sim):
        a, b, link = make_pair(sim)
        link.fluid_load_bps = 0.0
        idle = link.queuing_delay_estimate
        link.fluid_load_bps = link.capacity_bps
        busy = link.queuing_delay_estimate
        assert idle == 0.0
        assert busy > 0.0


class TestValidation:
    def test_zero_capacity_rejected(self, sim):
        a, b = Host(sim, "a"), Host(sim, "b")
        with pytest.raises(ValueError):
            Link(sim, a, b, 0.0, 0.001)

    @pytest.mark.parametrize("capacity", [float("nan"), float("inf"), 0.0,
                                          -1.0])
    def test_capacity_must_be_finite_and_positive(self, sim, capacity):
        """Regression: a NaN capacity reached the allocator."""
        a, b = Host(sim, "a"), Host(sim, "b")
        with pytest.raises(ValueError,
                           match="capacity must be finite and positive"):
            Link(sim, a, b, capacity, 0.001)

    def test_negative_delay_rejected(self, sim):
        a, b = Host(sim, "a"), Host(sim, "b")
        with pytest.raises(ValueError):
            Link(sim, a, b, 1e9, -0.001)

    def test_observer_called_on_transmit(self, sim):
        a, b, link = make_pair(sim)
        seen = []
        link.on_transmit.append(lambda l, p: seen.append(p.pkt_id))
        pkt = Packet(src="a", dst="b")
        link.send(pkt)
        sim.run()
        assert seen == [pkt.pkt_id]
