"""Tests for packets, flow keys, and header machinery."""


from repro.netsim import FlowKey, Packet, Protocol, TcpFlags


class TestFlowKey:
    def test_reversed_swaps_endpoints_and_ports(self):
        key = FlowKey("a", "b", Protocol.TCP, 1234, 80)
        rev = key.reversed()
        assert rev == FlowKey("b", "a", Protocol.TCP, 80, 1234)

    def test_double_reverse_is_identity(self):
        key = FlowKey("a", "b", Protocol.UDP, 5, 6)
        assert key.reversed().reversed() == key

    def test_as_tuple_is_hashable_and_stable(self):
        key = FlowKey("a", "b", Protocol.TCP, 1, 2)
        assert key.as_tuple() == ("a", "b", 6, 1, 2)
        assert hash(key) == hash(FlowKey("a", "b", Protocol.TCP, 1, 2))

    def test_str_is_readable(self):
        key = FlowKey("h1", "h2", Protocol.TCP, 1000, 80)
        assert "h1" in str(key) and "h2" in str(key)


class TestPacket:
    def test_flow_key_matches_fields(self):
        pkt = Packet(src="a", dst="b", proto=Protocol.UDP, sport=9, dport=53)
        assert pkt.flow_key == FlowKey("a", "b", Protocol.UDP, 9, 53)

    def test_size_bits(self):
        assert Packet(src="a", dst="b", size_bytes=100).size_bits == 800

    def test_packet_ids_are_unique(self):
        a = Packet(src="a", dst="b")
        b = Packet(src="a", dst="b")
        assert a.pkt_id != b.pkt_id

    def test_first_drop_reason_wins(self):
        pkt = Packet(src="a", dst="b")
        pkt.mark_dropped("first")
        pkt.mark_dropped("second")
        assert pkt.dropped == "first"

    def test_copy_for_duplicate_fresh_identity(self):
        pkt = Packet(src="a", dst="b", headers={"x": 1})
        clone = pkt.copy_for_duplicate()
        assert clone.pkt_id != pkt.pkt_id
        assert clone.headers == {"x": 1}
        clone.headers["x"] = 2
        assert pkt.headers["x"] == 1  # deep enough: header dict copied
        assert clone.path_taken == []

    def test_tcp_flags_combine(self):
        flags = TcpFlags.SYN | TcpFlags.ACK
        assert flags & TcpFlags.SYN
        assert flags & TcpFlags.ACK
        assert not flags & TcpFlags.FIN
