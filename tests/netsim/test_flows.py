"""Tests for flow descriptors and the flow set."""

import pytest

from repro.netsim import FlowSet, Path, make_flow


class TestFlow:
    def test_negative_demand_rejected(self):
        with pytest.raises(ValueError):
            make_flow("a", "b", -1.0)

    def test_zero_weight_rejected(self):
        with pytest.raises(ValueError):
            make_flow("a", "b", 1e6, weight=0.0)

    def test_active_window(self):
        flow = make_flow("a", "b", 1e6, start_time=5.0, end_time=10.0)
        assert not flow.active(4.9)
        assert flow.active(5.0)
        assert flow.active(9.9)
        assert not flow.active(10.0)

    def test_open_ended_flow_stays_active(self):
        flow = make_flow("a", "b", 1e6)
        assert flow.active(1e9)

    def test_set_path_validates_endpoints(self):
        flow = make_flow("a", "b", 1e6)
        with pytest.raises(ValueError):
            flow.set_path(Path.of(["a", "c"]))
        flow.set_path(Path.of(["a", "s", "b"]))
        assert flow.path.nodes == ("a", "s", "b")

    def test_set_path_none_clears(self):
        flow = make_flow("a", "b", 1e6, path=Path.of(["a", "b"]))
        flow.set_path(None)
        assert flow.path is None

    def test_effective_demand_respects_policing(self):
        flow = make_flow("a", "b", 10e6)
        assert flow.effective_demand_bps == 10e6
        flow.police_rate_bps = 2e6
        assert flow.effective_demand_bps == 2e6
        flow.police_rate_bps = 50e6  # cap above demand is inert
        assert flow.effective_demand_bps == 10e6

    def test_flow_ids_unique(self):
        a = make_flow("a", "b", 1.0)
        b = make_flow("a", "b", 1.0)
        assert a.flow_id != b.flow_id


class TestFlowSet:
    def test_add_and_iterate(self):
        flows = FlowSet()
        flow = flows.add(make_flow("a", "b", 1e6))
        assert list(flows) == [flow]
        assert len(flows) == 1

    def test_double_add_rejected(self):
        flows = FlowSet()
        flow = flows.add(make_flow("a", "b", 1e6))
        with pytest.raises(ValueError):
            flows.add(flow)

    def test_active_filters_by_time(self):
        flows = FlowSet()
        early = flows.add(make_flow("a", "b", 1e6, end_time=5.0))
        late = flows.add(make_flow("a", "b", 1e6, start_time=10.0))
        assert flows.active(2.0) == [early]
        assert flows.active(12.0) == [late]

    def test_normal_and_malicious_partitions(self):
        flows = FlowSet()
        good = flows.add(make_flow("a", "b", 1e6))
        bad = flows.add(make_flow("c", "b", 1e6, malicious=True))
        assert flows.normal() == [good]
        assert flows.malicious() == [bad]

    def test_crossing_link_is_directional(self):
        flows = FlowSet()
        flow = flows.add(make_flow("a", "b", 1e6,
                                   path=Path.of(["a", "s1", "s2", "b"])))
        assert flows.crossing_link("s1", "s2") == [flow]
        assert flows.crossing_link("s2", "s1") == []
