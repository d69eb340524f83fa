"""Tests for the NetWarden-style covert-channel booster."""

from repro.boosters import LfaDetectorBooster, NetWardenBooster
from repro.core import ProgramAnalyzer


class TestSharingDeclaration:
    def test_flow_table_shared_with_lfa_detector(self):
        merged = ProgramAnalyzer().merge([
            LfaDetectorBooster().dataflow(),
            NetWardenBooster().dataflow()])
        lfa_node = merged.merged_name("lfa_detector.flow_state")
        nw_node = merged.merged_name("netwarden.conn_state")
        assert lfa_node == nw_node
        assert lfa_node.startswith("shared.")
