"""Network simulation substrate.

A hybrid discrete-event / fluid simulator standing in for the paper's
customized ns3 + bmv2 testbed (see DESIGN.md for the substitution
rationale).  Packet-level events carry probes, traceroutes, and FastFlex
control messages; bulk data traffic is a fluid max-min allocation updated
on a fine timer.
"""

from .engine import EventHandle, PeriodicProcess, Simulator, SimulationError
from .flows import Flow, FlowSet, make_flow
from .fluid import AllocationResult, FluidNetwork, max_min_allocate
from .links import Link, LinkStats
from .monitor import Monitor, TimeSeries
from .node import Host, Node
from .packet import (DEFAULT_TTL, FlowKey, Packet, PacketKind, Protocol,
                     TcpFlags)
from .routecache import RouteCache, SsspTree
from .routing import (NoRouteError, Path, clear_flow_route,
                      default_path_for,
                      install_fast_reroute_alternates,
                      install_flow_route, install_host_routes,
                      install_path_route, install_switch_routes,
                      k_shortest_paths, shortest_path)
from .sources import (BatchPacketSource, MeterWindow, PacketSource,
                      ThroughputMeter)
from .switch import (Consume, Decision, Drop, Forward, LegacySwitchError,
                     ProgrammableSwitch,
                     SwitchProgram, SwitchStats)
from .topology import (GBPS, MBPS, MS, US, FigureTwoNetwork, Topology,
                       abilene_like, fat_tree, figure2_topology,
                       random_topology)
from .traceroute import TracerouteClient, TracerouteResult

__all__ = [
    "AllocationResult", "Consume", "DEFAULT_TTL", "Decision", "Drop",
    "EventHandle", "FigureTwoNetwork", "Flow", "FlowKey", "FlowSet",
    "FluidNetwork", "Forward", "GBPS", "Host", "LegacySwitchError",
    "Link", "LinkStats", "MBPS",
    "MS", "Monitor", "NoRouteError", "Node", "Packet", "PacketKind", "Path",
    "PeriodicProcess", "ProgrammableSwitch", "Protocol", "RouteCache",
    "SimulationError", "Simulator", "SsspTree", "SwitchProgram",
    "SwitchStats",
    "TcpFlags", "TimeSeries", "Topology", "TracerouteClient",
    "TracerouteResult", "US", "abilene_like",
    "clear_flow_route",
    "default_path_for", "install_flow_route",
    "fat_tree", "figure2_topology",
    "install_fast_reroute_alternates", "install_host_routes",
    "install_path_route", "install_switch_routes",
    "k_shortest_paths", "make_flow", "max_min_allocate",
    "random_topology", "shortest_path", "BatchPacketSource",
    "MeterWindow", "PacketSource", "ThroughputMeter",
]
