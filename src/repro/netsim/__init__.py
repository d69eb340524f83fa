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
                     TcpFlags, make_probe)
from .routecache import RouteCache, SsspTree
from .routing import (NoRouteError, Path, all_shortest_paths,
                      clear_flow_route, default_path_for,
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
from .workloads import (DemandModulator, EnterpriseWorkload,
                        diurnal_profile, elephant_mice_split,
                        enterprise_workload, pareto_sizes)
from .traffic import (TrafficMatrix, client_server_flows, gravity_matrix,
                      poisson_flow_arrivals, uniform_matrix)

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
    "TracerouteResult", "TrafficMatrix", "US", "abilene_like",
    "all_shortest_paths", "clear_flow_route", "client_server_flows",
    "default_path_for", "install_flow_route",
    "fat_tree", "figure2_topology", "gravity_matrix",
    "install_fast_reroute_alternates", "install_host_routes",
    "install_path_route", "install_switch_routes",
    "k_shortest_paths", "make_flow", "make_probe", "max_min_allocate",
    "poisson_flow_arrivals", "random_topology",
    "shortest_path", "uniform_matrix",
    "DemandModulator",
    "EnterpriseWorkload", "diurnal_profile", "elephant_mice_split",
    "enterprise_workload", "pareto_sizes", "BatchPacketSource",
    "MeterWindow", "PacketSource", "ThroughputMeter",
]
