"""Topology construction and canned networks.

Provides the :class:`Topology` builder plus the networks the experiments
run on:

* :func:`figure2_topology` — the paper's Figure 2 case-study network: an
  edge-to-edge network with two *critical* short paths (the LFA targets)
  and two longer detour paths.
* :func:`fat_tree` — a k-ary fat-tree (for Hula-style rerouting tests).
* :func:`abilene_like` — a small WAN for scheduler/placement benches.
* :func:`random_topology` — Waxman-ish random graphs for property tests.
"""

from __future__ import annotations

from dataclasses import dataclass, field
import random
from typing import Dict, List, Optional, Tuple

from ..dataplane.resources import ResourceVector, TOFINO_LIKE
from .engine import Simulator
from .links import Link
from .node import Host, Node
from .routecache import RouteCache
from .switch import ProgrammableSwitch

GBPS = 1e9
MBPS = 1e6
MS = 1e-3
US = 1e-6


class Topology:
    """A network of hosts, switches, and duplex links."""

    def __init__(self, sim: Simulator, name: str = "net"):
        self.sim = sim
        self.name = name
        self.nodes: Dict[str, Node] = {}
        #: Directed links keyed by (src, dst) node names.
        self.links: Dict[Tuple[str, str], Link] = {}
        #: Bumped by every ``add_*`` call.  A topology only grows while
        #: it is built, then runs unchanged; the fluid fast path and the
        #: route cache compare ``version`` to decide whether what they
        #: cached still describes this network.
        self.version = 0
        #: Versioned routing cache: native SSSP trees and
        #: k-shortest-path candidate memos, both invalidated off
        #: ``version`` (see DESIGN.md "Routing cache").
        self.route_cache = RouteCache(self)

    # ------------------------------------------------------------------
    # Construction
    # ------------------------------------------------------------------
    def add_switch(self, name: str,
                   resources: ResourceVector = TOFINO_LIKE,
                   programmable: bool = True) -> ProgrammableSwitch:
        self._check_fresh(name)
        switch = ProgrammableSwitch(self.sim, name, resources,
                                    programmable=programmable)
        self.nodes[name] = switch
        self.version += 1
        return switch

    @property
    def programmable_switch_names(self) -> List[str]:
        return [n for n in self.switch_names
                if self.switch(n).programmable]

    def add_host(self, name: str, gateway: Optional[str] = None) -> Host:
        self._check_fresh(name)
        host = Host(self.sim, name, gateway=gateway)
        self.nodes[name] = host
        self.version += 1
        return host

    def attach_host(self, name: str, switch: str,
                    capacity_bps: float = 10 * GBPS,
                    delay_s: float = 10 * US) -> Host:
        """Create a host, link it to ``switch``, and set its gateway."""
        host = self.add_host(name, gateway=switch)
        self.add_duplex_link(name, switch, capacity_bps, delay_s)
        return host

    def add_duplex_link(self, a: str, b: str, capacity_bps: float,
                        delay_s: float,
                        queue_bytes: Optional[int] = None) -> Tuple[Link, Link]:
        node_a, node_b = self.node(a), self.node(b)
        kwargs = {} if queue_bytes is None else {"queue_bytes": queue_bytes}
        fwd = Link(self.sim, node_a, node_b, capacity_bps, delay_s, **kwargs)
        rev = Link(self.sim, node_b, node_a, capacity_bps, delay_s, **kwargs)
        node_a.attach_link(fwd)
        node_b.attach_link(rev)
        self.links[(a, b)] = fwd
        self.links[(b, a)] = rev
        self.version += 1
        return fwd, rev

    def _check_fresh(self, name: str) -> None:
        if name in self.nodes:
            raise ValueError(f"node {name!r} already exists in {self.name}")

    # ------------------------------------------------------------------
    # Lookup
    # ------------------------------------------------------------------
    def node(self, name: str) -> Node:
        try:
            return self.nodes[name]
        except KeyError:
            raise KeyError(f"no node named {name!r} in {self.name}") from None

    def switch(self, name: str) -> ProgrammableSwitch:
        node = self.node(name)
        if not isinstance(node, ProgrammableSwitch):
            raise TypeError(f"{name!r} is a {type(node).__name__}, not a switch")
        return node

    def host(self, name: str) -> Host:
        node = self.node(name)
        if not isinstance(node, Host):
            raise TypeError(f"{name!r} is a {type(node).__name__}, not a host")
        return node

    def link(self, a: str, b: str) -> Link:
        try:
            return self.links[(a, b)]
        except KeyError:
            raise KeyError(f"no link {a}->{b} in {self.name}") from None

    @property
    def switch_names(self) -> List[str]:
        return sorted(n for n, node in self.nodes.items()
                      if isinstance(node, ProgrammableSwitch))

    @property
    def host_names(self) -> List[str]:
        return sorted(n for n, node in self.nodes.items()
                      if isinstance(node, Host))

    def switches(self) -> List[ProgrammableSwitch]:
        return [self.nodes[n] for n in self.switch_names]  # type: ignore[list-item]

    def hosts(self) -> List[Host]:
        return [self.nodes[n] for n in self.host_names]  # type: ignore[list-item]

    def duplex_pairs(self) -> List[Tuple[str, str]]:
        """Each physical link once, as a sorted (a, b) pair."""
        seen = set()
        for (a, b) in self.links:
            pair = (a, b) if a < b else (b, a)
            seen.add(pair)
        return sorted(seen)

    def __repr__(self) -> str:
        return (f"Topology({self.name!r}, {len(self.switch_names)} switches, "
                f"{len(self.host_names)} hosts, "
                f"{len(self.duplex_pairs())} links)")


# ----------------------------------------------------------------------
# Canned topologies
# ----------------------------------------------------------------------
@dataclass
class FigureTwoNetwork:
    """The paper's Figure 2 case-study network plus its metadata.

    Layout (all switch-switch links)::

            +------ s1 ------+           short path A (critical link s1-sR)
            |                |
      sL ---+------ s2 ------+--- sR     short path B (critical link s2-sR)
            |                |
            +-- s3 ---- s4 --+           detour path C (longer)
            |                |
            +-- s5 ---- s6 --+           detour path D (longer)

    Clients and bots attach at ``sL``; the victim and the decoy public
    servers the Crossfire attacker targets attach at ``sR``.  The two
    *critical links* are ``s1->sR`` and ``s2->sR``: in the default TE
    configuration all victim-bound traffic crosses one of them.
    """

    topo: Topology
    left_edge: str = "sL"
    right_edge: str = "sR"
    critical_links: List[Tuple[str, str]] = field(default_factory=list)
    detour_paths: List[List[str]] = field(default_factory=list)
    victim: str = "victim"
    decoy_servers: List[str] = field(default_factory=list)
    client_hosts: List[str] = field(default_factory=list)
    bot_hosts: List[str] = field(default_factory=list)
    #: Bots attached at the victim-side edge (Coremelt pairs).
    right_bot_hosts: List[str] = field(default_factory=list)


def figure2_topology(sim: Simulator, n_clients: int = 4, n_bots: int = 6,
                     n_bots_right: int = 0,
                     critical_capacity: float = 10 * GBPS,
                     detour_capacity: float = 10 * GBPS,
                     edge_capacity: float = 40 * GBPS,
                     base_delay: float = 1 * MS) -> FigureTwoNetwork:
    """Build the Figure 2 network used throughout the case study."""
    topo = Topology(sim, name="figure2")
    for name in ("sL", "s1", "s2", "s3", "s4", "s5", "s6", "sR"):
        topo.add_switch(name)

    # Short (critical) paths: sL-s1-sR and sL-s2-sR.
    topo.add_duplex_link("sL", "s1", edge_capacity, base_delay)
    topo.add_duplex_link("s1", "sR", critical_capacity, base_delay)
    topo.add_duplex_link("sL", "s2", edge_capacity, base_delay)
    topo.add_duplex_link("s2", "sR", critical_capacity, base_delay)
    # Detour paths: one hop longer, higher propagation delay.
    topo.add_duplex_link("sL", "s3", detour_capacity, 2 * base_delay)
    topo.add_duplex_link("s3", "s4", detour_capacity, 2 * base_delay)
    topo.add_duplex_link("s4", "sR", detour_capacity, 2 * base_delay)
    topo.add_duplex_link("sL", "s5", detour_capacity, 2 * base_delay)
    topo.add_duplex_link("s5", "s6", detour_capacity, 2 * base_delay)
    topo.add_duplex_link("s6", "sR", detour_capacity, 2 * base_delay)

    net = FigureTwoNetwork(topo=topo)
    net.critical_links = [("s1", "sR"), ("s2", "sR")]
    net.detour_paths = [["sL", "s3", "s4", "sR"], ["sL", "s5", "s6", "sR"]]

    topo.attach_host("victim", "sR", capacity_bps=edge_capacity)
    for i in range(2):
        name = f"decoy{i}"
        topo.attach_host(name, "sR", capacity_bps=edge_capacity)
        net.decoy_servers.append(name)
    for i in range(n_clients):
        name = f"client{i}"
        topo.attach_host(name, "sL", capacity_bps=edge_capacity)
        net.client_hosts.append(name)
    for i in range(n_bots):
        name = f"bot{i}"
        topo.attach_host(name, "sL", capacity_bps=edge_capacity)
        net.bot_hosts.append(name)
    # Optional victim-side bots: a Coremelt-style attacker [74] needs
    # bot pairs whose mutual traffic crosses the core.
    for i in range(n_bots_right):
        name = f"rbot{i}"
        topo.attach_host(name, "sR", capacity_bps=edge_capacity)
        net.right_bot_hosts.append(name)
    return net


def fat_tree(sim: Simulator, k: int = 4,
             link_capacity: float = 10 * GBPS,
             link_delay: float = 50 * US,
             hosts_per_edge: int = 1) -> Topology:
    """A k-ary fat-tree (k even): k pods, (k/2)^2 core switches."""
    if k % 2 != 0 or k < 2:
        raise ValueError(f"fat-tree k must be even and >= 2, got {k}")
    topo = Topology(sim, name=f"fattree{k}")
    half = k // 2
    cores = [topo.add_switch(f"core{i}").name for i in range(half * half)]
    for pod in range(k):
        aggs = [topo.add_switch(f"agg{pod}_{i}").name for i in range(half)]
        edges = [topo.add_switch(f"edge{pod}_{i}").name for i in range(half)]
        for agg in aggs:
            for edge in edges:
                topo.add_duplex_link(agg, edge, link_capacity, link_delay)
        for i, agg in enumerate(aggs):
            for j in range(half):
                core = cores[i * half + j]
                topo.add_duplex_link(agg, core, link_capacity, link_delay)
        for i, edge in enumerate(edges):
            for h in range(hosts_per_edge):
                topo.attach_host(f"h{pod}_{i}_{h}", edge,
                                 capacity_bps=link_capacity,
                                 delay_s=link_delay)
    return topo


#: (city pairs, one entry per physical link) of the Abilene research WAN.
_ABILENE_EDGES = [
    ("seattle", "sunnyvale"), ("seattle", "denver"),
    ("sunnyvale", "losangeles"), ("sunnyvale", "denver"),
    ("losangeles", "houston"), ("denver", "kansascity"),
    ("kansascity", "houston"), ("kansascity", "indianapolis"),
    ("houston", "atlanta"), ("atlanta", "indianapolis"),
    ("atlanta", "washington"), ("indianapolis", "chicago"),
    ("chicago", "newyork"), ("newyork", "washington"),
]


def abilene_like(sim: Simulator, link_capacity: float = 10 * GBPS,
                 link_delay: float = 5 * MS,
                 hosts_per_city: int = 1) -> Topology:
    """An Abilene-shaped WAN with one host per city by default."""
    topo = Topology(sim, name="abilene")
    cities = sorted({c for edge in _ABILENE_EDGES for c in edge})
    for city in cities:
        topo.add_switch(f"sw_{city}")
    for a, b in _ABILENE_EDGES:
        topo.add_duplex_link(f"sw_{a}", f"sw_{b}", link_capacity, link_delay)
    for city in cities:
        for h in range(hosts_per_city):
            topo.attach_host(f"{city}{h}", f"sw_{city}",
                             capacity_bps=link_capacity)
    return topo


def random_topology(sim: Simulator, n_switches: int, n_hosts: int,
                    extra_edges: int = 0,
                    link_capacity: float = 10 * GBPS,
                    link_delay: float = 1 * MS,
                    seed: Optional[int] = None) -> Topology:
    """A connected random topology: a random spanning tree plus extras."""
    if n_switches < 1:
        raise ValueError("need at least one switch")
    # Topology sampling gets its own RNG stream, never ``sim.rng``: the
    # simulator's RNG drives event-order tie-breaking, so drawing the
    # topology from it would make "add one more host" perturb the event
    # schedule of an otherwise identical run.  When no explicit seed is
    # given, derive one from the simulator's seed (string seeding is
    # hash-randomization-proof) so runs stay reproducible.
    rng = random.Random(f"random_topology:{sim.seed}"
                        if seed is None else seed)
    topo = Topology(sim, name="random")
    names = [topo.add_switch(f"sw{i}").name for i in range(n_switches)]
    for i in range(1, n_switches):
        parent = names[rng.randrange(i)]
        topo.add_duplex_link(names[i], parent, link_capacity, link_delay)
    added = 0
    attempts = 0
    while added < extra_edges and attempts < 50 * (extra_edges + 1):
        attempts += 1
        a, b = rng.sample(names, 2)
        if (a, b) not in topo.links:
            topo.add_duplex_link(a, b, link_capacity, link_delay)
            added += 1
    for i in range(n_hosts):
        topo.attach_host(f"h{i}", names[rng.randrange(n_switches)],
                         capacity_bps=link_capacity)
    return topo
