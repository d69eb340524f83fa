"""Topology state changes go through the Topology/Link APIs."""


def cut(link):
    link.set_down()


def restore(link):
    link.set_up()


def splice(topo, a, b, capacity_bps, delay_s):
    topo.add_duplex_link(a, b, capacity_bps, delay_s)


def grow(topo, switch, host):
    topo.add_switch(switch)
    topo.attach_host(host, switch)


def headroom(topo, key):
    # Reads are fine; only writes bypass the version counter.
    return topo.links[key].capacity_bps
