from collections import Counter

import pytest

from edgedist.model import TracePath
from edgedist.stats import distribution_from_counts
from edgedist.synth import Topology


def make_topology(edge_list, hosts, seed=0):
    """Build a symmetric topology from (u, v, latency) triples.

    ``hosts`` maps host name -> (router, attach_latency).
    """
    edges = {}
    nodes = []
    seen = set()

    def add_node(n):
        if n not in seen:
            seen.add(n)
            nodes.append(n)

    for u, v, lat in edge_list:
        add_node(u)
        add_node(v)
        edges[(u, v)] = lat
        edges[(v, u)] = lat
    attachment = {}
    for host, (router, lat) in hosts.items():
        add_node(host)
        edges[(host, router)] = lat
        edges[(router, host)] = lat
        attachment[host] = router
    return Topology(nodes=tuple(nodes), edges=edges, host_attachment=attachment, seed=seed)


def trace(origin, dest, hops, reached=True):
    """The trace whose hops are ``hops``, (address-or-None, rtt-or-None)
    pairs in TTL order: every test trace is built here."""
    return TracePath(origin, dest, tuple(addr for addr, _ in hops),
                     tuple(rtt for _, rtt in hops), reached)


def distribution_of(samples, metric, bin_width=None):
    """The distribution of the sample list ``samples``: each test that
    starts from samples builds its distribution here."""
    return distribution_from_counts(Counter(samples), metric, bin_width)
