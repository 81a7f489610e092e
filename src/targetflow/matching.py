"""Whole-network driver count via maximum matching.

A directed graph's minimum driver count is ``max(n - m, 1)`` where ``m``
is the size of a maximum matching on its bipartite double cover (out-copy
of each node on the left, in-copy on the right, one bipartite edge per
directed edge).  That matching is the maximum flow of the target network
with every node a target: its unit inject and collect arcs let each node
be a tail once and a head once, so the edges carrying flow are a maximum
matching.  Used to normalize target-subset results.
"""

from typing import NamedTuple

from .cover import build_target_network, extract_cover_edges
from .flow import max_flow_dinic
from .graph import DiGraph


class Matching(NamedTuple):
    """Matched directed edges; no node repeats as a tail or as a head."""

    pairs: tuple[tuple[int, int], ...]
    size: int


def max_matching(g: DiGraph) -> Matching:
    """Maximum matching on the bipartite double cover, as the all-target
    maximum flow.

    The pairs come in edge order.  The engine's arc order fixes them for a
    given graph, so the matching is deterministic, not merely of fixed
    size.
    """
    if g.n == 0:
        return Matching((), 0)
    tnet = build_target_network(g, range(g.n))
    assignment = max_flow_dinic(tnet.net)
    rows = extract_cover_edges(tnet, assignment).tolist()
    return Matching(tuple(map(tuple, rows)), assignment.value)


def driver_count(g: DiGraph) -> int:
    """Minimum number of control sources for the whole network: unmatched
    node count, floored at one, read off the flow value alone."""
    if g.n == 0:
        return 1
    return max(g.n - max_flow_dinic(
        build_target_network(g, range(g.n)).net).value, 1)
