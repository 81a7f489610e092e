########## The flow machinery underneath
#
# The solver reduces driver allocation to maximum flow on a node-split
# network.  These are the moving parts, usable on their own.

from targetflow import (INF, Arc, BoundedFlowNetwork, build_associate_graph,
                        feasible_circulation, max_flow_dinic,
                        min_flow_with_bounds, verify_optimality)

# Plain maximum flow: two disjoint routes from 0 to 3.  The flow comes as
# an int64 column, with the source side of a minimum cut: the nodes the
# engine's last level sweep still reached.  Both arcs out of the source
# are full here, so that side is the source alone.  max_flow_dinic has
# already checked the flow and the cut by weak duality with
# verify_optimality, which any caller can run again: the cut's capacity
# equals the flow value.
net = BoundedFlowNetwork(
    4, (Arc(0, 1), Arc(0, 2), Arc(1, 3), Arc(2, 3)), source=0, sink=3)
assignment = max_flow_dinic(net)
print("diamond max flow:", assignment.value,
      "per-arc:", assignment.flow.tolist(),
      "cut source side:", assignment.cut.nonzero()[0].tolist())
verify_optimality(net, assignment)

# Lower bounds: an arc that must carry at least one unit.  The associate
# graph moves each lower bound onto arcs from a fresh source / to a fresh
# sink, so feasibility becomes a saturation test.  The images of the
# network's own arcs come first, in order.
bounded = BoundedFlowNetwork(
    2, (Arc(0, 1, lower=1, cap=1), Arc(1, 0, lower=0, cap=1)), 0, 1)
plain = build_associate_graph(bounded)
print("associate graph arcs:",
      [(a.tail, a.head, a.cap) for a in plain.arcs])

circ = feasible_circulation(bounded)
print("circulation flows:", circ.flow.tolist())

# Minimum flow: how little can pass from source to sink while every lower
# bound stays satisfied?  A feasible circulation is found first, then all
# cancellable units are pushed back.
chain = BoundedFlowNetwork(
    3, (Arc(0, 1, lower=1, cap=1), Arc(1, 2, lower=1, cap=1)), 0, 2)
print("forced chain min flow:", min_flow_with_bounds(chain).value)

# The return arc convention: a sink-to-source arc with unbounded capacity
# closes the circulation; min_flow_with_bounds picks it up automatically.
looped = BoundedFlowNetwork(
    3, (Arc(0, 1, lower=1, cap=1), Arc(1, 2, lower=1, cap=1),
        Arc(2, 0, lower=0, cap=INF)), 0, 2)
print("with explicit return arc:", min_flow_with_bounds(looped).value)
