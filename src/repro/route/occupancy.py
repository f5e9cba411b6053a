"""Commit/release of a net's 3-D occupancy on the grid.

Every optimizer in this repo follows the same discipline:

1. :func:`release_net` — remove the net's wires and vias from the grid
   *before* touching any segment layer;
2. mutate ``segment.layer`` freely;
3. :func:`commit_net` — re-add wires and the via stacks implied by the new
   assignment.

Releasing after layers changed would corrupt the usage counters, so the
functions recompute via stacks from the topology at call time and the caller
must keep the release/commit bracketing tight.
"""

from __future__ import annotations

from repro.grid.graph import GridGraph
from repro.route.tree import NetTopology


def commit_net(grid: GridGraph, topo: NetTopology) -> None:
    """Add the net's wires and via stacks to the grid usage counters.

    Every segment must already have a positive layer.
    """
    for seg in topo.segments:
        if seg.layer <= 0:
            raise ValueError(
                f"net {topo.net_id} segment {seg.id} has no layer; "
                "assign layers before committing"
            )
        for edge in seg.edges():
            grid.add_wire(edge, seg.layer)
    for via in topo.via_stacks():
        grid.add_via_stack(via.tile, via.lower, via.upper)


def release_net(grid: GridGraph, topo: NetTopology) -> None:
    """Remove the net's wires and via stacks from the grid usage counters.

    Must be called with the same layer assignment that was committed.
    """
    for seg in topo.segments:
        if seg.layer <= 0:
            raise ValueError(
                f"net {topo.net_id} segment {seg.id} has no layer; "
                "cannot release an uncommitted net"
            )
        for edge in seg.edges():
            grid.remove_wire(edge, seg.layer)
    for via in topo.via_stacks():
        grid.remove_via_stack(via.tile, via.lower, via.upper)
