"""Edge-increasing vertex sequences and the greedy construction.

A vertex sequence is edge-increasing when every vertex after the first has at
least one incident edge not incident to any earlier vertex. The greedy
procedure below always picks the vertex with the fewest remaining incident
edges; each pick removes at most two vertices from the working set, so when
every vertex starts with an incident edge the sequence reaches length at
least |V|/2. This is the smallest-last elimination order of Matula and Beck
(J. ACM 30(3), 1983); a binary heap of ``(remaining degree, vertex)`` keys,
each packed into one int, finds each pick with lazy deletion, so the whole
sequence costs O((n + m) log n).
"""

from __future__ import annotations

import heapq
from collections.abc import Iterable

from .graphs import Multigraph, Record


class EisSequence(Record):
    """Greedy result: chosen vertices, one certificate fresh edge per vertex,
    and the number of working-set vertices eliminated by each step."""

    vertices: tuple[int, ...]
    fresh_edges: tuple[int, ...]
    eliminated_per_step: tuple[int, ...]

    @property
    def length(self) -> int:
        return len(self.vertices)


def greedy_eis(g: Multigraph) -> EisSequence:
    """Build an edge-increasing sequence by repeatedly taking the vertex with the
    fewest remaining incident edges (ties: lowest index).

    The chosen vertex is deleted together with its incident edges, and vertices
    left with no edges are dropped. Vertices isolated in the input are skipped;
    for graphs in which every vertex has an incident edge the result has length
    at least |V|/2. The certificate fresh edge recorded for each vertex is the
    lowest-index edge still present when the vertex is picked.

    Picks come from a heap of ``(remaining degree, vertex)`` entries, each
    packed into one int, so they follow the tie-break above exactly. Each step
    pushes one fresh entry per surviving neighbour, whatever the number of
    parallel edges it lost, and entries are never removed: a popped entry
    whose vertex is gone is skipped. An edge leaves both endpoints' sets at
    once, so the far end of a listed edge is always live.
    Degrees only fall, so a live vertex's current entry is smaller than its
    stale ones and always pops first. A pair of adjacent vertices causes at
    most one push, so the heap holds at most n + min(m, n²) entries and the
    cost is O((n + m) log n).
    """
    edges = g.edges
    remaining: dict[int, set[int]] = {}
    for i, (s, t) in enumerate(edges):
        remaining.setdefault(s, set()).add(i)
        remaining.setdefault(t, set()).add(i)
    # A key (degree << shift) | v orders as the pair (degree, v) does.
    shift = g.vertex_count.bit_length()
    mask = (1 << shift) - 1
    heap = [len(incident) << shift | v for v, incident in remaining.items()]
    heapq.heapify(heap)

    vertices: list[int] = []
    fresh_edges: list[int] = []
    eliminated: list[int] = []
    while heap:
        v = heapq.heappop(heap) & mask
        if v not in remaining:
            continue
        dropped = remaining.pop(v)
        vertices.append(v)
        fresh_edges.append(min(dropped))
        removed = 1
        lowered: set[int] = set()
        for e in dropped:
            s, t = edges[e]
            u = t if s == v else s
            live = remaining[u]
            live.discard(e)
            if live:
                lowered.add(u)
            else:
                del remaining[u]
                removed += 1
        for u in lowered:
            if u in remaining:
                heapq.heappush(heap, len(remaining[u]) << shift | u)
        eliminated.append(removed)
    return EisSequence(tuple(vertices), tuple(fresh_edges), tuple(eliminated))


def verify_eis(g: Multigraph, seq: EisSequence | Iterable[int]) -> bool:
    """Check the edge-increasing property for an arbitrary vertex sequence.

    Every vertex after the first must contribute an edge not incident to the
    prefix. Sequences with repeated vertices fail.
    """
    vertices = seq.vertices if isinstance(seq, EisSequence) else tuple(seq)
    for v in vertices:
        if not 0 <= v < g.vertex_count:
            raise ValueError(f"vertex {v} out of range for n={g.vertex_count}")
    if len(set(vertices)) != len(vertices):
        return False
    incident: dict[int, set[int]] = {v: set() for v in vertices}
    for i, (s, t) in enumerate(g.edges):
        if s in incident:
            incident[s].add(i)
        if t in incident:
            incident[t].add(i)
    prefix: set[int] = set()
    for i, v in enumerate(vertices):
        if i > 0 and incident[v] <= prefix:
            return False
        prefix |= incident[v]
    return True
