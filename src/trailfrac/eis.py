"""Edge-increasing vertex sequences and the greedy construction.

A vertex sequence is edge-increasing when every vertex after the first has at
least one incident edge not incident to any earlier vertex. The greedy
procedure below always picks the vertex with the fewest remaining incident
edges; each pick removes at most two vertices from the working set, so when
every vertex starts with an incident edge the sequence reaches length at
least |V|/2. This is the smallest-last elimination order of Matula and Beck
(J. ACM 30(3), 1983). Its state is an ascending incidence list and a
remaining degree per touched vertex, zero once the vertex is gone, and a
live flag per edge in a ``bytearray``. A binary heap of ``(remaining
degree, vertex)`` keys, each packed into one int, finds each pick with lazy
deletion, so the whole sequence costs O((n + m) log n). A sequence is checked
in one pass over the edges: an edge is fresh for its endpoint listed first.
"""

from __future__ import annotations

import heapq
from collections.abc import Iterable

from .graphs import Multigraph, Record, _check_vertices


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

    The fresh edge is the first live entry of the picked vertex's ascending
    incidence list. Only touched vertices get a list and a degree, so the
    cost does not grow with ``g.vertex_count``. An edge dies at both
    endpoints at once, so the far end of a live edge is never gone.

    Picks come from a heap of ``(remaining degree, vertex)`` entries, each
    packed into one int, so they follow the tie-break above exactly. Each step
    pushes one fresh entry per surviving neighbour, whatever the number of
    parallel edges it lost, and entries are never removed: a popped entry
    whose vertex is gone is skipped. Degrees only fall, so a live vertex's
    current entry is smaller than its stale ones and always pops first. A
    pair of adjacent vertices causes at most one push, so the heap holds at
    most n + min(m, n²) entries and the cost is O((n + m) log n). The loop
    stops when the last vertex is gone, so most stale entries are never popped.
    """
    edges = g.edges
    incident: dict[int, list[int]] = {}
    for i, (s, t) in enumerate(edges):
        incident.setdefault(s, []).append(i)
        incident.setdefault(t, []).append(i)
    degree = {v: len(incident_v) for v, incident_v in incident.items()}
    live = bytearray(b"\x01") * len(edges)
    # A key (degree << shift) | v orders as the pair (degree, v) does.
    shift = g.vertex_count.bit_length()
    mask = (1 << shift) - 1
    heap = [d << shift | v for v, d in degree.items()]
    heapq.heapify(heap)

    vertices: list[int] = []
    fresh_edges: list[int] = []
    eliminated: list[int] = []
    left = len(degree)  # vertices not yet gone
    while left:
        v = heapq.heappop(heap) & mask
        if not degree[v]:
            continue
        degree[v] = 0
        vertices.append(v)
        removed = 1
        lowered: set[int] = set()
        first = True
        for e in incident[v]:
            if not live[e]:
                continue
            if first:
                fresh_edges.append(e)
                first = False
            live[e] = 0
            s, t = edges[e]
            u = t if s == v else s
            d = degree[u] - 1
            degree[u] = d
            if d:
                lowered.add(u)
            else:
                removed += 1
        for u in lowered:
            d = degree[u]
            if d:
                heapq.heappush(heap, d << shift | u)
        eliminated.append(removed)
        left -= removed
    return EisSequence(tuple(vertices), tuple(fresh_edges), tuple(eliminated))


def verify_eis(g: Multigraph, seq: EisSequence | Iterable[int]) -> bool:
    """Check the edge-increasing property for an arbitrary vertex sequence.

    Every vertex after the first must contribute an edge not incident to the
    prefix; sequences with repeated vertices fail. An edge is fresh exactly
    for its endpoint listed first (an unlisted endpoint counts as last), so one
    pass over the edges decides it: O(len(seq) + m) time, and memory that
    grows with the listed vertices, not with m.
    """
    vertices = seq.vertices if isinstance(seq, EisSequence) else tuple(seq)
    _check_vertices(vertices, g.vertex_count)
    position = {v: i for i, v in enumerate(vertices)}
    if len(position) < len(vertices):
        return False
    k = len(vertices)
    # Each edge's first-listed endpoint position, k when unlisted; min() per edge takes twice as long.
    first = {a if (a := position.get(s, k)) < (b := position.get(t, k)) else b for s, t in g.edges}
    return first.issuperset(range(1, k))
