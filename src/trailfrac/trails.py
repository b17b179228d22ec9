"""Trail decisions for edge subsets, with explicit witness orderings.

A nonempty edge subset is orderable as a trail iff its edges lie in one weak
component and the per-vertex imbalances (out minus in) are either all zero or
exactly one ``+1`` and one ``-1``. :func:`is_trail` applies that
characterization and constructs a witness; :func:`oracle_is_trail` is the
brute-force ground truth that tries every ordering, kept deliberately naive so
the fast path can be validated against it. The witness is Hierholzer's walk
(1873) over out-edge lists in descending index order, so popping a list takes
its lowest unused edge. Every function takes the subset as an iterable of
edge positions and reads it through ``graphs._edge_indices``, which checks
it and sorts it; imbalances also come from ``graphs``.

The imbalances are computed first. For a balanced subset the walk itself
decides connectivity: it uses every edge exactly when the subset is weakly
connected. A union-find pass (``_connected``) runs only for an imbalanced
subset, to tell ``disconnected`` from ``degree_imbalance``.
"""

from __future__ import annotations

import itertools
from collections.abc import Iterable
from enum import Enum

from .graphs import Multigraph, Record, _edge_indices, _imbalances

ORACLE_MAX_EDGES = 8


class FailureReason(str, Enum):
    EMPTY_SUBSET = "empty_subset"
    DEGREE_IMBALANCE = "degree_imbalance"
    DISCONNECTED = "disconnected"


class TrailVerdict(Record):
    """Decision result: when positive, ``witness`` orders the subset into a trail."""

    is_trail: bool
    witness: tuple[int, ...] | None = None
    failure_reason: FailureReason | None = None


def _balanced(imbalances: dict[int, int]) -> bool:
    """No |imbalance| > 1 and at most one vertex at +1; as the sum is 0, at most one is then at -1."""
    values = list(imbalances.values())
    return min(values, default=0) >= -1 and max(values, default=0) <= 1 and values.count(1) <= 1


def _connected(edges: tuple[tuple[int, int], ...], idx: list[int]) -> bool:
    """True iff all listed edges lie in one weak component (nonempty list)."""
    parent: dict[int, int] = {}

    def find(x: int) -> int:
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    merges = 0
    for j in idx:
        s, t = edges[j]
        parent.setdefault(s, s)
        parent.setdefault(t, t)
        ra, rb = find(s), find(t)
        if ra != rb:
            parent[ra] = rb
            merges += 1
    return len(parent) - merges == 1


def _hierholzer(edges: tuple[tuple[int, int], ...], idx: list[int], imbalances: dict[int, int]) -> tuple[int, ...]:
    """Walk a balanced ascending edge list into a trail, extending by lowest edge index first.

    Open trails start at the unique ``+1`` vertex; closed trails start at the
    source of the lowest-index member edge. The stack walk splices pending
    cycles, so it uses every edge of the start's weak component. A balanced
    subset spreads into components that are each balanced, and its ``+1`` and
    ``-1`` vertices share one, so the walk is shorter than ``idx`` exactly
    when the subset is disconnected.
    """
    out: dict[int, list[int]] = {}
    for j in reversed(idx):  # descending, so each list's end is its lowest edge
        out.setdefault(edges[j][0], []).append(j)

    # The walk stands at the target of the top stacked edge, or at the start
    # when the stack is empty; popping an edge steps back to its source.
    v = next((v for v, x in imbalances.items() if x == 1), edges[idx[0]][0])
    edge_stack: list[int] = []
    reversed_trail: list[int] = []
    while True:
        lst = out.get(v)
        if lst:
            e = lst.pop()
            edge_stack.append(e)
            v = edges[e][1]
        elif edge_stack:
            e = edge_stack.pop()
            reversed_trail.append(e)
            v = edges[e][0]
        else:
            return tuple(reversed(reversed_trail))


def is_trail(g: Multigraph, subset: Iterable[int]) -> TrailVerdict:
    """Decide whether the subset of edge positions can be ordered as a trail; build a witness if so.

    A subset failing both conditions reports ``disconnected``: scattered edges
    are described by where they sit before how they point. The member edges
    are checked and sorted once, and each is then visited a fixed number of
    times, so the cost is near linear in the subset's size, whatever ``m``
    is: a balanced subset costs the imbalance pass and the walk, an
    imbalanced one the imbalance pass and the union-find pass.
    """
    idx = _edge_indices(g, subset)
    if not idx:
        return TrailVerdict(False, None, FailureReason.EMPTY_SUBSET)
    imbalances = _imbalances(g.edges, idx)
    if not _balanced(imbalances):
        reason = FailureReason.DEGREE_IMBALANCE if _connected(g.edges, idx) else FailureReason.DISCONNECTED
        return TrailVerdict(False, None, reason)
    trail = _hierholzer(g.edges, idx, imbalances)
    if len(trail) < len(idx):
        return TrailVerdict(False, None, FailureReason.DISCONNECTED)
    return TrailVerdict(True, trail, None)


def oracle_is_trail(g: Multigraph, subset: Iterable[int]) -> bool:
    """Ground-truth decision by trying all ``|T|!`` orderings.

    The empty subset has no edges to order and counts as not-a-trail, matching
    :func:`is_trail`. Guarded to ``|T| <= 8``.
    """
    indices = _edge_indices(g, subset)
    k = len(indices)
    if k > ORACLE_MAX_EDGES:
        raise ValueError(f"subset too large for the permutation oracle (|T|={k} > {ORACLE_MAX_EDGES})")
    if k == 0:
        return False
    edges = g.edges
    for perm in itertools.permutations(indices):
        end = edges[perm[0]][1]
        for e in perm[1:]:
            s, t = edges[e]
            if s != end:
                break
            end = t
        else:
            return True
    return False


def necessary_balance_condition(g: Multigraph, subset: Iterable[int]) -> bool:
    """Balance test every trail must pass: at most one vertex at +1, one at -1, none beyond."""
    return _balanced(_imbalances(g.edges, _edge_indices(g, subset)))
