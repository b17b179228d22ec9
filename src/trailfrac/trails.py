"""Trail decisions for edge subsets, with explicit witness orderings.

A nonempty edge subset is orderable as a trail iff its edges lie in one weak
component and the per-vertex imbalances (out minus in) are either all zero or
exactly one ``+1`` and one ``-1``. :func:`is_trail` applies that
characterization and constructs a witness; :func:`oracle_is_trail` is the
brute-force ground truth that tries every ordering, kept deliberately naive so
the fast path can be validated against it. The witness is Hierholzer's walk
(1873) over out-edge lists in descending index order, so popping a list takes
its lowest unused edge. Edge arrays and imbalances come from ``graphs``.
"""

from __future__ import annotations

import itertools
from enum import Enum

from .graphs import Multigraph, Record, SubsetLike, _edge_arrays, _imbalances, mask_indices, subset_mask

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


def _connected(src: list[int], dst: list[int], idx: list[int]) -> bool:
    """True iff all listed edges lie in one weak component (nonempty list)."""
    parent: dict[int, int] = {}

    def find(x: int) -> int:
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    touched = merges = 0
    for j in idx:
        for v in (src[j], dst[j]):
            if v not in parent:
                parent[v] = v
                touched += 1
        ra, rb = find(src[j]), find(dst[j])
        if ra != rb:
            parent[ra] = rb
            merges += 1
    return touched - merges == 1


def _hierholzer(src: list[int], dst: list[int], idx: list[int], imbalances: dict[int, int]) -> tuple[int, ...]:
    """Order a feasible ascending edge list into a trail, extending by lowest edge index first.

    Open trails start at the unique ``+1`` vertex; closed trails start at the
    source of the lowest-index member edge. The stack walk splices pending
    cycles so the full subset is consumed.
    """
    out: dict[int, list[int]] = {}
    for j in reversed(idx):  # descending, so each list's end is its lowest edge
        out.setdefault(src[j], []).append(j)

    start = None
    for v, x in imbalances.items():
        if x == 1:
            start = v
            break
    if start is None:
        start = src[idx[0]]

    vertex_stack = [start]
    edge_stack: list[int] = []
    reversed_trail: list[int] = []
    while vertex_stack:
        lst = out.get(vertex_stack[-1])
        if lst:
            e = lst.pop()
            edge_stack.append(e)
            vertex_stack.append(dst[e])
        else:
            vertex_stack.pop()
            if edge_stack:
                reversed_trail.append(edge_stack.pop())
    trail = tuple(reversed(reversed_trail))
    assert len(trail) == len(idx), "feasibility checks should guarantee a full traversal"
    return trail


def is_trail(g: Multigraph, subset: SubsetLike) -> TrailVerdict:
    """Decide whether the subset can be ordered as a trail; build a witness if so.

    A subset failing both conditions reports ``disconnected``: scattered edges
    are described by where they sit before how they point. The member edges
    are decoded from the mask once, in ascending order, so the cost is near
    linear in ``m``.
    """
    mask = subset_mask(g, subset)
    if mask == 0:
        return TrailVerdict(False, None, FailureReason.EMPTY_SUBSET)
    src, dst = _edge_arrays(g)
    idx = mask_indices(mask)
    if not _connected(src, dst, idx):
        return TrailVerdict(False, None, FailureReason.DISCONNECTED)
    imbalances = _imbalances(src, dst, idx)
    if not _balanced(imbalances):
        return TrailVerdict(False, None, FailureReason.DEGREE_IMBALANCE)
    return TrailVerdict(True, _hierholzer(src, dst, idx, imbalances), None)


def witness_trail(g: Multigraph, subset: SubsetLike) -> tuple[int, ...] | None:
    """A chaining edge ordering of the subset, or None when it is not a trail."""
    return is_trail(g, subset).witness


def oracle_is_trail(g: Multigraph, subset: SubsetLike) -> bool:
    """Ground-truth decision by trying all ``|T|!`` orderings.

    The empty subset has no edges to order and counts as not-a-trail, matching
    :func:`is_trail`. Guarded to ``|T| <= 8``.
    """
    mask = subset_mask(g, subset)
    indices = mask_indices(mask)
    k = len(indices)
    if k > ORACLE_MAX_EDGES:
        raise ValueError(f"subset too large for the permutation oracle (|T|={k} > {ORACLE_MAX_EDGES})")
    if k == 0:
        return False
    edges = g.edges
    for perm in itertools.permutations(indices):
        end = edges[perm[0]].target
        for e in perm[1:]:
            if edges[e].source != end:
                break
            end = edges[e].target
        else:
            return True
    return False


def necessary_balance_condition(g: Multigraph, subset: SubsetLike) -> bool:
    """Balance test every trail must pass: at most one vertex at +1, one at -1, none beyond."""
    mask = subset_mask(g, subset)
    src, dst = _edge_arrays(g)
    return _balanced(_imbalances(src, dst, mask_indices(mask)))
