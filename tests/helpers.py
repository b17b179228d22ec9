"""Shared test oracles and corpus builders.

The oracles here are deliberately self-contained (no imports from the
library's decision logic) so tests compare two independent routes. The
exception is ``enumerate_d``, which drives the estimator's kernel over
every subset: it shares no code with the frontier count it checks. Past the
reach of enumeration, ``few_vertex_d`` counts d exactly from binomial sums
for any graph whose edges touch at most four vertices.
"""

from __future__ import annotations

import itertools
import math
import os
import sys
from array import array
from collections import Counter
from contextlib import contextmanager
from pathlib import Path

import numpy as np

import trailfrac
from trailfrac import Multigraph, counting, gen_cycle, gen_family, gen_path, gen_random_multigraph, gen_star
from trailfrac.eis import EisSequence
from trailfrac.graphs import GraphFormatError, _check_vertices


def perm_oracle(g: Multigraph, indices) -> bool:
    """Literal trail test: some ordering of the edges chains end to start.

    Independent reimplementation of the permutation oracle; empty subsets are
    not trails.
    """
    idx = list(indices)
    if not idx:
        return False
    for perm in itertools.permutations(idx):
        ok = True
        for a, b in zip(perm, perm[1:]):
            if g.edges[a][1] != g.edges[b][0]:
                ok = False
                break
        if ok:
            return True
    return False


def chains(g: Multigraph, order) -> bool:
    """Whether consecutive edges in the ordering satisfy target == next source."""
    order = list(order)
    return all(g.edges[a][1] == g.edges[b][0] for a, b in zip(order, order[1:]))


def brute_force_d(g: Multigraph) -> int:
    """d(G) by the permutation oracle over all subsets; practical for m <= 7."""
    m = g.m
    count = 0
    for mask in range(1, 1 << m):
        if perm_oracle(g, mask_members(mask)):
            count += 1
    return count


def enumerate_d(g: Multigraph) -> int:
    """d(G) by deciding all 2^m subsets with the estimator's kernel, ``counting._trail_kernel``.

    Mask ``x`` is edge set {j : bit j of x is set}, which is how the kernel reads
    a one-word sample, so blocks of consecutive masks go in as they are.
    Block size follows ``counting._BLOCK_WORDS``, read at each call so a test
    can shrink it. Practical up to m = 24 or so.
    """
    count_trails = counting._trail_kernel(g.edges)
    block = counting._BLOCK_WORDS  # one word per mask
    return sum(count_trails(array("Q", range(start, min(start + block, 1 << g.m)))) for start in range(0, 1 << g.m, block))


def pack_columns(masks, m: int) -> bytes:
    """The kernel's sample-major words for edge sets ``masks`` of an m-edge graph: ceil(m/64) words each, at least 1."""
    return b"".join(mask.to_bytes(8 * max(1, -(-m // 64)), "little") for mask in masks)


def numpy_reference_d(g: Multigraph) -> int:
    """d(G) over all 2^m subsets by array operations, sharing no code with the library.

    Imbalance is the product of the subset bit matrix with the signed
    incidence matrix; a subset is balanced iff max|x| <= 1 and sum|x| <= 2.
    Connectivity of the balanced subsets comes from min-label propagation:
    every present edge lowers both endpoint labels to their minimum until
    nothing changes, and the subset is connected iff all touched vertices
    share one label.
    """
    m, n = g.m, g.vertex_count
    if m == 0:
        return 0
    src = np.array([e[0] for e in g.edges])
    dst = np.array([e[1] for e in g.edges])
    incidence = np.zeros((m, n), dtype=np.int8)
    incidence[np.arange(m), src] += 1
    incidence[np.arange(m), dst] -= 1
    masks = np.arange(1, 1 << m, dtype=np.int64)
    bits = np.empty((masks.size, m), dtype=np.int8)
    for j in range(m):
        bits[:, j] = (masks >> j) & 1
    imbalance = np.abs(bits @ incidence)
    bits = bits[(imbalance.max(axis=1) <= 1) & (imbalance.sum(axis=1) <= 2)].astype(bool)

    touched = bits @ (incidence != 0)
    labels = np.broadcast_to(np.arange(n), touched.shape).copy()
    changed = True
    while changed:
        changed = False
        for j in range(m):
            present = bits[:, j]
            a, b = labels[:, src[j]], labels[:, dst[j]]
            low = np.minimum(a, b)
            if np.any(present & (a != b)):
                changed = True
                labels[:, src[j]] = np.where(present, low, a)
                labels[:, dst[j]] = np.where(present, low, b)
    lowest = np.where(touched, labels, n).min(axis=1)
    highest = np.where(touched, labels, -1).max(axis=1)
    return int(np.count_nonzero(lowest == highest))


def few_vertex_d(g: Multigraph) -> int:
    """d(G) of a graph whose edges touch at most four vertices, from binomial sums alone.

    Name the touched vertices 0 to 3. A subset that takes i of the a edges
    u->v and j of the b edges v->u has net flow k = i - j from u to v, and
    Vandermonde's identity gives W_uv(k) = C(a + b, b + k) such choices; a
    name no edge touches gets empty classes, W = {0: 1}. The subsets with
    imbalances (alpha0, ..., alpha3) number the sum of prod W_uv(k_uv) over
    the nets with those imbalances. With k12, k13 and k23 free, the nets at
    vertex 0 follow: k01 = k12 + k13 - alpha1, k02 = k23 - k12 - alpha2 and
    k03 = -k13 - k23 - alpha3. So for a fixed k12 the sum over (k13, k23) is
    the convolution of f(k13) = W13(k13) W01(k01) with h(k23) = W23(k23) W02(k02)
    at s = k13 + k23, read against W03(-s - alpha3). B sums that over the 13
    balanced vectors, zero and +1/-1 on each ordered pair, and counts the
    empty subset.

    Self-loops are forbidden, so a balanced nonempty subset that is not
    connected splits into two components of two vertices each, on a perfect
    matching {P, Q}. With nets kP and kQ it is balanced iff (kP, kQ) is
    (0, 0), (+-1, 0) or (0, +-1), and both parts must be nonempty. D counts
    those subsets and d = B - 1 - D. With three or fewer touched vertices, D
    is 0 and the sum has one free net.
    """
    touched = sorted(set(itertools.chain.from_iterable(g.edges)))
    if len(touched) > 4:
        raise ValueError(f"edges touch {len(touched)} vertices, at most 4 allowed")
    # Vertices below 0 stand in for untouched ones: no edge meets them.
    vertex = (touched + [-1, -2, -3, -4])[:4]
    count = Counter(g.edges)

    def weights(u: int, v: int) -> dict[int, int]:
        a, b = count[vertex[u], vertex[v]], count[vertex[v], vertex[u]]
        return {k: math.comb(a + b, b + k) for k in range(-b, a + 1)}

    w = {(u, v): weights(u, v) for u, v in itertools.combinations(range(4), 2)}
    w01, w02, w03, w12, w13, w23 = w.values()
    vectors = [(0, 0, 0)] + [
        tuple((v == p) - (v == q) for v in (1, 2, 3)) for p, q in itertools.permutations(range(4), 2)
    ]
    # np.convolve and np.dot on object arrays multiply and add exact ints.
    s_low = min(w13) + min(w23)
    balanced_subsets = 0
    for alpha1, alpha2, alpha3 in vectors:
        w03_at_s = np.array([w03.get(-s - alpha3, 0) for s in range(s_low, max(w13) + max(w23) + 1)], dtype=object)
        for k12, w_12 in w12.items():
            f = np.array([c * w01.get(k12 + k13 - alpha1, 0) for k13, c in w13.items()], dtype=object)
            h = np.array([c * w02.get(k23 - k12 - alpha2, 0) for k23, c in w23.items()], dtype=object)
            balanced_subsets += w_12 * np.dot(np.convolve(f, h), w03_at_s)
    matchings = [((0, 1), (2, 3)), ((0, 2), (1, 3)), ((0, 3), (1, 2))]
    shifts = [(0, 0), (1, 0), (-1, 0), (0, 1), (0, -1)]
    split = sum(
        (w[p].get(kp, 0) - (kp == 0)) * (w[q].get(kq, 0) - (kq == 0)) for p, q in matchings for kp, kq in shifts
    )
    return balanced_subsets - 1 - split


def reference_greedy_eis(g: Multigraph) -> tuple[tuple[int, ...], tuple[int, ...], tuple[int, ...]]:
    """Greedy edge-increasing sequence by a linear scan for the next vertex.

    The quadratic original of ``trailfrac.eis.greedy_eis``: each step scans
    every live vertex for the fewest remaining edges (ties: lowest index).
    Returns ``(vertices, fresh_edges, eliminated_per_step)``.
    """
    remaining: dict[int, set[int]] = {}
    for i, (s, t) in enumerate(g.edges):
        remaining.setdefault(s, set()).add(i)
        remaining.setdefault(t, set()).add(i)

    vertices: list[int] = []
    fresh_edges: list[int] = []
    eliminated: list[int] = []
    while remaining:
        v = min(remaining, key=lambda u: (len(remaining[u]), u))
        dropped = remaining.pop(v)
        vertices.append(v)
        fresh_edges.append(min(dropped))
        removed = 1
        for e in dropped:
            s, t = g.edges[e]
            u = t if s == v else s
            live = remaining.get(u)
            if live is None:
                continue
            live.discard(e)
            if not live:
                del remaining[u]
                removed += 1
        eliminated.append(removed)
    return tuple(vertices), tuple(fresh_edges), tuple(eliminated)


def reference_verify_eis(g: Multigraph, seq) -> bool:
    """Edge-increasing check by per-vertex edge-id sets and a growing prefix set.

    The original of ``trailfrac.eis.verify_eis``: each listed vertex gets the
    set of its incident edge ids, and a vertex after the first passes when its
    set is not contained in the union of the sets before it. Sequences with
    repeated vertices fail.
    """
    vertices = seq.vertices if isinstance(seq, EisSequence) else tuple(seq)
    _check_vertices(vertices, g.vertex_count)
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


def reference_frontier_order(adj: dict[int, set[int]]) -> list[int]:
    """The greedy min-frontier order of ``counting._frontier_order``, each key recomputed from scratch.

    While some placed vertex has an unplaced neighbour, the next vertex is the
    unplaced neighbour x of a placed vertex with the least (frontier change,
    unplaced neighbours, index). The change is 1 if x keeps an unplaced
    neighbour, less one for each placed vertex whose only unplaced neighbour
    is x. Otherwise the unplaced vertex of least degree (ties: lowest index)
    starts the next weak component.
    """
    placed: set[int] = set()
    order: list[int] = []

    def key(x: int) -> tuple[int, int, int]:
        leaving = sum(adj[p] - placed == {x} for p in adj[x] & placed)
        return ((len(adj[x] - placed) > 0) - leaving, len(adj[x] - placed), x)

    while len(order) < len(adj):
        candidates = set().union(*(adj[p] for p in placed)) - placed
        v = min(candidates, key=key) if candidates else min(set(adj) - placed, key=lambda x: (len(adj[x]), x))
        placed.add(v)
        order.append(v)
    return order


def src_env() -> dict[str, str]:
    """The environment with this checkout's ``src`` first on PYTHONPATH, for child interpreters."""
    src = str(Path(trailfrac.__file__).resolve().parents[1])
    return {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}


@contextmanager
def int_digit_limit(limit: int):
    """Run the block under ``sys.set_int_max_str_digits(limit)`` (0 lifts the limit), then restore it."""
    before = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(limit)
    try:
        yield
    finally:
        sys.set_int_max_str_digits(before)


def reference_decimal_ints(tokens) -> list[int]:
    """The tokens as integers, checked one at a time: ``ValueError`` unless each is a run of ASCII digits."""
    tokens = list(tokens)
    for token in tokens:
        if not (token.isascii() and token.isdigit()):
            raise ValueError(f"{token!r} is not a run of ASCII digits")
    return [int(token) for token in tokens]


def reference_parse_graph(text: str) -> Multigraph:
    """``trailfrac.parse_graph`` as it was before bulk parsing: one edge line at a time.

    Same format, same graphs, same ``GraphFormatError`` messages. Tokens go
    through :func:`reference_decimal_ints`, not the library's token check.
    """
    lines = [ln for raw in text.splitlines() if (ln := raw.strip()) and not ln.startswith("#")]
    if not lines:
        raise GraphFormatError("missing header line 'n m'")
    header = lines[0].split()
    if len(header) != 2:
        raise GraphFormatError(f"malformed header {lines[0]!r}: expected 'n m'")
    try:
        n, m = reference_decimal_ints(header)
    except ValueError:
        raise GraphFormatError(f"malformed header {lines[0]!r}: expected two unsigned decimal integers") from None
    body = lines[1:]
    if len(body) != m:
        raise GraphFormatError(f"expected {m} edge lines, found {len(body)}")
    edges = []
    for k, ln in enumerate(body):
        parts = ln.split()
        if len(parts) != 2:
            raise GraphFormatError(f"edge line {k}: malformed {ln!r}, expected 'src dst'")
        try:
            s, t = reference_decimal_ints(parts)
        except ValueError:
            raise GraphFormatError(f"edge line {k}: malformed {ln!r}, expected two unsigned decimal integers") from None
        if s >= n or t >= n:
            raise GraphFormatError(f"edge line {k}: endpoint ({s}, {t}) out of range for n={n}")
        if s == t:
            raise GraphFormatError(f"edge line {k}: self-loop at vertex {s} is forbidden")
        edges.append((s, t))
    return Multigraph(n, tuple(edges))


def reference_hierholzer(g: Multigraph, indices) -> tuple[int, ...]:
    """Trail order of a feasible subset by Hierholzer's walk with a read pointer per vertex.

    The original of ``trailfrac.trails._hierholzer``: each vertex's out-edges
    are listed in ascending index order and a pointer marks the next unused
    one, so the walk always extends by the lowest unused edge. Open trails
    start at the +1 vertex, closed ones at the source of the lowest edge.
    """
    idx = sorted(indices)
    out: dict[int, list[int]] = {}
    imbalance: dict[int, int] = {}
    for j in idx:
        s, t = g.edges[j]
        out.setdefault(s, []).append(j)
        imbalance[s] = imbalance.get(s, 0) + 1
        imbalance[t] = imbalance.get(t, 0) - 1
    start = next((v for v, x in imbalance.items() if x == 1), g.edges[idx[0]][0])
    ptr = dict.fromkeys(out, 0)
    vertex_stack = [start]
    edge_stack: list[int] = []
    reversed_trail: list[int] = []
    while vertex_stack:
        v = vertex_stack[-1]
        lst = out.get(v)
        p = ptr.get(v, 0)
        if lst is not None and p < len(lst):
            ptr[v] = p + 1
            e = lst[p]
            edge_stack.append(e)
            vertex_stack.append(g.edges[e][1])
        else:
            vertex_stack.pop()
            if edge_stack:
                reversed_trail.append(edge_stack.pop())
    return tuple(reversed(reversed_trail))


def mask_members(mask: int) -> list[int]:
    """The edge indices of a subset mask, ascending: bit ``i`` set means edge ``i`` is a member."""
    return [i for i in range(mask.bit_length()) if mask >> i & 1]


def all_subsets(m: int):
    for mask in range(1 << m):
        yield mask, mask_members(mask)


def two_disjoint_two_cycles() -> Multigraph:
    return Multigraph(4, ((0, 1), (1, 0), (2, 3), (3, 2)))


def small_corpus() -> list[tuple[str, Multigraph]]:
    """>= 50 graphs with m <= 7: families, paths, cycles, stars, 32 random."""
    graphs: list[tuple[str, Multigraph]] = []
    for m in (2, 4, 6):
        graphs.append((f"family{m}", gen_family(m)))
    for k in range(1, 7):
        graphs.append((f"path{k}", gen_path(k)))
    for k in range(2, 7):
        graphs.append((f"cycle{k}", gen_cycle(k)))
    for k in range(1, 7):
        graphs.append((f"star{k}", gen_star(k)))
    seed = 1000
    for n in (2, 3, 4, 5):
        for m in (4, 5, 6, 7):
            for _ in range(2):
                graphs.append((f"random(n={n},m={m},seed={seed})", gen_random_multigraph(n, m, seed)))
                seed += 1
    return graphs
