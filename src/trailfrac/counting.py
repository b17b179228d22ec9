"""Exact and Monte Carlo computation of the trail fraction f(G) = d(G)/2^m.

``count_trails_exact`` runs a frontier dynamic program, the frontier-based
search of Kawahara, Inoue, Iwashita and Minato (IEICE Trans. Fundamentals
E100-A(9), 2017) and of Knuth's SIMPATH (TAOCP 4A, 7.1.4). Whether a subset
is a trail depends only on its vertex imbalances and on which unordered
vertex pairs it uses, so the edges between a pair form one class, decided
in a single step with binomial weights. The classes are taken in a greedy
vertex order that keeps the frontier, the vertices with both decided and
undecided classes, small; a live state records what the undecided classes
still need to know about the decided ones. Its cost grows with the number
of live states, not with 2^m, and a budget of ``EXACT_MAX_STATES`` bounds
it. Only the standard library runs on this path; the report holds m and d,
and loads ``fractions`` only when its ``f``, d / 2^m, is read.

``estimate_trail_fraction`` draws subsets from m independent fair bits per
sample. Sample ``i`` takes the ``ceil(m/64)`` Philox words at positions
``i*ceil(m/64)`` onward of the stream keyed by the seed, least significant
word first, so estimates are reproducible for a fixed ``(seed, samples)``.
The words are drawn one block of about ``_BLOCK_CELLS`` bytes at a time and
decided as drawn, one column of words per sample, by ``_trail_kernel``: a
popcount balance filter visits the vertices from the highest degree down and
drops each column at its first vertex whose imbalance rules out a trail, and
the few columns left get a bitset connectivity test. numpy is imported
inside these functions, and ``statistics`` inside ``wilson_interval``, so
an exact count loads neither.
"""

from __future__ import annotations

import heapq
import math
from collections import Counter
from collections.abc import Callable
from functools import reduce
from itertools import chain

from .graphs import Edge, Multigraph, Record, _check_ints

# Live frontier states allowed after any step of the exact count. The densest
# graph tried, gen_random_multigraph(8, 80, 1), peaks at 1.3e5 states and
# takes 6.6 s and 92 MB; gen_random_multigraph(16, 40, 1) peaks at 1.1e3
# states in 0.06 s (2-vCPU Xeon VM, Python 3.11).
EXACT_MAX_STATES = 200_000

# Bytes of packed Philox words per estimator block.
_BLOCK_CELLS = 1 << 21

class CountReport(Record):
    """Exact count result: d of the 2^m edge subsets are trails."""

    m: int
    d: int

    @property
    def f(self) -> Fraction:
        """The exact rational d / 2^m, built on each read."""
        from fractions import Fraction

        return Fraction(self.d, 1 << self.m)


class EstimateReport(Record):
    estimate: float
    ci_low: float
    ci_high: float
    confidence: float
    samples: int
    seed: int


class FamilyCount(Record):
    """Trail counts of the two-vertex family graph, split by subset parity."""

    m: int
    even_count: int
    odd_count: int
    total: int


def _trail_kernel(edges: tuple[Edge, ...]) -> Callable[[np.ndarray], int]:
    """The batched trail decision for the graph whose edge ``j`` is ``edges[j]``.

    Returns ``count_trails(words)``, which takes a ``(W, B)`` uint64 block with
    W = ceil(m/64) (at least 1) whose column ``c`` is one subset: bit ``j % 64``
    of ``words[j // 64, c]`` is edge ``j``. It clears the bits at or above m
    of the last row in place and returns how many columns are trails.

    Each touched vertex gets one (word, out-mask, in-mask) entry per word its
    edges use, and the vertices are taken in descending degree order (ties:
    lowest index), so most columns fail early. The balance filter adds up each
    vertex's imbalance, the popcount of its out-edges minus that of its
    in-edges, and then drops the columns with |imbalance| > 1 or with more than
    two nonzero imbalances so far; it stops when no column is left. The
    nonempty survivors then grow a set of reached edges from their lowest
    edge: a vertex that a reached edge touches reaches all its present edges,
    in sweeps over the vertices until a sweep changes nothing, and a column is
    connected iff it reaches all its edges. Self-loops are forbidden, so two
    weak components need four vertices, and with at most three touched vertices
    every balanced nonempty column is a trail.
    """
    import numpy as np

    m = len(edges)
    masks: dict[int, dict[int, list[int]]] = {}
    for j, (s, t) in enumerate(edges):
        bit = 1 << (j & 63)
        masks.setdefault(s, {}).setdefault(j >> 6, [0, 0])[0] |= bit
        masks.setdefault(t, {}).setdefault(j >> 6, [0, 0])[1] |= bit
    degree = Counter(chain.from_iterable(edges))
    plan = [
        [(w, out, inn) for w, (out, inn) in sorted(masks[v].items())]
        for v in sorted(masks, key=lambda v: (-degree[v], v))
    ]
    # The smallest signed type that holds every vertex imbalance, which lies
    # in [-degree, degree], and the negation of each.
    imb_type = np.min_scalar_type(-max(degree.values(), default=0) - 1)
    spare = np.uint64((1 << (m & 63)) - 1)

    def count_trails(words: np.ndarray) -> int:
        if m == 0:
            return 0
        if m & 63:
            words[-1] &= spare
        nonzero = np.zeros(words.shape[1], dtype=np.int8)
        for entries in plan:
            imb = reduce(
                np.add,
                (
                    np.subtract(np.bitwise_count(words[w] & out), np.bitwise_count(words[w] & inn), dtype=imb_type)
                    for w, out, inn in entries
                ),
            )
            nonzero += imb != 0
            keep = np.flatnonzero((np.abs(imb) <= 1) & (nonzero <= 2))
            if keep.size < nonzero.size:
                words = words.take(keep, axis=1)
                nonzero = nonzero.take(keep)
            if not keep.size:
                return 0
        words = words.take(np.flatnonzero(words.any(axis=0)), axis=1)
        if len(plan) <= 3 or not words.shape[1]:
            return words.shape[1]
        # Each column starts from the lowest set bit of its first nonzero word.
        cols = np.arange(words.shape[1])
        first = (words != 0).argmax(axis=0)
        low = words[first, cols]
        reached = np.zeros_like(words)
        reached[first, cols] = low & (~low + 1)
        while True:
            before = reached.copy()
            for entries in plan:
                hit = np.zeros(words.shape[1], dtype=bool)
                for w, out, inn in entries:
                    hit |= (reached[w] & (out | inn)) != 0
                for w, out, inn in entries:
                    np.bitwise_or(reached[w], words[w] & (out | inn), out=reached[w], where=hit)
            if np.array_equal(before, reached):
                break
        return int(np.count_nonzero((reached == words).all(axis=0)))

    return count_trails


def _frontier_order(adj: dict[int, set[int]]) -> list[int]:
    """The vertices of ``adj`` in greedy min-frontier order.

    The frontier is the placed vertices that still have an unplaced
    neighbour. Each pick is the unplaced neighbour of the frontier whose
    placing leaves the frontier smallest: it joins unless all its neighbours
    are placed, and each frontier vertex whose last unplaced neighbour it is
    leaves (ties: fewer unplaced neighbours, then lowest index). A vertex of
    least degree starts each weak component. Picks come from a heap with lazy
    deletion; a vertex's key only falls, so its current entry pops before
    its stale ones, and the whole order costs O((n + m) log n).
    """
    unplaced = {v: len(nbrs) for v, nbrs in adj.items()}
    leaving = dict.fromkeys(adj, 0)
    placed: set[int] = set()
    order: list[int] = []

    def key(v: int) -> tuple[int, int, int]:
        return ((unplaced[v] > 0) - leaving[v], unplaced[v], v)

    for start in sorted(adj, key=lambda v: (len(adj[v]), v)):
        heap = [] if start in placed else [key(start)]
        while heap:
            entry = heapq.heappop(heap)
            v = entry[2]
            if v in placed or entry != key(v):
                continue
            placed.add(v)
            order.append(v)
            changed = set()
            for u in adj[v]:
                unplaced[u] -= 1
                if u not in placed:
                    changed.add(u)
            for u in adj[v] | {v}:
                if u in placed and unplaced[u] == 1:
                    w = next(w for w in adj[u] if w not in placed)
                    leaving[w] += 1
                    changed.add(w)
            for u in changed:
                heapq.heappush(heap, key(u))
    return order


def _canonical(labels: list[int] | tuple[int, ...]) -> tuple[int, ...]:
    """Renumber component labels 1, 2, ... in order of first appearance; 0 stays 0."""
    seen = {0: 0}
    return tuple(seen.setdefault(label, len(seen)) for label in labels)


def _take_class(states: dict, pu: int, pv: int, a: int, b: int, rest: tuple[int, int, int, int]) -> dict:
    """Decide the class of ``a`` edges u->v and ``b`` edges v->u for every live state.

    u and v sit at frontier positions ``pu`` and ``pv``; ``rest`` holds the
    out- and in-edges of u and of v still undecided after this class. A
    choice of i forward and j backward edges shifts u's imbalance by
    k = i - j and v's by -k; by Vandermonde, C(a + b, b + k) choices share
    each k, one fewer for k = 0, whose empty choice changes nothing.
    """
    ou, nu, ov, nv = rest
    ou0, nu0, ov0, nv0 = ou + a, nu + b, ov + b, nv + a
    weights = [1] * (a + b + 1)
    for t in range(a + b):
        weights[t + 1] = weights[t] * (a + b - t) // (t + 1)
    weights[b] -= 1
    merged: dict[tuple[int, ...], tuple[int, ...]] = {}
    new: dict = {}
    for (imbs, labels, plus, minus), w in states.items():
        iu, iv = imbs[pu], imbs[pv]
        # Undecided edges must still be able to bring both imbalances into [-1, 1].
        lo = max(-b, -1 - ou - iu, iv - 1 - nv)
        hi = min(a, 1 + nu - iu, iv + 1 + ov)
        if lo > hi:
            continue
        # Take u and v out of the bound-end counts; each choice below puts
        # them back as their new imbalance and undecided edges leave them.
        plus -= (iu - nu0 >= 1) + (iv - nv0 >= 1)
        minus -= (iu + ou0 <= -1) + (iv + ov0 <= -1)
        nl = merged.get(labels)
        if nl is None:
            lu, lv = labels[pu], labels[pv]
            keep = lu or lv or max(labels) + 1
            joined = [keep if x and x in (lu, lv) else x for x in labels]
            joined[pu] = joined[pv] = keep
            nl = merged[labels] = _canonical(joined)
        shifted = list(imbs)
        for k in range(lo, hi + 1):
            ju, jv = iu + k, iv - k
            p = plus + (ju - nu >= 1) + (jv - nv >= 1)
            q = minus + (ju + ou <= -1) + (jv + ov <= -1)
            if p > 1 or q > 1:
                continue
            if k == 0:
                key = (imbs, labels, p, q)
                new[key] = new.get(key, 0) + w
            if weights[b + k]:
                shifted[pu], shifted[pv] = ju, jv
                key = (tuple(shifted), nl, p, q)
                new[key] = new.get(key, 0) + w * weights[b + k]
        if len(new) > EXACT_MAX_STATES:
            raise ValueError(
                f"exact count stopped at {len(new)} live frontier states, over the budget of "
                f"{EXACT_MAX_STATES}; estimate f(G) instead (trailfrac estimate)"
            )
    return new


def _retire(states: dict, p: int) -> tuple[dict, int]:
    """Drop the vertex at frontier position ``p``, whose classes are all decided.

    Its imbalance already lies in [-1, 1] and is counted among the bound
    ends. Returns the surviving states and the weight of the subsets
    completed here: when the vertex was its component's last frontier
    vertex, the component is finished, so the state ends as a trail if no
    other frontier vertex is touched, and is dropped otherwise. Its +1 and -1
    ends then always pair up: every touched vertex belongs to the finished
    component and has retired with an imbalance in [-1, 1], so ``plus`` and
    ``minus`` count exactly its +1 and -1 vertices, whose imbalances sum to 0.
    """
    new: dict = {}
    done = 0
    fate: dict[tuple[int, ...], tuple[tuple[int, ...] | None, bool]] = {}
    for (imbs, labels, plus, minus), w in states.items():
        if labels not in fate:
            rest = labels[:p] + labels[p + 1 :]
            if labels[p] and labels[p] not in rest:
                fate[labels] = (None, not any(rest))
            else:
                fate[labels] = (_canonical(rest), False)
        rest, alone = fate[labels]
        if rest is None:
            if alone:
                done += w
            continue
        key = (imbs[:p] + imbs[p + 1 :], rest, plus, minus)
        new[key] = new.get(key, 0) + w
    return new, done


def count_trails_exact(g: Multigraph) -> CountReport:
    """Exact d(G) and f(G) by a frontier dynamic program over unordered vertex pairs.

    The edges between each pair of vertices form one class, decided in one
    step; a vertex enters the frontier when the vertex order of
    ``_frontier_order`` reaches it and leaves after its last class. A state
    holds, for each frontier vertex, its imbalance and a canonical component
    label (0 for untouched), plus the number of vertices bound to end at +1
    and at -1 (at most one each): left at that imbalance, or unable to get
    back with their undecided edges. It carries the number of subsets of the
    decided edges that reach it. A state is dropped once some
    imbalance cannot return to [-1, 1]. When a component loses its last
    frontier vertex, the subsets of that state that take no further edge are
    trails exactly when no other frontier vertex is touched. Isolated vertices
    never enter the frontier. The vertex order changes the run time, never d.

    Raises ``ValueError`` when more than ``EXACT_MAX_STATES`` states are live.
    """
    pairs = Counter(g.edges)
    adj: dict[int, set[int]] = {}
    # Undecided out- and in-edges of each vertex.
    outs: Counter[int] = Counter()
    ins: Counter[int] = Counter()
    for (s, t), k in pairs.items():
        adj.setdefault(s, set()).add(t)
        adj.setdefault(t, set()).add(s)
        outs[s] += k
        ins[t] += k
    frontier: list[int] = []
    states: dict = {((), (), 0, 0): 1}
    d = 0
    for x in _frontier_order(adj):
        states = {(imbs + (0,), labels + (0,), p, q): w for (imbs, labels, p, q), w in states.items()}
        frontier.append(x)
        for pu, u in enumerate(frontier[:-1]):
            if u in adj[x]:
                a, b = pairs[u, x], pairs[x, u]
                outs[u] -= a
                ins[u] -= b
                outs[x] -= b
                ins[x] -= a
                rest = (outs[u], ins[u], outs[x], ins[x])
                states = _take_class(states, pu, len(frontier) - 1, a, b, rest)
        for v in [v for v in frontier if outs[v] == ins[v] == 0]:
            states, done = _retire(states, frontier.index(v))
            frontier.remove(v)
            d += done
    return CountReport(g.m, d)


def count_family_closed_form(m: int) -> FamilyCount:
    """Closed-form trail counts for the two-vertex graph with m/2 edges each way.

    A subset with ``a`` forward and ``b`` backward edges is a trail iff
    ``|a - b| <= 1`` and ``a + b >= 1``, which gives C(m, m/2) - 1 subsets of
    even size (the empty set is excluded) and 2*C(m, m/2 - 1) of odd size.
    """
    [m] = _check_ints(m=m)
    if m < 2 or m % 2:
        raise ValueError(f"family size m={m} must be a positive even integer")
    half = m // 2
    even = math.comb(m, half) - 1
    odd = 2 * math.comb(m, half - 1)
    return FamilyCount(m=m, even_count=even, odd_count=odd, total=even + odd)


def wilson_interval(successes: int, samples: int, confidence: float) -> tuple[float, float]:
    """Wilson score interval for a binomial proportion.

    The limits are exactly 0.0 when ``successes`` is 0 and exactly 1.0 when it
    equals ``samples``, their closed forms; the general formula leaves rounding
    residue there, a lower limit above an estimate of 0.
    """
    successes, samples = _check_ints(successes=successes, samples=samples)
    if samples < 1:
        raise ValueError("samples must be positive")
    if not 0 <= successes <= samples:
        raise ValueError(f"successes must lie in [0, {samples}], got {successes}")
    if not 0 < confidence < 1:
        raise ValueError(f"confidence must lie in (0, 1), got {confidence}")
    from statistics import NormalDist

    z = NormalDist().inv_cdf((1 + confidence) / 2)
    n = samples
    p = successes / n
    denom = 1 + z * z / n
    center = (p + z * z / (2 * n)) / denom
    half = (z / denom) * math.sqrt(p * (1 - p) / n + z * z / (4 * n * n))
    low = 0.0 if successes == 0 else max(0.0, center - half)
    high = 1.0 if successes == samples else min(1.0, center + half)
    return low, high


def estimate_trail_fraction(
    g: Multigraph, samples: int, seed: int, confidence: float = 0.95
) -> EstimateReport:
    """Unbiased Monte Carlo estimate of f(G) with a Wilson confidence interval.

    Each sampled subset includes every edge independently with probability 1/2;
    the estimate is the fraction of sampled subsets that are trails. Results
    are bit-identical for a fixed (seed, samples) pair; seeds lie in [0, 2^64).
    """
    samples, seed = _check_ints(samples=samples, seed=seed)
    if samples < 1:
        raise ValueError("samples must be positive")
    if not 0 < confidence < 1:
        raise ValueError(f"confidence must lie in (0, 1), got {confidence}")
    if not 0 <= seed < 1 << 64:
        raise ValueError(f"seed must lie in [0, 2**64), got {seed}")
    import numpy as np

    m = g.m
    words = max(1, -(-m // 64))
    block = max(1, _BLOCK_CELLS // (8 * words))
    philox = np.random.Philox(key=seed)
    count_trails = _trail_kernel(g.edges)
    successes = 0
    for done in range(0, samples, block):
        size = min(block, samples - done)
        successes += count_trails(philox.random_raw(size * words).reshape(size, words).T)
    ci_low, ci_high = wilson_interval(successes, samples, confidence)
    return EstimateReport(successes / samples, ci_low, ci_high, confidence, samples, seed)
