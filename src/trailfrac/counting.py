"""Exact and Monte Carlo computation of the trail fraction f(G) = d(G)/2^m.

``count_trails_exact`` runs a frontier dynamic program, the frontier-based
search of Kawahara, Inoue, Iwashita and Minato (IEICE Trans. Fundamentals
E100-A(9), 2017) and of Knuth's SIMPATH (TAOCP 4A, 7.1.4). Whether a subset
is a trail depends only on its vertex imbalances and on which unordered
vertex pairs it uses, so the edges between a pair form one class, decided
in a single step with binomial weights. The classes are taken in a greedy
vertex order that keeps the frontier, the vertices with both decided and
undecided classes, small; a live state records what the undecided classes
still need to know about the decided ones, in a slot per frontier vertex
that the step deciding the vertex's last class frees. Its cost grows with
the number of live states, not with 2^m, and a budget of
``EXACT_MAX_STATES`` bounds it. Only the standard library runs on this
path; the report holds m and d, and loads ``fractions`` only when its
``f``, d / 2^m, is read.

``estimate_trail_fraction`` draws subsets from m independent fair bits per
sample. Sample ``i`` takes the ``ceil(m/64)`` words at positions
``i*ceil(m/64)`` onward of the Philox4x64-10 stream keyed by the seed, the
words of NumPy's ``Philox(key=seed).random_raw``, least significant word
first, so estimates are reproducible for a fixed ``(seed, samples)``.
``_philox`` draws the words of one block of about ``_BLOCK_WORDS`` words at
a time, and ``_trail_kernel`` decides them bit-sliced, each edge one int
over the block's samples: a balance filter visits the vertices from the
highest degree down and drops each sample at its first vertex whose
imbalance rules out a trail, and the few samples left get a reached-edge
connectivity test. Like the exact count, estimation runs on the standard
library alone; ``statistics`` is imported inside ``wilson_interval``, so an
exact count does not load it.
"""

from __future__ import annotations

import heapq
import math
from collections import Counter
from collections.abc import Callable
from functools import reduce
from itertools import chain
from operator import or_, xor

from .graphs import Multigraph, Record, _check_ints

# Live frontier states allowed after any step of the exact count. The densest
# graph tried, gen_random_multigraph(5, 400, 1), peaks at 195 144 states, 98%
# of the budget, and takes a median 5.6 s of CPU (7 runs) and 97 MB max RSS
# as `trailfrac count`; gen_random_multigraph(16, 40, 1) peaks at 1.0e3 states
# and takes 0.08-0.09 s of wall time and 16 MB (2-vCPU Xeon VM, Python 3.11).
EXACT_MAX_STATES = 200_000

# Philox words per estimator block, rounded down to a multiple of 64 samples
# and raised to at least 64 samples.
_BLOCK_WORDS = 1 << 14

# Philox4x64-10's round multipliers and key bumps.
_PHILOX_M0, _PHILOX_M1 = 0xD2E7470EE14C6C93, 0xCA5A826395121157
_PHILOX_W0, _PHILOX_W1 = 0x9E3779B97F4A7C15, 0xBB67AE8584CAA73B
_MASK64 = (1 << 64) - 1

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


def _philox(seed: int, lanes: int) -> Callable[[int], bytearray]:
    """``draw(c)``: words 4c to 4(c + lanes) - 1 of the Philox stream keyed by ``seed``, as little-endian bytes.

    Philox4x64-10 (Salmon, Moraes, Dror and Shaw, SC 2011) under the key
    (seed, 0): counter value c + 1 yields words 4c to 4c + 3. Every counter
    of a draw runs in its own 128-bit slot of one int, so a 64x64-bit product
    never reaches the next slot and a round is 10 big-int operations for all
    lanes at once. The replicated round keys and the counter ramp are built
    once, here.
    """

    def spread(x: int) -> int:
        return int.from_bytes(x.to_bytes(16, "little") * lanes, "little")

    low = spread(_MASK64)
    keys = [(spread(seed + r * _PHILOX_W0 & _MASK64), spread(r * _PHILOX_W1 & _MASK64)) for r in range(10)]
    ramp = int.from_bytes(b"".join([c.to_bytes(16, "little") for c in range(1, lanes + 1)]), "little")

    def draw(start: int) -> bytearray:
        c = spread(start) + ramp
        # c1 and c3 keep the high half of their slot, which only a masked sum reads.
        c0, c1, c2, c3 = c & low, c >> 64, 0, 0
        for k0, k1 in keys:
            p0, p1 = _PHILOX_M0 * c0, _PHILOX_M1 * c2
            c0, c1, c2, c3 = (p1 >> 64 ^ c1 ^ k0) & low, p1, (p0 >> 64 ^ c3 ^ k1) & low, p0
        # Each 128-bit slot of c0 | c1 << 64 holds a counter's first two words, and of c2 | c3 << 64 its last two.
        out = bytearray(32 * lanes)
        words = memoryview(out).cast("Q")
        for k, pair in enumerate((c0 | (c1 & low) << 64, c2 | (c3 & low) << 64)):
            pair = memoryview(pair.to_bytes(16 * lanes, "little")).cast("Q")
            words[2 * k :: 4], words[2 * k + 1 :: 4] = pair[::2], pair[1::2]
        return out

    return draw


# The masked swap stages of a u x u bit transpose, for units of u = 8, 16, 32
# and 64 bits, with each unit's memoryview format: stage j swaps bit (r, c)
# with bit (r + j, c - j) wherever bit j of r is 0 and of c is 1, and row r
# of a block is bits u*r to u*r + u - 1 of its u*u/8 bytes, so the mask of a
# block repeats j rows of the columns with bit j set and j empty rows.
_SWAPS = {
    u: (
        fmt,
        [
            ((u - 1) * j, (sum(1 << c for c in range(u) if c & j).to_bytes(u // 8, "little") * j + bytes(u // 8 * j)) * (u // 2 // j))
            for j in (32, 16, 8, 4, 2, 1)
            if j < u
        ],
    )
    for u, fmt in ((8, "B"), (16, "H"), (32, "I"), (64, "Q"))
}


def _trail_kernel(edges: tuple[tuple[int, int], ...]) -> Callable[[bytes | bytearray | memoryview], int]:
    """The batched trail decision for the graph whose edge ``j`` is ``edges[j]``.

    Returns ``count_trails(words)``, which takes n*W little-endian 64-bit
    words, W = ceil(m/64) (at least 1), sample-major, the Philox stream's own
    layout: bit ``j % 64`` of word ``i*W + j // 64`` is edge ``j`` of sample
    ``i``, and bits at or above m are ignored. One sample with edge set
    ``mask`` is ``mask.to_bytes(8 * W, "little")``. It returns how many of the
    n samples are trails.

    The samples are decided bit-sliced: edge ``j`` becomes one int whose bit
    ``i`` is edge ``j`` of sample ``i``. A vertex that first reads an edge of
    word row ``j // 64`` transposes the row in blocks of u samples, the
    fewest of 8, 16, 32 or 64 bits that hold its edges, u x u bits at a time. Each touched
    vertex has its out- and in-edges, in a plan built in one pass over the
    edges, and the vertices are taken in descending degree order (ties:
    lowest index), so most samples fail early. At each vertex a bit-sliced
    counter starts at 1 - |ins| and adds its present out-edges and absent
    in-edges, so it ends at the imbalance plus 1; its planes hold the degree
    plus 2, so it never wraps onto 0, 1 or 2. As in ``trails._balanced``, a
    sample stays alive while it is 0, 1 or 2 and no second vertex is at 2
    (+1), and the call returns once none is left.
    The nonempty survivors, if any, grow a set of reached edges from their
    lowest edge: a vertex that a reached edge touches reaches all its present
    edges, in sweeps over the vertices until a sweep changes nothing, and a
    sample is connected iff it reaches all its edges. Self-loops are
    forbidden, so two weak components need four vertices, and with at most
    three touched vertices every balanced nonempty sample is a trail.
    """
    m = len(edges)
    width = max(1, -(-m // 64))
    incident: dict[int, tuple[list[int], list[int]]] = {}
    for j, (s, t) in enumerate(edges):
        incident.setdefault(s, ([], []))[0].append(j)
        incident.setdefault(t, ([], []))[1].append(j)
    plan = [
        (outs, ins, (len(outs) + len(ins) + 1).bit_length())
        for _, (outs, ins) in sorted(incident.items(), key=lambda item: (-len(item[1][0]) - len(item[1][1]), item[0]))
    ]
    # The unit of each word row: the fewest bits, 8 at least, that hold its edges.
    units = [max(8, 1 << (min(64, m - 64 * w) - 1).bit_length()) for w in range(width)]
    masks: dict[tuple[int, int], list[tuple[int, int]]] = {}

    def count_trails(words: bytes | bytearray | memoryview) -> int:
        words = memoryview(words).cast("B")
        n = len(words) // (8 * width)
        if not m or not n:
            return 0
        rows: dict[int, memoryview] = {}
        columns: dict[int, int] = {}

        def edge(j: int) -> int:
            if j not in columns:
                w = j >> 6
                unit = units[w]
                if w not in rows:
                    fmt, swaps = _SWAPS[unit]
                    blocks = -(-n // unit)
                    if (unit, blocks) not in masks:
                        masks[unit, blocks] = [(shift, int.from_bytes(mask * blocks, "little")) for shift, mask in swaps]
                    x = int.from_bytes(words.cast(fmt)[64 // unit * w :: 64 // unit * width], "little")
                    for shift, mask in masks[unit, blocks]:
                        t = (x >> shift ^ x) & mask
                        x ^= t ^ t << shift
                    rows[w] = memoryview(x.to_bytes(unit * unit // 8 * blocks, "little")).cast(fmt)
                columns[j] = int.from_bytes(rows[w][j & 63 :: unit], "little")
            return columns[j]

        full = (1 << n) - 1
        alive, ups = full, 0
        for outs, ins, size in plan:
            # Started at 1 - |ins|, the counter ends at the imbalance plus 1, modulo 2^size.
            counter = [full if (1 - len(ins)) >> k & 1 else 0 for k in range(size)]
            for x in chain(map(edge, outs), [edge(j) ^ full for j in ins]):
                for k, plane in enumerate(counter):
                    counter[k], x = plane ^ x, plane & x
                    if not x:
                        break
            # Every imbalance in {-1, 0, 1} and at most one at +1, as in trails._balanced.
            alive &= ~reduce(or_, counter[2:], counter[0] & counter[1])
            up = alive & counter[1]
            alive &= ~(up & ups)
            ups |= up
            # With thousands of vertices all samples can fail within a few; the rest of the plan costs seconds.
            if not alive:
                return 0
        present = [edge(j) & alive for j in range(m)]
        alive &= reduce(or_, present)
        # On three vertices every sample left is a trail (see above); sweeps would add 10-20% to the kernel on the family.
        if len(plan) <= 3 or not alive:
            return alive.bit_count()
        reached, rest = [], alive
        for x in present:
            reached.append(x & rest)
            rest &= ~x
        changed = True
        while changed:
            changed = False
            for outs, ins, _ in plan:
                hit = 0
                for j in chain(outs, ins):
                    hit |= reached[j]
                for j in chain(outs, ins):
                    grown = reached[j] | present[j] & hit
                    if grown != reached[j]:
                        reached[j], changed = grown, True
        missing = reduce(or_, map(xor, present, reached))
        return (alive & ~missing).bit_count()

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
            for u in adj[v] | {v}:
                unplaced[u] -= u != v
                if u not in placed:
                    changed.add(u)
                elif unplaced[u] == 1:
                    w = next(w for w in adj[u] if w not in placed)
                    leaving[w] += 1
                    changed.add(w)
            for u in changed:
                heapq.heappush(heap, key(u))
    return order


def _free(labels: list[int] | tuple[int, ...], gone: list[int]) -> tuple[int, ...] | bool:
    """Canonical ``labels`` with the slots in ``gone`` set to 0, or the fate of a component they finish.

    A component with no frontier vertex left is finished. The state then
    ends as a trail (True) if no other component finishes and no frontier
    vertex left is touched, as its +1 and -1 ends, counted in ``plus`` and
    ``minus``, pair up; otherwise it is dropped (False).
    """
    kept = list(labels)
    for p in gone:
        kept[p] = 0
    ended = {labels[p] for p in gone} - {0} - set(kept)
    seen = {0: 0}
    return len(ended) == 1 and not any(kept) if ended else tuple([seen.setdefault(x, len(seen)) for x in kept])


def _take_class(
    states: dict, pu: int, pv: int, a: int, b: int, rest: tuple[int, ...], gone: list[int], fates: dict
) -> tuple[dict, int]:
    """Decide the class of ``a`` edges u->v and ``b`` edges v->u for every live state.

    u and v hold slots ``pu`` and ``pv``; ``rest`` holds the out- and
    in-edges of u still undecided after this class and the edges decided at
    u before it, then the same three for v. Slots new to the states, up to
    ``max(pu, pv)``, enter every state untouched; all share one width, as
    the untouched state always lives. The step frees the slots in ``gone``,
    those of u and v left with none: their imbalance and label become 0
    (``_free``). A choice of i forward and j backward edges shifts u's
    imbalance by k = i - j and v's by -k; by Vandermonde, C(a + b, b + k)
    choices share each k, one fewer for k = 0, whose empty choice joins
    nothing; a state with no feasible k makes none. Only the weights of k in
    [klo, khi] are built: u's imbalance sums +-1 over its ``du`` decided
    edges, so |iu| <= du and |iv| <= dv, and that range, which holds 0,
    holds every state's feasible k. Two untouched vertices join as label
    -1, which no slot holds and ``_free`` renumbers. A label tuple's fate,
    its freed labels without and with the class's edges, depends only on the
    labels, ``pu``, ``pv`` and ``gone``, so ``fates`` keeps the fates under
    ``(pu, pv, *gone)`` across steps. A finished trail goes into the
    new states under the key ``()``, which the budget does not count;
    returns the new states without it and the trails it gathered.
    """
    ou, nu, du, ov, nv, dv = rest
    ou0, nu0, ov0, nv0 = ou + a, nu + b, ov + b, nv + a
    su, sv = int(pu not in gone), int(pv not in gone)
    klo = max(-b, -1 - ou - du, -1 - nv - dv)
    khi = min(a, 1 + nu + du, 1 + ov + dv)
    # weights[k - klo] = C(a + b, b + k).
    weights = [math.comb(a + b, b + klo)]
    for t in range(b + klo, b + khi):
        weights.append(weights[-1] * (a + b - t) // (t + 1))
    weights[-klo] -= 1
    merged = fates.setdefault((pu, pv, *gone), {})
    new: dict = {(): 0}
    pad = (0,) * (max(pu, pv) + 1 - len(next(iter(states))[0]))
    for (imbs, labels, plus, minus), w in states.items():
        imbs, labels = imbs + pad, labels + pad
        iu, iv = imbs[pu], imbs[pv]
        # Undecided edges must still be able to bring both imbalances into [-1, 1].
        lo = max(-b, -1 - ou - iu, iv - 1 - nv)
        hi = min(a, 1 + nu - iu, iv + 1 + ov)
        # Take u and v out of the bound-end counts; each choice below puts
        # them back as their new imbalance and undecided edges leave them.
        plus -= (iu - nu0 >= 1) + (iv - nv0 >= 1)
        minus -= (iu + ou0 <= -1) + (iv + ov0 <= -1)
        fate = merged.get(labels)
        if fate is None:
            lu, lv = labels[pu], labels[pv]
            keep = lu or lv or -1
            joined = [keep if x and x in (lu, lv) else x for x in labels]
            joined[pu] = joined[pv] = keep
            fate = merged[labels] = (_free(labels, gone), _free(joined, gone))
        same, nl = fate
        shifted = list(imbs)
        for k in range(lo, hi + 1):
            ju, jv = iu + k, iv - k
            p = plus + (ju - nu >= 1) + (jv - nv >= 1)
            q = minus + (ju + ou <= -1) + (jv + ov <= -1)
            if p > 1 or q > 1:
                continue
            shifted[pu], shifted[pv] = ju * su, jv * sv
            imbs = tuple(shifted)
            if k == 0 and same:
                key = () if same is True else (imbs, same, p, q)
                new[key] = new.get(key, 0) + w
            if weights[k - klo] and nl:
                key = () if nl is True else (imbs, nl, p, q)
                new[key] = new.get(key, 0) + w * weights[k - klo]
        if len(new) > EXACT_MAX_STATES + 1:
            raise ValueError(
                f"exact count stopped at {len(new) - 1} live frontier states, over the budget of "
                f"{EXACT_MAX_STATES}; estimate f(G) instead (trailfrac estimate)"
            )
    done = new.pop(())
    return new, done


def count_trails_exact(g: Multigraph) -> CountReport:
    """Exact d(G) and f(G) by a frontier dynamic program over unordered vertex pairs.

    The edges between each pair of vertices form one class, decided in one
    step. A vertex takes a slot, a freed one if there is one, when the order
    of ``_frontier_order`` reaches it, and frees it in the step that decides
    its last class. A state holds, for each slot, its vertex's imbalance and
    a canonical component label: 1, 2, ... by first appearance, 0 for
    untouched or free. It also holds the number of vertices bound to end at
    +1 and at -1 (at most one each): left at that imbalance, or unable to
    get back with their undecided edges. It carries the number of subsets of
    the decided edges that reach it. A state is dropped once some imbalance
    cannot return to [-1, 1]. When a component loses its last frontier
    vertex, the subsets of that state that take no further edge are trails
    exactly when no other frontier vertex is touched; a step gathers them
    under the key ``()`` of its new states and adds them to d. A step
    builds the binomial weights only of the shifts its states can reach,
    since an imbalance is at most its vertex's decided edges in size: three
    for the two-vertex family, not m + 1. The label fates that a step
    works out are kept for later steps, since sparse graphs meet the same
    few label tuples at the same slots step after step; once they number
    more than twice the live states, they are dropped. Isolated
    vertices never take a slot. The vertex order changes the run time,
    never d.

    Raises ``ValueError`` when more than ``EXACT_MAX_STATES`` states are live.
    """
    pairs = Counter(g.edges)
    adj: dict[int, set[int]] = {}
    for s, t in pairs:
        adj.setdefault(s, set()).add(t)
        adj.setdefault(t, set()).add(s)
    # On long sparse graphs the ordering sets the memory peak, so the tables below come after it.
    order = _frontier_order(adj)
    # Undecided out- and in-edges of each vertex, and all its edges.
    outs, ins = dict.fromkeys(adj, 0), dict.fromkeys(adj, 0)
    for (s, t), k in pairs.items():
        outs[s] += k
        ins[t] += k
    degree = {v: outs[v] + ins[v] for v in adj}
    # The slot of each frontier vertex, in the order the vertices took them.
    slot: dict[int, int] = {}
    free: list[int] = []
    states: dict = {((), (), 0, 0): 1}
    fates: dict = {}
    d = 0
    for x in order:
        slot[x] = free.pop() if free else len(slot)
        for u in [u for u in slot if u in adj[x]]:
            a, b = pairs[u, x], pairs[x, u]
            du, dx = degree[u] - outs[u] - ins[u], degree[x] - outs[x] - ins[x]
            outs[u] -= a
            ins[u] -= b
            outs[x] -= b
            ins[x] -= a
            pu, px = slot[u], slot[x]
            gone = [slot.pop(v) for v in (u, x) if outs[v] == ins[v] == 0]
            free += gone
            states, done = _take_class(states, pu, px, a, b, (outs[u], ins[u], du, outs[x], ins[x], dx), gone, fates)
            d += done
            # Random graphs rarely meet a label tuple again, so a table that
            # outgrows the live states mostly holds fates no step will read.
            if sum(map(len, fates.values())) > 2 * len(states):
                fates.clear()
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


def _check_confidence(confidence: object) -> float:
    """``confidence`` as a ``float``, or ``ValueError`` naming it.

    It must be a real number, not a ``bool``, whose normal quantile at
    (1 + confidence) / 2 exists in floats. A fixed-width float, such as a
    32-bit one, comes back as a ``float``, so the interval is computed in
    float64 arithmetic.
    """
    import numbers

    if isinstance(confidence, bool) or not isinstance(confidence, numbers.Real):
        raise ValueError(f"confidence must be a real number, got {confidence!r}")
    confidence = float(confidence)
    if not 0 < confidence < 1:
        raise ValueError(f"confidence must lie in (0, 1), got {confidence}")
    # 1 - 2**-53, the largest float below 1, rounds (1 + confidence) / 2 up to 1.
    if (1 + confidence) / 2 == 1:
        raise ValueError(f"confidence must be at most 1 - 2**-52, got {confidence}")
    return confidence


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
    confidence = _check_confidence(confidence)
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

    Raises ``ValueError`` for a bad ``samples``, ``seed`` or ``confidence``,
    checked before any draw.
    """
    samples, seed = _check_ints(samples=samples, seed=seed)
    if samples < 1:
        raise ValueError("samples must be positive")
    confidence = _check_confidence(confidence)
    if not 0 <= seed < 1 << 64:
        raise ValueError(f"seed must lie in [0, 2**64), got {seed}")
    width = max(1, -(-g.m // 64))
    # Equal blocks, each a multiple of 64 samples, that draw fewer than 64 samples per block more than asked.
    blocks = -(-samples // max(64, _BLOCK_WORDS // width & -64))
    block = -(-samples // blocks) + 63 & -64
    draw = _philox(seed, block * width // 4)
    count_trails = _trail_kernel(g.edges)
    successes = 0
    for done in range(0, samples, block):
        successes += count_trails(memoryview(draw(done * width // 4))[: 8 * width * min(block, samples - done)])
    ci_low, ci_high = wilson_interval(successes, samples, confidence)
    return EstimateReport(successes / samples, ci_low, ci_high, confidence, samples, seed)
