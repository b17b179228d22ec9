import hashlib
import random
from collections import Counter

import pytest
from hypothesis import given, settings, strategies as st

from trailfrac import (
    EdgeSubset,
    FailureReason,
    Multigraph,
    gen_family,
    gen_path,
    gen_random_multigraph,
    is_trail,
    necessary_balance_condition,
    oracle_is_trail,
    witness_trail,
)

from helpers import all_subsets, chains, perm_oracle, reference_hierholzer, two_disjoint_two_cycles

WALK_EDGES = 60_000
# sha256 of repr(witness) for the whole walk below and for the walk without
# edge 0, recorded before the bit decoding of is_trail became linear.
GOLDEN_WALK_WITNESS_SHA256 = {
    "closed": "47edddc06255adbfb4137b56876514f988d9cf2ce89394a99893691472d05998",
    "open": "16d39988d1f2b9c5dc784ce4d6a1b84a5ce40f4ea2f21477c06b45157d3360b7",
}


@st.composite
def graph_and_subset(draw, max_n=5, max_m=7):
    n = draw(st.integers(2, max_n))
    m = draw(st.integers(0, max_m))
    edges = []
    for _ in range(m):
        s = draw(st.integers(0, n - 1))
        t = draw(st.integers(0, n - 2))
        edges.append((s, t + 1 if t >= s else t))
    g = Multigraph(n, tuple(edges))
    mask = draw(st.integers(0, (1 << m) - 1))
    return g, EdgeSubset(mask, m)


def closed_walk(n: int, length: int, seed: int) -> Multigraph:
    """A seeded random closed walk of ``length`` edges on ``n`` vertices, edges shuffled."""
    rng = random.Random(seed)
    walk = [rng.randrange(n)]
    for i in range(1, length):
        banned = {walk[-1], walk[0]} if i == length - 1 else {walk[-1]}
        v = rng.randrange(n)
        while v in banned:
            v = rng.randrange(n)
        walk.append(v)
    edges = [(walk[i], walk[(i + 1) % length]) for i in range(length)]
    rng.shuffle(edges)
    return Multigraph(n, tuple(edges))


@st.composite
def walks_at_scale(draw):
    """A shuffled random walk of 1 000 to 4 000 edges plus a few stray edges, and a subset.

    The walk, open or closed, runs on 3 to 300 vertices. Up to three stray
    edges may touch the two fresh vertices n and n + 1, and an edge between
    those two may be added. The subset is the walk (a trail), the walk less a
    few edges, every edge, or a random half, so all three verdicts occur.
    """
    rng = random.Random(draw(st.integers(0, 2**32 - 1)))
    n = draw(st.integers(3, 300))
    length = draw(st.integers(1_000, 4_000))
    walk = [rng.randrange(n)]
    while len(walk) <= length:
        v = rng.randrange(n)
        if v != walk[-1]:
            walk.append(v)
    if draw(st.booleans()) and walk[-2] != walk[0]:
        walk[-1] = walk[0]
    edges = [(walk[i], walk[i + 1], True) for i in range(length)]
    for _ in range(draw(st.integers(0, 3))):
        s = rng.randrange(n + 2)
        edges.append((s, (s + rng.randrange(1, n + 2)) % (n + 2), False))
    if draw(st.booleans()):
        edges.append((n, n + 1, False))
    rng.shuffle(edges)
    g = Multigraph(n + 2, tuple((s, t) for s, t, _ in edges))
    kind = draw(st.sampled_from(["walk", "walk-less-some", "all", "random-half"]))
    if kind == "all":
        subset = list(range(g.m))
    elif kind == "random-half":
        subset = [j for j in range(g.m) if rng.random() < 0.5]
    else:
        subset = [j for j, (_, _, on_walk) in enumerate(edges) if on_walk]
        if kind == "walk-less-some":
            for j in rng.sample(subset, draw(st.integers(1, 3))):
                subset.remove(j)
    return g, subset


@st.composite
def trail_subsets(draw, max_n=7, max_m=14):
    """A graph of at most ``max_m`` edges and the positions of a walk in it, which form a trail.

    The walk, open or closed, is shuffled among stray edges, so the walk's
    edges do not sit at consecutive positions.
    """
    n = draw(st.integers(2, max_n))
    length = draw(st.integers(1, max_m))
    walk = [draw(st.integers(0, n - 1))]
    for _ in range(length):
        walk.append((walk[-1] + draw(st.integers(1, n - 1))) % n)
    if length > 1 and draw(st.booleans()) and walk[-2] != walk[0]:
        walk[-1] = walk[0]
    edges = [(walk[i], walk[i + 1], True) for i in range(length)]
    for _ in range(draw(st.integers(0, max_m - length))):
        s = draw(st.integers(0, n - 1))
        edges.append((s, (s + draw(st.integers(1, n - 1))) % n, False))
    edges = draw(st.permutations(edges))
    g = Multigraph(n, tuple((s, t) for s, t, _ in edges))
    return g, [j for j, (_, _, on_walk) in enumerate(edges) if on_walk]


@pytest.fixture(scope="module")
def long_walk() -> Multigraph:
    return closed_walk(2000, WALK_EDGES, seed=1)


class TestIsTrail:
    def test_path_is_trail_with_witness(self):
        verdict = is_trail(gen_path(2), [0, 1])
        assert verdict.is_trail
        assert verdict.witness == (0, 1)
        assert verdict.failure_reason is None

    def test_family_forward_backward_pair(self):
        verdict = is_trail(gen_family(4), [0, 2])
        assert verdict.is_trail
        assert perm_oracle(gen_family(4), [0, 2])

    def test_two_parallel_edges_imbalanced(self):
        verdict = is_trail(gen_family(4), [0, 1])
        assert not verdict.is_trail
        assert verdict.failure_reason is FailureReason.DEGREE_IMBALANCE
        assert verdict.witness is None

    def test_disjoint_two_cycles_disconnected(self):
        g = two_disjoint_two_cycles()
        verdict = is_trail(g, [0, 1, 2, 3])
        assert not verdict.is_trail
        assert verdict.failure_reason is FailureReason.DISCONNECTED

    def test_empty_subset(self):
        verdict = is_trail(gen_path(2), [])
        assert not verdict.is_trail
        assert verdict.failure_reason is FailureReason.EMPTY_SUBSET

    def test_scattered_and_imbalanced_reports_disconnected(self):
        # edges 0 and 2 of a 3-edge path: two components and two +1 vertices
        verdict = is_trail(gen_path(3), [0, 2])
        assert not verdict.is_trail
        assert verdict.failure_reason is FailureReason.DISCONNECTED

    def test_closed_trail_counts(self):
        verdict = is_trail(gen_family(4), [0, 1, 2, 3])
        assert verdict.is_trail
        assert verdict.witness == (0, 2, 1, 3)

    def test_determinism(self):
        g = gen_family(6)
        assert is_trail(g, [0, 1, 3, 4]) == is_trail(g, [0, 1, 3, 4])


class TestOracle:
    def test_single_edge(self):
        assert oracle_is_trail(gen_path(1), [0])

    def test_path(self):
        assert oracle_is_trail(gen_path(2), [0, 1])

    def test_two_parallel_edges(self):
        assert not oracle_is_trail(gen_family(4), [0, 1])

    def test_empty_subset(self):
        assert not oracle_is_trail(gen_path(2), [])

    def test_guard(self):
        g = gen_random_multigraph(4, 9, seed=3)
        with pytest.raises(ValueError, match="too large"):
            oracle_is_trail(g, range(9))


class TestWitness:
    def test_path(self):
        assert witness_trail(gen_path(2), [0, 1]) == (0, 1)

    def test_family_full_subset_alternates_from_lowest_edge(self):
        g = gen_family(4)
        w = witness_trail(g, [0, 1, 2, 3])
        assert w is not None
        assert w[0] == 0
        assert sorted(w) == [0, 1, 2, 3]
        assert chains(g, w)

    def test_absent_for_non_trail(self):
        assert witness_trail(gen_family(4), [0, 1]) is None

    @settings(max_examples=400, deadline=None)
    @given(trail_subsets())
    def test_matches_pointer_walk(self, case):
        g, subset = case
        verdict = is_trail(g, subset)
        assert verdict.is_trail
        assert verdict.witness == reference_hierholzer(g, subset)

    @settings(max_examples=20, deadline=None)
    @given(walks_at_scale())
    def test_matches_pointer_walk_at_scale(self, case):
        g, subset = case
        verdict = is_trail(g, subset)
        if verdict.is_trail:
            assert verdict.witness == reference_hierholzer(g, subset)


class TestNecessaryBalance:
    def test_trail_passes(self):
        assert necessary_balance_condition(gen_path(2), [0, 1])

    def test_parallel_edges_fail(self):
        assert not necessary_balance_condition(gen_family(4), [0, 1])

    def test_two_unit_sources_fail(self):
        # 0->1 and 2->3: every |imbalance| is 1, but two vertices sit at +1
        assert not necessary_balance_condition(two_disjoint_two_cycles(), [0, 2])

    def test_disjoint_cycles_pass_despite_not_trail(self):
        g = two_disjoint_two_cycles()
        assert necessary_balance_condition(g, [0, 1, 2, 3])
        assert not is_trail(g, [0, 1, 2, 3]).is_trail


class TestOracleEquivalence:
    @pytest.mark.parametrize(
        "g",
        [
            gen_path(3),
            gen_family(4),
            two_disjoint_two_cycles(),
            gen_random_multigraph(3, 6, seed=11),
            gen_random_multigraph(2, 6, seed=12),
        ],
        ids=["path3", "family4", "two-2cycles", "rand-n3", "rand-n2"],
    )
    def test_exhaustive_against_independent_oracle(self, g):
        for mask, subset in all_subsets(g.m):
            verdict = is_trail(g, EdgeSubset(mask, g.m))
            assert verdict.is_trail == perm_oracle(g, subset), f"mismatch at subset {subset}"
            assert verdict.is_trail == oracle_is_trail(g, subset)

    @settings(max_examples=150)
    @given(graph_and_subset())
    def test_verdict_properties(self, gs):
        g, subset = gs
        verdict = is_trail(g, subset)
        assert verdict.is_trail == perm_oracle(g, subset.indices)
        if verdict.is_trail:
            assert verdict.witness is not None
            assert sorted(verdict.witness) == list(subset.indices)
            assert chains(g, verdict.witness)
            assert necessary_balance_condition(g, subset)
        else:
            assert verdict.witness is None
            assert verdict.failure_reason is not None


class TestLongWalk:
    @pytest.mark.parametrize("kind,first", [("closed", 0), ("open", 1)])
    def test_golden_witness(self, long_walk, kind, first):
        verdict = is_trail(long_walk, range(first, WALK_EDGES))
        assert verdict.is_trail
        assert hashlib.sha256(repr(verdict.witness).encode()).hexdigest() == GOLDEN_WALK_WITNESS_SHA256[kind]

    def test_disjoint_edge_disconnects(self, long_walk):
        g = Multigraph(2002, long_walk.edges + ((2000, 2001),))
        verdict = is_trail(g, range(WALK_EDGES + 1))
        assert verdict.failure_reason is FailureReason.DISCONNECTED

    def test_two_missing_edges_imbalance(self, long_walk):
        # edges 0 and 1 share no endpoint, so dropping both leaves two +1 vertices
        assert not set(long_walk.edges[0]) & set(long_walk.edges[1])
        subset = EdgeSubset.from_indices(range(2, WALK_EDGES), WALK_EDGES)
        verdict = is_trail(long_walk, subset)
        assert verdict.failure_reason is FailureReason.DEGREE_IMBALANCE
        assert not necessary_balance_condition(long_walk, subset)


class TestAtScale:
    @settings(max_examples=40, deadline=None)
    @given(walks_at_scale())
    def test_verdict_matches_euler_characterization(self, case):
        nx = pytest.importorskip("networkx")
        g, subset = case
        verdict = is_trail(g, subset)
        edges = [g.edges[j] for j in subset]
        imbalance = Counter(s for s, _ in edges)
        imbalance.subtract(t for _, t in edges)
        balanced = all(abs(x) <= 1 for x in imbalance.values()) and sum(map(abs, imbalance.values())) <= 2
        connected = bool(edges) and nx.is_weakly_connected(nx.MultiDiGraph(edges))
        assert verdict.is_trail == (connected and balanced)
        if verdict.is_trail:
            assert sorted(verdict.witness) == subset
            assert chains(g, verdict.witness)
        else:
            assert verdict.witness is None
            assert verdict.failure_reason is (
                FailureReason.EMPTY_SUBSET
                if not edges
                else FailureReason.DISCONNECTED
                if not connected
                else FailureReason.DEGREE_IMBALANCE
            )
