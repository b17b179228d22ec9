import hashlib
import random
import re
from collections import Counter

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from trailfrac import (
    FailureReason,
    Multigraph,
    TrailVerdict,
    gen_family,
    gen_path,
    gen_random_multigraph,
    is_trail,
    necessary_balance_condition,
    oracle_is_trail,
)
from helpers import all_subsets, chains, mask_members, perm_oracle, reference_hierholzer, two_disjoint_two_cycles

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
    return g, mask_members(mask)


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

    @pytest.mark.parametrize("subset, bad", [([True], "True"), ([0, 1.0], "1.0")])
    def test_non_integer_index_rejected(self, subset, bad):
        with pytest.raises(ValueError) as info:
            is_trail(gen_path(2), subset)
        assert str(info.value) == f"edge index {bad} is not an integer"

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
        assert is_trail(gen_path(2), [0, 1]).witness == (0, 1)

    def test_family_full_subset_alternates_from_lowest_edge(self):
        g = gen_family(4)
        w = is_trail(g, [0, 1, 2, 3]).witness
        assert w is not None
        assert w[0] == 0
        assert sorted(w) == [0, 1, 2, 3]
        assert chains(g, w)

    def test_absent_for_non_trail(self):
        assert is_trail(gen_family(4), [0, 1]).witness is None

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


SUBSET_FORMS = [is_trail, oracle_is_trail, necessary_balance_condition]


@pytest.mark.parametrize("fn", SUBSET_FORMS)
@pytest.mark.parametrize(
    "make, message",
    [
        (lambda: [0, 0], "duplicate edge index 0"),
        (lambda: [5], "edge index 5 out of range for m=3"),
        (lambda: [-1], "edge index -1 out of range for m=3"),
        (lambda: [True], "edge index True is not an integer"),
        (lambda: [0, False], "edge index False is not an integer"),
        (lambda: [1.0], "edge index 1.0 is not an integer"),
        (lambda: ["1"], "edge index '1' is not an integer"),
        (lambda: [None], "edge index None is not an integer"),
        # The first offender in input order is named, by the first rule it breaks.
        (lambda: [1, 9, 1], "edge index 9 out of range for m=3"),
        (lambda: [1, 2, 1, 9], "duplicate edge index 1"),
        (lambda: [1, "x", 9], "edge index 'x' is not an integer"),
        (lambda: [9, "x"], "edge index 9 out of range for m=3"),
        (lambda: [np.int64(1), 1], "duplicate edge index 1"),
        (lambda: np.array([0, 5]), "edge index 5 out of range for m=3"),
        (lambda: np.array([1, 1]), "duplicate edge index 1"),
        (lambda: np.array([0.0]), "edge index np.float64(0.0) is not an integer"),
        (lambda: range(2, 4), "edge index 3 out of range for m=3"),
        (lambda: (i for i in [1, 1]), "duplicate edge index 1"),
        (lambda: (i for i in [0, 7]), "edge index 7 out of range for m=3"),
    ],
    ids=[
        "duplicate", "range", "negative", "bool", "false", "float", "str", "none",
        "range-before-duplicate", "duplicate-before-range", "str-before-range", "range-before-str",
        "numpy-scalar-duplicate", "array-range", "array-duplicate", "array-float", "range-object",
        "generator-duplicate", "generator-range",
    ],
)
def test_malformed_subset_errors(fn, make, message):
    """Every subset-taking function reads its subset through one rule, with one set of messages."""
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        fn(gen_path(3), make())


@pytest.mark.parametrize(
    "make, verdict, oracle, balanced",
    [
        (lambda: np.array([0, 1]), TrailVerdict(True, (0, 1), None), True, True),
        (lambda: np.array([], dtype=np.int64), TrailVerdict(False, None, FailureReason.EMPTY_SUBSET), False, True),
        (lambda: [np.uint8(2), 0], TrailVerdict(False, None, FailureReason.DISCONNECTED), False, False),
        (lambda: range(3), TrailVerdict(True, (0, 1, 2), None), True, True),
        (lambda: (i for i in [0, 1]), TrailVerdict(True, (0, 1), None), True, True),
        (lambda: [2, 1, 0], TrailVerdict(True, (0, 1, 2), None), True, True),
        (lambda: {0, 1}, TrailVerdict(True, (0, 1), None), True, True),
    ],
    ids=["array", "empty-array", "numpy-scalars", "range-object", "generator", "descending", "set"],
)
def test_subset_forms(make, verdict, oracle, balanced):
    """Any iterable of integer indices is a subset, numpy's included; a generator is read once."""
    g = gen_path(3)
    result = is_trail(g, make())
    assert result == verdict
    assert result.witness is None or set(map(type, result.witness)) == {int}
    assert oracle_is_trail(g, make()) is oracle
    assert necessary_balance_condition(g, make()) is balanced


@pytest.mark.parametrize("fn", SUBSET_FORMS)
def test_non_iterable_subset(fn):
    with pytest.raises(TypeError):
        fn(gen_path(3), 5)


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
        for _, subset in all_subsets(g.m):
            verdict = is_trail(g, subset)
            assert verdict.is_trail == perm_oracle(g, subset), f"mismatch at subset {subset}"
            assert verdict.is_trail == oracle_is_trail(g, subset)

    @settings(max_examples=150)
    @given(graph_and_subset())
    def test_verdict_properties(self, gs):
        g, subset = gs
        verdict = is_trail(g, subset)
        assert verdict.is_trail == perm_oracle(g, subset)
        if verdict.is_trail:
            assert verdict.witness is not None
            assert sorted(verdict.witness) == subset
            assert chains(g, verdict.witness)
            assert necessary_balance_condition(g, subset)
        else:
            assert verdict.witness is None
            assert verdict.failure_reason is not None

    @settings(max_examples=150)
    @given(graph_and_subset(max_m=10), st.randoms(use_true_random=False), st.booleans())
    def test_input_order_is_irrelevant(self, gs, rnd, as_numpy):
        """A shuffled index list, numpy integers or not, gets the sorted list's verdict, reason and witness."""
        g, subset = gs
        shuffled = list(map(np.int64, subset)) if as_numpy else list(subset)
        rnd.shuffle(shuffled)
        verdict = is_trail(g, shuffled)
        assert verdict == is_trail(g, subset)
        assert verdict.witness is None or set(map(type, verdict.witness)) == {int}


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
        subset = range(2, WALK_EDGES)
        verdict = is_trail(long_walk, subset)
        assert verdict.failure_reason is FailureReason.DEGREE_IMBALANCE
        assert not necessary_balance_condition(long_walk, subset)


def euler_reason(g: Multigraph, subset) -> FailureReason | None:
    """The verdict by the Euler characterization, from networkx connectivity
    and the balance rule: None for a trail, else the failure reason."""
    import networkx as nx

    edges = [g.edges[j] for j in subset]
    if not edges:
        return FailureReason.EMPTY_SUBSET
    imbalance = Counter(s for s, _ in edges)
    imbalance.subtract(t for _, t in edges)
    balanced = all(abs(x) <= 1 for x in imbalance.values()) and sum(map(abs, imbalance.values())) <= 2
    if not nx.is_weakly_connected(nx.MultiDiGraph(edges)):
        return FailureReason.DISCONNECTED
    return None if balanced else FailureReason.DEGREE_IMBALANCE


class TestAtScale:
    @settings(max_examples=40, deadline=None)
    @given(walks_at_scale())
    def test_verdict_matches_euler_characterization(self, case):
        g, subset = case
        verdict = is_trail(g, subset)
        reason = euler_reason(g, subset)
        assert verdict.is_trail == (reason is None)
        assert verdict.failure_reason is reason
        if verdict.is_trail:
            assert sorted(verdict.witness) == subset
            assert chains(g, verdict.witness)
        else:
            assert verdict.witness is None


def cycle_edges(first: int, k: int) -> list[tuple[int, int]]:
    """A directed cycle on the k vertices first .. first + k - 1."""
    return [(first + i, first + (i + 1) % k) for i in range(k)]


class TestWalkDecidedReasons:
    """A balanced subset is judged by the length of Hierholzer's walk alone.

    Random subsets are rarely balanced yet disconnected, so these cases build
    such subsets on purpose: the walk starts in one component and must stop
    short of the others, whichever of them holds the lowest edge or the
    ``+1`` vertex.
    """

    CASES = {
        # all imbalances 0: the walk starts at the source of edge 0
        "two-disjoint-cycles": cycle_edges(0, 3) + cycle_edges(3, 4),
        "small-cycle-first": cycle_edges(0, 2) + cycle_edges(2, 5000),
        "long-cycle-first": cycle_edges(0, 5000) + cycle_edges(5000, 2),
        # +1 and -1 at the stray edge's ends, so the walk starts on the stray edge
        "long-cycle-plus-edge": cycle_edges(0, 5000) + [(5000, 5001)],
        "edge-plus-long-cycle": [(0, 1)] + cycle_edges(2, 5000),
        # +1 and -1 at the path's ends, so the walk starts on the path
        "small-cycle-plus-path": cycle_edges(0, 3) + [(3 + i, 4 + i) for i in range(50)],
        "path-plus-small-cycle": [(i, i + 1) for i in range(50)] + cycle_edges(51, 3),
        # imbalanced: union-find picks the reason
        "imbalanced-connected": cycle_edges(0, 50) + [(0, 25), (0, 10)],
        "imbalanced-disconnected": cycle_edges(0, 50) + [(50, 51), (52, 51)],
        "star": [(0, i) for i in range(1, 30)],
    }

    @pytest.mark.parametrize("shuffle", [False, True], ids=["ordered", "shuffled"])
    @pytest.mark.parametrize("name", list(CASES))
    def test_reason_matches_euler_characterization(self, name, shuffle):
        edges = list(self.CASES[name])
        if shuffle:
            random.Random(name).shuffle(edges)
        g = Multigraph(1 + max(map(max, edges)), tuple(edges))
        subset = range(g.m)
        verdict = is_trail(g, subset)
        reason = euler_reason(g, subset)
        assert reason is not None
        assert verdict == is_trail(g, reversed(range(g.m)))
        assert (verdict.is_trail, verdict.witness, verdict.failure_reason) == (False, None, reason)

    def test_each_component_alone_is_a_trail(self):
        # The same components, decided one at a time, are trails: only their union fails.
        import networkx as nx

        for name in ("two-disjoint-cycles", "long-cycle-plus-edge", "small-cycle-plus-path"):
            edges = self.CASES[name]
            g = Multigraph(1 + max(map(max, edges)), tuple(edges))
            for component in nx.weakly_connected_components(nx.MultiDiGraph(edges)):
                subset = [j for j, (s, _) in enumerate(edges) if s in component]
                verdict = is_trail(g, subset)
                assert verdict.is_trail and sorted(verdict.witness) == subset
                assert chains(g, verdict.witness)
