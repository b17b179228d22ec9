import hashlib
import random
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from trailfrac import (
    Multigraph,
    gen_family,
    gen_path,
    gen_random_multigraph,
    gen_star,
    greedy_eis,
    verify_eis,
)

from helpers import reference_greedy_eis, reference_verify_eis, small_corpus

# sha256 of repr((vertices, fresh_edges, eliminated_per_step)) of greedy_eis on
# gen_random_multigraph(8000, 40_000, seed), recorded with the linear-scan
# implementation now kept as helpers.reference_greedy_eis.
GOLDEN_EIS_SHA256 = {
    1: "16763e05c62790ee57c0ef37192eaa8a891bfe54b74ee450d1201b15e27341f2",
    2: "c3b77ea1e08833134de6559d11b212fc6c2ec33ff79754509ceb126fdd57429a",
}


def non_isolated_count(g) -> int:
    return len({v for e in g.edges for v in e})


def as_tuples(seq):
    return seq.vertices, seq.fresh_edges, seq.eliminated_per_step


@st.composite
def multigraphs_with_ties(draw):
    """n in 2..40 and m <= 150; edges drawn from a small pool of ordered pairs,
    so parallel and antiparallel edges, isolated vertices and degree ties are
    common."""
    n = draw(st.integers(2, 40))
    pair = st.tuples(st.integers(0, n - 1), st.integers(0, n - 1)).filter(lambda p: p[0] != p[1])
    pool = draw(st.lists(pair, min_size=1, max_size=12))
    pool += [(t, s) for s, t in pool if draw(st.booleans())]
    return Multigraph(n, tuple(draw(st.lists(st.sampled_from(pool), max_size=150))))


class TestReference:
    @settings(max_examples=300, deadline=None)
    @given(multigraphs_with_ties())
    def test_matches_linear_scan(self, g):
        assert as_tuples(greedy_eis(g)) == reference_greedy_eis(g)

    @pytest.mark.parametrize("seed", [1, 2])
    def test_matches_linear_scan_large(self, seed):
        g = gen_random_multigraph(2000, 10_000, seed=seed)
        assert as_tuples(greedy_eis(g)) == reference_greedy_eis(g)

    @pytest.mark.parametrize("seed", sorted(GOLDEN_EIS_SHA256))
    def test_golden_sequences(self, seed):
        seq = greedy_eis(gen_random_multigraph(8000, 40_000, seed=seed))
        assert hashlib.sha256(repr(as_tuples(seq)).encode()).hexdigest() == GOLDEN_EIS_SHA256[seed]


def top_heavy_graph(n: int, top_isolated: bool, seed: int) -> Multigraph:
    """Random multigraph on ``n`` vertices whose edges touch at most 40 of them:
    0, the highest index in use and its neighbour, and random others. With
    ``top_isolated`` the highest index ``n - 1`` touches no edge."""
    top = n - 1 - top_isolated
    if top < 1:
        return Multigraph(n, ())
    r = random.Random(seed)
    pool = sorted({0, top, top - 1, *(r.randrange(top + 1) for _ in range(37))})
    edges = [(top, 0)] + [tuple(r.sample(pool, 2)) for _ in range(r.randrange(len(pool), 4 * len(pool)))]
    return Multigraph(n, tuple(edges))


class TestHeapKeys:
    """The packed heap key (degree << n.bit_length()) | v at vertex counts around
    powers of two, with the highest index in use or isolated."""

    @pytest.mark.parametrize("top_isolated", [False, True], ids=["top-used", "top-isolated"])
    @pytest.mark.parametrize("n", [1, 2, 63, 64, 65, 2**16 - 1, 2**16, 2**16 + 1])
    def test_matches_linear_scan(self, n, top_isolated):
        for seed in range(4):
            g = top_heavy_graph(n, top_isolated, seed)
            touched = {v for e in g.edges for v in e}
            assert (n - 1 in touched) == (n >= 2 and not top_isolated)
            assert as_tuples(greedy_eis(g)) == reference_greedy_eis(g)


class TestGreedy:
    def test_star_picks_leaves_then_center(self):
        # leaves tie at one edge each; after three leaves the center (index 0)
        # ties with the last leaf and wins the lowest-index tie-break
        seq = greedy_eis(gen_star(4))
        assert seq.vertices == (1, 2, 3, 0)
        assert seq.fresh_edges == (0, 1, 2, 3)
        assert seq.length == 4
        assert 2 * seq.length >= 5

    def test_two_vertex_family_collapses_in_one_step(self):
        seq = greedy_eis(gen_family(4))
        assert seq.vertices == (0,)
        assert seq.eliminated_per_step == (2,)
        assert 2 * seq.length >= 2

    def test_single_edge(self):
        seq = greedy_eis(gen_path(1))
        assert seq.vertices == (0,)
        assert seq.length == 1

    def test_edgeless_graph(self):
        seq = greedy_eis(gen_random_multigraph(4, 0, seed=0))
        assert seq.vertices == ()
        assert seq.length == 0

    def test_isolated_vertices_skipped(self):
        g = Multigraph(5, ((0, 1),))
        seq = greedy_eis(g)
        assert seq.vertices == (0,)
        assert 2 * seq.length >= non_isolated_count(g)

    @pytest.mark.parametrize(
        "g",
        [gen_path(4), gen_star(5), gen_family(6), gen_random_multigraph(7, 15, seed=21)],
        ids=["path4", "star5", "family6", "random"],
    )
    def test_fresh_edges_are_lowest_qualifying(self, g):
        seq = greedy_eis(g)
        claimed = set()
        for v, e in zip(seq.vertices, seq.fresh_edges):
            incident = {i for i, edge in enumerate(g.edges) if v in edge}
            assert e in incident
            assert e not in claimed
            qualifying = incident - claimed
            assert e == min(qualifying)
            claimed |= incident

    def test_deterministic(self):
        g = gen_random_multigraph(8, 20, seed=4)
        assert greedy_eis(g) == greedy_eis(g)


class TestVerify:
    def test_greedy_outputs_verify_on_corpus(self):
        for name, g in small_corpus():
            assert verify_eis(g, greedy_eis(g)), name

    def test_star_leaf_then_center(self):
        assert verify_eis(gen_star(4), [1, 0])

    def test_two_vertex_family_pair_fails(self):
        assert not verify_eis(gen_family(4), [0, 1])

    def test_duplicates_fail(self):
        assert not verify_eis(gen_path(2), [0, 0])

    def test_out_of_range_vertex_raises(self):
        with pytest.raises(ValueError, match="out of range"):
            verify_eis(gen_path(2), [5])

    @pytest.mark.parametrize(
        "seq, bad", [([1.0, 3], "1.0"), (["a"], "'a'"), ([True], "True")], ids=["float", "str", "bool"]
    )
    def test_non_integer_vertex_raises(self, seq, bad):
        # [1.0, 3] used to verify as [1, 3]; ["a"] failed with a TypeError.
        with pytest.raises(ValueError, match=f"^vertex {bad} is not an integer$"):
            verify_eis(gen_path(3), seq)

    def test_numpy_integer_vertices(self):
        assert verify_eis(gen_path(3), np.array([1, 3]))

    def test_singleton_passes(self):
        assert verify_eis(gen_path(2), [1])

    def test_later_isolated_vertex_fails(self):
        g = Multigraph(3, ((0, 1),))
        assert verify_eis(g, [2])
        assert not verify_eis(g, [0, 2])

    def test_independent_sets_pass(self):
        # leaves of a star and alternating path vertices are independent,
        # each with at least one incident edge
        assert verify_eis(gen_star(4), [1, 2, 3, 4])
        assert verify_eis(gen_path(3), [0, 2])
        assert verify_eis(gen_path(5), [0, 2, 4])

    @settings(max_examples=500, deadline=None)
    @given(st.data())
    def test_matches_prefix_sets(self, data):
        # Any vertices in any order, with or without repeats, isolated and
        # unlisted ones included; then the greedy order, which passes, with one
        # vertex put in anywhere, which may break it.
        g = data.draw(multigraphs_with_ties())
        vertex = st.integers(0, g.vertex_count - 1)
        seq = data.draw(st.lists(vertex, max_size=2 * g.vertex_count, unique=data.draw(st.booleans())))
        assert verify_eis(g, seq) == reference_verify_eis(g, seq)
        seq = list(greedy_eis(g).vertices)
        seq.insert(data.draw(st.integers(0, len(seq))), data.draw(vertex))
        assert verify_eis(g, seq) == reference_verify_eis(g, seq)

    @pytest.mark.parametrize("seed", sorted(GOLDEN_EIS_SHA256))
    def test_golden_graphs(self, seed):
        g = gen_random_multigraph(8000, 40_000, seed=seed)
        greedy = greedy_eis(g).vertices
        seqs = greedy, greedy[::-1]
        assert [verify_eis(g, seq) for seq in seqs] == [reference_verify_eis(g, seq) for seq in seqs] == [True, False]

    def test_memory_bounded_in_edges(self):
        # Every edge touches the one listed vertex, so a set of its edge ids alone would pass 1 MB.
        g = gen_family(10**5)
        seq = greedy_eis(g)
        tracemalloc.start()
        try:
            verify_eis(g, seq)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 2**20


class TestLengthGuarantee:
    def test_bound_and_soundness_on_corpus(self):
        for name, g in small_corpus():
            seq = greedy_eis(g)
            assert verify_eis(g, seq), name
            assert 2 * seq.length >= non_isolated_count(g), name

    def test_bound_on_random_graphs(self):
        for seed in range(40):
            g = gen_random_multigraph(2 + seed % 12, 1 + (seed * 7) % 40, seed=seed)
            seq = greedy_eis(g)
            assert verify_eis(g, seq)
            assert 2 * seq.length >= non_isolated_count(g)

    def test_each_step_eliminates_at_most_two(self):
        for seed in range(40):
            g = gen_random_multigraph(2 + seed % 12, 1 + (seed * 7) % 40, seed=seed)
            seq = greedy_eis(g)
            assert all(1 <= k <= 2 for k in seq.eliminated_per_step)
            assert sum(seq.eliminated_per_step) == non_isolated_count(g)
