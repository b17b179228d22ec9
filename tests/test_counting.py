import math
import random
import re
import subprocess
import sys
import tracemalloc
from collections import Counter
from fractions import Fraction
from statistics import NormalDist

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

import trailfrac
from trailfrac import (
    Multigraph,
    count_family_closed_form,
    count_trails_exact,
    estimate_trail_fraction,
    gen_cycle,
    gen_family,
    gen_path,
    gen_random_multigraph,
    is_trail,
    wilson_interval,
)
from trailfrac.counting import _frontier_order, _trail_kernel

from helpers import (
    brute_force_d,
    enumerate_d,
    few_vertex_d,
    mask_members,
    numpy_reference_d,
    pack_columns,
    reference_frontier_order,
    small_corpus,
    src_env,
    two_disjoint_two_cycles,
)


@st.composite
def multigraphs_with_parallels(draw):
    """n in 1..8 and m <= 12; edges drawn from a small pool of ordered pairs, so
    parallel edges are common and some vertices stay isolated."""
    n = draw(st.integers(1, 8))
    if n < 2:
        return Multigraph(n, ())
    pair = st.tuples(st.integers(0, n - 1), st.integers(0, n - 1)).filter(lambda p: p[0] != p[1])
    pool = draw(st.lists(pair, min_size=1, max_size=6))
    return Multigraph(n, tuple(draw(st.lists(st.sampled_from(pool), max_size=12))))


@st.composite
def multigraphs_with_pair_classes(draw):
    """n in 2..10 and m <= 18; each edge runs either way along one of a few
    unordered pairs, so parallel and antiparallel edges are common and some
    vertices stay isolated."""
    n = draw(st.integers(2, 10))
    pair = st.tuples(st.integers(0, n - 1), st.integers(0, n - 1)).filter(lambda p: p[0] != p[1])
    pool = draw(st.lists(pair, min_size=1, max_size=7))
    edge = st.sampled_from(pool).flatmap(lambda p: st.sampled_from([p, p[::-1]]))
    return Multigraph(n, tuple(draw(st.lists(edge, max_size=18))))


@st.composite
def multigraphs_on_few_vertices(draw):
    """n in 1..6 and m <= 14, every edge between at most four chosen vertices."""
    n = draw(st.integers(1, 6))
    chosen = draw(st.lists(st.integers(0, n - 1), min_size=1, max_size=4, unique=True))
    if len(chosen) < 2:
        return Multigraph(n, ())
    pair = st.tuples(st.sampled_from(chosen), st.sampled_from(chosen)).filter(lambda p: p[0] != p[1])
    return Multigraph(n, tuple(draw(st.lists(pair, max_size=14))))


@st.composite
def graphs_and_disjoint_unions(draw):
    """A graph from ``multigraphs_with_parallels``, or the disjoint union of two
    such graphs cut to 7 edges each, the second's vertices numbered after the
    first's."""
    g = draw(multigraphs_with_parallels())
    if not draw(st.booleans()):
        return g
    h = draw(multigraphs_with_parallels())
    n = g.vertex_count
    return Multigraph(n + h.vertex_count, g.edges[:7] + tuple((s + n, t + n) for s, t in h.edges[:7]))


def shuffled_frontier_order(seed: int):
    """A stand-in for ``counting._frontier_order`` that shuffles its order with a seeded generator."""

    def order(adj):
        vertices = _frontier_order(adj)
        random.Random(seed).shuffle(vertices)
        return vertices

    return order


FEW_VERTEX_ROWS = [(n, m, seed) for n, ms in ((3, (300, 3000)), (4, (100, 300))) for m in ms for seed in (1, 2)]


@st.composite
def graphs_with_blocks(draw):
    """A graph whose edges touch 4 to 12 vertices, with parallel edges common,
    and a 0/1 block of its edge subsets, one per column, often sparse enough
    to be balanced."""
    k = draw(st.integers(4, 12))
    # One pair per vertex touches all k of them; reversed pairs make short
    # cycles, so columns that are balanced but disconnected are common.
    pool = [(v, draw(st.integers(0, k - 2).map(lambda t, v=v: t + (t >= v)))) for v in range(k)]
    pool += [(t, s) for s, t in pool if draw(st.booleans())]
    edges = draw(st.permutations(pool + draw(st.lists(st.sampled_from(pool), max_size=12))))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    density = draw(st.sampled_from([0.15, 0.3, 0.5]))
    bits = (rng.random((len(edges), draw(st.integers(1, 48)))) < density).astype(np.uint8)
    return Multigraph(k, tuple(edges)), bits


class TestExactCount:
    def test_single_edge(self):
        report = count_trails_exact(gen_path(1))
        assert report.d == 1
        assert report.f == Fraction(1, 2)

    def test_two_edge_path(self):
        report = count_trails_exact(gen_path(2))
        assert report.d == 3
        assert report.f == Fraction(3, 4)

    def test_family_4(self):
        report = count_trails_exact(gen_family(4))
        assert report.d == 13
        assert report.f == Fraction(13, 16)

    def test_family_6(self):
        report = count_trails_exact(gen_family(6))
        assert report.d == 49
        assert report.f == Fraction(49, 64)

    def test_report_is_a_value(self):
        # Two counts of one graph are the same report: equal, with equal hashes.
        g = gen_random_multigraph(4, 9, seed=77)
        a, b = count_trails_exact(g), count_trails_exact(g)
        assert a == b and hash(a) == hash(b)

    def test_edgeless_graph(self):
        report = count_trails_exact(gen_random_multigraph(3, 0, seed=1))
        assert report.d == 0
        assert report.f == 0

    def test_matches_permutation_oracle_brute_force(self):
        for name, g in small_corpus():
            if g.m <= 6:
                assert count_trails_exact(g).d == brute_force_d(g), name

    def test_matches_is_trail_sum(self):
        g = gen_random_multigraph(4, 9, seed=77)
        expected = sum(
            is_trail(g, mask_members(mask)).is_trail for mask in range(1 << g.m)
        )
        report = count_trails_exact(g)
        assert report.d == expected
        assert 0 <= report.d <= (1 << g.m) - 1  # empty subset never counts

    def test_disjoint_cycles_not_counted(self):
        # Four touched vertices can split into two balanced components.
        g = two_disjoint_two_cycles()
        d = count_trails_exact(g).d
        assert d == brute_force_d(g)
        assert count_trails_exact(Multigraph(10_000, g.edges)).d == d

    def test_small_blocks_same_count(self, monkeypatch):
        graphs = [gen_family(10), two_disjoint_two_cycles(), gen_random_multigraph(5, 12, seed=4)]
        want = [count_trails_exact(g).d for g in graphs]
        monkeypatch.setattr(trailfrac.counting, "_BLOCK_CELLS", 40)
        assert [enumerate_d(g) for g in graphs] == want

    @settings(max_examples=200, deadline=None)
    @given(multigraphs_with_parallels())
    # Has a live state that no shift k of ``counting._take_class`` can bring
    # back into balance, so its range of k is empty; d = 42.
    @example(Multigraph(5, ((1, 3), (4, 2), (3, 2), (3, 2), (4, 1), (4, 1), (3, 2), (1, 3), (1, 3))))
    def test_matches_numpy_reference(self, g):
        assert count_trails_exact(g).d == numpy_reference_d(g)

    @settings(max_examples=150, deadline=None)
    @given(multigraphs_with_pair_classes())
    def test_matches_enumeration(self, g):
        assert count_trails_exact(g).d == enumerate_d(g)

    @settings(max_examples=150, deadline=None)
    @given(multigraphs_on_few_vertices())
    def test_three_vertex_sum_matches_numpy_reference(self, g):
        assert few_vertex_d(g) == numpy_reference_d(g)

    # Exact checks far past enumeration on graphs that are neither the family,
    # a path nor a cycle. The n = 3 rows are named by m and seed alone.
    @pytest.mark.parametrize(
        "n,m,seed",
        FEW_VERTEX_ROWS,
        ids=[f"{m}-{seed}" if n == 3 else f"n{n}-{m}-{seed}" for n, m, seed in FEW_VERTEX_ROWS],
    )
    def test_matches_three_vertex_sum(self, n, m, seed):
        g = gen_random_multigraph(n, m, seed)
        assert count_trails_exact(g).d == few_vertex_d(g)

    # Recorded with the block enumeration before the frontier count replaced it.
    @pytest.mark.parametrize("n,m,seed,d", [(6, 24, 5, 40694), (9, 26, 11, 26479)])
    def test_golden_counts(self, n, m, seed, d):
        assert count_trails_exact(gen_random_multigraph(n, m, seed)).d == d

    @pytest.mark.parametrize(
        "make,d", [(gen_path, 24 * 25 // 2), (gen_cycle, 24 * 23 + 1)], ids=["path", "cycle"]
    )
    def test_reversed_long_chains(self, make, d):
        # Trails are the runs of consecutive edges: m(m+1)/2 on the path, m(m-1)
        # on the cycle plus the whole cycle. Listing the edges backwards makes
        # each reached-edge sweep of ``_trail_kernel``, which ``enumerate_d``
        # runs, grow the reached edges only one edge along the chain.
        g = make(24)
        assert enumerate_d(Multigraph(g.vertex_count, g.edges[::-1])) == d

    @pytest.mark.parametrize(
        "g,d",
        [
            (gen_family(200), count_family_closed_form(200).total),
            (gen_family(2000), count_family_closed_form(2000).total),
            (Multigraph(301, gen_path(300).edges[::-1]), 300 * 301 // 2),
            (Multigraph(300, gen_cycle(300).edges[::-1]), 300 * 299 + 1),
        ],
        ids=["family200", "family2000", "path300", "cycle300"],
    )
    def test_closed_forms_past_old_cap(self, g, d):
        assert count_trails_exact(g).d == d

    @pytest.mark.parametrize("n,m,seed", [(3, 36, 2), (4, 40, 3), (5, 40, 1)])
    def test_estimator_agrees_past_old_cap(self, n, m, seed):
        g = gen_random_multigraph(n, m, seed)
        f = float(count_trails_exact(g).f)
        samples = 100_000
        estimate = estimate_trail_fraction(g, samples, seed=11).estimate
        assert abs(estimate - f) <= 5 * (f * (1 - f) / samples) ** 0.5

    # d must not depend on the vertex order. A shuffled order interleaves the
    # components of a disjoint union on the frontier.
    @settings(max_examples=150, deadline=None)
    @given(graphs_and_disjoint_unions(), st.integers(0, 2**32 - 1))
    def test_any_vertex_order_matches_numpy_reference(self, g, seed):
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(trailfrac.counting, "_frontier_order", shuffled_frontier_order(seed))
            assert count_trails_exact(g).d == numpy_reference_d(g)

    @pytest.mark.parametrize("seed", [1, 2, 3])
    def test_shuffled_orders_match_default_order(self, monkeypatch, seed):
        g = gen_random_multigraph(8, 30, seed)
        want = count_trails_exact(g).d
        for order_seed in range(3):
            monkeypatch.setattr(trailfrac.counting, "_frontier_order", shuffled_frontier_order(order_seed))
            assert count_trails_exact(g).d == want

    # The examples tell apart keys that drop the leaving term (the first) or
    # break ties by index alone (the second), which few drawn graphs do, and
    # give the heap many stale entries (the third).
    @settings(max_examples=300, deadline=None)
    @given(graphs_and_disjoint_unions())
    @example(Multigraph(4, ((1, 3), (2, 1), (3, 2), (3, 0), (0, 2))))
    @example(Multigraph(5, ((2, 3), (2, 4), (1, 0), (4, 1), (2, 1))))
    @example(gen_random_multigraph(40, 120, 1))
    def test_frontier_order_matches_reference(self, g):
        adj: dict[int, set[int]] = {}
        for s, t in g.edges:
            adj.setdefault(s, set()).add(t)
            adj.setdefault(t, set()).add(s)
        assert _frontier_order(adj) == reference_frontier_order(adj)

    # The live states of the default order, recorded before the slots grew
    # inside the class step: the largest table a step returns, and the states
    # entering all steps. Labels left unrenumbered keep d but raise both, to
    # 1 297 and 10 098 for n = 16.
    @pytest.mark.parametrize("n,peak,states_in", [(16, 1_024, 7_359), (12, 16_680, 97_602)])
    def test_live_state_counts(self, monkeypatch, n, peak, states_in):
        take_class = trailfrac.counting._take_class
        seen = {"peak": 0, "in": 0}

        def counted(states, *args):
            new, done = take_class(states, *args)
            seen["in"] += len(states)
            seen["peak"] = max(seen["peak"], len(new))
            return new, done

        monkeypatch.setattr(trailfrac.counting, "_take_class", counted)
        count_trails_exact(gen_random_multigraph(n, 40, 1))
        assert seen == {"peak": peak, "in": states_in}

    # A label fate depends only on the labels, the two slots and the freed
    # ones, so it is decided once per count: the cycle's 3 000 class steps
    # repeat a few label tuples at a few slots. Fates kept for one step only
    # cost 29 984 calls here.
    def test_label_fates_decided_once_per_count(self, monkeypatch):
        free = trailfrac.counting._free
        calls = [0]

        def counted(*args):
            calls[0] += 1
            return free(*args)

        monkeypatch.setattr(trailfrac.counting, "_free", counted)
        assert count_trails_exact(gen_cycle(3000)).d == 8_997_001
        assert calls[0] < 100

    # Random graphs rarely meet a label tuple again, so fates kept for the
    # whole count pile up: 800 and 760 times the live states on these two.
    @pytest.mark.parametrize("n,m", [(40, 60), (32, 56)])
    def test_label_fates_stay_within_twice_the_live_states(self, monkeypatch, n, m):
        take_class = trailfrac.counting._take_class
        worst = [0.0]

        def counted(states, *args):
            fates = args[-1]
            worst[0] = max(worst[0], sum(map(len, fates.values())) / len(states))
            return take_class(states, *args)

        monkeypatch.setattr(trailfrac.counting, "_take_class", counted)
        count_trails_exact(gen_random_multigraph(n, m, 1))
        assert 0 < worst[0] <= 2

    def test_state_budget(self, monkeypatch):
        g = gen_random_multigraph(8, 40, seed=2)
        assert count_trails_exact(g).m == 40
        monkeypatch.setattr(trailfrac.counting, "EXACT_MAX_STATES", 50)
        with pytest.raises(ValueError, match=r"stopped at \d+ live frontier states.*estimate"):
            count_trails_exact(g)

    # gen_family(4) is one class step, which leaves one live state beside the
    # trails it finishes; those do not count against the budget.
    def test_state_budget_counts_live_states(self, monkeypatch):
        monkeypatch.setattr(trailfrac.counting, "EXACT_MAX_STATES", 1)
        assert count_trails_exact(gen_family(4)).d == 13
        monkeypatch.setattr(trailfrac.counting, "EXACT_MAX_STATES", 0)
        with pytest.raises(ValueError, match=r"stopped at 1 live frontier states, over the budget of 0"):
            count_trails_exact(gen_family(4))

    # The family's one class can shift by -1, 0 or 1 only; building all m + 1
    # binomials of its row peaks at about 155 MB under tracemalloc.
    def test_family_builds_only_reachable_weights(self):
        g = gen_family(40000)
        tracemalloc.start()
        try:
            d = count_trails_exact(g).d
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert d == count_family_closed_form(40000).total
        assert peak < 10 * 2**20


class TestConnectivity:
    @settings(max_examples=150, deadline=None)
    @given(graphs_with_blocks())
    def test_block_count_matches_is_trail(self, case):
        g, bits = case
        assert _trail_kernel(g.edges)(pack_columns(bits)) == sum(
            is_trail(g, np.flatnonzero(column).tolist()).is_trail for column in bits.T
        )

    @settings(max_examples=150, deadline=None)
    @given(graphs_with_blocks())
    def test_columns_match_networkx(self, case):
        import networkx as nx

        g, bits = case
        count_trails = _trail_kernel(g.edges)
        words = pack_columns(bits)
        want = []
        for column in bits.T:
            edges = [g.edges[j] for j in np.flatnonzero(column)]
            imbalance = Counter(s for s, _ in edges)
            imbalance.subtract(t for _, t in edges)
            balanced = all(abs(x) <= 1 for x in imbalance.values()) and sum(map(abs, imbalance.values())) <= 2
            want.append(bool(edges) and balanced and nx.is_weakly_connected(nx.MultiDiGraph(edges)))
        assert [count_trails(words[:, [c]]) for c in range(words.shape[1])] == want
        assert count_trails(words) == sum(want)

    def test_wide_block_two_long_cycles(self):
        # 40 000 touched vertices and W = 625 words per column: the union of
        # two disjoint cycles is balanced but not connected, one cycle alone
        # is a trail, and the empty column is not.
        k = 20_000
        cycle = [(i, (i + 1) % k) for i in range(k)]
        edges = cycle + [(k + s, k + t) for s, t in cycle]
        bits = np.zeros((2 * k, 3), dtype=np.uint8)
        bits[:, 0] = 1
        bits[:k, 1] = 1
        words = pack_columns(bits)
        assert words.shape == (625, 3)
        assert _trail_kernel(edges)(words) == 1

    @pytest.mark.parametrize("k", [127, 128, 129, 255, 256])
    def test_imbalance_does_not_wrap(self, k):
        # k parallel edges 0 -> 1, all present: the two vertices sit at +k and
        # -k, which an 8-bit imbalance would wrap for k = 128.
        words = np.full((-(-k // 64), 1), 2**64 - 1, dtype=np.uint64)
        assert _trail_kernel([(0, 1)] * k)(words) == 0

    @pytest.mark.parametrize("m", [63, 64, 65])
    def test_bits_at_or_above_m_ignored(self, m):
        # Columns: the last edge with every spare bit above it set, a single
        # spare bit, nothing, and the whole path with every spare bit set. A
        # spare bit left in place would make the first and last columns look
        # disconnected and the second look like a one-edge trail.
        count_trails = _trail_kernel(gen_path(m).edges)
        width = 64 * -(-m // 64)
        spare = (1 << width) - (1 << m)
        masks = [1 << (m - 1) | spare, 1 << m & spare, 0, (1 << width) - 1]
        words = np.array([[mask >> (64 * w) & (2**64 - 1) for mask in masks] for w in range(width // 64)], dtype=np.uint64)
        assert [count_trails(words[:, [c]]) for c in range(len(masks))] == [1, 0, 0, 1]
        assert count_trails(words) == 2


class TestFamilyClosedForm:
    @pytest.mark.parametrize(
        "m,even,odd,total",
        [(2, 1, 2, 3), (4, 5, 8, 13), (6, 19, 30, 49)],
    )
    def test_small_values(self, m, even, odd, total):
        fc = count_family_closed_form(m)
        assert (fc.even_count, fc.odd_count, fc.total) == (even, odd, total)

    @pytest.mark.parametrize("m", [-2, 0, 1, 3, 7])
    def test_rejects_bad_m(self, m):
        with pytest.raises(ValueError):
            count_family_closed_form(m)

    @pytest.mark.parametrize("m", [2, 4, 6, 8, 10, 12])
    def test_agrees_with_enumeration(self, m):
        assert count_family_closed_form(m).total == count_trails_exact(gen_family(m)).d

    def test_parity_split_agrees_with_enumeration(self):
        g = gen_family(8)
        even = odd = 0
        for mask in range(1, 1 << 8):
            if is_trail(g, mask_members(mask)).is_trail:
                if mask.bit_count() % 2:
                    odd += 1
                else:
                    even += 1
        fc = count_family_closed_form(8)
        assert (fc.even_count, fc.odd_count) == (even, odd)


# Success counts of estimate_trail_fraction(_golden_graph(n, m), samples=3000,
# seed=s) for s in (0, 7, 2**63 + 5), pinned so estimates stay reproducible
# for a fixed (seed, samples). The widths straddle the 64-bit word boundaries
# (63/64/65 and 128/130), so a change in how Philox words become masks shows.
GOLDEN_SAMPLES = 3000
GOLDEN_SEEDS = (0, 7, 2**63 + 5)
GOLDEN_SUCCESSES = {
    (1, 2): (1489, 1552, 1519),
    (1, 3): (1489, 1552, 1519),
    (16, 2): (1098, 1063, 1035),
    (16, 3): (701, 707, 685),
    (63, 2): (733, 757, 751),
    (63, 3): (337, 319, 330),
    (64, 2): (854, 860, 874),
    (64, 3): (295, 229, 282),
    (65, 2): (826, 798, 830),
    (65, 3): (1, 1, 2),
    (128, 2): (488, 467, 511),
    (128, 3): (167, 165, 159),
    (130, 2): (640, 611, 594),
    (130, 3): (156, 159, 166),
}


# Success counts for samples=40_000, recorded before the sampler decided
# samples in blocks. (130, 3) and (100, 8) cross block boundaries at the
# default block size; (40, 4) has a nonzero count on more than three vertices.
GOLDEN_LONG_SAMPLES = 40_000
GOLDEN_LONG_SUCCESSES = {
    (130, 3): (2107, 2128, 2202),
    (100, 8): (0, 0, 0),
    (40, 4): (2305, 2392, 2375),
}


def _golden_graph(n: int, m: int) -> Multigraph:
    rng = random.Random(1000 * n + m)
    edges = []
    while len(edges) < m:
        s, t = rng.randrange(n), rng.randrange(n)
        if s != t:
            edges.append((s, t))
    return Multigraph(n, tuple(edges))


class TestEstimate:
    @pytest.mark.parametrize("m,n", sorted(GOLDEN_SUCCESSES))
    def test_golden_success_counts(self, m, n):
        g = _golden_graph(n, m)
        got = tuple(
            round(estimate_trail_fraction(g, samples=GOLDEN_SAMPLES, seed=seed).estimate * GOLDEN_SAMPLES)
            for seed in GOLDEN_SEEDS
        )
        assert got == GOLDEN_SUCCESSES[(m, n)]

    @pytest.mark.parametrize("m,n", sorted(GOLDEN_LONG_SUCCESSES))
    def test_golden_success_counts_across_blocks(self, m, n):
        g, samples = _golden_graph(n, m), GOLDEN_LONG_SAMPLES
        got = tuple(round(estimate_trail_fraction(g, samples, seed).estimate * samples) for seed in GOLDEN_SEEDS)
        assert got == GOLDEN_LONG_SUCCESSES[(m, n)]

    def test_small_blocks_same_report(self, monkeypatch):
        graphs = [_golden_graph(n, m) for m, n in [(16, 3), (40, 4), (65, 3), (130, 2)]]
        cases = [(g, seed) for g in graphs for seed in GOLDEN_SEEDS]
        want = [estimate_trail_fraction(g, 1000, seed) for g, seed in cases]
        # 16 to 50 samples per block for these graphs.
        monkeypatch.setattr(trailfrac.counting, "_BLOCK_CELLS", 400)
        assert [estimate_trail_fraction(g, 1000, seed) for g, seed in cases] == want

    def test_many_parallel_edges_never_balance(self):
        # Vertex imbalances reach about +-300 here, beyond what int8 holds.
        g = Multigraph(2, ((0, 1),) * 600)
        assert estimate_trail_fraction(g, 100_000, seed=3).estimate == 0.0

    def test_memory_bounded_in_samples(self):
        g = _golden_graph(3, 130)
        tracemalloc.start()
        try:
            estimate_trail_fraction(g, samples=1_000_000, seed=0)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 16 * 2**20

    def test_bit_identical_for_fixed_seed(self):
        g = gen_family(6)
        a = estimate_trail_fraction(g, samples=5000, seed=42)
        b = estimate_trail_fraction(g, samples=5000, seed=42)
        assert a == b

    def test_different_seeds_differ(self):
        g = gen_family(6)
        a = estimate_trail_fraction(g, samples=5000, seed=1)
        b = estimate_trail_fraction(g, samples=5000, seed=2)
        assert a.estimate != b.estimate

    def test_family4_close_to_exact(self):
        g = gen_family(4)
        f = 13 / 16
        report = estimate_trail_fraction(g, samples=100_000, seed=2024)
        assert abs(report.estimate - f) <= 4 * (f * (1 - f) / 100_000) ** 0.5
        assert report.ci_low <= report.estimate <= report.ci_high

    def test_single_sample_degenerate(self):
        report = estimate_trail_fraction(gen_path(1), samples=1, seed=9)
        assert report.estimate in (0.0, 1.0)
        assert 0.0 <= report.ci_low <= report.ci_high <= 1.0

    def test_estimate_within_interval_always(self):
        g = gen_path(3)
        for seed in range(5):
            r = estimate_trail_fraction(g, samples=257, seed=seed)
            assert r.ci_low <= r.estimate <= r.ci_high

    def test_invalid_confidence(self):
        with pytest.raises(ValueError, match="confidence"):
            estimate_trail_fraction(gen_path(1), samples=10, seed=0, confidence=1.0)

    @pytest.mark.parametrize("confidence", ["0.95", None, True])
    def test_non_real_confidence_rejected(self, confidence):
        with pytest.raises(ValueError, match=f"^confidence must be a real number, got {confidence!r}$"):
            estimate_trail_fraction(gen_path(1), samples=10, seed=0, confidence=confidence)

    def test_confidence_rounding_to_one_rejected_before_any_draw(self, monkeypatch):
        # (1 + c) / 2 rounds to 1.0 for c = 1 - 2**-53, whose normal quantile does not exist.
        def no_kernel(edges):
            raise AssertionError("built the sampling kernel")

        monkeypatch.setattr(trailfrac.counting, "_trail_kernel", no_kernel)
        with pytest.raises(ValueError, match=r"^confidence must be at most 1 - 2\*\*-52, got 0.9999999999999999$"):
            estimate_trail_fraction(gen_path(1), samples=10, seed=0, confidence=1 - 2**-53)

    def test_invalid_samples(self):
        with pytest.raises(ValueError, match="samples"):
            estimate_trail_fraction(gen_path(1), samples=0, seed=0)

    def test_edgeless_graph_estimates_zero(self):
        report = estimate_trail_fraction(gen_random_multigraph(3, 0, seed=0), samples=100, seed=5)
        assert report.estimate == 0.0

    def test_wide_graph_uses_multiple_words_per_sample(self):
        g = gen_random_multigraph(4, 70, seed=1)
        a = estimate_trail_fraction(g, samples=2000, seed=9)
        b = estimate_trail_fraction(g, samples=2000, seed=9)
        assert a == b
        assert 0.0 <= a.estimate <= 1.0

    @pytest.mark.parametrize("seed", [-1, 1 << 64, (1 << 64) + 7])
    def test_seed_outside_64_bits_rejected(self, seed):
        with pytest.raises(ValueError, match=r"seed must lie in \[0, 2\*\*64\)"):
            estimate_trail_fraction(gen_family(4), samples=1000, seed=seed)

    @pytest.mark.parametrize(
        "samples, seed, message",
        [
            (10, True, "seed must be an integer, got True"),
            (10, 1.0, "seed must be an integer, got 1.0"),
            (True, 1, "samples must be an integer, got True"),
            (10.0, 1, "samples must be an integer, got 10.0"),
        ],
    )
    def test_non_integer_seed_or_samples_rejected(self, samples, seed, message):
        with pytest.raises(ValueError) as info:
            estimate_trail_fraction(gen_family(4), samples, seed)
        assert str(info.value) == message

    def test_numpy_integer_seed_and_samples_accepted(self):
        g = gen_family(4)
        assert estimate_trail_fraction(g, np.int64(1000), np.uint64(7)) == estimate_trail_fraction(g, 1000, 7)

    def test_numpy_integer_arguments_give_plain_fields(self):
        report = estimate_trail_fraction(gen_family(4), samples=np.int64(10), seed=np.uint64(1))
        assert report == estimate_trail_fraction(gen_family(4), samples=10, seed=1)
        assert [type(v) for v in vars(report).values()] == [float] * 4 + [int] * 2

    def test_largest_seed_accepted_and_echoed(self):
        seed = (1 << 64) - 1
        report = estimate_trail_fraction(gen_family(4), samples=1000, seed=seed)
        assert report.seed == seed
        assert 0.0 <= report.estimate <= 1.0

    def test_single_edge_interval_coverage_over_seeds(self):
        # true f = 1/2; the 95% interval should cover it in >= 90% of seeds
        g = gen_path(1)
        covered = sum(
            1
            for s in range(50)
            if (r := estimate_trail_fraction(g, samples=10_000, seed=s)).ci_low
            <= 0.5
            <= r.ci_high
        )
        assert covered >= 45


class TestWilson:
    # z is scipy 1.17.1's norm.ppf((1 + confidence) / 2), recorded, so the
    # quantile that wilson_interval takes from statistics.NormalDist meets an
    # outside source wherever the tests run, scipy installed or not.
    @pytest.mark.parametrize(
        "confidence, z",
        [
            (0.5, 0.6744897501960817), (0.8, 1.2815515655446004), (0.9, 1.6448536269514722), (0.95, 1.959963984540054),
            (0.99, 2.5758293035489004), (0.999, 3.2905267314919255), (1e-6, 1.2533141372127224e-06), (1 - 1e-9, 6.1094101916632875),
        ],
    )
    def test_against_recorded_normal_quantiles(self, confidence, z):
        cases = {(0, 10), (10, 10), (7, 13), (500, 1000)}
        for samples in (1, 2, 13, 1000, 400_000):
            cases |= {(s, samples) for s in (0, 1, samples // 3, samples // 2, samples - 1, samples)}
        for successes, n in sorted(cases):
            p = successes / n
            denom = 1 + z * z / n
            center = (p + z * z / (2 * n)) / denom
            half = (z / denom) * (p * (1 - p) / n + z * z / (4 * n * n)) ** 0.5
            lo, hi = wilson_interval(successes, n, confidence)
            assert lo == pytest.approx(max(0.0, center - half), abs=1e-12)
            assert hi == pytest.approx(min(1.0, center + half), abs=1e-12)

    # 1 - 2**-52 is the largest confidence accepted.
    @pytest.mark.parametrize("confidence", [0.5, 0.8, 0.9, 0.95, 0.99, 0.999, 1 - 2**-52])
    def test_limits_solve_the_score_equation(self, confidence):
        # The Wilson limits are the proportions q at which the score statistic
        # |p - q| / sqrt(q (1 - q) / n) of the estimate p equals z.
        z = NormalDist().inv_cdf((1 + confidence) / 2)
        for n in (2, 3, 13, 1000, 400_000):
            for x in sorted({1, n // 3, n // 2, n - 1} - {0}):
                p = x / n
                lo, hi = wilson_interval(x, n, confidence)
                assert (p - lo) / math.sqrt(lo * (1 - lo) / n) == pytest.approx(z, rel=1e-8)
                assert (hi - p) / math.sqrt(hi * (1 - hi) / n) == pytest.approx(z, rel=1e-8)

    def test_import_leaves_scipy_unloaded(self):
        code = "import sys, trailfrac; print(sorted(k for k in sys.modules if k.split('.')[0] == 'scipy'))"
        out = subprocess.run([sys.executable, "-c", code], env=src_env(), capture_output=True, text=True, check=True)
        assert out.stdout.strip() == "[]"

    @pytest.mark.parametrize("confidence", [0.5, 0.9, 0.95, 0.99])
    def test_closed_form_limits_at_extremes(self, confidence):
        # The general formula leaves rounding residue at 0 and at all successes
        # for 637 of these 1196 cases, such as a lower limit of 2.8e-17.
        for samples in range(1, 300):
            assert wilson_interval(0, samples, confidence)[0] == 0.0
            assert wilson_interval(samples, samples, confidence)[1] == 1.0

    @pytest.mark.parametrize("successes", [-1, 11])
    def test_successes_outside_samples_rejected(self, successes):
        with pytest.raises(ValueError, match=r"successes must lie in \[0, 10\]"):
            wilson_interval(successes, 10, 0.95)

    @pytest.mark.parametrize(
        "samples, confidence, message",
        [
            (0, 0.95, "samples must be positive"),
            (10, 0.0, r"confidence must lie in \(0, 1\), got 0.0"),
            (10, 1.0, r"confidence must lie in \(0, 1\), got 1.0"),
            # The largest float below 1, for which (1 + confidence) / 2 rounds to 1.
            (10, 1 - 2**-53, r"^confidence must be at most 1 - 2\*\*-52, got 0.9999999999999999$"),
            # Not real numbers: < would raise TypeError on the first two, and True would read as 1.
            (10, "0.95", r"^confidence must be a real number, got '0.95'$"),
            (10, None, r"^confidence must be a real number, got None$"),
            (10, True, r"^confidence must be a real number, got True$"),
            (10, np.True_, r"^confidence must be a real number, got np.True_$"),
            (10, 0.95j, r"^confidence must be a real number, got 0.95j$"),
        ],
    )
    def test_samples_or_confidence_outside_range_rejected(self, samples, confidence, message):
        with pytest.raises(ValueError, match=message):
            wilson_interval(0, samples, confidence)

    @pytest.mark.parametrize(
        "successes, samples, message",
        [
            (True, 2, "successes must be an integer, got True"),
            (1, True, "samples must be an integer, got True"),
            (False, 2, "successes must be an integer, got False"),
            (1.0, 2, "successes must be an integer, got 1.0"),
            (1, 2.0, "samples must be an integer, got 2.0"),
            (None, 2, "successes must be an integer, got None"),
        ],
    )
    def test_non_integer_counts_rejected(self, successes, samples, message):
        # bool subclasses int: True would read as 1 success, or as 1 sample.
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            wilson_interval(successes, samples, 0.95)

    def test_numpy_integer_counts_accepted(self):
        assert wilson_interval(np.int64(7), np.int64(13), 0.9) == wilson_interval(7, 13, 0.9)
        for successes in (0, 7, 13):
            assert set(map(type, wilson_interval(np.int64(successes), np.int64(13), 0.9))) == {float}

    def test_numpy_float_confidence_read_as_float(self):
        # float32 arithmetic on np.float32(0.95) gives (0.0945311768..., 0.9054688231...).
        c = np.float32(0.95)
        assert wilson_interval(1, 2, c) == wilson_interval(1, 2, float(c)) == (0.09453121295777306, 0.9054687870422269)
        assert wilson_interval(1, 2, Fraction(19, 20)) == wilson_interval(1, 2, 0.95)
        report = estimate_trail_fraction(gen_family(4), samples=100, seed=1, confidence=c)
        assert type(report.confidence) is float and report.confidence == float(c)
        assert report == estimate_trail_fraction(gen_family(4), samples=100, seed=1, confidence=float(c))

    def test_width_shrinks_with_samples(self):
        widths = []
        for n in (100, 400, 1600):
            lo, hi = wilson_interval(n // 2, n, 0.95)
            widths.append(hi - lo)
        assert widths[0] > widths[1] > widths[2]
        assert widths[0] / widths[2] == pytest.approx(4.0, rel=0.05)
