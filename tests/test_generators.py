import re

import pytest

from trailfrac import (
    count_trails_exact,
    gen_cycle,
    gen_family,
    gen_path,
    gen_random_multigraph,
    gen_star,
    is_trail,
)

from helpers import brute_force_d, perm_oracle


class TestFamily:
    @pytest.mark.parametrize(
        "m,edges",
        [
            (2, ((0, 1), (1, 0))),
            (4, ((0, 1), (0, 1), (1, 0), (1, 0))),
            (6, ((0, 1), (0, 1), (0, 1), (1, 0), (1, 0), (1, 0))),
        ],
    )
    def test_construction(self, m, edges):
        g = gen_family(m)
        assert g.vertex_count == 2
        assert g.edges == edges

    @pytest.mark.parametrize("m", [0, 1, 3, -4])
    def test_rejects_bad_m(self, m):
        with pytest.raises(ValueError):
            gen_family(m)


class TestFixedShapes:
    def test_path(self):
        g = gen_path(2)
        assert g.vertex_count == 3
        assert g.edges == ((0, 1), (1, 2))

    def test_cycle_full_subset_is_closed_trail(self):
        g = gen_cycle(3)
        assert g.edges == ((0, 1), (1, 2), (2, 0))
        assert perm_oracle(g, [0, 1, 2])
        assert is_trail(g, [0, 1, 2]).is_trail

    def test_star(self):
        g = gen_star(4)
        assert g.vertex_count == 5
        assert g.edges == ((0, 1), (0, 2), (0, 3), (0, 4))

    @pytest.mark.parametrize("gen,bad", [(gen_path, 0), (gen_cycle, 1), (gen_star, 0)])
    def test_size_minimums(self, gen, bad):
        with pytest.raises(ValueError):
            gen(bad)

    @pytest.mark.parametrize(
        "gen, args, message",
        [
            (gen_family, (True,), "m must be an integer, got True"),
            (gen_family, (4.0,), "m must be an integer, got 4.0"),
            (gen_path, (True,), "k must be an integer, got True"),
            (gen_path, (2.0,), "k must be an integer, got 2.0"),
            (gen_cycle, (True,), "k must be an integer, got True"),
            (gen_cycle, ("3",), "k must be an integer, got '3'"),
            (gen_star, (True,), "k must be an integer, got True"),
            (gen_star, (None,), "k must be an integer, got None"),
            (gen_random_multigraph, (True, 2, 1), "n must be an integer, got True"),
            (gen_random_multigraph, (3, True, 1), "m must be an integer, got True"),
            (gen_random_multigraph, (3, 2, True), "seed must be an integer, got True"),
            (gen_random_multigraph, (3.0, 2, 1), "n must be an integer, got 3.0"),
            (gen_random_multigraph, (3, 2, 1.5), "seed must be an integer, got 1.5"),
        ],
    )
    def test_rejects_non_integer_sizes_and_seeds(self, gen, args, message):
        # bool subclasses int: True would build the one-edge graph, or alias seed 1.
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            gen(*args)

    def test_accepts_numpy_integers(self):
        import numpy as np

        assert gen_path(np.int64(2)) == gen_path(2)
        assert gen_random_multigraph(np.int64(5), np.int32(12), np.uint64(99)) == gen_random_multigraph(5, 12, 99)
        # Equal graphs could still hold numpy values; their reprs show that they hold ints.
        for gen, size in ((gen_family, 4), (gen_path, 2), (gen_cycle, 3), (gen_star, 2)):
            assert repr(gen(np.int64(size))) == repr(gen(size))

    @pytest.mark.parametrize("k", range(1, 7))
    def test_path_count_formula(self, k):
        # trails of a path are exactly the nonempty contiguous runs
        assert count_trails_exact(gen_path(k)).d == k * (k + 1) // 2

    @pytest.mark.parametrize("k", range(1, 6))
    def test_path_count_matches_permutation_oracle(self, k):
        assert brute_force_d(gen_path(k)) == k * (k + 1) // 2


class TestRandom:
    def test_deterministic_for_seed(self):
        a = gen_random_multigraph(5, 12, seed=99)
        b = gen_random_multigraph(5, 12, seed=99)
        assert a == b

    def test_seeds_differ(self):
        assert gen_random_multigraph(4, 10, seed=0) != gen_random_multigraph(4, 10, seed=1)

    def test_two_vertices_only_mixed_directions(self):
        g = gen_random_multigraph(2, 5, seed=7)
        assert g.m == 5
        assert all(e in ((0, 1), (1, 0)) for e in g.edges)

    def test_no_self_loops_and_in_range(self):
        for seed in range(20):
            g = gen_random_multigraph(6, 30, seed=seed)
            for s, t in g.edges:
                assert s != t
                assert 0 <= s < 6 and 0 <= t < 6

    def test_edgeless(self):
        assert gen_random_multigraph(4, 0, seed=3).m == 0

    def test_rejects_too_few_vertices(self):
        with pytest.raises(ValueError):
            gen_random_multigraph(1, 3, seed=0)

    @pytest.mark.parametrize(
        "n, m, message",
        [
            (3, -1, "edge count must be nonnegative, got m=-1"),
            (-1, 0, "vertex count must be nonnegative, got n=-1"),
        ],
    )
    def test_rejects_negative_counts(self, n, m, message):
        with pytest.raises(ValueError, match=message):
            gen_random_multigraph(n, m, seed=0)

    def test_rejects_negative_seed(self):
        # random.Random seeds with |seed|: -1 would give the graph of seed 1.
        with pytest.raises(ValueError, match=r"^seed must be nonnegative, got seed=-1$"):
            gen_random_multigraph(5, 8, seed=-1)
