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
