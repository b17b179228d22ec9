"""Constructors for the two-vertex bound family and auxiliary test graphs."""

from __future__ import annotations

import random

from .graphs import Multigraph, _check_ints


def gen_family(m: int) -> Multigraph:
    """Two vertices with m/2 parallel edges in each direction.

    Forward edges (0 -> 1) occupy indices 0..m/2-1, backward edges the rest,
    so subset indices have a stable meaning across runs.
    """
    [m] = _check_ints(m=m)
    if m < 2 or m % 2:
        raise ValueError(f"family size m={m} must be a positive even integer")
    half = m // 2
    return Multigraph(2, ((0, 1),) * half + ((1, 0),) * half)


def gen_path(k: int) -> Multigraph:
    """Directed path with k edges: 0 -> 1 -> ... -> k."""
    [k] = _check_ints(k=k)
    if k < 1:
        raise ValueError(f"path needs at least 1 edge, got k={k}")
    return Multigraph(k + 1, tuple((i, i + 1) for i in range(k)))


def gen_cycle(k: int) -> Multigraph:
    """Directed cycle with k edges: i -> (i+1) mod k."""
    [k] = _check_ints(k=k)
    if k < 2:
        raise ValueError(f"cycle needs at least 2 edges, got k={k}")
    return Multigraph(k, tuple((i, (i + 1) % k) for i in range(k)))


def gen_star(k: int) -> Multigraph:
    """Out-star: center 0 with edges to leaves 1..k."""
    [k] = _check_ints(k=k)
    if k < 1:
        raise ValueError(f"star needs at least 1 leaf, got k={k}")
    return Multigraph(k + 1, tuple((0, i) for i in range(1, k + 1)))


def gen_random_multigraph(n: int, m: int, seed: int) -> Multigraph:
    """Random multigraph: each edge gets a uniform source and a uniform target
    among the other n-1 vertices (self-loops excluded by construction).

    Deterministic for a fixed seed, which must be nonnegative.
    """
    n, m, seed = _check_ints(n=n, m=m, seed=seed)
    if m < 0:
        raise ValueError(f"edge count must be nonnegative, got m={m}")
    if m > 0 and n < 2:
        raise ValueError(f"need n >= 2 to draw self-loop-free edges, got n={n}")
    if n < 0:
        raise ValueError(f"vertex count must be nonnegative, got n={n}")
    # random.Random seeds with |seed|, so -s would silently alias s.
    if seed < 0:
        raise ValueError(f"seed must be nonnegative, got seed={seed}")
    rng = random.Random(seed)
    edges = []
    for _ in range(m):
        s = rng.randrange(n)
        t = rng.randrange(n - 1)
        if t >= s:
            t += 1
        edges.append((s, t))
    return Multigraph(n, tuple(edges))
