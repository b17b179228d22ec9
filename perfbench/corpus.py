"""Seeded benchmark inputs and the fixed list of CLI calls of each workload.

Graphs are built here with the benchmark's own RNG and written in the
edge-list format, never with ``trailfrac.generators``, so a change to the
generators cannot change what is measured. The same ``--seed`` always gives
the same graphs, estimate seeds and call list.

Why each workload exists:

- ``exact``: ``count`` on four graphs. Almost all of the time is the
  Gray-code enumeration kernel plus the per-subset connectivity test in
  ``trails``. The two-vertex family skips connectivity, the random graphs do
  not, so the family/random split separates those two costs. The estimator
  and ``eis`` do no work here.
- ``sample``: ``estimate`` on three graphs. The Philox draw plus one trail
  decision per distinct mask dominates; the Gray loop does not run. m16
  shares most sampled masks (deduplication does the work), m40 takes the
  single-word branch with nearly every mask distinct, m100 takes the
  multi-word memo branch and holds the largest raw allocation.
- ``large``: one huge input per call instead of millions of tiny ones. It
  does almost no work in ``counting``, so it bypasses kernel optimisations,
  and it is where interpreter start-up and the quadratic ``greedy_eis``
  show most.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field

DEFAULT_SEED = 1
HELD_OUT_SEED = 2

WORKLOADS = ("exact", "sample", "large")


@dataclass(frozen=True)
class Graph:
    name: str
    n: int
    edges: tuple[tuple[int, int], ...]

    @property
    def m(self) -> int:
        return len(self.edges)

    def text(self) -> str:
        lines = [f"{self.n} {self.m}"]
        lines.extend(f"{s} {t}" for s, t in self.edges)
        return "\n".join(lines) + "\n"


@dataclass(frozen=True)
class Job:
    """One CLI call of a workload: ``cmd`` with the options in ``opts``."""

    name: str
    cmd: str
    graph: Graph | None = None
    opts: dict = field(default_factory=dict)

    def cli_args(self, graph_path: str | None) -> list[str]:
        o = self.opts
        if self.cmd == "count":
            return ["count", graph_path]
        if self.cmd == "estimate":
            return ["estimate", graph_path, "--samples", str(o["samples"]), "--seed", str(o["seed"])]
        if self.cmd == "eis":
            return ["eis", graph_path]
        if self.cmd == "check":
            return ["check", graph_path, "--subset", ",".join(map(str, o["subset"])), "--witness"]
        if self.cmd == "bounds":
            return ["bounds", "--m", str(o["m"])]
        if self.cmd == "scan":
            return ["scan", "--m-min", str(o["m_min"]), "--m-max", str(o["m_max"])]
        raise ValueError(f"unknown command {self.cmd!r}")


def _rng(seed: int, name: str) -> random.Random:
    return random.Random(f"trailfrac-bench:{seed}:{name}")


def family(rng: random.Random, m: int) -> tuple[tuple[int, int], ...]:
    """Two vertices, m/2 parallel edges each way, in seeded order."""
    edges = [(0, 1)] * (m // 2) + [(1, 0)] * (m // 2)
    rng.shuffle(edges)
    return tuple(edges)


def near_regular(rng: random.Random, n: int, m: int) -> tuple[tuple[int, int], ...]:
    """Random multigraph in which every ordered pair has floor or ceil of m/P edges.

    P = n(n-1). The seed picks which pairs get the extra edge and the edge
    order. Spreading edges evenly keeps the share of subsets that reach the
    connectivity test nearly the same from seed to seed, so run time tracks
    the code rather than the draw.
    """
    pairs = [(s, t) for s in range(n) for t in range(n) if s != t]
    rng.shuffle(pairs)
    edges = [pairs[i % len(pairs)] for i in range(m)]
    rng.shuffle(edges)
    return tuple(edges)


def uniform(rng: random.Random, n: int, m: int) -> tuple[tuple[int, int], ...]:
    """m independent uniform edges without self-loops (parallel edges allowed)."""
    edges = []
    for _ in range(m):
        s = rng.randrange(n)
        t = rng.randrange(n - 1)
        edges.append((s, t + (t >= s)))
    return tuple(edges)


def closed_walk_plus_edge(rng: random.Random, n: int, length: int) -> tuple[tuple[int, int], ...]:
    """A random closed walk of ``length`` edges on ``n`` vertices, shuffled, then
    one edge between two fresh vertices ``n`` and ``n + 1`` at index ``length``."""
    walk = [rng.randrange(n)]
    for i in range(1, length):
        banned = {walk[-1], walk[0]} if i == length - 1 else {walk[-1]}
        v = rng.randrange(n)
        while v in banned:
            v = rng.randrange(n)
        walk.append(v)
    edges = [(walk[i], walk[(i + 1) % length]) for i in range(length)]
    rng.shuffle(edges)
    edges.append((n, n + 1))
    return tuple(edges)


def _estimate_seed(seed: int, name: str) -> int:
    return _rng(seed, "estimate-" + name).getrandbits(63)


def workload(name: str, seed: int) -> list[Job]:
    """The fixed call list of workload ``name`` for workload seed ``seed``."""
    if name == "exact":
        r = _rng(seed, "exact")
        graphs = [
            Graph("family", 2, family(r, 22)),
            Graph("n3", 3, near_regular(r, 3, 18)),
            Graph("n5", 5, near_regular(r, 5, 20)),
            Graph("n8", 8, near_regular(r, 8, 22)),
        ]
        return [Job(f"count.{g.name}", "count", g) for g in graphs]
    if name == "sample":
        r = _rng(seed, "sample")
        specs = [("m16", 6, 16, 400_000), ("m40", 8, 40, 300_000), ("m100", 8, 100, 150_000)]
        return [
            Job(
                f"estimate.{tag}",
                "estimate",
                Graph(tag, n, near_regular(r, n, m)),
                {"samples": samples, "seed": _estimate_seed(seed, tag)},
            )
            for tag, n, m, samples in specs
        ]
    if name == "large":
        r = _rng(seed, "large")
        walk_len = 15_000
        walk = Graph("walk", 2002, closed_walk_plus_edge(r, 2000, walk_len))
        return [
            Job("eis.n8000", "eis", Graph("eis", 8000, uniform(r, 8000, 40_000))),
            Job("check.trail", "check", walk, {"subset": list(range(walk_len)), "is_trail": True}),
            Job("check.nontrail", "check", walk, {"subset": list(range(walk_len + 1)), "is_trail": False}),
            Job("bounds.m1024", "bounds", None, {"m": 1024}),
            Job("scan.m4-2000", "scan", None, {"m_min": 4, "m_max": 2000}),
        ]
    raise ValueError(f"unknown workload {name!r}; choose from {', '.join(WORKLOADS)}")
