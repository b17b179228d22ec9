"""Exact and Monte Carlo computation of the trail fraction f(G) = d(G)/2^m.

Both routes decide subsets with one kernel, ``_count_trails``, fed blocks of
about ``_BLOCK_CELLS`` cells, so memory grows neither with 2^m nor with the
number of samples. The kernel keeps the subsets whose vertex imbalances allow
a trail and decides their connectivity together by label propagation, both
with numpy row operations over the whole block. ``count_trails_exact`` feeds
it all 2^m subsets as blocks of consecutive masks.

``estimate_trail_fraction`` draws subsets from m independent fair bits per
sample. Sample ``i`` takes the ``ceil(m/64)`` Philox words at positions
``i*ceil(m/64)`` onward of the stream keyed by the seed, least significant
word first, so estimates are reproducible for a fixed ``(seed, samples)``.
The words are drawn and decided one block of samples at a time.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass
from fractions import Fraction
from statistics import NormalDist

import numpy as np

from .graphs import Multigraph, _edge_arrays

# 25-27 ns per subset on the 30-edge two-vertex family (27-29 s), 37 ns on a
# random 27-edge graph on 8 vertices, 116 ns on a near-regular 20-edge graph
# on 5 vertices whose 11% balanced subsets all go through the batched
# connectivity test (2-vCPU Xeon VM, Python 3.11, numpy 2.4.6).
ENUM_MAX_EDGES = 30

# Edge bits plus vertex imbalances per kernel block.
_BLOCK_CELLS = 1 << 21

@dataclass(frozen=True)
class CountReport:
    """Exact count result; ``f`` is the exact rational d / 2^m."""

    m: int
    d: int
    f: Fraction
    elapsed: float

    def to_json_dict(self) -> dict:
        return {
            "m": self.m,
            "d": self.d,
            "f": f"{self.d}/{1 << self.m}",
            "f_decimal": self.d / (1 << self.m),
            "elapsed": self.elapsed,
        }


@dataclass(frozen=True)
class EstimateReport:
    estimate: float
    ci_low: float
    ci_high: float
    confidence: float
    samples: int
    seed: int

    def to_json_dict(self) -> dict:
        return {
            "estimate": self.estimate,
            "ci_low": self.ci_low,
            "ci_high": self.ci_high,
            "confidence": self.confidence,
            "samples": self.samples,
            "seed": self.seed,
        }


@dataclass(frozen=True)
class FamilyCount:
    """Trail counts of the two-vertex family graph, split by subset parity."""

    m: int
    even_count: int
    odd_count: int
    total: int


def _block_size(src: list[int], dst: list[int]) -> int:
    """Subsets per kernel block: about ``_BLOCK_CELLS`` edge bits and imbalances in all."""
    return max(1, _BLOCK_CELLS // max(1, len(src) + len({*src, *dst})))


def _count_trails(src: list[int], dst: list[int], bits: np.ndarray) -> int:
    """How many columns of the 0/1 block are trails; row j holds edge j's bits.

    Imbalances are summed vertex-major over the vertices some edge touches,
    one contiguous row add and subtract per edge. The balanced nonempty
    columns then get one batched connectivity test, ``_connected_columns``.
    """
    m = len(src)
    if m == 0:
        return 0
    touched, ends = np.unique(src + dst, return_inverse=True)
    # Each vertex imbalance lies in [-m, m]; int8 would wrap from m = 128 on.
    imb = np.zeros((touched.size, bits.shape[1]), dtype=np.int8 if m < 128 else np.int32)
    signed = bits.view(np.int8)
    for j in range(m):
        imb[ends[j]] += signed[j]
        imb[ends[m + j]] -= signed[j]
    balanced = (np.abs(imb).max(axis=0) <= 1) & (np.count_nonzero(imb, axis=0) <= 2) & bits.any(axis=0)
    # Self-loops are forbidden, so two weak components need four vertices.
    if touched.size <= 3 or not balanced.any():
        return int(np.count_nonzero(balanced))
    return int(np.count_nonzero(_connected_columns(ends, touched.size, bits[:, balanced])))


def _connected_columns(ends: np.ndarray, n: int, bits: np.ndarray) -> np.ndarray:
    """Which columns of the 0/1 block are nonempty with all edges in one weak component.

    Edge j runs between vertices ``ends[j]`` and ``ends[m + j]`` of ``0..n-1``.
    Every vertex starts labelled with its own number; each present edge lowers
    both endpoint labels to their minimum, one vertex-major row operation per
    edge, in sweeps over the edges in order until no label changes. Then
    each touched vertex carries the least vertex of its component, and a column
    is connected iff exactly one touched vertex is its own label.
    """
    m, cols = bits.shape
    present = bits.view(bool)
    # Labels stay below n, so the smallest type holding n - 1 cannot wrap.
    labels = np.repeat(np.arange(n, dtype=np.min_scalar_type(n - 1))[:, None], cols, axis=1)
    seen = np.zeros((n, cols), dtype=bool)
    for j in range(m):
        seen[ends[j]] |= present[j]
        seen[ends[m + j]] |= present[j]
    while True:
        before = labels.copy()
        for j in range(m):
            a, b = labels[ends[j]], labels[ends[m + j]]
            np.minimum(a, b, out=a, where=present[j])
            np.copyto(b, a, where=present[j])
        if np.array_equal(before, labels):
            break
    roots = seen & (labels == np.arange(n)[:, None])
    return np.count_nonzero(roots, axis=0) == 1


def count_trails_exact(g: Multigraph) -> CountReport:
    """Exact d(G) and f(G) by deciding all 2^m subsets in blocks of consecutive masks.

    A block of ``2^k`` masks shares its high ``m - k`` bits; its low ``k`` bits
    run through every pattern, which is built once and reused by every block.
    Raises ``ValueError`` when m exceeds ``ENUM_MAX_EDGES``.
    """
    m = g.m
    if m > ENUM_MAX_EDGES:
        raise ValueError(f"m={m} too large for exact enumeration (max {ENUM_MAX_EDGES})")
    start = time.perf_counter()
    src, dst = _edge_arrays(g)
    k = min(m, _block_size(src, dst).bit_length() - 1)
    bits = np.empty((m, 1 << k), dtype=np.uint8)
    bits[:k] = (np.arange(1 << k) >> np.arange(k)[:, None]) & 1
    d = 0
    for high in range(1 << (m - k)):
        bits[k:] = (high >> np.arange(m - k)[:, None]) & 1
        d += _count_trails(src, dst, bits)
    elapsed = time.perf_counter() - start
    return CountReport(m=m, d=d, f=Fraction(d, 1 << m), elapsed=elapsed)


def count_family_closed_form(m: int) -> FamilyCount:
    """Closed-form trail counts for the two-vertex graph with m/2 edges each way.

    A subset with ``a`` forward and ``b`` backward edges is a trail iff
    ``|a - b| <= 1`` and ``a + b >= 1``, which gives C(m, m/2) - 1 subsets of
    even size (the empty set is excluded) and 2*C(m, m/2 - 1) of odd size.
    """
    if m < 2 or m % 2:
        raise ValueError(f"family size m={m} must be a positive even integer")
    half = m // 2
    even = math.comb(m, half) - 1
    odd = 2 * math.comb(m, half - 1)
    return FamilyCount(m=m, even_count=even, odd_count=odd, total=even + odd)


def wilson_interval(successes: int, samples: int, confidence: float) -> tuple[float, float]:
    """Wilson score interval for a binomial proportion."""
    if samples < 1:
        raise ValueError("samples must be positive")
    if not 0 <= successes <= samples:
        raise ValueError(f"successes must lie in [0, {samples}], got {successes}")
    if not 0 < confidence < 1:
        raise ValueError(f"confidence must lie in (0, 1), got {confidence}")
    z = NormalDist().inv_cdf((1 + confidence) / 2)
    n = samples
    p = successes / n
    denom = 1 + z * z / n
    center = (p + z * z / (2 * n)) / denom
    half = (z / denom) * math.sqrt(p * (1 - p) / n + z * z / (4 * n * n))
    return max(0.0, center - half), min(1.0, center + half)


def estimate_trail_fraction(
    g: Multigraph, samples: int, seed: int, confidence: float = 0.95
) -> EstimateReport:
    """Unbiased Monte Carlo estimate of f(G) with a Wilson confidence interval.

    Each sampled subset includes every edge independently with probability 1/2;
    the estimate is the fraction of sampled subsets that are trails. Results
    are bit-identical for a fixed (seed, samples) pair; seeds lie in [0, 2^64).
    """
    if samples < 1:
        raise ValueError("samples must be positive")
    if not 0 < confidence < 1:
        raise ValueError(f"confidence must lie in (0, 1), got {confidence}")
    if not 0 <= seed < 1 << 64:
        raise ValueError(f"seed must lie in [0, 2**64), got {seed}")
    m = g.m
    src, dst = _edge_arrays(g)
    words = max(1, -(-m // 64))
    block = _block_size(src, dst)
    philox = np.random.Philox(key=seed)
    successes = 0
    for done in range(0, samples, block):
        raw = philox.random_raw(min(block, samples - done) * words).astype("<u8", copy=False)
        sample_bytes = raw.view(np.uint8).reshape(-1, 8 * words).T
        bits = np.unpackbits(sample_bytes, axis=0, count=m, bitorder="little")
        successes += _count_trails(src, dst, bits)
    ci_low, ci_high = wilson_interval(successes, samples, confidence)
    return EstimateReport(
        estimate=successes / samples,
        ci_low=ci_low,
        ci_high=ci_high,
        confidence=confidence,
        samples=samples,
        seed=seed,
    )
