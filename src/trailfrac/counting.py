"""Exact and Monte Carlo computation of the trail fraction f(G) = d(G)/2^m.

``count_trails_exact`` enumerates every edge subset in one Gray-code pass so
the per-vertex imbalance state changes by a single edge toggle per step; the
connectivity test (disjoint-set union, rebuilt per candidate) runs only for
subsets that already pass the degree condition.

``estimate_trail_fraction`` draws subsets from m independent fair bits per
sample. Sample ``i`` takes the ``ceil(m/64)`` Philox words at positions
``i*ceil(m/64)`` onward of the stream keyed by the seed, least significant
word first, so estimates are reproducible for a fixed ``(seed, samples)``.
Each distinct sampled subset is decided once.
"""

from __future__ import annotations

import math
import time
from collections import Counter
from dataclasses import dataclass
from fractions import Fraction
from statistics import NormalDist

from numpy.random import Philox

from .graphs import Multigraph
from .trails import _edge_arrays, _mask_connected, _mask_is_trail

ENUM_MAX_EDGES = 30

_SEED_MASK = (1 << 64) - 1


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


def _count_gray(n: int, src: list[int], dst: list[int], m: int) -> int:
    """Count trail subsets among all 2^m edge masks, visited in Gray-code order.

    Maintains per-vertex imbalances plus summary counters (#vertices off
    balance, #at +1, #at -1) under single-edge toggles, starting from the
    empty subset.
    """
    imb = [0] * n
    nonzero = plus1 = minus1 = 0

    # With n <= 2 every edge joins the same vertex pair, so any nonempty
    # subset is weakly connected and the DSU pass can be skipped.
    trivial_conn = n <= 2

    d = 0
    cur = 0
    for g in range(1, 1 << m):
        low = g & -g
        j = low.bit_length() - 1
        cur ^= low
        sign = 1 if cur & low else -1
        v = src[j]
        o = imb[v]
        w = o + sign
        imb[v] = w
        if o == 0:
            nonzero += 1
        elif w == 0:
            nonzero -= 1
        if o == 1:
            plus1 -= 1
        elif w == 1:
            plus1 += 1
        if o == -1:
            minus1 -= 1
        elif w == -1:
            minus1 += 1
        v = dst[j]
        o = imb[v]
        w = o - sign
        imb[v] = w
        if o == 0:
            nonzero += 1
        elif w == 0:
            nonzero -= 1
        if o == 1:
            plus1 -= 1
        elif w == 1:
            plus1 += 1
        if o == -1:
            minus1 -= 1
        elif w == -1:
            minus1 += 1
        if nonzero == 0 or (nonzero == 2 and plus1 == 1 and minus1 == 1):
            if trivial_conn or _mask_connected(src, dst, cur):
                d += 1
    return d


def count_trails_exact(g: Multigraph) -> CountReport:
    """Exact d(G) and f(G) by enumeration of all 2^m subsets in one Gray-code pass.

    Raises ``ValueError`` when m exceeds ``ENUM_MAX_EDGES``.
    """
    m = g.m
    if m > ENUM_MAX_EDGES:
        raise ValueError(f"m={m} too large for exact enumeration (max {ENUM_MAX_EDGES})")
    start = time.perf_counter()
    src, dst = _edge_arrays(g)
    d = _count_gray(g.vertex_count, src, dst, m)
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
    are bit-identical for a fixed (seed, samples) pair.
    """
    if samples < 1:
        raise ValueError("samples must be positive")
    if not 0 < confidence < 1:
        raise ValueError(f"confidence must lie in (0, 1), got {confidence}")
    m = g.m
    src, dst = _edge_arrays(g)
    words = max(1, -(-m // 64))
    raw = Philox(key=seed & _SEED_MASK).random_raw(samples * words)
    buf = raw.astype("<u8", copy=False).tobytes()
    step = 8 * words
    full = (1 << m) - 1
    masks = Counter(int.from_bytes(buf[i : i + step], "little") & full for i in range(0, len(buf), step))
    successes = sum(cnt for mask, cnt in masks.items() if _mask_is_trail(src, dst, mask))
    ci_low, ci_high = wilson_interval(successes, samples, confidence)
    return EstimateReport(
        estimate=successes / samples,
        ci_low=ci_low,
        ci_high=ci_high,
        confidence=confidence,
        samples=samples,
        seed=seed,
    )
