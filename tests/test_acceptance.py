"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with ``pytest tests/test_acceptance.py -v -s``. The whole suite is
deterministic; the slowest items are the exhaustive enumerations (criteria 3
and 7), which take about half a minute together.
"""

import math
from fractions import Fraction

import pytest

from trailfrac import (
    count_family_closed_form,
    count_trails_exact,
    estimate_trail_fraction,
    gen_family,
    gen_path,
    gen_random_multigraph,
    greedy_eis,
    is_trail,
    oracle_is_trail,
    stirling_bounds,
    verify_eis,
    wilson_interval,
)
from trailfrac.bounds import _vandermonde_holds

from helpers import mask_members, numpy_reference_d, small_corpus


def report(number: int, label: str, violations: list) -> None:
    status = "PASS" if not violations else f"FAIL ({len(violations)} violations)"
    print(f"ACCEPTANCE {number} ({label}): {status}")
    assert not violations, violations[:10]


@pytest.fixture(scope="module")
def corpus():
    graphs = small_corpus()
    assert len(graphs) >= 50
    assert all(g.m <= 7 for _, g in graphs)
    return graphs


def test_criterion_1_oracle_equivalence(corpus):
    violations = []
    for name, g in corpus:
        for mask in range(1 << g.m):
            subset = mask_members(mask)
            fast = is_trail(g, subset).is_trail
            slow = oracle_is_trail(g, subset)
            if fast != slow:
                violations.append((name, mask, fast, slow))
    report(1, "oracle equivalence on all subsets of 52 graphs", violations)


def test_criterion_2_exact_small_counts():
    violations = []
    expectations = [
        (gen_path(1), 1, Fraction(1, 2)),
        (gen_path(2), 3, Fraction(3, 4)),
        (gen_family(4), 13, Fraction(13, 16)),
        (gen_family(6), 49, Fraction(49, 64)),
    ]
    for g, d, f in expectations:
        got = count_trails_exact(g)
        if got.d != d or got.f != f:
            violations.append((g, got.d, d))
    for k in range(1, 11):
        got = count_trails_exact(gen_path(k)).d
        if got != k * (k + 1) // 2:
            violations.append((f"path{k}", got, k * (k + 1) // 2))
    report(2, "exact small counts", violations)


def test_criterion_3_family_closed_form_vs_enumeration():
    violations = []
    for m in range(2, 25, 2):
        fc = count_family_closed_form(m)
        if fc.even_count != math.comb(m, m // 2) - 1:
            violations.append((m, "even_count", fc.even_count))
        enumerated = count_trails_exact(gen_family(m)).d
        if fc.total != enumerated:
            violations.append((m, fc.total, enumerated))
    report(3, "closed form vs enumeration, even m in [2, 24]", violations)


def test_criterion_4_lower_bound_scaling():
    violations = []
    for m in range(6, 201, 2):
        f = Fraction(count_family_closed_form(m).total, 1 << m)
        ratio = float(f) * math.sqrt(m)
        if not 1.8 <= ratio <= 2.4:
            violations.append((m, ratio))
    report(4, "f(G(m)) * sqrt(m) in [1.8, 2.4] for even m in [6, 200]", violations)


def test_criterion_5_proof_ingredient_inequalities():
    violations = []

    factorial = 1
    for n in range(1, 5001):
        factorial *= n
        log_fact = math.log(factorial)
        b = stirling_bounds(n)
        if not b.log_lower <= log_fact <= b.log_upper:
            violations.append(("stirling", n))

    for c in range(2, 2001, 2):
        # log-space comparison of C(c, c/2) * pi * sqrt(c) <= e * 2^c;
        # the inequality's margin (~0.08 in logs) dwarfs float error
        lhs = math.log(math.comb(c, c // 2)) + math.log(math.pi) + 0.5 * math.log(c)
        if lhs > 1 + c * math.log(2):
            violations.append(("central_binomial", c))

    for c in range(1, 65):
        cap = 3 * math.comb(c, c // 2)
        for j in range(-1, c + 2):
            window = sum(math.comb(c, t) if 0 <= t <= c else 0 for t in (j - 1, j, j + 1))
            if window > cap:
                violations.append(("balance_window", c, j))

    for r in range(2, 65):
        # C(r,2)/2^(r-2) + r/2^(r-1) + 1/2^r <= 4 r^2 / 2^r, scaled by 2^r
        if 4 * math.comb(r, 2) + 2 * r + 1 > 4 * r * r:
            violations.append(("case2_tail", r))

    for m in range(2, 201, 2):
        if not _vandermonde_holds(m):
            violations.append(("vandermonde", m))

    report(5, "proof-ingredient inequalities, zero violations", violations)


def test_criterion_6_greedy_length_guarantee(corpus):
    violations = []
    graphs = [(name, g) for name, g in corpus]
    for i in range(100):
        n = 2 + (i * 7) % 49
        m = 1 + (i * 13) % 200
        graphs.append((f"rand{i}", gen_random_multigraph(n, m, seed=5000 + i)))
    for name, g in graphs:
        non_isolated = len({v for e in g.edges for v in e})
        seq = greedy_eis(g)
        if 2 * seq.length < non_isolated:
            violations.append((name, "length", seq.length, non_isolated))
        if not verify_eis(g, seq):
            violations.append((name, "verify"))
        if any(k > 2 for k in seq.eliminated_per_step):
            violations.append((name, "eliminated>2"))
    report(6, "greedy length >= non-isolated/2 and verifies", violations)


def test_criterion_7_reference_counts_and_determinism():
    violations = []
    graphs = [("family20", gen_family(20))]
    for i in range(10):
        graphs.append((f"rand20-{i}", gen_random_multigraph(3 + i % 6, 20, seed=9000 + i)))
    for name, g in graphs:
        got, want = count_trails_exact(g).d, numpy_reference_d(g)
        if got != want:
            violations.append((name, got, want))
    first = estimate_trail_fraction(gen_family(6), samples=10_000, seed=77)
    second = estimate_trail_fraction(gen_family(6), samples=10_000, seed=77)
    if first != second:
        violations.append(("estimate", first, second))
    report(7, "counts match the numpy reference and estimates are bit-identical", violations)


def test_criterion_8_estimator_statistics():
    violations = []
    g = gen_family(6)
    truth = 49 / 64
    covered = 0
    successes_pooled = 0
    seeds = 200
    samples = 10_000
    for seed in range(seeds):
        r = estimate_trail_fraction(g, samples=samples, seed=seed, confidence=0.95)
        if r.ci_low <= truth <= r.ci_high:
            covered += 1
        successes_pooled += round(r.estimate * samples)
    coverage = covered / seeds
    pooled = successes_pooled / (seeds * samples)
    if coverage < 0.90:
        violations.append(("coverage", coverage))
    if abs(pooled - truth) > 0.005:
        violations.append(("pooled", pooled))
    # the Wilson interval itself should be sane at the pooled scale
    lo, hi = wilson_interval(successes_pooled, seeds * samples, 0.95)
    if not lo <= pooled <= hi:
        violations.append(("pooled interval", lo, pooled, hi))
    report(8, f"Wilson coverage {covered}/{seeds} and pooled error", violations)
