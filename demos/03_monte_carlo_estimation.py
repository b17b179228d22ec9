"""Monte Carlo estimation of the trail fraction with Wilson score intervals.

Each sample includes every edge independently with probability 1/2, so the hit
rate is an unbiased estimate of f(G). Sample bits come from a counter-based
generator keyed by (seed, sample index): reruns and any parallel schedule give
bit-identical results. Estimation needs numpy 2.0 or later, the ``estimate``
extra: pip install 'trailfrac[estimate]'.
"""

from trailfrac import count_trails_exact, estimate_trail_fraction, gen_family

g = gen_family(6)
exact = count_trails_exact(g).f
print(f"six-edge family graph: exact f = {exact} = {float(exact):.6f}\n")

print("estimate converges as samples grow (seed fixed):")
for samples in (100, 1_000, 10_000, 100_000, 1_000_000):
    r = estimate_trail_fraction(g, samples=samples, seed=7)
    print(
        f"  samples={samples:>9}: estimate={r.estimate:.6f} "
        f"CI=[{r.ci_low:.6f}, {r.ci_high:.6f}] width={r.ci_high - r.ci_low:.6f}"
    )

print("\nsame seed, same answer:")
a = estimate_trail_fraction(g, samples=50_000, seed=123)
b = estimate_trail_fraction(g, samples=50_000, seed=123)
print(f"  run 1: {a.estimate!r}")
print(f"  run 2: {b.estimate!r}")
print(f"  bit-identical reports: {a == b}")

print("\ncoverage of the 95% interval over 100 seeds (10^4 samples each):")
covered = 0
for seed in range(100):
    r = estimate_trail_fraction(g, samples=10_000, seed=seed)
    covered += r.ci_low <= float(exact) <= r.ci_high
print(f"  intervals containing the exact value: {covered}/100")
