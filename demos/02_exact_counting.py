"""Exact trail counts d(G) and the trail fraction f(G) = d(G) / 2^m.

Decides all 2^m edge subsets in blocks of consecutive masks: numpy arrays hold
the degree balance of every vertex for a whole block at once, and the
subsets that pass the balance test get their connectivity checked together
by label propagation.
"""

from trailfrac import count_family_closed_form, count_trails_exact, gen_family, gen_path

print("paths: d equals the number of nonempty contiguous runs, k(k+1)/2")
for k in range(1, 9):
    report = count_trails_exact(gen_path(k))
    print(f"  path k={k}: d={report.d:>3}  f={report.f} = {float(report.f):.6f}")

print("\ntwo-vertex family: exact enumeration vs closed form")
print(f"  {'m':>3} {'enumerated':>12} {'closed form':>12} {'f':>12}")
for m in range(2, 17, 2):
    enum = count_trails_exact(gen_family(m))
    closed = count_family_closed_form(m)
    print(f"  {m:>3} {enum.d:>12} {closed.total:>12} {float(enum.f):>12.6f}")

# The closed form keeps working far beyond the enumeration cap of 30 edges.
big = count_family_closed_form(200)
print(f"\nclosed form at m=200: d has {len(str(big.total))} digits")
print(f"  even-sized trails: {big.even_count}")
print(f"  odd-sized trails:  {big.odd_count}")
