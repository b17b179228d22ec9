"""Exact trail counts d(G) and the trail fraction f(G) = d(G) / 2^m.

count_trails_exact never lists the 2^m edge subsets. It decides the edges
between each pair of vertices together and runs a frontier dynamic program
over the vertices, whose states hold the imbalances and components of the
vertices it is working on, so m can go well past 30.
"""

from trailfrac import count_family_closed_form, count_trails_exact, gen_family, gen_path, gen_random_multigraph

print("paths: d equals the number of nonempty contiguous runs, k(k+1)/2")
for k in range(1, 9):
    report = count_trails_exact(gen_path(k))
    print(f"  path k={k}: d={report.d:>3}  f={report.f} = {float(report.f):.6f}")

print("\ntwo-vertex family: exact count vs closed form")
print(f"  {'m':>3} {'exact':>12} {'closed form':>12} {'f':>12}")
for m in range(2, 17, 2):
    exact = count_trails_exact(gen_family(m))
    closed = count_family_closed_form(m)
    print(f"  {m:>3} {exact.d:>12} {closed.total:>12} {float(exact.f):>12.6f}")

big = count_family_closed_form(200)
print(f"\nclosed form at m=200: d has {len(str(big.total))} digits")
print(f"  even-sized trails: {big.even_count}")
print(f"  odd-sized trails:  {big.odd_count}")
print(f"  exact count agrees: {count_trails_exact(gen_family(200)).d == big.total}")

# Enumerating the 2^40 subsets of this graph would take hours.
report = count_trails_exact(gen_random_multigraph(16, 40, seed=1))
print(f"\nrandom graph, n=16, m=40: d={report.d}  f={float(report.f):.3e}")
