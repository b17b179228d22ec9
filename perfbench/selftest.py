"""Self-tests of the benchmark's checks, so that the correctness gate is not vacuous.

Each case feeds a known-good answer, which must pass, and where there is
one, a corrupted answer, which must register as a failure. Nothing here
calls trailfrac. ``run.py``
runs these before every benchmark run; run them alone with

    python3 perfbench/selftest.py
"""

from __future__ import annotations

import json
import math
import sys

import layers
import refs
import run
from corpus import Graph, Job


def _cases():
    """Triples of (label, errors from a good answer, errors from a corrupted answer or None)."""
    # Two vertices, two edges each way: d = 13 of 16 subsets, closed form and enumeration agree.
    fam = Graph("family", 2, ((0, 1), (1, 0), (0, 1), (1, 0)))
    count = Job("count.family", "count", fam)
    ref = {"d": refs.exact_d(fam)}
    yield "closed form", [] if ref["d"] == refs.family_d(4) == 13 else ["family_d"], None
    yield "wrong d", refs.check_count(count, ref, 4, 13, "13/16"), refs.check_count(count, ref, 4, 12, "12/16")
    yield "golden d", refs.check_count(count, dict(ref, golden=13), 4, 13, "13/16"), refs.check_count(count, dict(ref, golden=12), 4, 13, "13/16")

    # Path 0->1->2 plus a disjoint edge 3->4: subset {0, 1} is a trail, {0, 1, 2} is disconnected.
    path = Graph("walk", 5, ((1, 2), (0, 1), (3, 4)))
    trail = Job("check.trail", "check", path, {"subset": [0, 1], "is_trail": True})
    nontrail = Job("check.nontrail", "check", path, {"subset": [0, 1, 2], "is_trail": False})
    yield "witness", refs.check_trail(trail, True, None, [1, 0]), refs.check_trail(trail, True, None, [0, 1])
    yield "witness reuse", [], refs.check_trail(trail, True, None, [1, 1])
    yield "non-trail", refs.check_trail(nontrail, False, "disconnected", None), refs.check_trail(nontrail, True, None, [1, 0, 2])
    yield "exact_d path", [] if refs.exact_d(path) == 4 else ["exact_d"], None

    # Star 0->1, 0->2, 0->3: [0, 1] is edge-increasing only because 0 comes first.
    star = Graph("eis", 4, ((0, 1), (0, 2), (0, 3)))
    seq = Job("eis", "eis", star)
    eref = {"non_isolated": 4}
    yield "eis", refs.check_eis(seq, eref, [1, 0], [0, 1]), refs.check_eis(seq, eref, [0, 1], [0, 0])
    yield "eis length", [], refs.check_eis(seq, {"non_isolated": 4}, [1], [0])

    # Estimate: replayed successes must match exactly.
    est = Job("estimate.m16", "estimate", fam, {"samples": 1000, "seed": 5})
    rep = refs.replay_estimate(fam, 1000, 5)
    sref = {"successes": rep.successes, "unique": rep.unique, "samples": 1000, "exact_f": 13 / 16}
    good = rep.successes / 1000
    bad = (rep.successes + 1) / 1000
    yield "success count", refs.check_estimate(est, sref, good, 1000, (0.0, 1.0)), refs.check_estimate(est, sref, bad, 1000, (0.0, 1.0))
    yield "5 sigma", [], refs.check_estimate(est, dict(sref, exact_f=0.3, successes=round(good * 1000)), good, 1000, (0.0, 1.0))

    bounds = Job("bounds.m4", "bounds", None, {"m": 4})
    tv = math.sqrt(math.log2(4) / 4)
    yield "bounds", refs.check_bounds(bounds, 4, tv, "13/16", {"a": True}), refs.check_bounds(bounds, 4, tv, "13/16", {"a": False})
    scan = Job("scan", "scan", None, {"m_min": 4, "m_max": 6})
    rows = [(4, 13, 13 / 16), (6, refs.family_d(6), refs.family_d(6) / 64)]
    yield "scan", refs.check_scan(scan, rows), refs.check_scan(scan, [rows[0], (6, 1, 1 / 64)])

    bench = json.loads((run.ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    listed = {m["name"]: (m["unit"], m["better"]) for m in bench["end_to_end"] + bench["per_layer"]}
    emitted = {name: (unit, better) for name, (unit, better, _) in layers.METRICS.items()}
    emitted.update({name: (unit, better) for name, (unit, better) in run.END_TO_END.items()})
    yield "BENCHMARK.json lists the emitted metrics", [] if listed == emitted else [f"{listed} != {emitted}"], None


def broken_cases() -> list[str]:
    """Labels of the cases whose good answer fails or whose corrupted answer passes."""
    broken = []
    for label, good, bad in _cases():
        if good or bad == []:
            broken.append(f"{label} (good: {good}, bad: {bad})")
    return broken


if __name__ == "__main__":
    broken = broken_cases()
    for b in broken:
        print("BROKEN", b)
    print("self-test", "failed" if broken else "passed")
    sys.exit(1 if broken else 0)
