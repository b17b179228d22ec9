"""Exact counts d(G) at sizes where the frontier DP is hard, checked against recorded values.

A row is a list of ``trailfrac gen`` arguments and its d. Each graph is built
and counted by ``python -m trailfrac.cli`` in child processes, so the count
runs with the collector off, as from the entrypoint. A count must give d
within TIMEOUT_S seconds of wall time and MAX_RSS_MB of its own max RSS
(Linux). Family m2000 is checked against its closed form and n4/m1000
against ``few_vertex_d``. Prints one line per row and exits 1 if any fails;
about a minute on a 2-vCPU VM, run from the repository root:

    PYTHONPATH=src:tests python tests/exact_counts.py
"""

import json
import math
import os
import signal
import subprocess
import sys
import tempfile
import time

from helpers import few_vertex_d
from trailfrac import parse_graph

TIMEOUT_S = 30
MAX_RSS_MB = 150
ROWS = [
    # Fails on class weights summed over every (i, j) pair: about 55 s here.
    ("family --m 2000", math.comb(2000, 1000) - 1 + 2 * math.comb(2000, 999)),
    ("random --n 16 --m 40 --seed 1", 28150),
    ("random --n 4 --m 1000 --seed 1", few_vertex_d),
    # Rows of the ROADMAP table; each keeps 10^4-10^5 states live.
    ("random --n 8 --m 60 --seed 1", 18070539613519),
    ("random --n 30 --m 60 --seed 1", 938999),
    ("random --n 64 --m 96 --seed 1", 1409897),
    ("random --n 12 --m 40 --seed 1", 2282820),
    ("random --n 10 --m 60 --seed 1", 27955471054),
    ("random --n 40 --m 70 --seed 1", 6687),
    ("random --n 6 --m 200 --seed 1", 19095778546019295950626501327329528412511134482414153982),
    # Fails on a vertex order that scans every frontier candidate per pick, quadratic on the star.
    ("star --k 100000", 100000),
    ("cycle --k 100000", 9999900001),
    # The densest rows: n5/m400 peaks at 98% of EXACT_MAX_STATES, about 97 MB.
    ("random --n 8 --m 80 --seed 1", 101271389798097456596),
    (
        "random --n 5 --m 400 --seed 1",
        611630582275262663965364340917974253422067582116487474158580897944136468300221592365766857708148396954163243790247658,
    ),
]


def check_row(gen: str, want, workdir: str) -> bool:
    """Whether counting ``trailfrac gen <gen>`` gives ``want``, or ``want(graph)``, within the bounds; prints why."""
    cli, graph, out = [sys.executable, "-m", "trailfrac.cli"], os.path.join(workdir, "g.txt"), os.path.join(workdir, "d.json")
    subprocess.run([*cli, "gen", *gen.split(), "--out", graph], check=True)
    if callable(want):
        with open(graph) as f:
            want = want(parse_graph(f.read()))
    start = time.perf_counter()
    # An alarm survives exec, so its SIGALRM ends the count at the timeout.
    child = subprocess.Popen([*cli, "count", graph, "--out", out], preexec_fn=lambda: signal.alarm(TIMEOUT_S))
    _, status, usage = os.wait4(child.pid, 0)
    child.returncode = os.waitstatus_to_exitcode(status)
    seconds, mb = time.perf_counter() - start, usage.ru_maxrss / 1024
    if child.returncode:
        faults = [f"over {TIMEOUT_S} s" if child.returncode == -signal.SIGALRM else f"exit {child.returncode}"]
    else:
        with open(out) as f:
            d = json.load(f)["d"]
        faults = [] if d == want else [f"d = {d!r}, recorded {want!r}"]
    if mb >= MAX_RSS_MB:
        faults.append(f"max RSS over {MAX_RSS_MB} MB")
    print(f"{gen}: {', '.join(faults) or 'd ok'}, {seconds:.1f} s, {mb:.0f} MB", flush=True)
    return not faults


if __name__ == "__main__":
    with tempfile.TemporaryDirectory() as workdir:
        sys.exit(0 if all([check_row(gen, want, workdir) for gen, want in ROWS]) else 1)
