"""Every CLI call checked past tier-1, at sizes where a slower algorithm would fail its bounds.

A row is the ``trailfrac gen`` arguments of its graph (or None), a command,
its recorded result, and its bounds in seconds of wall time and MB of the
child's own max RSS (Linux). ``count`` must give the recorded d; any other
command must write output whose SHA-256 is the recorded one. Each call runs
as ``python -m trailfrac.cli`` in a child process, so it runs with the
collector off, as from the entrypoint. Both children of a row, ``gen`` and
the command, run under ``python -S`` unless the command is ``estimate``, the
only one that needs numpy: ``-S`` keeps site-packages, numpy among them, off
the path, so every other row runs as in an install without the ``estimate``
extra, while PYTHONPATH still reaches the package. The checker loads only
the standard library and hashes in chunks, since a child's max RSS counts
the parent's resident size at fork. Prints one line per row and exits 1 if
any fails; about 35 s on a 2-vCPU VM, run from the repository root:

    PYTHONPATH=src python tests/exact_counts.py
"""

import hashlib
import json
import math
import os
import signal
import subprocess
import sys
import tempfile
import time

ROWS = [
    # Fails on class weights summed over every (i, j) pair: about 55 s here.
    ("family --m 2000", "count", math.comb(2000, 1000) - 1 + 2 * math.comb(2000, 999), 30, 150),
    # Fails on a class step that builds all m + 1 binomials of its row, although
    # only the shifts -1, 0 and 1 can occur: 168 MB against 22 MB. d has 12 040
    # digits.
    ("family --m 40000", "count", math.comb(40000, 20000) - 1 + 2 * math.comb(40000, 19999), 30, 40),
    ("random --n 16 --m 40 --seed 1", "count", 28150, 30, 150),
    # d from tests/helpers.py:few_vertex_d, binomial sums alone, as well as from the DP.
    ("random --n 4 --m 1000 --seed 1", "count", 4378383008436659174884661679014970209475194817799213379641919710783980941815476153769554840747288474313970376587655656640397251401598631217960023349539993429451413265738966890219597568232628615143481559483783558661434436330424153425575417313577008958763443264427742816823231801199800178008419837456, 30, 150),
    # Rows of the ROADMAP table; each keeps 10^4-10^5 states live.
    ("random --n 8 --m 60 --seed 1", "count", 18070539613519, 30, 150),
    ("random --n 30 --m 60 --seed 1", "count", 938999, 30, 150),
    ("random --n 64 --m 96 --seed 1", "count", 1409897, 30, 150),
    ("random --n 12 --m 40 --seed 1", "count", 2282820, 30, 150),
    ("random --n 10 --m 60 --seed 1", "count", 27955471054, 30, 150),
    ("random --n 40 --m 70 --seed 1", "count", 6687, 30, 150),
    ("random --n 6 --m 200 --seed 1", "count", 19095778546019295950626501327329528412511134482414153982, 30, 150),
    # Fails on a vertex order that scans every frontier candidate per pick, quadratic on the star.
    # About 1.3 s and 2.1 s with label fates decided once per count; 1.9 s
    # and 3.7 s when each class step decides its own. The MB bounds fail when
    # outs, ins and degree are built before the vertex order, where the count
    # peaks: 97.8-100.8 MB and 92.7-96.1 MB that way, against 82.8-85.6 MB and
    # 78.3-82.1 MB (Python 3.10 to 3.13, without numpy).
    ("star --k 100000", "count", 100000, 30, 92),
    ("cycle --k 100000", "count", 9999900001, 30, 88),
    # The densest rows: n5/m400 peaks at 98% of EXACT_MAX_STATES, about 97 MB.
    ("random --n 8 --m 80 --seed 1", "count", 101271389798097456596, 30, 150),
    ("random --n 5 --m 400 --seed 1", "count", 611630582275262663965364340917974253422067582116487474158580897944136468300221592365766857708148396954163243790247658, 30, 150),
    # Fails on a return to the quadratic greedy_eis scan: about 160 s at this size.
    ("random --n 32000 --m 160000 --seed 1", "eis", "5a613973836a5cb3b004e1a03e370e1de64487046009e23519106022b7ad9b8d", 30, 150),
    # Fails on a return to the unpacked estimator kernel, which sums every vertex
    # imbalance of every sample before rejecting any: about 3.5 s against 0.25 s.
    # Also guards the kernel's return once every column is rejected, which
    # here comes after about six of its 2 000 vertices: about 2 s in process
    # without it, against 0.06 s.
    ("random --n 2000 --m 10000 --seed 1", "estimate --samples 20000 --seed 1", "6d1c3d268ac9b4a74b1525b9a3adbb0f8afdb139b49926fde9053c1c8ffa32de", 1.2, 150),
    # The scans fail on a fresh math.comb per m: about 19 s against 1 s, and 3 s
    # for JSON, which writes each d twice. JSON peaks at about 3.2x its 45 MB
    # output: while cli._json joins the rows, the payload (32 MB, mostly its
    # f_exact strings), the row strings str.join holds (46 MB) and the body are
    # all live, so dropping the final + "\n" copy cannot lower the peak.
    (None, "scan --m-min 4 --m-max 14000 --format csv", "7308ad7eb002db231ce8190135aae2530f9d9a9f1a28f76c6913ff5d718f06b3", 10, 150),
    (None, "scan --m-min 4 --m-max 14000 --format text", "9d5fa314d35431446d4a9dc4b05e388c2266aefc0fc9de4ede011bbabe74b3a5", 10, 150),
    (None, "scan --m-min 4 --m-max 14000 --format json", "62667c16ac120a418719aed0345e17e053829cfbeea9b67b34629426dd25bba2", 10, 160),
    # JSON fails when family_f is written under the interpreter's 4300-digit
    # int/str limit, which d passes from m = 14 280; text runs its report at m.
    (None, "bounds --m 16000", "f3ceab7edaa6dc8061b00e3e4517285300b95bb4f9005ed8c198fbfa64e56c31", 10, 150),
    (None, "bounds --m 16000 --format text", "4ee092c7df0b13b3ccbb51aad09c3e13c42a94fc5a3eb9cf0f3c5535e115385d", 10, 150),
]


def _result(path: str, what: str):
    """d from a count's JSON, otherwise the SHA-256 of the output, read in chunks."""
    with open(path, "rb") as f:
        if what == "d":
            return json.load(f)["d"]
        digest = hashlib.sha256()
        for chunk in iter(lambda: f.read(1 << 20), b""):
            digest.update(chunk)
        return digest.hexdigest()


def check_row(gen, cmd: str, want, seconds: float, max_mb: float, workdir: str) -> bool:
    """Whether ``trailfrac <cmd>``, on ``trailfrac gen <gen>`` if any, gives ``want`` within the bounds; prints why."""
    graph, out = os.path.join(workdir, "g.txt"), os.path.join(workdir, "out")
    name, *args = cmd.split()
    cli = [sys.executable, *([] if name == "estimate" else ["-S"]), "-m", "trailfrac.cli"]
    what = "d" if name == "count" else "sha256"
    if gen:
        subprocess.run([*cli, "gen", *gen.split(), "--out", graph], check=True)
        args.insert(0, graph)
    start = time.perf_counter()
    # A timer survives exec, so its SIGALRM ends the call at the bound.
    child = subprocess.Popen([*cli, name, *args, "--out", out], preexec_fn=lambda: signal.setitimer(signal.ITIMER_REAL, seconds))
    _, status, usage = os.wait4(child.pid, 0)
    child.returncode = os.waitstatus_to_exitcode(status)
    wall, mb = time.perf_counter() - start, usage.ru_maxrss / 1024
    if child.returncode:
        faults = [f"over {seconds} s" if child.returncode == -signal.SIGALRM else f"exit {child.returncode}"]
    else:
        got = _result(out, what)
        faults = [] if got == want else [f"{what} = {got!r}, recorded {want!r}"]
    if mb >= max_mb:
        faults.append(f"max RSS over {max_mb} MB")
    label = f"{gen} -> {cmd}" if gen else cmd
    print(f"{label}: {', '.join(faults) or what + ' ok'}, {wall:.1f} s, {mb:.0f} MB", flush=True)
    return not faults


if __name__ == "__main__":
    # json.load reads d under the interpreter's 4300-digit int/str limit.
    sys.set_int_max_str_digits(0)
    with tempfile.TemporaryDirectory() as workdir:
        ok = all([check_row(*row, workdir) for row in ROWS])
    sys.exit(0 if ok else 1)
