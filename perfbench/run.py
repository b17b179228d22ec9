"""Benchmark of the trailfrac CLI: end-to-end timings of fixed, seeded workloads.

Run from the repository root:

    python3 perfbench/run.py --workload exact --seed 1 --seconds 10 --trace 0

Load model: one client in a closed loop. Each ``python -m trailfrac.cli``
call starts only after the previous one has exited, so there is one child
process at a time. The child sees only the generated graph files; the
workload seed stays with the benchmark.

``--trace 0`` makes at least two passes over the workload's call list, and
more until ``--seconds`` have passed, then reports the end-to-end metrics:
``setup_s`` (median wall time of a fresh interpreter running
``import trailfrac``), ``wall_ref_s`` (the summed wall time of the call
list) and ``peak_rss_mb`` (largest max-RSS of any single call). Both times
are given at the calibration loop's reference speed, see below.

On a shared host other tenants slow every process by up to ~40% in phases
that last seconds to minutes, which no amount of repetition inside one run
averages away. So the benchmark times a fixed pure-Python loop of its own
(``calibrate``, which calls no trailfrac code) right before and right after
every CLI call and import spawn, divides the child's wall time by the mean
of the two, takes the median ratio over the repetitions and scales it back
to seconds with ``CAL_REF_S``, the loop's median time on the reference
machine. A slower program raises ``wall_ref_s`` exactly as it raises wall
time; a slower host slows both the call and the loop, which largely cancels
out. The raw ``wall_s`` (sum of each call's fastest pass) and raw set-up
time are printed by name beside them. ``--trace 1`` runs ``layers.py`` for
the per-layer metrics instead. Every output is checked against ``refs.py``;
the last line of stdout is the JSON result.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import random
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile
import threading
import time
from dataclasses import dataclass
from importlib import metadata
from pathlib import Path

import corpus
import refs

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "trailfrac"

SETUP_SPAWNS = 5
CALL_TIMEOUT_S = 60.0
RUN_BUDGET_S = 165.0

# Median calibrate() time on the reference machine, a 2-vCPU VM on an Intel
# Xeon with Python 3.11.7. It only sets the unit: a comparison of two commits
# on one machine does not depend on it.
CAL_REF_S = 0.143

END_TO_END = {
    "setup_s": ("s", "lower"),
    "wall_ref_s": ("s", "lower"),
    "peak_rss_mb": ("MB", "lower"),
}


def child_env() -> dict[str, str]:
    """The caller's environment without PYTHON* and TRAILFRAC_* settings, plus PYTHONPATH=src."""
    env = {k: v for k, v in os.environ.items() if not k.startswith(("PYTHON", "TRAILFRAC_"))}
    env["PYTHONPATH"] = "src"
    return env


@dataclass
class Call:
    wall_s: float
    max_rss_mb: float
    returncode: int
    stdout: str
    stderr: str
    timed_out: bool
    cal_s: float = 0.0  # mean calibrate() time just before and just after the call


_CAL_ORDER = random.Random(0).sample(range(1 << 18), 1 << 18)


def calibrate() -> float:
    """Wall time of a fixed job that calls no trailfrac code: interpreter
    dispatch, integer arithmetic and dict stores over 2^18 int objects read in
    a random memory order, like the counting and eis loops. The untimed sum
    first pulls the objects back into cache after a child has evicted them."""
    sum(_CAL_ORDER)
    start = time.perf_counter()
    table = {}
    acc = 0
    for _ in range(2):
        for i in _CAL_ORDER:
            acc = (acc * 31 + i) & 0xFFFFFFFF
            table[i & 0xFFFF] = acc
    return time.perf_counter() - start


def spawn(argv: list[str], workdir: Path, timeout: float = CALL_TIMEOUT_S) -> Call:
    """Run one child to completion from the repository root; read its own rusage with wait4."""
    out_path, err_path = workdir / "stdout", workdir / "stderr"
    killed = threading.Event()
    with open(out_path, "wb") as out, open(err_path, "wb") as err:
        start = time.perf_counter()
        proc = subprocess.Popen(argv, cwd=ROOT, env=child_env(), stdout=out, stderr=err)

        def kill() -> None:
            killed.set()
            proc.kill()

        timer = threading.Timer(max(timeout, 0.0), kill)
        timer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        except BaseException:
            proc.kill()
            os.wait4(proc.pid, 0)
            raise
        finally:
            timer.cancel()
            timer.join()
        wall = time.perf_counter() - start
    proc.returncode = os.waitstatus_to_exitcode(status)
    return Call(
        wall_s=wall,
        max_rss_mb=usage.ru_maxrss * 1024 / 1e6,
        returncode=proc.returncode,
        stdout=out_path.read_text(encoding="utf-8", errors="replace"),
        stderr=err_path.read_text(encoding="utf-8", errors="replace"),
        timed_out=killed.is_set(),
    )


def cli_argv(*args: str) -> list[str]:
    return [sys.executable, "-m", "trailfrac.cli", *args]


def exit_errors(call: Call) -> list[str]:
    """A timeout or a non-zero exit; a call that has neither is judged by its output."""
    if call.timed_out:
        return ["timed out"]
    if call.returncode != 0:
        return [f"exit code {call.returncode}: {call.stderr.strip()[-300:]}"]
    return []


class Deadline:
    """Per-call timeouts that keep the whole run inside RUN_BUDGET_S."""

    def __init__(self) -> None:
        self.start = time.perf_counter()

    def timeout(self) -> float:
        return min(CALL_TIMEOUT_S, RUN_BUDGET_S - (time.perf_counter() - self.start))


def measure_setup(workdir: Path, deadline: Deadline, spawns: int = SETUP_SPAWNS) -> list[Call]:
    """Fresh interpreters importing trailfrac, each between two calibrations.

    The first spawn in a fresh checkout also writes bytecode caches; the
    median of the spawns is robust to that one slow start.
    """
    calls = []
    before = calibrate()
    for _ in range(spawns):
        call = spawn([sys.executable, "-c", "import trailfrac"], workdir, deadline.timeout())
        after = calibrate()
        call.cal_s = (before + after) / 2
        before = after
        if exit_errors(call):
            raise RuntimeError(f"import trailfrac failed: {exit_errors(call)[0]}")
        calls.append(call)
    return calls


def run_passes(jobs, paths, refs_by_job, seconds: float, workdir: Path, deadline: Deadline, min_passes: int = 2):
    """Repeat the call list at least ``min_passes`` times and until ``seconds`` have passed."""
    passes: list[list[Call]] = []
    failures: list[str] = []
    start = time.perf_counter()
    while True:
        calls = []
        before = calibrate()
        for job in jobs:
            call = spawn(cli_argv(*job.cli_args(paths.get(job.name))), workdir, deadline.timeout())
            after = calibrate()
            call.cal_s = (before + after) / 2
            before = after
            errors = exit_errors(call) or refs.check_cli_output(job, refs_by_job[job.name], call.stdout)
            if errors:
                failures.append(f"{job.name}: {'; '.join(errors)}")
            calls.append(call)
        passes.append(calls)
        elapsed = time.perf_counter() - start
        if (len(passes) >= min_passes and elapsed >= seconds) or deadline.timeout() < 2 * elapsed / len(passes):
            return passes, failures


def fastest(passes: list[list[Call]]) -> list[float]:
    """Each call's smallest wall time over the passes."""
    return [min(p[i].wall_s for p in passes) for i in range(len(passes[0]))]


def reference_s(call: Call) -> float:
    """The call's wall time scaled to the speed at which calibrate() takes CAL_REF_S."""
    return CAL_REF_S * call.wall_s / call.cal_s


def at_reference_speed(passes: list[list[Call]]) -> list[float]:
    """Each call's median over the passes of its time at reference speed."""
    return [statistics.median(reference_s(p[i]) for p in passes) for i in range(len(passes[0]))]


def end_to_end(passes: list[list[Call]], setup: list[Call]) -> dict:
    values = {
        "setup_s": statistics.median(reference_s(c) for c in setup),
        "wall_ref_s": sum(at_reference_speed(passes)),
        "peak_rss_mb": max(c.max_rss_mb for p in passes for c in p),
    }
    return {name: {"value": values[name], "unit": unit} for name, (unit, _) in END_TO_END.items()}


def context(args) -> dict:
    """Machine, toolchain and source identity of this run."""
    cpu = None
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as f:
            cpu = next((ln.split(":", 1)[1].strip() for ln in f if ln.startswith("model name")), None)
    except OSError:
        pass
    commit = None
    if (ROOT / ".git").exists():
        try:
            git = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"], capture_output=True, text=True)
            commit = git.stdout.strip() or None
        except OSError:
            pass
    digest = hashlib.sha256()
    for path in sorted(PACKAGE.glob("*.py")):
        digest.update(path.name.encode() + b"\0" + path.read_bytes())

    def version(dist: str) -> str | None:
        try:
            return metadata.version(dist)
        except metadata.PackageNotFoundError:
            return None

    return {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "nproc": os.cpu_count(),
        "cpu": cpu or platform.processor() or None,
        "python": platform.python_version(),
        "numpy": version("numpy"),
        "scipy": version("scipy"),
        "git_commit": commit,
        "src_sha256": digest.hexdigest(),
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=corpus.WORKLOADS)
    parser.add_argument("--seed", type=int, default=corpus.DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (PACKAGE / "__init__.py").is_file():
        print(f"error: {PACKAGE.relative_to(ROOT)} not found; run from a trailfrac checkout", file=sys.stderr)
        return 2
    import selftest

    broken = selftest.broken_cases()
    if broken:
        print("error: benchmark self-test failed: " + "; ".join(broken), file=sys.stderr)
        return 3

    # SIGTERM unwinds like an exception, so the running child is killed and reaped
    # and the scratch directory is removed.
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    deadline = Deadline()
    workdir = Path(tempfile.mkdtemp(prefix=".perfbench-", dir=ROOT))
    try:
        print(json.dumps({"context": context(args)}))
        if args.trace:
            import layers

            result = layers.traced_run(args.workload, args.seed, workdir, deadline)
        else:
            result = timed_run(args.workload, args.seed, args.seconds, workdir, deadline)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    print(json.dumps(result))
    return 0


def timed_run(workload: str, seed: int, seconds: float, workdir: Path, deadline: Deadline) -> dict:
    """End-to-end metrics of one workload, with tracing off."""
    jobs = corpus.workload(workload, seed)
    paths = write_graphs(jobs, workdir)
    refs_by_job = {job.name: refs.reference(job, seed) for job in jobs}
    setup = measure_setup(workdir, deadline)
    passes, failures = run_passes(jobs, paths, refs_by_job, seconds, workdir, deadline)
    result = {
        "correct": not failures,
        "attempted": sum(len(p) for p in passes),
        "failed": len(failures),
        "metrics": end_to_end(passes, setup),
    }
    summary(jobs, passes, result, failures)
    print(f"setup_s raw {statistics.median(c.wall_s for c in setup):.6g} s (median wall time of the import spawns)")
    return result


def write_graphs(jobs, workdir: Path) -> dict[str, str]:
    """Write each job's graph once; map job name to its path relative to the root."""
    paths: dict[str, str] = {}
    written: dict[str, str] = {}
    for job in jobs:
        if job.graph is None:
            continue
        if job.graph.name not in written:
            path = workdir / f"{job.graph.name}.txt"
            path.write_text(job.graph.text(), encoding="utf-8")
            written[job.graph.name] = str(path.relative_to(ROOT))
        paths[job.name] = written[job.graph.name]
    return paths


def summary(jobs, passes, result: dict, failures: list[str]) -> None:
    """Human-readable lines before the JSON result, including failed_frac and the
    throughput of the ``count`` calls (subsets_per_s) and ``estimate`` calls (samples_per_s)."""
    for f in failures[:20]:
        print(f"FAILED {f}")
    best = fastest(passes)
    ref = at_reference_speed(passes)
    for i, job in enumerate(jobs):
        rss = max(p[i].max_rss_mb for p in passes)
        print(f"{job.name:<18} fastest {best[i]:8.3f} s  at reference speed {ref[i]:8.3f} s  max-rss {rss:7.1f} MB")
    cal = statistics.median(c.cal_s for p in passes for c in p)
    print(f"passes {len(passes)}, calibrate median {cal:.4f} s, failed_frac {result['failed'] / result['attempted']} (failed/attempted)")
    for name, m in result["metrics"].items():
        print(f"{name} {m['value']:.6g} {m['unit']}")
    print(f"wall_s {sum(best):.6g} s")
    for cmd, name, units in (("count", "subsets_per_s", lambda j: 1 << j.graph.m),
                             ("estimate", "samples_per_s", lambda j: j.opts["samples"])):
        mine = [(units(j), t) for j, t in zip(jobs, best) if j.cmd == cmd]
        if mine:
            print(f"{name} {sum(u for u, _ in mine) / sum(t for _, t in mine):.6g} 1/s")


if __name__ == "__main__":
    sys.exit(main())
