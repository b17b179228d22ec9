"""Per-layer metrics (``--trace 1``): a traced in-process run over the whole corpus.

The layers are trailfrac's modules: ``cli``, ``graphs``, ``trails``,
``counting``, ``eis`` and ``bounds``. ``generators`` is not measured: the
benchmark builds its own inputs. Every job of every workload (for the given
seed) runs once in this process; the job is a parent span and each public
trailfrac call it makes is a child span. Spans stay in memory until the run
ends. A span's self time is its duration minus the time its children cover.

The run also makes one CLI pass and one untraced in-process pass over the
selected workload. ``cli.overhead_s`` is CLI wall time minus untraced
in-process time for the same calls, and ``trace.overhead_s`` is traced minus
untraced in-process time, the cost of tracing itself.

``METRICS`` lists every per-layer metric with its unit, which direction is
better, and the end-to-end metric (on which workload) it should move.
"""

from __future__ import annotations

import statistics
import sys
import time
from contextlib import contextmanager, nullcontext
from fractions import Fraction
from pathlib import Path

import corpus
import refs
import run

METRICS = {
    "cli.spawn_s": ("s", "lower", "setup_s on every workload; wall_ref_s on large most"),
    "cli.import_s": ("s", "lower", "setup_s on every workload; wall_ref_s on large most"),
    "cli.import.numpy_s": ("s", "lower", "setup_s"),
    "cli.import.scipy_stats_s": ("s", "lower", "setup_s"),
    "cli.import.trailfrac_own_s": ("s", "lower", "setup_s"),
    "cli.overhead_s": ("s", "lower", "wall_ref_s of the traced workload"),
    "graphs.parse_graph_s": ("s", "lower", "large.wall_ref_s"),
    "graphs.parse_edges_per_s": ("edges/s", "higher", "large.wall_ref_s"),
    "trails.is_trail_s.trail": ("s", "lower", "large.wall_ref_s"),
    "trails.is_trail_s.nontrail": ("s", "lower", "large.wall_ref_s"),
    "trails.is_trail_edges_per_s": ("edges/s", "higher", "large.wall_ref_s"),
    "counting.count_trails_exact_s": ("s", "lower", "exact.wall_ref_s"),
    "counting.ns_per_subset.family": ("ns", "lower", "exact.wall_ref_s"),
    "counting.ns_per_subset.random": ("ns", "lower", "exact.wall_ref_s"),
    "counting.d_frac.family": ("ratio", "higher", "input property of exact"),
    "counting.d_frac.n3": ("ratio", "higher", "input property of exact"),
    "counting.d_frac.n5": ("ratio", "higher", "input property of exact"),
    "counting.d_frac.n8": ("ratio", "higher", "input property of exact"),
    "counting.estimate_trail_fraction_s": ("s", "lower", "sample.wall_ref_s"),
    "counting.ns_per_sample.m16": ("ns", "lower", "sample.wall_ref_s"),
    "counting.ns_per_sample.m40": ("ns", "lower", "sample.wall_ref_s"),
    "counting.ns_per_sample.m100": ("ns", "lower", "sample.wall_ref_s"),
    "counting.unique_mask_frac.m16": ("ratio", "lower", "input property of sample"),
    "counting.unique_mask_frac.m40": ("ratio", "lower", "input property of sample"),
    "counting.unique_mask_frac.m100": ("ratio", "lower", "input property of sample"),
    "counting.raw_bytes.m16": ("B-computed", "lower", "sample.peak_rss_mb"),
    "counting.raw_bytes.m40": ("B-computed", "lower", "sample.peak_rss_mb"),
    "counting.raw_bytes.m100": ("B-computed", "lower", "sample.peak_rss_mb"),
    "counting.wilson_interval_us": ("us", "lower", "sample.wall_ref_s (negligible)"),
    "eis.greedy_eis_s": ("s", "lower", "large.wall_ref_s"),
    "eis.length_ratio": ("ratio", "higher", "none; sequence length over non-isolated vertices"),
    "bounds.proof_ingredient_summary_s": ("s", "lower", "large.wall_ref_s (expected flat)"),
    "bounds.bound_report_s": ("s", "lower", "large.wall_ref_s (expected flat)"),
    "bounds.family_ratio_scan_s": ("s", "lower", "large.wall_ref_s (expected flat)"),
    "trace.overhead_s": ("s", "lower", "none; traced minus untraced in-process time"),
    "trace.job_self_s": ("s", "lower", "none; job time outside trailfrac calls"),
}

SPAWNS = 3


class Tracer:
    """Spans kept in memory: id, parent id, name, start, end and the job they belong to."""

    def __init__(self) -> None:
        self.spans: list[dict] = []
        self._open: list[dict] = []

    @contextmanager
    def span(self, name: str, job: str):
        rec = {"id": len(self.spans), "parent": self._open[-1]["id"] if self._open else None,
               "name": name, "job": job, "start": time.perf_counter(), "end": None}
        self.spans.append(rec)
        self._open.append(rec)
        try:
            yield rec
        finally:
            rec["end"] = time.perf_counter()
            self._open.pop()


class NullTracer:
    def span(self, name: str, job: str):
        return nullcontext()


def run_job(tf, job, path: str | None, ref: dict, tr) -> tuple[list[str], object]:
    """Make the library calls the CLI makes for ``job``; check the answer outside the spans.

    Returns the check's errors and the library's answer.
    """

    def sp(name: str):
        return tr.span(name, job.name)

    o = job.opts
    with sp("job"):
        if path is not None:
            text = (run.ROOT / path).read_text(encoding="utf-8")
            with sp("graphs.parse_graph"):
                g = tf.parse_graph(text)
        if job.cmd == "count":
            with sp("counting.count_trails_exact"):
                out = tf.count_trails_exact(g)
        elif job.cmd == "estimate":
            with sp("counting.estimate_trail_fraction"):
                out = tf.estimate_trail_fraction(g, samples=o["samples"], seed=o["seed"])
        elif job.cmd == "eis":
            with sp("eis.greedy_eis"):
                out = tf.greedy_eis(g)
        elif job.cmd == "check":
            with sp("trails.is_trail"):
                out = tf.is_trail(g, o["subset"])
        elif job.cmd == "bounds":
            with sp("bounds.bound_report"):
                report = tf.bound_report(o["m"])
            with sp("bounds.proof_ingredient_summary"):
                out = (report, tf.proof_ingredient_summary())
        elif job.cmd == "scan":
            with sp("bounds.family_ratio_scan"):
                rows = tf.family_ratio_scan(o["m_min"], o["m_max"])
            with sp("bounds.family_ratio_csv"):
                tf.family_ratio_csv(rows)
            out = rows
    if job.cmd == "count":
        f = f"{out.d}/{1 << out.m}" if out.f == Fraction(out.d, 1 << out.m) else str(out.f)
        errors = refs.check_count(job, ref, out.m, out.d, f)
    elif job.cmd == "estimate":
        errors = refs.check_estimate(job, ref, out.estimate, out.samples, (out.ci_low, out.ci_high))
    elif job.cmd == "eis":
        errors = refs.check_eis(job, ref, list(out.vertices), list(out.fresh_edges))
    elif job.cmd == "check":
        reason = out.failure_reason.value if out.failure_reason else None
        errors = refs.check_trail(job, out.is_trail, reason, list(out.witness) if out.witness else None)
    elif job.cmd == "bounds":
        report, checks = out
        family_f = None if report.family_f is None else f"{report.family_f.numerator}/{report.family_f.denominator}"
        errors = refs.check_bounds(job, report.m, report.theorem_value, family_f, checks)
    else:
        errors = refs.check_scan(job, [(r.m, r.d, float(r.f)) for r in out])
    return errors, out


def import_breakdown(workdir: Path, deadline) -> dict[str, float]:
    """Median seconds of numpy, scipy.stats and trailfrac's own modules from ``-X importtime``."""
    samples: dict[str, list[float]] = {"numpy": [], "scipy.stats": [], "trailfrac": []}
    for _ in range(SPAWNS):
        call = run.spawn([sys.executable, "-X", "importtime", "-c", "import trailfrac"], workdir, deadline.timeout())
        if run.exit_errors(call):
            raise RuntimeError(f"import trailfrac failed: {run.exit_errors(call)[0]}")
        found = {"numpy": 0.0, "scipy.stats": 0.0, "trailfrac": 0.0}
        for line in call.stderr.splitlines():
            if not line.startswith("import time:") or "|" not in line:
                continue
            fields = line[len("import time:"):].split("|")
            if not fields[0].strip().isdigit():
                continue
            self_us, cumulative_us, name = int(fields[0]), int(fields[1]), fields[2].strip()
            if name in ("numpy", "scipy.stats"):
                found[name] = max(found[name], cumulative_us / 1e6)
            elif name == "trailfrac" or name.startswith("trailfrac."):
                found["trailfrac"] += self_us / 1e6
        for k, v in found.items():
            samples[k].append(v)
    return {k: statistics.median(v) for k, v in samples.items()}


def wilson_us(tf, rounds: int = 5, calls: int = 2000) -> float:
    """Median over rounds of the per-call time of ``wilson_interval``, in microseconds."""
    per_call = []
    for _ in range(rounds):
        start = time.perf_counter()
        for _ in range(calls):
            tf.wilson_interval(34_081, 400_000, 0.95)
        per_call.append((time.perf_counter() - start) / calls * 1e6)
    return statistics.median(per_call)


def traced_run(workload: str, seed: int, workdir: Path, deadline) -> dict:
    selected = corpus.workload(workload, seed)
    everything = [job for name in corpus.WORKLOADS for job in corpus.workload(name, seed)]
    paths = run.write_graphs(everything, workdir)
    ref = {job.name: refs.reference(job, seed) for job in everything}
    failures: list[str] = []

    spawn_s = statistics.median(
        run.spawn([sys.executable, "-c", "pass"], workdir, deadline.timeout()).wall_s for _ in range(SPAWNS)
    )
    import_s = statistics.median(call.wall_s for call in run.measure_setup(workdir, deadline, SPAWNS))
    imports = import_breakdown(workdir, deadline)

    (cli_pass,), cli_failures = run.run_passes(selected, paths, ref, 0, workdir, deadline, min_passes=1)
    cli_wall = sum(call.wall_s for call in cli_pass)
    failures.extend(f"cli {f}" for f in cli_failures)

    sys.path.insert(0, str(run.PACKAGE.parent))
    import trailfrac as tf

    def attempt(label: str, job, tracer):
        """One in-process job; an exception from trailfrac is a failed attempt, not a crash."""
        try:
            errors, answer = run_job(tf, job, paths.get(job.name), ref[job.name], tracer)
        except Exception as exc:  # noqa: BLE001 - any exception is the program's failure
            errors, answer = [f"raised {exc!r}"], None
        if errors:
            failures.append(f"{label} {job.name}: {'; '.join(errors)}")
        return answer

    tracer = Tracer()
    answers = {job.name: attempt("traced", job, tracer) for job in everything}
    untraced = 0.0
    for job in selected:
        start = time.perf_counter()
        attempt("untraced", job, NullTracer())
        untraced += time.perf_counter() - start
    attempted = len(cli_pass) + len(everything) + len(selected)

    spans = tracer.spans
    dur = {s["id"]: s["end"] - s["start"] for s in spans}
    child_time = {s["id"]: 0.0 for s in spans}
    for s in spans:
        if s["parent"] is not None:
            child_time[s["parent"]] += dur[s["id"]]

    def total(name: str, jobs=None) -> float:
        return sum(dur[s["id"]] for s in spans if s["name"] == name and (jobs is None or s["job"] in jobs))

    jobs = {job.name: job for job in everything}
    selected_names = {job.name for job in selected}
    parsed_edges = sum(jobs[s["job"]].graph.m for s in spans if s["name"] == "graphs.parse_graph")
    walk_edges = sum(len(jobs[name].opts["subset"]) for name in ("check.trail", "check.nontrail"))
    random_counts = [f"count.{tag}" for tag in ("n3", "n5", "n8")]

    def per(amount: float, seconds: float) -> float:
        return amount / seconds if seconds else 0.0

    def ns_per(name: str, job_name: str, units: int) -> float:
        return total(name, {job_name}) / units * 1e9

    values = {
        "cli.spawn_s": spawn_s,
        "cli.import_s": import_s,
        "cli.import.numpy_s": imports["numpy"],
        "cli.import.scipy_stats_s": imports["scipy.stats"],
        "cli.import.trailfrac_own_s": imports["trailfrac"],
        "cli.overhead_s": cli_wall - untraced,
        "graphs.parse_graph_s": total("graphs.parse_graph"),
        "graphs.parse_edges_per_s": per(parsed_edges, total("graphs.parse_graph")),
        "trails.is_trail_s.trail": total("trails.is_trail", {"check.trail"}),
        "trails.is_trail_s.nontrail": total("trails.is_trail", {"check.nontrail"}),
        "trails.is_trail_edges_per_s": per(walk_edges, total("trails.is_trail")),
        "counting.count_trails_exact_s": total("counting.count_trails_exact"),
        "counting.ns_per_subset.family": ns_per("counting.count_trails_exact", "count.family", 1 << jobs["count.family"].graph.m),
        "counting.ns_per_subset.random": total("counting.count_trails_exact", set(random_counts))
        / sum(1 << jobs[name].graph.m for name in random_counts) * 1e9,
        "counting.estimate_trail_fraction_s": total("counting.estimate_trail_fraction"),
        "counting.wilson_interval_us": wilson_us(tf),
        "eis.greedy_eis_s": total("eis.greedy_eis"),
        "eis.length_ratio": getattr(answers["eis.n8000"], "length", 0) / ref["eis.n8000"]["non_isolated"],
        "bounds.proof_ingredient_summary_s": total("bounds.proof_ingredient_summary"),
        "bounds.bound_report_s": total("bounds.bound_report"),
        "bounds.family_ratio_scan_s": total("bounds.family_ratio_scan"),
        "trace.overhead_s": total("job", selected_names) - untraced,
        "trace.job_self_s": sum(dur[s["id"]] - child_time[s["id"]] for s in spans if s["name"] == "job"),
    }
    for tag in ("family", "n3", "n5", "n8"):
        values[f"counting.d_frac.{tag}"] = ref[f"count.{tag}"]["d"] / (1 << jobs[f"count.{tag}"].graph.m)
    for tag in ("m16", "m40", "m100"):
        job = jobs[f"estimate.{tag}"]
        samples = job.opts["samples"]
        values[f"counting.ns_per_sample.{tag}"] = ns_per("counting.estimate_trail_fraction", job.name, samples)
        values[f"counting.unique_mask_frac.{tag}"] = ref[job.name]["unique"] / samples
        values[f"counting.raw_bytes.{tag}"] = samples * max(1, -(-job.graph.m // 64)) * 8

    for f in failures[:20]:
        print(f"FAILED {f}")
    print(f"{'span':<36} {'count':>5} {'total_s':>10} {'self_s':>10}")
    for name in dict.fromkeys(s["name"] for s in spans):
        mine = [s["id"] for s in spans if s["name"] == name]
        self_s = sum(dur[i] - child_time[i] for i in mine)
        print(f"{name:<36} {len(mine):>5} {sum(dur[i] for i in mine):10.4f} {self_s:10.4f}")
    for name, (unit, _, moves) in METRICS.items():
        print(f"{name:<36} {values[name]:14.6g} {unit:<10} moves: {moves}")
    return {
        "correct": not failures,
        "attempted": attempted,
        "failed": len(failures),
        "metrics": {name: {"value": values[name], "unit": unit} for name, (unit, _, _) in METRICS.items()},
    }
