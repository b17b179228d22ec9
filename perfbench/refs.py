"""Reference answers and output checks that do not use the code under test.

Every check returns a list of error strings; an empty list means the output
is correct. References come from closed forms (``math.comb``), from a
vectorised numpy enumeration that decides trails by degree balance plus
min-label propagation, and from replaying the documented Philox stream of
``estimate`` (sample ``i`` is word block ``i`` of
``Philox(key=seed).random_raw(samples * ceil(m / 64))``, low word first,
cut to m bits).
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from fractions import Fraction
from pathlib import Path

import numpy as np
from numpy.random import Philox

from corpus import Graph, Job

GOLDEN = json.loads((Path(__file__).parent / "golden.json").read_text(encoding="utf-8"))

_BLOCK = 1 << 16


def family_d(m: int) -> int:
    """d of the two-vertex family: C(m, m/2) - 1 even-sized plus 2 C(m, m/2 - 1) odd-sized trails."""
    return math.comb(m, m // 2) - 1 + 2 * math.comb(m, m // 2 - 1)


def _decide(bits: np.ndarray, g: Graph) -> np.ndarray:
    """Trail verdict for each row of a (rows x m) boolean subset matrix."""
    inc = np.zeros((g.m, g.n), np.float32)
    for j, (s, t) in enumerate(g.edges):
        inc[j, s] += 1
        inc[j, t] -= 1
    absimb = np.abs(bits.astype(np.float32) @ inc)
    ok = (absimb.max(axis=1) <= 1) & (absimb.sum(axis=1) <= 2) & bits.any(axis=1)
    rows = np.flatnonzero(ok)
    ok[rows] = _connected(bits[rows], g)
    return ok


def _connected(bits: np.ndarray, g: Graph) -> np.ndarray:
    """True for each row whose edges lie in one weak component."""
    label = np.tile(np.arange(g.n), (len(bits), 1))
    members = [np.flatnonzero(bits[:, j]) for j in range(g.m)]
    changed = True
    while changed:
        changed = False
        for rows, (s, t) in zip(members, g.edges):
            a, b = label[rows, s], label[rows, t]
            if np.any(a != b):
                low = np.minimum(a, b)
                label[rows, s] = low
                label[rows, t] = low
                changed = True
    touched = np.zeros((len(bits), g.n), bool)
    for j, (s, t) in enumerate(g.edges):
        touched[:, s] |= bits[:, j]
        touched[:, t] |= bits[:, j]
    lo = np.where(touched, label, g.n).min(axis=1)
    hi = np.where(touched, label, -1).max(axis=1)
    return lo == hi


def exact_d(g: Graph) -> int:
    """d(G) by deciding all 2^m subsets in blocks of 2^16."""
    total = 0
    shifts = np.arange(g.m, dtype=np.uint64)
    for base in range(0, 1 << g.m, _BLOCK):
        masks = np.arange(base, min(base + _BLOCK, 1 << g.m), dtype=np.uint64)
        bits = ((masks[:, None] >> shifts) & np.uint64(1)).astype(bool)
        total += int(_decide(bits, g).sum())
    return total


@dataclass(frozen=True)
class Replay:
    successes: int
    unique: int


def replay_estimate(g: Graph, samples: int, seed: int) -> Replay:
    """Success count and distinct-mask count of ``estimate`` by replaying its Philox stream."""
    words = max(1, -(-g.m // 64))
    raw = Philox(key=seed).random_raw(samples * words).reshape(samples, words)
    tail = g.m - 64 * (words - 1)
    if tail < 64:
        raw[:, -1] &= np.uint64((1 << tail) - 1)
    masks, counts = np.unique(raw, axis=0, return_counts=True)
    successes = 0
    for lo in range(0, len(masks), _BLOCK):
        chunk = np.ascontiguousarray(masks[lo : lo + _BLOCK]).astype("<u8")
        bits = np.unpackbits(chunk.view(np.uint8), axis=1, bitorder="little")[:, : g.m].astype(bool)
        successes += int(counts[lo : lo + _BLOCK][_decide(bits, g)].sum())
    return Replay(successes, len(masks))


def reference(job: Job, seed: int) -> dict:
    """Everything the checks of ``job`` compare against, computed before timing."""
    g = job.graph
    if job.cmd == "count":
        ref = {"d": family_d(g.m) if g.name == "family" else exact_d(g)}
        golden = GOLDEN["d"].get(str(seed), {}).get(job.name)
        if golden is not None:
            ref["golden"] = golden
        return ref
    if job.cmd == "estimate":
        rep = replay_estimate(g, job.opts["samples"], job.opts["seed"])
        ref = {"successes": rep.successes, "unique": rep.unique, "samples": job.opts["samples"]}
        if g.m <= 20:
            ref["exact_f"] = exact_d(g) / (1 << g.m)
        golden = GOLDEN["successes"].get(str(seed), {}).get(job.name)
        if golden is not None:
            ref["golden"] = golden
        return ref
    if job.cmd == "eis":
        return {"non_isolated": len({v for e in g.edges for v in e})}
    return {}


def check_count(job: Job, ref: dict, m: int, d: int, f: str) -> list[str]:
    errors = []
    if m != job.graph.m:
        errors.append(f"m {m} != {job.graph.m}")
    if d != ref["d"]:
        errors.append(f"d {d} != reference {ref['d']}")
    if d != ref.get("golden", d):
        errors.append(f"d {d} != golden {ref['golden']}")
    if f != f"{ref['d']}/{1 << job.graph.m}":
        errors.append(f"f {f!r} is not d/2^m")
    return errors


def check_estimate(job: Job, ref: dict, estimate: float, samples: int, ci: tuple[float, float]) -> list[str]:
    errors = []
    if samples != ref["samples"]:
        errors.append(f"samples {samples} != {ref['samples']}")
    successes = round(estimate * ref["samples"])
    if successes / ref["samples"] != estimate or successes != ref["successes"]:
        errors.append(f"estimate {estimate} != replayed {ref['successes']}/{ref['samples']}")
    if successes != ref.get("golden", successes):
        errors.append(f"successes {successes} != golden {ref['golden']}")
    if not ci[0] <= estimate <= ci[1]:
        errors.append(f"estimate {estimate} outside its interval {ci}")
    if "exact_f" in ref:
        f = ref["exact_f"]
        sigma = math.sqrt(f * (1 - f) / ref["samples"])
        if abs(estimate - f) > 5 * sigma:
            errors.append(f"estimate {estimate} more than 5 sigma from exact f {f}")
    return errors


def check_trail(job: Job, is_trail: bool, reason: str | None, witness: list[int] | None) -> list[str]:
    edges = job.graph.edges
    subset = job.opts["subset"]
    if not job.opts["is_trail"]:
        ok = not is_trail and reason == "disconnected" and witness is None
        return [] if ok else [f"expected a disconnected non-trail, got is_trail={is_trail} reason={reason!r}"]
    if not is_trail or witness is None:
        return [f"expected a trail with a witness, got is_trail={is_trail} reason={reason!r}"]
    if len(witness) != len(subset) or set(witness) != set(subset):
        return ["witness does not use every subset edge exactly once"]
    for a, b in zip(witness, witness[1:]):
        if edges[a][1] != edges[b][0]:
            return [f"witness breaks between edges {a} and {b}"]
    return []


def check_eis(job: Job, ref: dict, vertices: list[int], fresh_edges: list[int]) -> list[str]:
    """Edge-increasing: each vertex after the first has an incident edge no earlier vertex touches."""
    g = job.graph
    incident: list[list[int]] = [[] for _ in range(g.n)]
    for i, (s, t) in enumerate(g.edges):
        incident[s].append(i)
        incident[t].append(i)
    if len(set(vertices)) != len(vertices) or len(fresh_edges) != len(vertices):
        return ["sequence repeats a vertex or lacks one fresh edge per vertex"]
    covered = bytearray(g.m)
    for k, (v, e) in enumerate(zip(vertices, fresh_edges)):
        if not 0 <= v < g.n:
            return [f"vertex {v} out of range"]
        if not 0 <= e < g.m or v not in g.edges[e] or covered[e]:
            return [f"step {k}: edge {e} is not a fresh edge of vertex {v}"]
        if k and all(covered[i] for i in incident[v]):
            return [f"step {k}: vertex {v} adds no new edge"]
        for i in incident[v]:
            covered[i] = 1
    if 2 * len(vertices) < ref["non_isolated"]:
        return [f"length {len(vertices)} < half of {ref['non_isolated']} non-isolated vertices"]
    return []


def check_bounds(job: Job, m: int, theorem_value: float, family_f: str | None, checks: dict) -> list[str]:
    errors = [f"check {name} failed" for name, ok in checks.items() if ok is not True]
    if not checks:
        errors.append("no bound checks reported")
    if m != job.opts["m"] or not math.isclose(theorem_value, math.sqrt(math.log2(m) / m), rel_tol=1e-12):
        errors.append(f"theorem value {theorem_value} at m={m} is wrong")
    if family_f is None or Fraction(family_f) != Fraction(family_d(m), 1 << m):
        errors.append(f"family f {family_f} is not the closed form")
    return errors


def check_scan(job: Job, rows: list[tuple[int, int, float]]) -> list[str]:
    """Rows are (m, d, f); d must equal the closed form and f must equal d/2^m."""
    expected = list(range(job.opts["m_min"], job.opts["m_max"] + 1, 2))
    if [r[0] for r in rows] != expected:
        return ["scan rows do not cover every even m of the range"]
    for m, d, f in rows:
        exact = family_d(m)
        if d != exact:
            return [f"scan m={m}: d {d} != closed form {exact}"]
        if not math.isclose(f, exact / (1 << m), rel_tol=1e-10):
            return [f"scan m={m}: f {f} != d/2^m"]
    return []


def check_cli_output(job: Job, ref: dict, text: str) -> list[str]:
    """Parse one CLI call's stdout and check it; malformed output is an error too."""
    try:
        if job.cmd == "scan":
            lines = text.strip().splitlines()
            if lines[0] != "m,d,f,f_sqrt_m,theorem_bound":
                return [f"unexpected scan header {lines[0]!r}"]
            rows = [(int(c[0]), int(c[1]), float(c[2])) for c in (ln.split(",") for ln in lines[1:])]
            return check_scan(job, rows)
        p = json.loads(text)
        if job.cmd == "count":
            return check_count(job, ref, p["m"], p["d"], p["f"])
        if job.cmd == "estimate":
            return check_estimate(job, ref, p["estimate"], p["samples"], (p["ci_low"], p["ci_high"]))
        if job.cmd == "check":
            return check_trail(job, p["is_trail"], p["failure_reason"], p.get("witness"))
        if job.cmd == "eis":
            return check_eis(job, ref, p["vertices"], p["fresh_edges"])
        if job.cmd == "bounds":
            checks = {k[len("check_"):]: v for k, v in p.items() if k.startswith("check_")}
            return check_bounds(job, p["m"], p["theorem_value"], p["family_f"], checks)
    except (ValueError, KeyError, IndexError, TypeError) as exc:
        return [f"malformed output: {exc!r}"]
    return [f"no check for command {job.cmd!r}"]
