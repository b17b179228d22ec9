"""Command-line surface: trail checks, counting, estimation, sequence and bound reports.

Single reports default to JSON; ``scan`` defaults to CSV. ``--format text``
switches to a human-readable rendering everywhere. Domain errors exit with
status 1 and a diagnostic on stderr, as does ``estimate`` without numpy
2.0, its install extra; usage errors exit with status 2.

Each handler imports the modules it calls, so a command loads only its own
part of the package: ``count`` loads ``graphs`` and ``counting``, never
``trails``, ``eis``, ``bounds``, numpy, ``fractions`` or ``decimal``. The
library returns values, and ``cli`` alone writes them and times ``count``.
Each handler writes its text report straight from the library's value; only
JSON and CSV go through one payload dict. Each exact fraction is written as
``f"{d}/{1 << m}"``, and only by a format that prints it: text leaves out
``scan``'s ``f_exact`` and, past m = 64, ``bounds``'s ``family_f``. d passes
the interpreter's int/str digit limit from m = 14 280, so ``main`` lifts it
once the arguments are parsed, for every command and format, ``scan``'s CSV
included; ``graphs._decimal_ints`` caps input numerals itself.

``entrypoint``, which the ``trailfrac`` script and ``python -m trailfrac.cli``
run, turns the cyclic garbage collector off for the process and freezes
every object before exit, so the collector neither runs during the command
nor makes its final pass at exit. That is safe because no command builds
cyclic garbage that grows with its input: each leaves the same 496 objects,
argparse's parser tree, and the OS frees the rest at exit. ``main`` leaves the
collector alone, so tests and library callers that run it keep theirs.
"""

from __future__ import annotations

import argparse
import gc
import json
import sys
import time

from .graphs import _decimal_ints, parse_graph, serialize_graph


def _load_graph(path: str):
    with open(path, encoding="utf-8") as f:
        return parse_graph(f.read())


def _parse_subset_arg(text: str) -> list[int]:
    text = text.strip()
    if not text:
        return []
    try:
        return list(_decimal_ints([tok.strip() for tok in text.split(",")]))
    except ValueError:
        raise ValueError(f"invalid --subset value {text!r}: expected comma-separated unsigned decimal integers") from None


def _cell(value) -> str:
    if value is None:
        return ""
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, (list, tuple)):
        return " ".join(str(v) for v in value)
    return str(value)


def _csv_of(payload: dict) -> str:
    return ",".join(payload) + "\n" + ",".join(map(_cell, payload.values())) + "\n"


# Types that json writes as a bare literal.
_SCALARS = {str, int, float, bool, type(None)}


def _json(value, pad: str = "") -> str:
    """``json.dumps(value, indent=2)`` for a value whose dict keys are strings, nested at ``pad``.

    With ``indent`` set, Python before 3.13 writes through its pure-Python
    encoder, one element at a time. A dict or list that holds only scalars is
    therefore written by one call of the C encoder, with the newline and
    indentation as its item separator; only containers that hold containers
    are walked here.
    """
    if isinstance(value, dict):
        brackets, members = "{}", value.values()
    elif isinstance(value, (list, tuple)):
        brackets, members = "[]", value
    else:
        return json.dumps(value)
    if not value:
        return brackets
    inner = pad + "  "
    sep = ",\n" + inner
    if set(map(type, members)) <= _SCALARS:
        body = json.dumps(value, separators=(sep, ": "))[1:-1]
    elif brackets == "{}":
        body = sep.join(f"{json.dumps(k)}: {_json(v, inner)}" for k, v in value.items())
    else:
        body = sep.join(_json(v, inner) for v in value)
    return f"{brackets[0]}\n{inner}{body}\n{pad}{brackets[1]}"


def _render(payload, fmt: str) -> str:
    return _json(payload) + "\n" if fmt == "json" else _csv_of(payload)


def _cmd_check(args) -> str:
    from .trails import is_trail, oracle_is_trail

    g = _load_graph(args.graph)
    subset = _parse_subset_arg(args.subset)
    verdict = is_trail(g, subset)
    reason = verdict.failure_reason.value if verdict.failure_reason else None
    oracle = oracle_is_trail(g, subset) if args.oracle else None
    if args.format == "text":
        lines = ["trail" if verdict.is_trail else f"not a trail: {reason}"]
        if args.witness and verdict.witness:
            lines.append("witness: " + " ".join(map(str, verdict.witness)))
        if args.oracle:
            word = "trail" if oracle else "not a trail"
            lines.append(f"oracle: {word} ({'agrees' if oracle == verdict.is_trail else 'MISMATCH'})")
        return "\n".join(lines) + "\n"
    payload = {"m": g.m, "subset": sorted(subset), "is_trail": verdict.is_trail, "failure_reason": reason}
    if args.witness:
        payload["witness"] = verdict.witness
    if args.oracle:
        payload["oracle_is_trail"] = oracle
        payload["oracle_agrees"] = oracle == verdict.is_trail
    return _render(payload, args.format)


def _cmd_count(args) -> str:
    from .counting import count_trails_exact

    g = _load_graph(args.graph)
    start = time.perf_counter()
    report = count_trails_exact(g)
    elapsed = time.perf_counter() - start
    m, d = report.m, report.d
    if args.format == "text":
        return f"m: {m}\nd: {d}\nf: {d}/{1 << m} = {d / (1 << m)}\nelapsed: {elapsed:.3f}s\n"
    payload = {"m": m, "d": d, "f": f"{d}/{1 << m}", "f_decimal": d / (1 << m), "elapsed": elapsed}
    return _render(payload, args.format)


def _cmd_estimate(args) -> str:
    from .counting import estimate_trail_fraction

    g = _load_graph(args.graph)
    report = estimate_trail_fraction(g, args.samples, args.seed, args.confidence)
    if args.format == "text":
        return (
            f"estimate: {report.estimate}\n"
            f"{report.confidence * 100:.10g}% CI: [{report.ci_low}, {report.ci_high}]\n"
            f"samples: {report.samples}\n"
            f"seed: {report.seed}\n"
        )
    return _render(dict(vars(report)), args.format)


def _cmd_eis(args) -> str:
    from .eis import greedy_eis

    g = _load_graph(args.graph)
    seq = greedy_eis(g)
    # Each touched vertex is eliminated exactly once.
    non_isolated = sum(seq.eliminated_per_step)
    bound_ok = 2 * seq.length >= non_isolated
    if args.format == "text":
        return (
            "vertices: " + " ".join(map(str, seq.vertices)) + "\n"
            "fresh edges: " + " ".join(map(str, seq.fresh_edges)) + "\n"
            f"length: {seq.length} (non-isolated vertices: {non_isolated}, "
            f"bound {'ok' if bound_ok else 'VIOLATED'})\n"
        )
    payload = {
        "vertices": seq.vertices,
        "fresh_edges": seq.fresh_edges,
        "length": seq.length,
        "non_isolated_vertices": non_isolated,
        "length_bound_ok": bound_ok,
    }
    return _render(payload, args.format)


def _cmd_gen(args) -> str:
    from .generators import gen_cycle, gen_family, gen_path, gen_random_multigraph, gen_star

    gen = {"family": gen_family, "random": gen_random_multigraph, "path": gen_path, "cycle": gen_cycle, "star": gen_star}
    # Each shape's options are named after its generator's parameters.
    params = {k: v for k, v in vars(args).items() if k in ("n", "m", "seed", "k")}
    return serialize_graph(gen[args.shape](**params))


def _cmd_scan(args) -> str:
    from .bounds import family_ratio_csv, family_ratio_scan

    rows = family_ratio_scan(args.m_min, args.m_max)
    if args.format == "csv":
        return family_ratio_csv(rows)
    if args.format == "text":
        lines = [f"{'m':>5} {'d':>24} {'f':>14} {'f*sqrt(m)':>12} {'bound':>10}"]
        for r in rows:
            lines.append(f"{r.m:>5} {r.d:>24} {r.f:>14.10f} {r.f_sqrt_m:>12.6f} {r.theorem_bound:>10.6f}")
        return "\n".join(lines) + "\n"
    payload = [
        {
            "m": r.m,
            "d": r.d,
            "f": r.f,
            "f_exact": f"{r.d}/{1 << r.m}",
            "f_sqrt_m": r.f_sqrt_m,
            "theorem_bound": r.theorem_bound,
        }
        for r in rows
    ]
    return _render(payload, args.format)


def _cmd_bounds(args) -> str:
    from .bounds import bound_report, proof_ingredient_summary

    report = bound_report(args.m)
    checks = proof_ingredient_summary()
    m, d = report.m, report.family_d
    if args.format == "text":
        lines = [
            f"m: {m}",
            f"sqrt(log2(m)/m): {report.theorem_value:.6f}",
            f"proof parameters: k = {report.k:.4f}, r = {report.r:.4f}",
        ]
        if d is not None:
            exact = f" (exact {d}/{1 << m})" if m <= 64 else ""
            lines.append(f"family f: {d / (1 << m):.10g}{exact}")
            lines.append(f"family f * sqrt(m): {report.ratio:.6f}")
        for name, ok in checks.items():
            lines.append(f"check {name}: {'ok' if ok else 'FAILED'}")
        return "\n".join(lines) + "\n"
    payload = {
        "m": m,
        "theorem_value": report.theorem_value,
        "k": report.k,
        "r": report.r,
        "family_f": None if d is None else f"{d}/{1 << m}",
        "family_f_decimal": None if d is None else d / (1 << m),
        "ratio": report.ratio,
    }
    payload.update({f"check_{name}": ok for name, ok in checks.items()})
    return _render(payload, args.format)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="trailfrac",
        description="Trail-representable edge subsets of directed multigraphs: "
        "decision, exact counting, Monte Carlo estimation, and bound diagnostics.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_output(p, run, default_format: str = "json") -> None:
        p.set_defaults(run=run)
        p.add_argument("--format", choices=("json", "csv", "text"), default=default_format)
        p.add_argument("--out", metavar="PATH", default=None, help="write output to PATH instead of stdout")

    p = sub.add_parser("check", help="decide whether an edge subset is a trail")
    p.add_argument("graph", help="edge-list file")
    p.add_argument("--subset", required=True, help="comma-separated edge indices (empty string for the empty subset)")
    p.add_argument("--witness", action="store_true", help="include a witness ordering when the subset is a trail")
    p.add_argument("--oracle", action="store_true", help="cross-run the permutation oracle (|T| <= 8)")
    add_output(p, _cmd_check)

    p = sub.add_parser("count", help="exact d(G) and f(G) by a frontier count (fails past a budget of live states)")
    p.add_argument("graph")
    add_output(p, _cmd_count)

    p = sub.add_parser("estimate", help="Monte Carlo estimate of f(G)")
    p.add_argument("graph")
    p.add_argument("--samples", type=int, required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--confidence", type=float, default=0.95)
    add_output(p, _cmd_estimate)

    p = sub.add_parser("eis", help="greedy edge-increasing vertex sequence")
    p.add_argument("graph")
    add_output(p, _cmd_eis)

    p = sub.add_parser("gen", help="generate a graph in edge-list format")
    p.set_defaults(run=_cmd_gen)
    gen_sub = p.add_subparsers(dest="shape", required=True)
    gp = gen_sub.add_parser("family", help="two vertices, m/2 parallel edges each way")
    gp.add_argument("--m", type=int, required=True)
    gp.add_argument("--out", default=None)
    gp = gen_sub.add_parser("random", help="uniform random multigraph without self-loops")
    gp.add_argument("--n", type=int, required=True)
    gp.add_argument("--m", type=int, required=True)
    gp.add_argument("--seed", type=int, required=True)
    gp.add_argument("--out", default=None)
    for name in ("path", "cycle", "star"):
        gp = gen_sub.add_parser(name)
        gp.add_argument("--k", type=int, required=True)
        gp.add_argument("--out", default=None)

    p = sub.add_parser("scan", help="family trail fraction scaled by sqrt(m), CSV by default")
    p.add_argument("--m-min", dest="m_min", type=int, required=True)
    p.add_argument("--m-max", dest="m_max", type=int, required=True)
    add_output(p, _cmd_scan, default_format="csv")

    p = sub.add_parser("bounds", help="headline rate at m plus the inequality check battery")
    p.add_argument("--m", type=int, required=True)
    add_output(p, _cmd_bounds)

    return parser


def main(argv=None) -> int:
    # argparse's ``type=int`` still runs under the interpreter's digit limit.
    args = build_parser().parse_args(argv)
    limit = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(0)
    try:
        output = args.run(args)
        if args.out:
            with open(args.out, "w", encoding="utf-8") as f:
                f.write(output)
            return 0
    except (ValueError, OSError, ImportError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    finally:
        sys.set_int_max_str_digits(limit)
    sys.stdout.write(output)
    return 0


def entrypoint() -> None:
    # Safe because a command's cyclic garbage is a fixed 496 objects whatever
    # its input, and the OS frees the rest at exit. Freezing every object
    # skips the final collection over the loaded modules, numpy's above all,
    # on a return, a SystemExit or an uncaught exception; atexit handlers and
    # the flush of stdout and stderr still run. main leaves the collector alone.
    gc.disable()
    try:
        sys.exit(main())
    finally:
        gc.freeze()


if __name__ == "__main__":
    entrypoint()
