"""Command-line surface: trail checks, counting, estimation, sequence and bound reports.

Single reports default to JSON; ``scan`` defaults to CSV. ``--format text``
switches to a human-readable rendering everywhere. Domain errors exit with
status 1 and a diagnostic on stderr; usage errors exit with status 2.

Each handler imports the modules it calls, so a command loads only its own
part of the package: ``count`` loads ``graphs`` and ``counting``, never
``trails``, ``eis``, ``bounds``, numpy, ``fractions`` or ``decimal``. The
library returns values; ``cli`` alone shapes every payload from them, writes
each exact fraction as ``f"{d}/{1 << m}"`` and times ``count``. d passes the
interpreter's int/str digit limit from m = 14 280, so ``main`` lifts it once
the arguments are parsed; ``graphs._decimal_ints`` caps input numerals itself.
"""

from __future__ import annotations

import argparse
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


def _csv_of(payload) -> str:
    rows = payload if isinstance(payload, list) else [payload]
    header = ",".join(rows[0].keys())
    lines = [header]
    lines.extend(",".join(_cell(v) for v in row.values()) for row in rows)
    return "\n".join(lines) + "\n"


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


def _render(payload, fmt: str, text_fn) -> str:
    if fmt == "json":
        return _json(payload) + "\n"
    if fmt == "csv":
        return _csv_of(payload)
    return text_fn(payload)


def _cmd_check(args) -> str:
    from .trails import is_trail, oracle_is_trail

    g = _load_graph(args.graph)
    subset = _parse_subset_arg(args.subset)
    verdict = is_trail(g, subset)
    payload = {
        "m": g.m,
        "subset": sorted(subset),
        "is_trail": verdict.is_trail,
        "failure_reason": verdict.failure_reason.value if verdict.failure_reason else None,
    }
    if args.witness:
        payload["witness"] = list(verdict.witness) if verdict.witness else None
    if args.oracle:
        oracle = oracle_is_trail(g, subset)
        payload["oracle_is_trail"] = oracle
        payload["oracle_agrees"] = oracle == verdict.is_trail

    def text(p) -> str:
        lines = ["trail" if p["is_trail"] else f"not a trail: {p['failure_reason']}"]
        if args.witness and p.get("witness"):
            lines.append("witness: " + " ".join(str(e) for e in p["witness"]))
        if args.oracle:
            word = "trail" if p["oracle_is_trail"] else "not a trail"
            lines.append(f"oracle: {word} ({'agrees' if p['oracle_agrees'] else 'MISMATCH'})")
        return "\n".join(lines) + "\n"

    return _render(payload, args.format, text)


def _cmd_count(args) -> str:
    from .counting import count_trails_exact

    g = _load_graph(args.graph)
    start = time.perf_counter()
    report = count_trails_exact(g)
    elapsed = time.perf_counter() - start
    m, d = report.m, report.d
    payload = {"m": m, "d": d, "f": f"{d}/{1 << m}", "f_decimal": d / (1 << m), "elapsed": elapsed}

    def text(p) -> str:
        return (
            f"m: {p['m']}\n"
            f"d: {p['d']}\n"
            f"f: {p['f']} = {p['f_decimal']}\n"
            f"elapsed: {p['elapsed']:.3f}s\n"
        )

    return _render(payload, args.format, text)


def _cmd_estimate(args) -> str:
    from .counting import estimate_trail_fraction

    g = _load_graph(args.graph)
    report = estimate_trail_fraction(g, args.samples, args.seed, args.confidence)
    payload = dict(vars(report))

    def text(p) -> str:
        return (
            f"estimate: {p['estimate']}\n"
            f"{int(round(p['confidence'] * 100))}% CI: [{p['ci_low']}, {p['ci_high']}]\n"
            f"samples: {p['samples']}\n"
            f"seed: {p['seed']}\n"
        )

    return _render(payload, args.format, text)


def _cmd_eis(args) -> str:
    from .eis import greedy_eis

    g = _load_graph(args.graph)
    seq = greedy_eis(g)
    # Each touched vertex is eliminated exactly once.
    non_isolated = sum(seq.eliminated_per_step)
    payload = {
        "vertices": list(seq.vertices),
        "fresh_edges": list(seq.fresh_edges),
        "length": seq.length,
        "non_isolated_vertices": non_isolated,
        "length_bound_ok": 2 * seq.length >= non_isolated,
    }

    def text(p) -> str:
        return (
            "vertices: " + " ".join(str(v) for v in p["vertices"]) + "\n"
            "fresh edges: " + " ".join(str(e) for e in p["fresh_edges"]) + "\n"
            f"length: {p['length']} (non-isolated vertices: {p['non_isolated_vertices']}, "
            f"bound {'ok' if p['length_bound_ok'] else 'VIOLATED'})\n"
        )

    return _render(payload, args.format, text)


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

    def text(p) -> str:
        lines = [f"{'m':>5} {'d':>24} {'f':>14} {'f*sqrt(m)':>12} {'bound':>10}"]
        for row in p:
            lines.append(
                f"{row['m']:>5} {row['d']:>24} {row['f']:>14.10f} "
                f"{row['f_sqrt_m']:>12.6f} {row['theorem_bound']:>10.6f}"
            )
        return "\n".join(lines) + "\n"

    return _render(payload, args.format, text)


def _cmd_bounds(args) -> str:
    from .bounds import bound_report, proof_ingredient_summary

    report = bound_report(args.m)
    checks = proof_ingredient_summary()
    m, d = report.m, report.family_d
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

    def text(p) -> str:
        lines = [
            f"m: {p['m']}",
            f"sqrt(log2(m)/m): {p['theorem_value']:.6f}",
            f"proof parameters: k = {p['k']:.4f}, r = {p['r']:.4f}",
        ]
        if p["family_f"] is not None:
            exact = f" (exact {p['family_f']})" if p["m"] <= 64 else ""
            lines.append(f"family f: {p['family_f_decimal']:.10g}{exact}")
            lines.append(f"family f * sqrt(m): {p['ratio']:.6f}")
        for name, ok in checks.items():
            lines.append(f"check {name}: {'ok' if ok else 'FAILED'}")
        return "\n".join(lines) + "\n"

    return _render(payload, args.format, text)


_HANDLERS = {
    "check": _cmd_check,
    "count": _cmd_count,
    "estimate": _cmd_estimate,
    "eis": _cmd_eis,
    "gen": _cmd_gen,
    "scan": _cmd_scan,
    "bounds": _cmd_bounds,
}


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="trailfrac",
        description="Trail-representable edge subsets of directed multigraphs: "
        "decision, exact counting, Monte Carlo estimation, and bound diagnostics.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_output(p, default_format: str = "json") -> None:
        p.add_argument("--format", choices=("json", "csv", "text"), default=default_format)
        p.add_argument("--out", metavar="PATH", default=None, help="write output to PATH instead of stdout")

    p = sub.add_parser("check", help="decide whether an edge subset is a trail")
    p.add_argument("graph", help="edge-list file")
    p.add_argument("--subset", required=True, help="comma-separated edge indices (empty string for the empty subset)")
    p.add_argument("--witness", action="store_true", help="include a witness ordering when the subset is a trail")
    p.add_argument("--oracle", action="store_true", help="cross-run the permutation oracle (|T| <= 8)")
    add_output(p)

    p = sub.add_parser("count", help="exact d(G) and f(G) by a frontier count (fails past a budget of live states)")
    p.add_argument("graph")
    add_output(p)

    p = sub.add_parser("estimate", help="Monte Carlo estimate of f(G)")
    p.add_argument("graph")
    p.add_argument("--samples", type=int, required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--confidence", type=float, default=0.95)
    add_output(p)

    p = sub.add_parser("eis", help="greedy edge-increasing vertex sequence")
    p.add_argument("graph")
    add_output(p)

    p = sub.add_parser("gen", help="generate a graph in edge-list format")
    gen_sub = p.add_subparsers(dest="shape", required=True)
    gp = gen_sub.add_parser("family", help="two vertices, m/2 parallel edges each way")
    gp.add_argument("--m", type=int, required=True)
    gp.add_argument("--out", default=None)
    gp = gen_sub.add_parser("random", help="uniform random multigraph without self-loops")
    gp.add_argument("--n", type=int, required=True)
    gp.add_argument("--m", type=int, required=True)
    gp.add_argument("--seed", type=int, required=True)
    gp.add_argument("--out", default=None)
    for name, argname in (("path", "--k"), ("cycle", "--k"), ("star", "--k")):
        gp = gen_sub.add_parser(name)
        gp.add_argument(argname, type=int, required=True)
        gp.add_argument("--out", default=None)

    p = sub.add_parser("scan", help="family trail fraction scaled by sqrt(m), CSV by default")
    p.add_argument("--m-min", dest="m_min", type=int, required=True)
    p.add_argument("--m-max", dest="m_max", type=int, required=True)
    add_output(p, default_format="csv")

    p = sub.add_parser("bounds", help="headline rate at m plus the inequality check battery")
    p.add_argument("--m", type=int, required=True)
    add_output(p)

    return parser


def main(argv=None) -> int:
    # argparse's ``type=int`` still runs under the interpreter's digit limit.
    args = build_parser().parse_args(argv)
    limit = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(0)
    try:
        output = _HANDLERS[args.command](args)
        if args.out:
            with open(args.out, "w", encoding="utf-8") as f:
                f.write(output)
            return 0
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    finally:
        sys.set_int_max_str_digits(limit)
    sys.stdout.write(output)
    return 0


def entrypoint() -> None:
    sys.exit(main())


if __name__ == "__main__":
    entrypoint()
