"""Trail-representable edge subsets of directed multigraphs.

Decide whether an edge subset can be ordered as a trail, count and estimate
the trail fraction f(G) = d(G)/2^m, build greedy edge-increasing vertex
sequences, and check the combinatorial inequalities behind the asymptotic
behaviour of f(G).

Names load on first use (PEP 562): ``import trailfrac`` imports no
submodule, and ``trailfrac.count_trails_exact`` imports only ``counting``
and what it needs. ``_EXPORTS`` maps each submodule to its public names and
is the one list behind ``__all__``, ``__dir__`` and ``__getattr__``.
"""

from importlib import import_module

__version__ = "0.1.0"

_EXPORTS = {
    "bounds": (
        "BoundReport",
        "Case2TailCheck",
        "FamilyRatioRow",
        "StirlingBounds",
        "balance_window_probability",
        "bound_report",
        "case2_tail_bound_check",
        "family_ratio_csv",
        "family_ratio_scan",
        "proof_ingredient_summary",
        "stirling_bounds",
        "theorem_upper_bound",
    ),
    "counting": (
        "EXACT_MAX_STATES",
        "CountReport",
        "EstimateReport",
        "FamilyCount",
        "count_family_closed_form",
        "count_trails_exact",
        "estimate_trail_fraction",
        "wilson_interval",
    ),
    "eis": ("EisSequence", "greedy_eis", "verify_eis"),
    "generators": ("gen_cycle", "gen_family", "gen_path", "gen_random_multigraph", "gen_star"),
    "graphs": ("GraphFormatError", "Multigraph", "parse_graph", "serialize_graph"),
    "trails": (
        "ORACLE_MAX_EDGES",
        "FailureReason",
        "TrailVerdict",
        "is_trail",
        "necessary_balance_condition",
        "oracle_is_trail",
    ),
}

_MODULE_OF = {name: module for module, names in _EXPORTS.items() for name in names}

__all__ = list(_MODULE_OF)


def __getattr__(name: str):
    if name in _EXPORTS:
        return import_module(f"{__name__}.{name}")
    if name not in _MODULE_OF:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(import_module(f"{__name__}.{_MODULE_OF[name]}"), name)
    globals()[name] = value
    return value


def __dir__() -> list[str]:
    return sorted({*globals(), *__all__, *_EXPORTS})
