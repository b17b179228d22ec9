"""Finite inequality and identity checks behind the trail-fraction bounds.

Everything combinatorial is evaluated in exact integer (or rational)
arithmetic; floating point enters only for the final comparison against
closed-form constants and for report rendering.

Runs over consecutive even m (the family scan and the central-binomial
check) take C(m, m/2) from ``_central_binomials``: one ``math.comb`` for the
first m, then C(m + 2, h + 1) = C(m, h)·(m + 1)(m + 2) / (h + 1)² with
h = m/2, an exact integer division. Each step costs time linear in the
length of C(m, h) instead of a fresh ``math.comb``: ``trailfrac scan`` up to
m = 14 000 takes about 2.5 s instead of about 34 s on a 2-vCPU VM.

The scan and ``bound_report`` take the family's d from one closed form,
``_family_d``; ``counting.count_family_closed_form`` is the tests' second route.
"""

from __future__ import annotations

import math
from collections.abc import Iterator, Sequence
from decimal import Decimal
from fractions import Fraction

from .graphs import Record

_LOG_SQRT_2PI = 0.5 * math.log(2.0 * math.pi)

# Validation ranges of proof_ingredient_summary.
_STIRLING_MAX = 5000
_CENTRAL_MAX = 2000
_WINDOW_MAX = 64
_CASE2_MAX = 64
_VANDERMONDE_MAX = 200


def theorem_upper_bound(m: int) -> float:
    """The headline rate sqrt(log2(m) / m) for a graph with m edges.

    This is the asymptotic envelope, not a pointwise guarantee: small graphs
    (e.g. the two-vertex family at m=4) exceed it with constant 1.
    """
    if m < 2:
        raise ValueError(f"m must be at least 2, got {m}")
    return math.sqrt(math.log2(m) / m)


class StirlingBounds(Record):
    """Two-sided Stirling bracket for n!, carried in log space."""

    log_lower: float
    log_upper: float

    @property
    def lower(self) -> float:
        try:
            return math.exp(self.log_lower)
        except OverflowError:
            return math.inf

    @property
    def upper(self) -> float:
        try:
            return math.exp(self.log_upper)
        except OverflowError:
            return math.inf


def stirling_bounds(n: int) -> StirlingBounds:
    """Bracket sqrt(2*pi)*n^(n+1/2)*e^(-n) <= n! <= e*n^(n+1/2)*e^(-n)."""
    if n < 1:
        raise ValueError(f"n must be positive, got {n}")
    core = (n + 0.5) * math.log(n) - n
    return StirlingBounds(log_lower=_LOG_SQRT_2PI + core, log_upper=1.0 + core)


def _central_binomials(m: int) -> Iterator[int]:
    """C(m, m/2), C(m + 2, m/2 + 1), ... for even m, each from the one before."""
    h = m // 2
    central = math.comb(m, h)
    while True:
        yield central
        central = central * (m + 1) * (m + 2) // ((h + 1) * (h + 1))
        m += 2
        h += 1


def _central_bound_holds(c: int, central: int) -> bool:
    # int / int is correctly rounded, as float(Fraction(central, 2^c)) is.
    return central / (1 << c) <= math.e / (math.pi * math.sqrt(c))


def central_binomial_bound_check(c: int) -> bool:
    """Check 2^(-c) * C(c, c/2) <= e / (pi * sqrt(c)) for even c."""
    if c < 2 or c % 2:
        raise ValueError(f"c must be a positive even integer, got {c}")
    return _central_bound_holds(c, math.comb(c, c // 2))


def _comb0(n: int, k: int) -> int:
    return math.comb(n, k) if 0 <= k <= n else 0


def _window_numerator(c: int, j: int) -> int:
    """Number of size-c bit strings whose weight lies in {j-1, j, j+1}."""
    return _comb0(c, j - 1) + _comb0(c, j) + _comb0(c, j + 1)


def balance_window_probability(c: int, j: int) -> float:
    """P(X in {j-1, j, j+1}) for X ~ Binomial(c, 1/2); zero outside 0..c.

    Always at most 3 * 2^(-c) * C(c, floor(c/2)).
    """
    if c < 1:
        raise ValueError(f"c must be positive, got {c}")
    return _window_numerator(c, j) / (1 << c)


class Case2TailCheck(Record):
    """Both sides of the tail inequality (2r^2+2r+1)/2^r <= 4r^2/2^r."""

    exact_tail_bound: float
    paper_bound: float
    holds: bool


def case2_tail_bound_check(r: int) -> Case2TailCheck:
    """Tail bound chain for r independent balance events.

    Verifies C(r,2)/2^(r-2) + r/2^(r-1) + 1/2^r <= (2r^2+2r+1)/2^r <= 4r^2/2^r
    in exact rational arithmetic; the reported ``exact_tail_bound`` is the
    middle expression.
    """
    if r < 2:
        raise ValueError(f"r must be at least 2, got {r}")
    term_sum = (
        Fraction(math.comb(r, 2), 1 << (r - 2))
        + Fraction(r, 1 << (r - 1))
        + Fraction(1, 1 << r)
    )
    quadratic = Fraction(2 * r * r + 2 * r + 1, 1 << r)
    final = Fraction(4 * r * r, 1 << r)
    return Case2TailCheck(
        exact_tail_bound=float(quadratic),
        paper_bound=float(final),
        holds=term_sum <= quadratic <= final,
    )


def vandermonde_identity_check(m: int) -> bool:
    """Check sum_{l=0}^{m/2} C(m/2, l)^2 == C(m, m/2) in exact integers.

    The sum must start at l = 0; dropping that term undercounts by one.
    """
    if m < 2 or m % 2:
        raise ValueError(f"m must be a positive even integer, got {m}")
    half = m // 2
    return sum(math.comb(half, l) ** 2 for l in range(half + 1)) == math.comb(m, half)


def _family_d(m: int, central: int) -> int:
    """d of the family with m edges from central = C(m, m/2): C(m, m/2) - 1 + 2·C(m, m/2 - 1)."""
    return central - 1 + 2 * (central * m // (m + 2))


class FamilyRatioRow(Record):
    m: int
    d: int
    f: Fraction
    f_sqrt_m: float
    theorem_bound: float


def family_ratio_scan(m_min: int, m_max: int) -> list[FamilyRatioRow]:
    """Exact d and f of the two-vertex family, and f scaled by sqrt(m), for even m in [m_min, m_max].

    Each d is ``_family_d`` of a C(m, m/2) from ``_central_binomials``. Exact
    integers throughout, so m has no upper limit beyond time and memory.
    """
    if m_min % 2 or m_max % 2 or m_min < 4:
        raise ValueError(f"m_min and m_max must be even and at least 4, got [{m_min}, {m_max}]")
    if m_min > m_max:
        raise ValueError(f"empty range [{m_min}, {m_max}]")
    rows = []
    for m, central in zip(range(m_min, m_max + 1, 2), _central_binomials(m_min)):
        total = _family_d(m, central)
        f = Fraction(total, 1 << m)
        rows.append(
            FamilyRatioRow(
                m=m,
                d=total,
                f=f,
                f_sqrt_m=float(f) * math.sqrt(m),
                theorem_bound=theorem_upper_bound(m),
            )
        )
    return rows


def family_ratio_csv(rows: Sequence[FamilyRatioRow]) -> str:
    """Render scan rows as CSV with >= 10 significant digits per decimal.

    d goes through ``Decimal``, which writes ints of any length; ``str(int)``
    stops at the interpreter's 4300-digit limit, passed near m = 14 280.
    """
    lines = ["m,d,f,f_sqrt_m,theorem_bound"]
    for row in rows:
        lines.append(
            f"{row.m},{Decimal(row.d)},{float(row.f):.12g},{row.f_sqrt_m:.12g},{row.theorem_bound:.12g}"
        )
    return "\n".join(lines) + "\n"


class BoundReport(Record):
    """Headline rate at one m, with the family's exact fraction when m is even."""

    m: int
    theorem_value: float
    family_f: Fraction | None = None
    ratio: float | None = None

    @property
    def k(self) -> float:
        """Degree threshold m / log2(m) used to split the two proof cases."""
        return self.m / math.log2(self.m)

    @property
    def r(self) -> float:
        """Sequence length log2(m) targeted in the many-vertices case."""
        return math.log2(self.m)


def bound_report(m: int) -> BoundReport:
    value = theorem_upper_bound(m)
    if m % 2 == 0:
        f = Fraction(_family_d(m, math.comb(m, m // 2)), 1 << m)
        return BoundReport(m=m, theorem_value=value, family_f=f, ratio=float(f) * math.sqrt(m))
    return BoundReport(m=m, theorem_value=value)


def proof_ingredient_summary() -> dict[str, bool]:
    """Run every finite inequality over its full validation range.

    Stirling is compared against exact factorials in log space; the balance
    window bound is checked with exact integer numerators.
    """
    stirling_ok = True
    factorial = 1
    for n in range(1, _STIRLING_MAX + 1):
        factorial *= n
        log_fact = math.log(factorial)
        b = stirling_bounds(n)
        if not b.log_lower <= log_fact <= b.log_upper:
            stirling_ok = False
            break

    central_ok = all(
        map(_central_bound_holds, range(2, _CENTRAL_MAX + 1, 2), _central_binomials(2))
    )

    window_ok = True
    for c in range(1, _WINDOW_MAX + 1):
        cap = 3 * math.comb(c, c // 2)
        for j in range(-1, c + 2):
            if _window_numerator(c, j) > cap:
                window_ok = False
                break
        if not window_ok:
            break

    case2_ok = all(case2_tail_bound_check(r).holds for r in range(2, _CASE2_MAX + 1))
    vandermonde_ok = all(vandermonde_identity_check(m) for m in range(2, _VANDERMONDE_MAX + 1, 2))
    return {
        "stirling_sandwich": stirling_ok,
        "central_binomial": central_ok,
        "balance_window": window_ok,
        "case2_tail": case2_ok,
        "vandermonde": vandermonde_ok,
    }
