"""Finite inequality and identity checks behind the trail-fraction bounds.

Everything combinatorial is evaluated in exact integers; floating point
enters only for the final comparison against closed-form constants, for
log n! (``math.lgamma``) in the Stirling sandwich and for the reported
values.

Runs over consecutive even m (the family scan and the central-binomial
check) take C(m, m/2) from ``_central_binomials``: one ``math.comb`` for the
first m, then C(m + 2, h + 1) = C(m, h)·(m + 1)(m + 2) / (h + 1)² with
h = m/2, an exact integer division. Each step costs time linear in the
length of C(m, h) instead of a fresh ``math.comb``: ``trailfrac scan`` up to
m = 14 000 takes about 1.4 s instead of about 19 s on a 2-vCPU VM.

The scan and ``bound_report`` take the family's d from one closed form,
``_family_d``; ``counting.count_family_closed_form`` is the tests' second route.
Reports hold plain integers and floats: ``BoundReport.family_f`` builds its
``Fraction`` when read, and ``family_ratio_csv`` loads ``decimal`` to write d.
"""

from __future__ import annotations

import math
from collections.abc import Iterator, Sequence

from .graphs import Record, _check_ints

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
    [m] = _check_ints(m=m)
    if m < 2:
        raise ValueError(f"m must be at least 2, got {m}")
    return _headline_rate(m)


def _headline_rate(m: int) -> float:
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
    [n] = _check_ints(n=n)
    if n < 1:
        raise ValueError(f"n must be positive, got {n}")
    return StirlingBounds(*_stirling_logs(n))


def _stirling_logs(n: int) -> tuple[float, float]:
    """Logs of the lower and upper sides of the Stirling bracket of n!, for n >= 1."""
    core = (n + 0.5) * math.log(n) - n
    return _LOG_SQRT_2PI + core, 1.0 + core


def _stirling_holds(n: int) -> bool:
    """Whether log n! = lgamma(n + 1) lies inside the Stirling bracket, for n >= 1."""
    lower, upper = _stirling_logs(n)
    return lower <= math.lgamma(n + 1) <= upper


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
    """Whether 2^(-c) * C(c, c/2) <= e / (pi * sqrt(c)), given central = C(c, c/2) for even c >= 2."""
    # int / int is correctly rounded, as float(Fraction(central, 2^c)) is.
    return central / (1 << c) <= math.e / (math.pi * math.sqrt(c))


def _comb0(n: int, k: int) -> int:
    return math.comb(n, k) if 0 <= k <= n else 0


def _window_numerator(c: int, j: int) -> int:
    """Number of size-c bit strings whose weight lies in {j-1, j, j+1}."""
    return _comb0(c, j - 1) + _comb0(c, j) + _comb0(c, j + 1)


def balance_window_probability(c: int, j: int) -> float:
    """P(X in {j-1, j, j+1}) for X ~ Binomial(c, 1/2); zero outside 0..c.

    Always at most 3 * 2^(-c) * C(c, floor(c/2)).
    """
    c, j = _check_ints(c=c, j=j)
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
    by comparing the exact integer numerators over 2^r; the reported
    ``exact_tail_bound`` is the middle expression.
    """
    [r] = _check_ints(r=r)
    if r < 2:
        raise ValueError(f"r must be at least 2, got {r}")
    return _case2_tail(r)


def _case2_tail(r: int) -> Case2TailCheck:
    # Numerators over 2^r; int / int is correctly rounded, as float(Fraction) is.
    term_sum = 4 * math.comb(r, 2) + 2 * r + 1
    quadratic = 2 * r * r + 2 * r + 1
    final = 4 * r * r
    return Case2TailCheck(quadratic / (1 << r), final / (1 << r), term_sum <= quadratic <= final)


def _vandermonde_holds(m: int) -> bool:
    """sum_{l=0}^{m/2} C(m/2, l)^2 == C(m, m/2) for even m >= 2, in exact integers.

    The sum must start at l = 0; dropping that term undercounts by one.
    """
    half = m // 2
    return sum(math.comb(half, l) ** 2 for l in range(half + 1)) == math.comb(m, half)


def _family_d(m: int, central: int) -> int:
    """d of the family with m edges from central = C(m, m/2): C(m, m/2) - 1 + 2·C(m, m/2 - 1)."""
    return central - 1 + 2 * (central * m // (m + 2))


class FamilyRatioRow(Record):
    """One even m of the family scan; ``f`` is d / 2^m, correctly rounded."""

    m: int
    d: int
    f: float
    f_sqrt_m: float
    theorem_bound: float


def family_ratio_scan(m_min: int, m_max: int) -> list[FamilyRatioRow]:
    """Exact d and f of the two-vertex family, and f scaled by sqrt(m), for even m in [m_min, m_max].

    Each d is ``_family_d`` of a C(m, m/2) from ``_central_binomials``, in
    exact integers, so m has no upper limit beyond time and memory. d is odd
    (C(m, m/2) is even for m >= 2), so d / 2^m is already in lowest terms.
    """
    m_min, m_max = _check_ints(m_min=m_min, m_max=m_max)
    if m_min % 2 or m_max % 2 or m_min < 4:
        raise ValueError(f"m_min and m_max must be even and at least 4, got [{m_min}, {m_max}]")
    if m_min > m_max:
        raise ValueError(f"empty range [{m_min}, {m_max}]")
    rows = []
    for m, central in zip(range(m_min, m_max + 1, 2), _central_binomials(m_min)):
        d = _family_d(m, central)
        # int / int is correctly rounded, as float(Fraction(d, 2^m)) is.
        f = d / (1 << m)
        rows.append(FamilyRatioRow(m, d, f, f * math.sqrt(m), _headline_rate(m)))
    return rows


def family_ratio_csv(rows: Sequence[FamilyRatioRow]) -> str:
    """Render scan rows as CSV with >= 10 significant digits per decimal.

    d goes through ``Decimal``, which writes ints of any length; ``str(int)``
    stops at the interpreter's int/str digit limit (4300 by default), which
    d passes near m = 14 280.
    """
    from decimal import Decimal

    lines = ["m,d,f,f_sqrt_m,theorem_bound"]
    for row in rows:
        lines.append(
            f"{row.m},{Decimal(row.d)},{row.f:.12g},{row.f_sqrt_m:.12g},{row.theorem_bound:.12g}"
        )
    return "\n".join(lines) + "\n"


class BoundReport(Record):
    """Headline rate at one m, with the family's d and d / 2^m * sqrt(m) when m is even."""

    m: int
    theorem_value: float
    family_d: int | None = None
    ratio: float | None = None

    @property
    def family_f(self) -> Fraction | None:
        """The family's exact fraction d / 2^m, built on each read; None for odd m."""
        from fractions import Fraction

        return None if self.family_d is None else Fraction(self.family_d, 1 << self.m)

    @property
    def k(self) -> float:
        """Degree threshold m / log2(m) used to split the two proof cases."""
        return self.m / math.log2(self.m)

    @property
    def r(self) -> float:
        """Sequence length log2(m) targeted in the many-vertices case."""
        return math.log2(self.m)


def bound_report(m: int) -> BoundReport:
    [m] = _check_ints(m=m)
    value = theorem_upper_bound(m)
    if m % 2:
        return BoundReport(m, value)
    d = _family_d(m, math.comb(m, m // 2))
    return BoundReport(m, value, d, d / (1 << m) * math.sqrt(m))


def proof_ingredient_summary() -> dict[str, bool]:
    """Run every finite inequality over its full validation range.

    Stirling is compared in log space against ``math.lgamma(n + 1)``, not an
    exact n!. For n <= 5000, |lgamma(n + 1) - log(n!)| <= 1.5e-11, while the
    smallest lower margin is 1/(12n) ~ 1.67e-5 at n = 5000; n = 1 is an
    exact tie on the upper side, 0.0 on both routes. The balance window bound
    is checked with exact integer numerators.
    """
    stirling_ok = all(map(_stirling_holds, range(1, _STIRLING_MAX + 1)))
    central_ok = all(
        map(_central_bound_holds, range(2, _CENTRAL_MAX + 1, 2), _central_binomials(2))
    )

    window_ok = all(
        max(_window_numerator(c, j) for j in range(-1, c + 2)) <= 3 * math.comb(c, c // 2)
        for c in range(1, _WINDOW_MAX + 1)
    )
    case2_ok = all(_case2_tail(r).holds for r in range(2, _CASE2_MAX + 1))
    vandermonde_ok = all(map(_vandermonde_holds, range(2, _VANDERMONDE_MAX + 1, 2)))
    return {
        "stirling_sandwich": stirling_ok,
        "central_binomial": central_ok,
        "balance_window": window_ok,
        "case2_tail": case2_ok,
        "vandermonde": vandermonde_ok,
    }
