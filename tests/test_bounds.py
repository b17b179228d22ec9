import hashlib
import math
from fractions import Fraction
from itertools import islice

import numpy as np
import pytest

from trailfrac import (
    Case2TailCheck,
    StirlingBounds,
    balance_window_probability,
    bound_report,
    case2_tail_bound_check,
    count_family_closed_form,
    family_ratio_csv,
    family_ratio_scan,
    proof_ingredient_summary,
    stirling_bounds,
    theorem_upper_bound,
)
from trailfrac import bounds
from trailfrac.bounds import _central_binomials, _central_bound_holds

from helpers import int_digit_limit

# sha256 of family_ratio_csv(family_ratio_scan(4, 2000)), recorded while every
# d came from a fresh math.comb (count_family_closed_form).
GOLDEN_SCAN_CSV_SHA256 = "34465c04243db125ef39b8c286085605e2867cc28350c285b0a1b528a3f6ebd7"
# sha256 of family_ratio_csv(family_ratio_scan(14400, 14404)), the bytes of
# `trailfrac scan --m-min 14400 --m-max 14404`; each d has over 4 300 digits.
GOLDEN_SCAN_PAST_LIMIT_CSV_SHA256 = "6b623fa30881c547d435d6a585de0896e7a7e6db685b52c296073af3ff25dee3"


class TestTheoremUpperBound:
    def test_m16(self):
        assert theorem_upper_bound(16) == 0.5

    def test_m2(self):
        assert theorem_upper_bound(2) == pytest.approx(0.7071067811865476)

    def test_m1024(self):
        assert theorem_upper_bound(1024) == pytest.approx(0.09882117688026186)

    def test_rejects_small_m(self):
        with pytest.raises(ValueError):
            theorem_upper_bound(1)

    def test_rejects_m_past_the_largest_float(self):
        # 2^1024 - 2^970 is the least integer that float() cannot convert.
        limit = (1 << 1024) - (1 << 970)
        assert theorem_upper_bound(limit - 1) == math.sqrt(math.log2(limit - 1) / (limit - 1))
        for m in (limit, 1 << 1024, 10**309):
            for fn in (theorem_upper_bound, bound_report):
                with pytest.raises(ValueError, match=r"m must be below 2\*\*1024 - 2\*\*970 .*; got a \d+-bit m"):
                    fn(m)


class TestStirling:
    def test_n1(self):
        b = stirling_bounds(1)
        assert b.lower == pytest.approx(0.9221370088957891)
        assert b.upper == pytest.approx(1.0)
        assert b.lower <= 1 <= b.upper

    def test_n5(self):
        b = stirling_bounds(5)
        assert b.lower == pytest.approx(118.02, abs=0.01)
        assert b.upper == pytest.approx(127.98, abs=0.01)
        assert b.lower <= 120 <= b.upper

    def test_n170_log_space(self):
        b = stirling_bounds(170)
        log_fact = math.log(math.factorial(170))
        assert b.log_lower <= log_fact <= b.log_upper

    def test_huge_n_overflows_to_inf(self):
        b = stirling_bounds(5000)
        assert b.lower == math.inf and b.upper == math.inf
        assert b.log_lower < b.log_upper

    def test_sandwich_in_reals_up_to_170(self):
        fact = 1
        for n in range(1, 171):
            fact *= n
            b = stirling_bounds(n)
            assert b.lower <= fact <= b.upper, n

    def test_rejects_nonpositive(self):
        with pytest.raises(ValueError):
            stirling_bounds(0)

    def test_rejects_n_past_the_largest_float(self):
        # Below the limit both logs overflow to inf; at it float(n) would raise OverflowError.
        assert stirling_bounds(bounds._M_LIMIT - 1) == StirlingBounds(log_lower=math.inf, log_upper=math.inf)
        for n in (bounds._M_LIMIT, 1 << 1024, 10**309):
            with pytest.raises(ValueError, match=r"n must be below 2\*\*1024 - 2\*\*970 .*; got a \d+-bit n"):
                stirling_bounds(n)


def test_lgamma_agrees_with_exact_log_factorial():
    """The sandwich reads log n! from math.lgamma; exact factorials are the reference here.

    The error stays far inside every margin of the bracket (the smallest lower
    one is about 1.67e-5, at n = 5000), but for n = 1's exact upper tie.
    """
    fact = 1
    for n in range(1, bounds._STIRLING_MAX + 1):
        fact *= n
        exact = math.log(fact)
        assert abs(math.lgamma(n + 1) - exact) <= 1e-9, n
        lower, upper = bounds._stirling_logs(n)
        assert exact - lower >= 1.6e-5, n
        assert upper - exact >= 1e-3 or n == 1, n
    assert bounds._stirling_logs(1)[1] == math.lgamma(2) == math.log(1) == 0.0


def central_bound_holds(c):
    return _central_bound_holds(c, math.comb(c, c // 2))


class TestCentralBinomial:
    def test_c2(self):
        assert central_bound_holds(2)
        assert Fraction(math.comb(2, 1), 4) == Fraction(1, 2)
        assert math.e / (math.pi * math.sqrt(2)) == pytest.approx(0.612, abs=1e-3)

    def test_c4(self):
        assert central_bound_holds(4)
        assert Fraction(math.comb(4, 2), 16) == Fraction(3, 8)
        assert math.e / (2 * math.pi) == pytest.approx(0.4326, abs=1e-3)

    def test_c100_exact_big_integers(self):
        assert central_bound_holds(100)
        lhs = Fraction(math.comb(100, 50), 1 << 100)
        assert float(lhs) == pytest.approx(0.0795892, abs=1e-6)
        assert math.e / (10 * math.pi) == pytest.approx(0.0865256, abs=1e-6)

    def test_same_verdict_as_exact_fraction(self):
        # int / int and float(Fraction) round the same rational the same way.
        for c in range(2, 401, 2):
            exact = float(Fraction(math.comb(c, c // 2), 1 << c)) <= math.e / (math.pi * math.sqrt(c))
            assert central_bound_holds(c) is exact

    def test_holds_up_to_200(self):
        assert all(central_bound_holds(c) for c in range(2, 201, 2))


class TestBalanceWindow:
    def test_c2_center(self):
        assert balance_window_probability(2, 1) == 1.0

    def test_c4_center(self):
        assert balance_window_probability(4, 2) == 0.875

    def test_far_outside_window(self):
        assert balance_window_probability(4, -5) == 0.0

    def test_rejects_nonpositive_c(self):
        with pytest.raises(ValueError):
            balance_window_probability(0, 0)

    def test_bounded_by_three_central_terms(self):
        # exact integer comparison of numerators, exhaustive small range
        for c in range(1, 21):
            cap = 3 * math.comb(c, c // 2)
            for j in range(-1, c + 2):
                num = sum(
                    math.comb(c, t) if 0 <= t <= c else 0 for t in (j - 1, j, j + 1)
                )
                assert num <= cap
                assert balance_window_probability(c, j) <= 3 * math.comb(c, c // 2) / (1 << c) + 1e-15

    def test_maximized_at_center(self):
        for c in range(1, 65):
            probs = {j: balance_window_probability(c, j) for j in range(-1, c + 2)}
            best = max(probs.values())
            argmax = {j for j, p in probs.items() if p == best}
            assert argmax & {c // 2, (c + 1) // 2}


class TestCase2Tail:
    def test_r2(self):
        check = case2_tail_bound_check(2)
        assert check.exact_tail_bound == 13 / 4
        assert check.paper_bound == 16 / 4
        assert check.holds

    def test_r3(self):
        check = case2_tail_bound_check(3)
        assert check.exact_tail_bound == 25 / 8
        assert check.paper_bound == 36 / 8
        assert check.holds

    def test_r10(self):
        check = case2_tail_bound_check(10)
        assert check.exact_tail_bound == 221 / 1024
        assert check.paper_bound == 400 / 1024
        assert check.holds

    def test_holds_up_to_20(self):
        assert all(case2_tail_bound_check(r).holds for r in range(2, 21))

    def test_same_values_as_exact_fractions(self):
        # Integer numerators over 2^r, rounded once, give float(Fraction) bit for bit,
        # also where 2^r is past the float range.
        for r in [*range(2, 200), 1023, 1024, 1100, 1200]:
            term_sum = Fraction(math.comb(r, 2), 1 << (r - 2)) + Fraction(r, 1 << (r - 1)) + Fraction(1, 1 << r)
            quadratic = Fraction(2 * r * r + 2 * r + 1, 1 << r)
            final = Fraction(4 * r * r, 1 << r)
            assert case2_tail_bound_check(r) == Case2TailCheck(
                float(quadratic), float(final), term_sum <= quadratic <= final
            ), r

    def test_rejects_r1(self):
        with pytest.raises(ValueError):
            case2_tail_bound_check(1)


class TestVandermonde:
    @pytest.mark.parametrize("m", [2, 4, 60])
    def test_identity(self, m):
        assert bounds._vandermonde_holds(m)

    def test_m4_by_hand(self):
        assert 1 + 4 + 1 == math.comb(4, 2)


class TestFamilyRatioScan:
    def test_m4_row(self):
        row = family_ratio_scan(4, 4)[0]
        assert row.d == 13
        assert float(row.f) == 0.8125
        assert row.f_sqrt_m == pytest.approx(1.625)

    def test_m6_row(self):
        row = family_ratio_scan(6, 6)[0]
        assert row.f == Fraction(49, 64)
        assert row.f_sqrt_m == pytest.approx(1.8754, abs=1e-4)

    def test_m20_row(self):
        row = family_ratio_scan(20, 20)[0]
        assert row.d == 520675
        assert float(row.f) == pytest.approx(0.49656, abs=1e-5)
        assert row.f_sqrt_m == pytest.approx(2.2206, abs=1e-4)

    def test_row_count(self):
        assert len(family_ratio_scan(6, 24)) == 10

    def test_csv_format(self):
        text = family_ratio_csv(family_ratio_scan(4, 8))
        lines = text.strip().split("\n")
        assert lines[0] == "m,d,f,f_sqrt_m,theorem_bound"
        assert len(lines) == 4
        first = lines[1].split(",")
        assert first[0] == "4" and first[1] == "13"
        assert float(first[2]) == 0.8125
        # at least 10 significant digits on non-terminating decimals
        m20 = family_ratio_csv(family_ratio_scan(20, 20)).strip().split("\n")[1].split(",")
        assert len(m20[3].replace(".", "").lstrip("0")) >= 10

    def test_ratio_bracket_small_range(self):
        for row in family_ratio_scan(6, 60):
            assert 1.8 <= row.f_sqrt_m <= 2.4

    @pytest.mark.parametrize("bad", [(5, 9), (8, 6), (2, 10)])
    def test_rejects_bad_ranges(self, bad):
        with pytest.raises(ValueError):
            family_ratio_scan(*bad)

    def test_golden_csv(self):
        text = family_ratio_csv(family_ratio_scan(4, 2000))
        assert hashlib.sha256(text.encode()).hexdigest() == GOLDEN_SCAN_CSV_SHA256

    def test_golden_csv_past_int_digit_limit(self):
        rows = family_ratio_scan(14400, 14404)
        # Past the int-to-str digit limit the caller lifts it, as cli.main does.
        with int_digit_limit(4300), pytest.raises(ValueError, match="4300 digits"):
            family_ratio_csv(rows)
        with int_digit_limit(0):
            text = family_ratio_csv(rows)
        assert hashlib.sha256(text.encode()).hexdigest() == GOLDEN_SCAN_PAST_LIMIT_CSV_SHA256

    def test_rows_match_closed_form_up_to_3000(self):
        rows = family_ratio_scan(4, 3000)
        assert [row.m for row in rows] == list(range(4, 3001, 2))
        for row in rows:
            total = count_family_closed_form(row.m).total
            assert row.d == total
            assert type(row.f) is float and row.f == float(Fraction(total, 1 << row.m))
            assert row.f_sqrt_m == row.f * math.sqrt(row.m)
            assert row.theorem_bound == theorem_upper_bound(row.m)

    @pytest.mark.parametrize("m_min, m_max", [(4, 4), (6, 6), (8, 12), (1000, 1010), (2998, 3000)])
    def test_ranges_seeded_past_4(self, m_min, m_max):
        # The recurrence starts at m_min: a wrong seed or step shows in the first rows.
        rows = family_ratio_scan(m_min, m_max)
        assert [row.m for row in rows] == list(range(m_min, m_max + 1, 2))
        assert [row.d for row in rows] == [count_family_closed_form(m).total for m in range(m_min, m_max + 1, 2)]


class TestCentralBinomials:
    @pytest.mark.parametrize("start", [0, 2, 4, 1000])
    def test_matches_comb(self, start):
        got = list(islice(_central_binomials(start), 300))
        assert got == [math.comb(m, m // 2) for m in range(start, start + 600, 2)]


class TestBoundReport:
    def test_even_m_includes_family(self):
        report = bound_report(16)
        assert report.theorem_value == 0.5
        assert report.k == 4.0
        assert report.r == 4.0
        assert report.family_f == Fraction(count_family_closed_form(16).total, 1 << 16)
        assert report.ratio == pytest.approx(float(report.family_f) * 4.0)

    @pytest.mark.parametrize("m", [2, 4, 6, 64, 1024, 3000])
    def test_family_matches_closed_form(self, m):
        # bound_report's d comes from bounds._family_d, the closed form from math.comb alone.
        assert bound_report(m).family_f == Fraction(count_family_closed_form(m).total, 1 << m)

    def test_odd_m_family_absent(self):
        report = bound_report(9)
        assert report.family_f is None
        assert report.ratio is None


def test_proof_ingredient_summary_all_hold():
    summary = proof_ingredient_summary()
    assert summary == {
        "stirling_sandwich": True,
        "central_binomial": True,
        "balance_window": True,
        "case2_tail": True,
        "vandermonde": True,
    }


ALL_HOLD = dict.fromkeys(["stirling_sandwich", "central_binomial", "balance_window", "case2_tail", "vandermonde"], True)


def _raise_lower_stirling_bracket(monkeypatch):
    # 2e-5 is just past the smallest margin, log(n!) - lower ~ 1/(12n) = 1.67e-5 at n = 5000,
    # and short of the margin at n = 4000: only the loop's last steps can fail.
    monkeypatch.setattr(bounds, "_LOG_SQRT_2PI", bounds._LOG_SQRT_2PI + 2e-5)
    assert bounds._stirling_logs(4000)[0] <= math.lgamma(4001)


def _double_last_central_binomial(monkeypatch):
    holds = bounds._central_bound_holds

    def doubled_at_last(c, central):
        return holds(c, 2 * central if c == bounds._CENTRAL_MAX else central)

    monkeypatch.setattr(bounds, "_central_bound_holds", doubled_at_last)


def _widen_last_balance_window(monkeypatch):
    # Four weights, j-1 .. j+2, exceed three central terms near the centre.
    numerator = bounds._window_numerator

    def widened_at_last(c, j):
        return numerator(c, j) + (bounds._comb0(c, j + 2) if c == bounds._WINDOW_MAX else 0)

    monkeypatch.setattr(bounds, "_window_numerator", widened_at_last)


def _fail_last_case2_tail(monkeypatch):
    tail = bounds._case2_tail
    failed = Case2TailCheck(1.0, 0.5, False)
    monkeypatch.setattr(bounds, "_case2_tail", lambda r: tail(r) if r < bounds._CASE2_MAX else failed)


def _fail_last_vandermonde(monkeypatch):
    holds = bounds._vandermonde_holds
    monkeypatch.setattr(bounds, "_vandermonde_holds", lambda m: holds(m) and m < bounds._VANDERMONDE_MAX)


@pytest.mark.parametrize(
    "flag, breaker",
    [
        ("stirling_sandwich", _raise_lower_stirling_bracket),
        ("central_binomial", _double_last_central_binomial),
        ("balance_window", _widen_last_balance_window),
        ("case2_tail", _fail_last_case2_tail),
        ("vandermonde", _fail_last_vandermonde),
    ],
)
def test_proof_ingredient_summary_flags_a_broken_ingredient(monkeypatch, flag, breaker):
    """Each flag reads False, and only it, when its ingredient fails at the last point of its range."""
    breaker(monkeypatch)
    assert proof_ingredient_summary() == {**ALL_HOLD, flag: False}


# Each public bounds function that takes integers, with valid integer arguments.
INTEGER_CALLS = [
    (theorem_upper_bound, {"m": 16}),
    (stirling_bounds, {"n": 5}),
    (balance_window_probability, {"c": 64, "j": 32}),
    (case2_tail_bound_check, {"r": 64}),
    (family_ratio_scan, {"m_min": 4, "m_max": 200}),
    (bound_report, {"m": 1024}),
    (count_family_closed_form, {"m": 200}),
]


@pytest.mark.parametrize("fn, args", INTEGER_CALLS, ids=[fn.__name__ for fn, _ in INTEGER_CALLS])
@pytest.mark.parametrize("kind", ["bool", "float", "numpy"])
def test_integer_arguments(fn, args, kind):
    """bool and float are refused by name; a numpy integer gives the int's answer, never a 64-bit wrap."""
    for name, value in args.items():
        if kind == "numpy":
            got = fn(**{**args, name: np.int64(value)})
            assert got == fn(**args) and repr(got) == repr(fn(**args))
        else:
            bad = True if kind == "bool" else float(value)
            with pytest.raises(ValueError, match=f"^{name} must be an integer, got {bad!r}$"):
                fn(**{**args, name: bad})
