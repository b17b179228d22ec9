import hashlib
import math
from fractions import Fraction
from itertools import islice

import pytest

from trailfrac import (
    balance_window_probability,
    bound_report,
    case2_tail_bound_check,
    central_binomial_bound_check,
    count_family_closed_form,
    family_ratio_csv,
    family_ratio_scan,
    proof_ingredient_summary,
    stirling_bounds,
    theorem_upper_bound,
    vandermonde_identity_check,
)
from trailfrac.bounds import _central_binomials

# sha256 of family_ratio_csv(family_ratio_scan(4, 2000)), recorded while every
# d came from a fresh math.comb (count_family_closed_form).
GOLDEN_SCAN_CSV_SHA256 = "34465c04243db125ef39b8c286085605e2867cc28350c285b0a1b528a3f6ebd7"


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


class TestCentralBinomial:
    def test_c2(self):
        assert central_binomial_bound_check(2)
        assert Fraction(math.comb(2, 1), 4) == Fraction(1, 2)
        assert math.e / (math.pi * math.sqrt(2)) == pytest.approx(0.612, abs=1e-3)

    def test_c4(self):
        assert central_binomial_bound_check(4)
        assert Fraction(math.comb(4, 2), 16) == Fraction(3, 8)
        assert math.e / (2 * math.pi) == pytest.approx(0.4326, abs=1e-3)

    def test_c100_exact_big_integers(self):
        assert central_binomial_bound_check(100)
        lhs = Fraction(math.comb(100, 50), 1 << 100)
        assert float(lhs) == pytest.approx(0.0795892, abs=1e-6)
        assert math.e / (10 * math.pi) == pytest.approx(0.0865256, abs=1e-6)

    def test_same_verdict_as_exact_fraction(self):
        # int / int and float(Fraction) round the same rational the same way.
        for c in range(2, 401, 2):
            exact = float(Fraction(math.comb(c, c // 2), 1 << c)) <= math.e / (math.pi * math.sqrt(c))
            assert central_binomial_bound_check(c) is exact

    def test_holds_up_to_200(self):
        assert all(central_binomial_bound_check(c) for c in range(2, 201, 2))

    def test_rejects_odd(self):
        with pytest.raises(ValueError):
            central_binomial_bound_check(3)


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

    def test_rejects_r1(self):
        with pytest.raises(ValueError):
            case2_tail_bound_check(1)


class TestVandermonde:
    @pytest.mark.parametrize("m", [2, 4, 60])
    def test_identity(self, m):
        assert vandermonde_identity_check(m)

    def test_m4_by_hand(self):
        assert 1 + 4 + 1 == math.comb(4, 2)

    def test_rejects_odd(self):
        with pytest.raises(ValueError):
            vandermonde_identity_check(5)


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

    def test_rows_match_closed_form_up_to_3000(self):
        rows = family_ratio_scan(4, 3000)
        assert [row.m for row in rows] == list(range(4, 3001, 2))
        for row in rows:
            total = count_family_closed_form(row.m).total
            assert row.d == total
            assert row.f == Fraction(total, 1 << row.m)
            assert row.f_sqrt_m == float(row.f) * math.sqrt(row.m)
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
