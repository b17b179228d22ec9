import contextlib
import hashlib
import io
import json
import os
import random
import re
import subprocess
import sys
from decimal import Decimal
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

import trailfrac
from trailfrac import (
    Multigraph,
    count_family_closed_form,
    gen_family,
    gen_random_multigraph,
    parse_graph,
    serialize_graph,
)
from trailfrac import cli
from trailfrac.cli import main

from helpers import int_digit_limit, two_disjoint_two_cycles

# sha256 of the output of `trailfrac bounds --m 1024` (JSON).
GOLDEN_BOUNDS_M1024_SHA256 = "d2bab7b24c5b889ff0f97071e86024abcf077d2283ee319a64c1a2f8651dc54c"


@pytest.fixture()
def family4_file(tmp_path):
    path = tmp_path / "family4.txt"
    path.write_text(serialize_graph(gen_family(4)))
    return str(path)


@pytest.fixture()
def path3_file(tmp_path):
    path = tmp_path / "path3.txt"
    path.write_text("4 3\n0 1\n1 2\n2 3\n")
    return str(path)


def run(capsys, argv):
    code = main(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def run_at_default_digit_limit(capsys, argv):
    """``run`` under the interpreter's default 4300-digit int-to-str limit,
    checking that the call leaves the limit as it found it."""
    with int_digit_limit(4300):
        result = run(capsys, argv)
        # main lifts the limit only until it returns.
        assert sys.get_int_max_str_digits() == 4300
    return result


class TestGen:
    def test_family(self, capsys):
        code, out, _ = run(capsys, ["gen", "family", "--m", "4"])
        assert code == 0
        assert parse_graph(out) == gen_family(4)

    def test_path(self, capsys):
        code, out, _ = run(capsys, ["gen", "path", "--k", "2"])
        assert code == 0
        assert out == "3 2\n0 1\n1 2\n"

    def test_random_reproducible(self, capsys):
        code, first, _ = run(capsys, ["gen", "random", "--n", "4", "--m", "9", "--seed", "5"])
        assert code == 0
        code, second, _ = run(capsys, ["gen", "random", "--n", "4", "--m", "9", "--seed", "5"])
        assert code == 0
        assert first == second
        g = parse_graph(first)
        assert g.vertex_count == 4 and g.m == 9

    def test_out_file(self, capsys, tmp_path):
        target = tmp_path / "g.txt"
        code, out, _ = run(capsys, ["gen", "star", "--k", "3", "--out", str(target)])
        assert code == 0
        assert out == ""
        assert target.read_text() == "4 3\n0 1\n0 2\n0 3\n"

    def test_invalid_size_exits_1(self, capsys):
        code, _, err = run(capsys, ["gen", "family", "--m", "3"])
        assert code == 1
        assert "error:" in err

    def test_unwritable_out_exits_1(self, capsys, tmp_path):
        target = tmp_path / "missing" / "g.txt"
        code, out, err = run(capsys, ["gen", "family", "--m", "4", "--out", str(target)])
        assert (code, out) == (1, "")
        assert err.startswith("error: ") and str(target) in err


class TestCheck:
    def test_disconnected_subset_text(self, capsys, path3_file):
        code, out, _ = run(
            capsys, ["check", path3_file, "--subset", "0,2", "--witness", "--format", "text"]
        )
        assert code == 0
        assert out.splitlines()[0] == "not a trail: disconnected"

    def test_disconnected_subset_json(self, capsys, path3_file):
        code, out, _ = run(capsys, ["check", path3_file, "--subset", "0,2"])
        assert code == 0
        payload = json.loads(out)
        assert payload["is_trail"] is False
        assert payload["failure_reason"] == "disconnected"

    def test_trail_with_witness_and_oracle(self, capsys, family4_file):
        code, out, _ = run(
            capsys, ["check", family4_file, "--subset", "0,1,2,3", "--witness", "--oracle"]
        )
        assert code == 0
        payload = json.loads(out)
        assert payload["is_trail"] is True
        assert payload["witness"] == [0, 2, 1, 3]
        assert payload["oracle_is_trail"] is True
        assert payload["oracle_agrees"] is True

    def test_empty_subset(self, capsys, path3_file):
        code, out, _ = run(capsys, ["check", path3_file, "--subset", ""])
        assert code == 0
        assert json.loads(out)["failure_reason"] == "empty_subset"

    def test_bad_subset_index_exits_1(self, capsys, path3_file):
        code, _, err = run(capsys, ["check", path3_file, "--subset", "0,9"])
        assert code == 1
        assert "out of range" in err

    def test_missing_file_exits_1(self, capsys):
        code, _, err = run(capsys, ["check", "/nonexistent/g.txt", "--subset", "0"])
        assert code == 1
        assert "error:" in err

    @pytest.mark.parametrize(
        "subset, err",
        [
            ("0,9", "edge index 9 out of range for m=3"),
            ("3", "edge index 3 out of range for m=3"),
            ("1,1", "duplicate edge index 1"),
            # Input order names the offender: the range fault at position 1, the duplicate at position 2.
            ("1,9,1", "edge index 9 out of range for m=3"),
            ("1,2,1,9", "duplicate edge index 1"),
            ("0,1.5", "invalid --subset value '0,1.5': expected comma-separated unsigned decimal integers"),
            ("-1", "invalid --subset value '-1': expected comma-separated unsigned decimal integers"),
            ("0,", "invalid --subset value '0,': expected comma-separated unsigned decimal integers"),
            ("0,,1", "invalid --subset value '0,,1': expected comma-separated unsigned decimal integers"),
        ],
    )
    def test_subset_error_goldens(self, capsys, path3_file, subset, err):
        assert run(capsys, ["check", path3_file, "--subset", subset]) == (1, "", f"error: {err}\n")

    @pytest.mark.parametrize("subset", ["", " "])
    def test_empty_subset_golden(self, capsys, path3_file, subset):
        expected = '{\n  "m": 3,\n  "subset": [],\n  "is_trail": false,\n  "failure_reason": "empty_subset"\n}\n'
        assert run(capsys, ["check", path3_file, "--subset", subset]) == (0, expected, "")

    @pytest.mark.parametrize("subset", ["1_0", "+0", "0,+1", "\u0660", "\uff10", "\u0661,\u0662"])
    def test_integer_aliases_exit_1(self, capsys, path3_file, subset):
        code, out, err = run(capsys, ["check", path3_file, "--subset", subset])
        assert (code, out) == (1, "")
        assert "invalid --subset value" in err

    @pytest.mark.parametrize("limit", [4300, 0], ids=["default-limit", "lifted-limit"])
    def test_numerals_past_4300_characters_exit_1(self, capsys, tmp_path, path3_file, limit):
        longest, overlong = "0" * 4299 + "1", "0" * 4300 + "1"
        line = f"0 {overlong}"
        bad_file = tmp_path / "overlong.txt"
        bad_file.write_text(f"3 1\n{line}\n")
        with int_digit_limit(limit):
            code, out, err = run(capsys, ["check", path3_file, "--subset", f"0,{longest}"])
            assert (code, json.loads(out)["subset"], err) == (0, [0, 1], "")
            assert run(capsys, ["check", path3_file, "--subset", f"0,{overlong}"]) == (
                1, "", f"error: invalid --subset value '0,{overlong}': expected comma-separated unsigned decimal integers\n"
            )
            assert run(capsys, ["check", str(bad_file), "--subset", "0"]) == (
                1, "", f"error: edge line 0: malformed {line!r}, expected two unsigned decimal integers\n"
            )


class TestCount:
    def test_family4_json(self, capsys, family4_file):
        code, out, _ = run(capsys, ["count", family4_file])
        assert code == 0
        payload = json.loads(out)
        assert payload["d"] == 13
        assert payload["f"] == "13/16"
        assert payload["f_decimal"] == 0.8125
        assert list(payload) == ["m", "d", "f", "f_decimal", "elapsed"]

    def test_over_state_budget_exits_1(self, capsys, tmp_path, monkeypatch):
        path = tmp_path / "big.txt"
        path.write_text(serialize_graph(gen_random_multigraph(8, 40, seed=2)))
        code, out, _ = run(capsys, ["count", str(path)])
        assert code == 0
        assert json.loads(out)["m"] == 40
        monkeypatch.setattr(trailfrac.counting, "EXACT_MAX_STATES", 50)
        code, out, err = run(capsys, ["count", str(path)])
        assert code == 1
        assert out == ""
        assert "live frontier states" in err and "estimate" in err

    @pytest.mark.parametrize("fmt", ["json", "text", "csv"])
    def test_count_past_int_digit_limit(self, capsys, tmp_path, fmt):
        # d has 4 815 digits, past the interpreter's default int-to-str limit of 4 300.
        path = tmp_path / "family16000.txt"
        path.write_text(serialize_graph(gen_family(16_000)))
        code, out, err = run_at_default_digit_limit(capsys, ["count", str(path), "--format", fmt])
        assert (code, err) == (0, "")
        if fmt == "json":
            d = int(json.loads(out, parse_int=Decimal)["d"])
        elif fmt == "text":
            d = int(Decimal(out.splitlines()[1].removeprefix("d: ")))
        else:
            d = int(Decimal(out.splitlines()[1].split(",")[1]))
        assert d == count_family_closed_form(16_000).total

    def test_unwritable_out_exits_1(self, capsys, family4_file, tmp_path):
        target = tmp_path / "missing" / "count.json"
        code, out, err = run(capsys, ["count", family4_file, "--out", str(target)])
        assert (code, out) == (1, "")
        assert err.startswith("error: ") and str(target) in err


class TestEstimate:
    def test_fields_and_determinism(self, capsys, family4_file):
        argv = ["estimate", family4_file, "--samples", "20000", "--seed", "11"]
        code, first, _ = run(capsys, argv)
        assert code == 0
        code, second, _ = run(capsys, argv)
        assert first == second
        payload = json.loads(first)
        assert list(payload) == ["estimate", "ci_low", "ci_high", "confidence", "samples", "seed"]
        assert abs(payload["estimate"] - 13 / 16) < 0.02
        assert payload["ci_low"] <= payload["estimate"] <= payload["ci_high"]
        assert payload["seed"] == 11

    def test_zero_estimate_inside_interval(self, capsys, tmp_path):
        path = tmp_path / "edgeless.txt"
        path.write_text("3 0\n")
        code, out, _ = run(capsys, ["estimate", str(path), "--samples", "10", "--seed", "1"])
        assert code == 0
        payload = json.loads(out)
        assert payload["estimate"] == 0.0
        assert payload["ci_low"] == 0.0 <= payload["estimate"] <= payload["ci_high"]

    def test_invalid_confidence_exits_1(self, capsys, family4_file):
        code, _, err = run(
            capsys,
            ["estimate", family4_file, "--samples", "10", "--seed", "1", "--confidence", "2"],
        )
        assert code == 1
        assert "confidence" in err

    def test_negative_seed_exits_1(self, capsys, family4_file):
        code, _, err = run(capsys, ["estimate", family4_file, "--samples", "10", "--seed", "-1"])
        assert code == 1
        assert "seed must lie in [0, 2**64)" in err


class TestEis:
    def test_star(self, capsys, tmp_path):
        path = tmp_path / "star.txt"
        path.write_text("5 4\n0 1\n0 2\n0 3\n0 4\n")
        code, out, _ = run(capsys, ["eis", str(path)])
        assert code == 0
        payload = json.loads(out)
        assert payload["vertices"] == [1, 2, 3, 0]
        assert payload["fresh_edges"] == [0, 1, 2, 3]
        assert payload["length"] == 4
        assert payload["non_isolated_vertices"] == 5
        assert payload["length_bound_ok"] is True


class TestScan:
    def test_csv_default(self, capsys):
        code, out, _ = run(capsys, ["scan", "--m-min", "6", "--m-max", "24"])
        assert code == 0
        lines = out.strip().split("\n")
        assert lines[0] == "m,d,f,f_sqrt_m,theorem_bound"
        assert len(lines) == 11
        m6 = lines[1].split(",")
        assert m6[0] == "6" and m6[1] == "49"
        assert float(m6[2]) == pytest.approx(0.765625)

    def test_json(self, capsys):
        code, out, _ = run(capsys, ["scan", "--m-min", "6", "--m-max", "24", "--format", "json"])
        rows = json.loads(out)
        assert len(rows) == 10
        assert rows[0]["f_exact"] == "49/64"

    def test_bad_range_exits_1(self, capsys):
        code, _, err = run(capsys, ["scan", "--m-min", "5", "--m-max", "9"])
        assert code == 1
        assert "even" in err

    @pytest.mark.parametrize("fmt", ["json", "text", "csv"])
    def test_past_int_digit_limit(self, capsys, fmt):
        # d has 4 514 or 4 515 digits, past the default int-to-str limit of 4 300.
        argv = ["scan", "--m-min", "15000", "--m-max", "15004", "--format", fmt]
        code, out, err = run_at_default_digit_limit(capsys, argv)
        assert (code, err) == (0, "")
        if fmt == "json":
            rows = json.loads(out, parse_int=Decimal)
            ds = [int(row["d"]) for row in rows]
            for row, d in zip(rows, ds):
                assert row["f_exact"] == f"{Decimal(d)}/{Decimal(1 << int(row['m']))}"
        elif fmt == "text":
            ds = [int(Decimal(line.split()[1])) for line in out.splitlines()[1:]]
        else:
            ds = [int(Decimal(line.split(",")[1])) for line in out.splitlines()[1:]]
        assert ds == [count_family_closed_form(m).total for m in (15000, 15002, 15004)]


class TestBounds:
    def test_m16(self, capsys):
        code, out, _ = run(capsys, ["bounds", "--m", "16"])
        assert code == 0
        payload = json.loads(out)
        assert payload["theorem_value"] == 0.5
        assert payload["k"] == 4.0
        assert payload["r"] == 4.0
        # C(16,8)-1 + 2*C(16,7) = 12869 + 22880
        assert payload["family_f"] == "35749/65536"
        assert payload["check_stirling_sandwich"] is True
        assert payload["check_central_binomial"] is True
        assert payload["check_balance_window"] is True
        assert payload["check_case2_tail"] is True
        assert payload["check_vandermonde"] is True

    def test_golden_m1024(self, capsys):
        # Recorded while every central binomial came from a fresh math.comb.
        code, out, _ = run(capsys, ["bounds", "--m", "1024"])
        assert code == 0
        assert hashlib.sha256(out.encode()).hexdigest() == GOLDEN_BOUNDS_M1024_SHA256
        f = Fraction(count_family_closed_form(1024).total, 1 << 1024)
        assert json.loads(out)["family_f"] == f"{f.numerator}/{f.denominator}"

    @pytest.mark.parametrize("fmt", ["json", "text", "csv"])
    def test_past_int_digit_limit(self, capsys, fmt):
        # family_f's numerator has 4 815 digits, past the default int-to-str limit of 4 300.
        code, out, err = run_at_default_digit_limit(capsys, ["bounds", "--m", "16000", "--format", fmt])
        assert (code, err) == (0, "")
        f = Fraction(count_family_closed_form(16_000).total, 1 << 16_000)
        if fmt == "text":
            assert f"family f: {float(f):.10g}\n" in out
            return
        if fmt == "json":
            family_f = json.loads(out)["family_f"]
        else:
            header, row = out.splitlines()
            family_f = row.split(",")[header.split(",").index("family_f")]
        numerator, denominator = family_f.split("/")
        assert Fraction(int(Decimal(numerator)), int(Decimal(denominator))) == f


# Outputs of renderers no other test reads, recorded before the edge-list,
# witness-walk and estimate-report code was cut down, and before the count
# and estimate payloads and the exact-fraction strings moved into ``cli``.
# The graph files are written by the ``golden_files`` fixture.
GOLDEN_RENDERINGS = [
    (
        ["estimate", "random5", "--samples", "5000", "--seed", "7", "--format", "text"],
        "estimate: 0.1376\n95% CI: [0.12832951333857903, 0.1474269170311984]\nsamples: 5000\nseed: 7\n",
    ),
    (
        ["estimate", "random5", "--samples", "5000", "--seed", "7", "--format", "csv"],
        "estimate,ci_low,ci_high,confidence,samples,seed\n0.1376,0.12832951333857903,0.1474269170311984,0.95,5000,7\n",
    ),
    (
        ["eis", "random8", "--format", "text"],
        "vertices: 6 7 1 0 3 2 4\nfresh edges: 2 9 0 5 4 3 8\nlength: 7 (non-isolated vertices: 8, bound ok)\n",
    ),
    (
        ["check", "family4", "--subset", "0,1,2,3", "--witness", "--oracle", "--format", "text"],
        "trail\nwitness: 0 2 1 3\noracle: trail (agrees)\n",
    ),
    (
        ["check", "path3", "--subset", "0,2", "--witness", "--oracle", "--format", "text"],
        "not a trail: disconnected\noracle: not a trail (agrees)\n",
    ),
    (
        ["check", "family4", "--subset", "0,2,3", "--witness", "--format", "csv"],
        "m,subset,is_trail,failure_reason,witness\n4,0 2 3,true,,2 0 3\n",
    ),
    (
        ["check", "path3", "--subset", "0,2", "--witness", "--format", "csv"],
        "m,subset,is_trail,failure_reason,witness\n3,0 2,false,disconnected,\n",
    ),
    (["gen", "cycle", "--k", "5"], "5 5\n0 1\n1 2\n2 3\n3 4\n4 0\n"),
    (
        ["bounds", "--m", "16", "--format", "text"],
        "m: 16\nsqrt(log2(m)/m): 0.500000\nproof parameters: k = 4.0000, r = 4.0000\n"
        "family f: 0.5454864502 (exact 35749/65536)\nfamily f * sqrt(m): 2.181946\n"
        "check stirling_sandwich: ok\ncheck central_binomial: ok\ncheck balance_window: ok\n"
        "check case2_tail: ok\ncheck vandermonde: ok\n",
    ),
    (
        # Odd m: the family columns are empty.
        ["bounds", "--m", "15", "--format", "csv"],
        "m,theorem_value,k,r,family_f,family_f_decimal,ratio,check_stirling_sandwich,"
        "check_central_binomial,check_balance_window,check_case2_tail,check_vandermonde\n"
        "15,0.5103522048943925,3.8393703721472323,3.9068905956085187,,,,true,true,true,true,true\n",
    ),
    (
        ["scan", "--m-min", "4", "--m-max", "8", "--format", "json"],
        '[\n  {\n    "m": 4,\n    "d": 13,\n    "f": 0.8125,\n    "f_exact": "13/16",\n'
        '    "f_sqrt_m": 1.625,\n    "theorem_bound": 0.7071067811865476\n  },\n'
        '  {\n    "m": 6,\n    "d": 49,\n    "f": 0.765625,\n    "f_exact": "49/64",\n'
        '    "f_sqrt_m": 1.8753905843183705,\n    "theorem_bound": 0.6563741946889182\n  },\n'
        '  {\n    "m": 8,\n    "d": 181,\n    "f": 0.70703125,\n    "f_exact": "181/256",\n'
        '    "f_sqrt_m": 1.9997863655432049,\n    "theorem_bound": 0.6123724356957945\n  }\n]\n',
    ),
    (
        ["scan", "--m-min", "4", "--m-max", "8", "--format", "text"],
        "    m                        d              f    f*sqrt(m)      bound\n"
        "    4                       13   0.8125000000     1.625000   0.707107\n"
        "    6                       49   0.7656250000     1.875391   0.656374\n"
        "    8                      181   0.7070312500     1.999786   0.612372\n",
    ),
]


@pytest.fixture()
def golden_files(tmp_path, family4_file, path3_file):
    files = {"family4": family4_file, "path3": path3_file}
    for name, g in [("random5", gen_random_multigraph(5, 12, 3)), ("random8", gen_random_multigraph(8, 20, 2))]:
        path = tmp_path / f"{name}.txt"
        path.write_text(serialize_graph(g))
        files[name] = str(path)
    return files


@pytest.mark.parametrize("argv, expected", GOLDEN_RENDERINGS, ids=["-".join(argv) for argv, _ in GOLDEN_RENDERINGS])
def test_golden_renderings(capsys, golden_files, argv, expected):
    code, out, err = run(capsys, [golden_files.get(arg, arg) for arg in argv])
    assert (code, out, err) == (0, expected, "")


@pytest.mark.parametrize(
    "fmt, expected",
    [
        ("text", "m: 4\nd: 13\nf: 13/16 = 0.8125\nelapsed: <elapsed>s\n"),
        ("csv", "m,d,f,f_decimal,elapsed\n4,13,13/16,0.8125,<elapsed>\n"),
    ],
)
def test_count_renderings_apart_from_elapsed(capsys, family4_file, fmt, expected):
    code, out, err = run(capsys, ["count", family4_file, "--format", fmt])
    masked = re.sub(r"(?<=elapsed: )[0-9.]+(?=s\n)|(?<=,)[0-9.e-]+(?=\n\Z)", "<elapsed>", out)
    assert (code, masked, err) == (0, expected, "")


# JSON scalars, among them values the encoder writes in a special way:
# ints past the 4300-digit int-to-str limit, non-finite and signed-zero
# floats, and strings with escapes and non-ASCII characters.
json_scalars = (
    st.none()
    | st.booleans()
    | st.integers()
    # built inside the strategy: a repr of the strategy itself would hit the digit limit
    | st.integers(4_300, 4_400).map(lambda digits: 7 - 10**digits)
    | st.sampled_from([2**63, -(2**63), 2**64])
    | st.floats(allow_nan=True, allow_infinity=True)
    | st.sampled_from([float("nan"), float("inf"), float("-inf"), -0.0, 0.0, 1e-320, 5e300])
    | st.text()
    | st.sampled_from(["", "é\u00e9\U0001f600", "tab\there", '"quoted" \\ back', "\u2028\x00"])
)
json_values = st.recursive(
    json_scalars,
    lambda children: st.lists(children, max_size=6) | st.dictionaries(st.text(max_size=8), children, max_size=6),
    max_leaves=40,
)


class TestJsonRendering:
    """``cli._render`` writes the bytes of ``json.dumps(payload, indent=2)``."""

    @staticmethod
    def render_and_dump(payload) -> tuple[str, str]:
        """``cli._render`` and ``json.dumps(payload, indent=2)``, under the lifted digit limit ``main`` renders in."""
        with int_digit_limit(0):
            return cli._render(payload, "json", None), json.dumps(payload, indent=2) + "\n"

    @settings(max_examples=200, deadline=None)
    @given(json_values)
    def test_matches_json_dumps(self, payload):
        rendered, dumped = self.render_and_dump(payload)
        assert rendered == dumped

    @pytest.mark.parametrize(
        "payload",
        [
            [],
            {},
            [[]],
            {"a": {}},
            [{}, [], [[]], {"b": []}],
            {"subset": list(range(50)), "witness": None, "nested": [[1, 2], [], {"x": [None, True]}]},
            [10**5000, float("nan"), -0.0, "ü"],
            (1, (2, 3), [4]),
            5,
            "top",
            None,
        ],
    )
    def test_edge_shapes(self, payload):
        rendered, dumped = self.render_and_dump(payload)
        assert rendered == dumped


def walk_graph(seed: int, n: int, length: int, closed: bool) -> list[tuple[int, int]]:
    """The edges of a seeded random walk of ``length`` steps on ``n`` vertices, shuffled."""
    rng = random.Random(seed)
    v = rng.randrange(n)
    start, edges = v, []
    for i in range(length):
        if closed and i == length - 1:
            w = start
        else:
            w = v
            # The step before the closing one avoids the start, so no edge is a self-loop.
            while w == v or (closed and i == length - 2 and w == start):
                w = rng.randrange(n)
        edges.append((v, w))
        v = w
    rng.shuffle(edges)
    return edges


# sha256 of the stdout of JSON `eis` and `check --witness` calls on seeded
# 10^4-edge graphs, recorded before greedy_eis kept its incidence in arrays,
# before the walk decided the connectivity of balanced subsets and before
# JSON lists were written by the C encoder.
GOLDEN_LARGE_SHA256 = {
    "eis-random": "3f594f04b1866cf1d8d60a5ec04c021cee0e756d18fa8016f6df6ee8fea6ea8d",
    "check-closed-walk": "39d77ba1eafe960f01fd7a10887bcf52e359105fd355a0b76de4eba5eebe8d60",
    "check-closed-walk-plus-edge": "7e4ea59c9452721dc4519b78aa0ad791da6088b4db7159fbe0835519f172ab3f",
    "check-open-walk": "1aba3d53df2e287a876ab079c093e743dd59815896a0a26a1f3ec6bd960064b9",
}


def test_golden_large_outputs(capsys, tmp_path):
    m = 10**4
    closed = walk_graph(1, 500, m, closed=True)
    graphs = {
        "random": gen_random_multigraph(2000, m, 1),
        "closed": Multigraph(502, tuple(closed) + ((500, 501),)),
        "open": Multigraph(500, tuple(walk_graph(2, 500, m, closed=False))),
    }
    paths = {}
    for name, g in graphs.items():
        paths[name] = tmp_path / f"{name}.txt"
        paths[name].write_text(serialize_graph(g))
    calls = {
        "eis-random": ["eis", paths["random"]],
        "check-closed-walk": ["check", paths["closed"], "--subset", ",".join(map(str, range(m))), "--witness"],
        "check-closed-walk-plus-edge": ["check", paths["closed"], "--subset", ",".join(map(str, range(m + 1))), "--witness"],
        "check-open-walk": ["check", paths["open"], "--subset", ",".join(map(str, range(m))), "--witness"],
    }
    for name, argv in calls.items():
        code, out, err = run(capsys, [str(arg) for arg in argv])
        assert (code, err) == (0, "")
        assert hashlib.sha256(out.encode()).hexdigest() == GOLDEN_LARGE_SHA256[name], name


class TestDispatch:
    def test_unknown_command_exits_2(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["frobnicate"])
        assert exc.value.code == 2

    def test_unknown_flag_exits_2(self, capsys, family4_file):
        with pytest.raises(SystemExit) as exc:
            main(["count", family4_file, "--frobnicate"])
        assert exc.value.code == 2

    def test_byte_identical_reruns(self, capsys, path3_file):
        argv = ["check", path3_file, "--subset", "1,2", "--witness", "--oracle"]
        _, first, _ = run(capsys, argv)
        _, second, _ = run(capsys, argv)
        assert first == second

    def test_check_disjoint_cycles_disconnected(self, capsys, tmp_path):
        path = tmp_path / "cycles.txt"
        path.write_text(serialize_graph(two_disjoint_two_cycles()))
        code, out, _ = run(capsys, ["check", str(path), "--subset", "0,1,2,3", "--format", "text"])
        assert code == 0
        assert out == "not a trail: disconnected\n"


def _aliases(token: str) -> list[str]:
    """Spellings that int() reads as the same number as an ASCII digit run."""
    return [
        "+" + token,
        token[:1] + "_" + token[1:] if len(token) > 1 else "0_" + token,
        token.translate(str.maketrans("0123456789", "\u0660\u0661\u0662\u0663\u0664\u0665\u0666\u0667\u0668\u0669")),
        token.translate(str.maketrans("0123456789", "\uff10\uff11\uff12\uff13\uff14\uff15\uff16\uff17\uff18\uff19")),
    ]


@st.composite
def check_calls(draw):
    """A graph file, a ``check`` argv for it, and the exit code it must give.

    At most one fault is planted: an integer alias in the file or in
    ``--subset`` (exit 1), a broken file line (exit 1), or an unknown flag
    (exit 2, which argparse reports before the file is read).
    """
    n = draw(st.integers(2, 5))
    pair = st.tuples(st.integers(0, n - 1), st.integers(0, n - 1)).filter(lambda p: p[0] != p[1])
    edges = draw(st.lists(pair, max_size=6))
    lines = serialize_graph(trailfrac.Multigraph(n, tuple(edges))).splitlines()
    subset = [str(j) for j in sorted(draw(st.sets(st.integers(0, len(edges) - 1))))] if edges else []
    fault = draw(st.sampled_from(["none", "file-alias", "subset-alias", "file-line", "flag"]))
    code, extra, bad_line = 0, [], None
    if fault == "file-alias":
        k = draw(st.integers(0, len(lines) - 1))
        tokens = lines[k].split()
        i = draw(st.integers(0, len(tokens) - 1))
        tokens[i] = draw(st.sampled_from(_aliases(tokens[i])))
        lines[k] = bad_line = " ".join(tokens)
        code = 1
    elif fault == "subset-alias" and subset:
        i = draw(st.integers(0, len(subset) - 1))
        subset[i] = draw(st.sampled_from(_aliases(subset[i])))
        code = 1
    elif fault == "file-line":
        k = draw(st.integers(0, len(lines) - 1))
        lines[k] = bad_line = lines[k] + draw(st.sampled_from([" 0", "x", " -1", ".0"]))
        code = 1
    elif fault == "flag":
        extra = ["--no-such-flag"]
        code = 2
    text = "\n".join(draw(st.sampled_from(["# comment", ""])) + "\n" + ln if draw(st.booleans()) else ln for ln in lines)
    return text + "\n", ["--subset", ",".join(subset), *extra], code, bad_line


class TestInputErrors:
    @settings(max_examples=200, deadline=None)
    @given(check_calls())
    def test_exit_codes_on_malformed_input(self, tmp_path_factory, case):
        text, argv, want, bad_line = case
        path = tmp_path_factory.getbasetemp() / "fuzz.txt"
        path.write_text(text, encoding="utf-8")
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            try:
                code = main(["check", str(path), *argv])
            except SystemExit as exc:
                code = exc.code
        assert code == want
        if code == 0:
            assert json.loads(out.getvalue())["m"] == parse_graph(text).m
        else:
            assert out.getvalue() == ""
        if code == 1:
            assert err.getvalue().startswith("error: ")
        if bad_line is not None:
            assert repr(bad_line) in err.getvalue()


class TestImports:
    # Modules a command other than estimate must not load.
    HEAVY = {"dataclasses", "inspect", "statistics", "numpy"}

    @staticmethod
    def added_modules(code: str, *flags: str) -> list[str]:
        """Modules that ``code``, run in a fresh interpreter with ``flags``, adds to those ``site`` loaded."""
        src = str(Path(trailfrac.__file__).resolve().parents[1])
        env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
        script = (
            "import sys\n"
            "before = set(sys.modules)\n"
            f"{code}\n"
            "added = sorted(set(sys.modules) - before)\n"
            "print(' '.join(added))\n"
        )
        out = subprocess.run([sys.executable, *flags, "-c", script], env=env, capture_output=True, text=True, check=True)
        return out.stdout.split()

    def test_bare_import_loads_no_submodule(self):
        added = self.added_modules("import trailfrac")
        assert "trailfrac" in added
        assert not [m for m in added if m.startswith("trailfrac.")]
        assert not self.HEAVY & set(added)
        added = self.added_modules("import trailfrac\ntrailfrac.counting.count_trails_exact")
        assert {m for m in added if m.startswith("trailfrac.")} == {"trailfrac.counting", "trailfrac.graphs"}

    def test_only_estimate_loads_numpy(self, tmp_path, family4_file):
        calls = [
            (["count", family4_file], {"counting"}),
            (["check", family4_file, "--subset", "0,2", "--witness"], {"trails"}),
            (["eis", family4_file], {"eis"}),
            (["bounds", "--m", "64"], {"bounds"}),
            (["scan", "--m-min", "4", "--m-max", "40"], {"bounds"}),
            (["gen", "family", "--m", "4"], {"generators"}),
            (["estimate", family4_file, "--samples", "100", "--seed", "1"], {"counting"}),
        ]
        for argv, used in calls:
            argv = argv + ["--out", str(tmp_path / "out.txt")]
            added = set(self.added_modules(f"from trailfrac.cli import main\nassert main({argv!r}) == 0"))
            own = {m for m in added if m.split(".")[0] == "trailfrac"}
            assert own == {"trailfrac", "trailfrac.cli", "trailfrac.graphs"} | {f"trailfrac.{m}" for m in used}, argv
            if argv[0] == "estimate":
                assert "numpy" in added
            else:
                assert not self.HEAVY & added, argv

    # Each module a command does not run, with the commands that must not load it.
    UNUSED = [
        ("typing", {"count", "check", "eis", "bounds"}),
        # pathlib loads urllib.parse and ipaddress.
        ("pathlib", {"count", "check", "eis", "bounds", "scan", "gen"}),
        # The exact fractions are written from m and d; only scan's CSV loads decimal.
        ("fractions", {"count", "check", "eis", "bounds", "gen"}),
        ("decimal", {"count", "check", "eis", "bounds", "gen"}),
    ]

    def test_commands_load_no_unused_module(self, tmp_path, family4_file):
        # -S keeps site, and any .pth file it runs, from loading a module first.
        # estimate is left out: numpy cannot be imported under -S.
        calls = [
            ["count", family4_file],
            ["check", family4_file, "--subset", "0,2", "--witness"],
            ["eis", family4_file],
            ["bounds", "--m", "64"],
            ["scan", "--m-min", "4", "--m-max", "40"],
            ["gen", "family", "--m", "4"],
        ]
        for argv in calls:
            code = f"from trailfrac.cli import main\nassert main({argv + ['--out', str(tmp_path / 'out.txt')]!r}) == 0"
            added = set(self.added_modules(code, "-S"))
            assert not {module for module, commands in self.UNUSED if argv[0] in commands} & added, argv
