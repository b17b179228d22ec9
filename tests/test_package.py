"""The package surface: lazily loaded public names and the immutable value types."""

import copy
import importlib
import inspect
import math
import pickle
from fractions import Fraction

import pytest

import trailfrac
from trailfrac import (
    BoundReport,
    Case2TailCheck,
    CountReport,
    EisSequence,
    EstimateReport,
    FailureReason,
    FamilyCount,
    FamilyRatioRow,
    Multigraph,
    StirlingBounds,
    TrailVerdict,
)
from trailfrac.graphs import Record


class TestPublicNames:
    def test_each_name_is_its_submodule_object(self):
        for module, names in trailfrac._EXPORTS.items():
            sub = importlib.import_module(f"trailfrac.{module}")
            for name in names:
                assert getattr(trailfrac, name) is getattr(sub, name)
        assert sorted(trailfrac.__all__) == sorted(n for names in trailfrac._EXPORTS.values() for n in names)

    def test_public_names_are_pinned(self):
        assert sorted(trailfrac.__all__) == [
            "BoundReport", "Case2TailCheck", "CountReport", "EXACT_MAX_STATES", "EisSequence",
            "EstimateReport", "FailureReason", "FamilyCount", "FamilyRatioRow", "GraphFormatError",
            "Multigraph", "ORACLE_MAX_EDGES", "StirlingBounds", "TrailVerdict",
            "balance_window_probability", "bound_report", "case2_tail_bound_check",
            "count_family_closed_form", "count_trails_exact", "estimate_trail_fraction",
            "family_ratio_csv", "family_ratio_scan", "gen_cycle", "gen_family", "gen_path",
            "gen_random_multigraph", "gen_star", "greedy_eis", "is_trail", "necessary_balance_condition",
            "oracle_is_trail", "parse_graph", "proof_ingredient_summary", "serialize_graph",
            "stirling_bounds", "theorem_upper_bound", "verify_eis",
            "wilson_interval",
        ]

    @pytest.mark.parametrize(
        "name",
        [
            "Degree", "DegreeProfile", "degree", "degree_profile", "imbalance_profile", "incident_edges",
            "witness_trail", "central_binomial_bound_check", "EdgeSubset", "SubsetLike", "subset_mask",
            "mask_indices", "vandermonde_identity_check", "Edge",
        ],
    )
    def test_deleted_names_do_not_resolve(self, name):
        with pytest.raises(AttributeError):
            getattr(trailfrac, name)
        for module in trailfrac._EXPORTS:
            assert not hasattr(importlib.import_module(f"trailfrac.{module}"), name)

    def test_star_import_binds_every_name(self):
        namespace: dict = {}
        exec("from trailfrac import *", namespace)
        for name in trailfrac.__all__:
            assert namespace[name] is getattr(trailfrac, name)

    def test_unknown_name_raises(self):
        with pytest.raises(AttributeError, match="no_such_name"):
            trailfrac.no_such_name
        with pytest.raises(ImportError):
            exec("from trailfrac import no_such_name", {})

    def test_dir_lists_names_and_submodules(self):
        listed = dir(trailfrac)
        assert set(trailfrac.__all__) <= set(listed)
        assert {"counting", "graphs", "bounds", "__version__"} <= set(listed)

    def test_submodule_attribute_resolves(self):
        assert trailfrac.counting is importlib.import_module("trailfrac.counting")


def _instances():
    """One instance of each value type (two of TrailVerdict and BoundReport)."""
    return [
        Multigraph(3, ((0, 1), (1, 2))),
        TrailVerdict(True, (0, 1)),
        TrailVerdict(False, None, FailureReason.DISCONNECTED),
        CountReport(4, 9),
        EstimateReport(0.5, 0.25, 0.75, 0.95, 100, 7),
        FamilyCount(4, 5, 4, 9),
        EisSequence((0, 1), (0, 2), (1, 1)),
        StirlingBounds(1.5, 2.5),
        Case2TailCheck(0.5, 1.0, True),
        FamilyRatioRow(4, 9, 0.5625, 1.125, 0.7071067811865476),
        BoundReport(5, 0.6),
        BoundReport(4, 0.7071067811865476, 9, 1.125),
    ]


# repr of each of _instances(), in the format of the frozen dataclasses these types once were.
GOLDEN_REPRS = [
    "Multigraph(vertex_count=3, edges=((0, 1), (1, 2)))",
    "TrailVerdict(is_trail=True, witness=(0, 1), failure_reason=None)",
    "TrailVerdict(is_trail=False, witness=None, failure_reason=<FailureReason.DISCONNECTED: 'disconnected'>)",
    "CountReport(m=4, d=9)",
    "EstimateReport(estimate=0.5, ci_low=0.25, ci_high=0.75, confidence=0.95, samples=100, seed=7)",
    "FamilyCount(m=4, even_count=5, odd_count=4, total=9)",
    "EisSequence(vertices=(0, 1), fresh_edges=(0, 2), eliminated_per_step=(1, 1))",
    "StirlingBounds(log_lower=1.5, log_upper=2.5)",
    "Case2TailCheck(exact_tail_bound=0.5, paper_bound=1.0, holds=True)",
    "FamilyRatioRow(m=4, d=9, f=0.5625, f_sqrt_m=1.125, theorem_bound=0.7071067811865476)",
    "BoundReport(m=5, theorem_value=0.6, family_d=None, ratio=None)",
    "BoundReport(m=4, theorem_value=0.7071067811865476, family_d=9, ratio=1.125)",
]


class Halved(Record):
    """A value type with its own ``__init__``, which ``Record`` keeps: it stores ``size`` halved."""

    size: int
    label: str = "x"

    def __init__(self, size, label="x"):
        self.__dict__.update(size=size // 2, label=label)


class TestValueTypes:
    def test_golden_reprs(self):
        assert [repr(x) for x in _instances()] == GOLDEN_REPRS

    def test_equal_instances_hash_equal(self):
        for a, b in zip(_instances(), _instances()):
            assert a is not b
            assert a == b and not a != b
            assert hash(a) == hash(b)
        assert Multigraph(3, [[0, 1], (1, 2)]) == Multigraph(3, ((0, 1), (1, 2)))
        assert hash(Multigraph(3, [[0, 1]])) == hash(Multigraph(3, ((0, 1),)))

    def test_field_changes_break_equality(self):
        assert StirlingBounds(5, 3) != StirlingBounds(5, 4)
        assert BoundReport(5, 0.6) != BoundReport(5, 0.6, ratio=1.0)

    def test_different_types_never_equal(self):
        xs = _instances()
        for a in xs:
            for b in xs:
                if type(a) is not type(b):
                    assert a != b and not a == b
        # Same field values, different types.
        assert StirlingBounds(5, 3) != BoundReport(5, 3)
        assert StirlingBounds(5, 3) != (5, 3)

    def test_same_fields_different_types_never_equal(self):
        class A(Record):
            x: int

        class B(Record):
            x: int

        assert A(1) == A(1) and A(1) != B(1) and not A(1) == B(1)

    def test_fields_cannot_be_assigned_or_deleted(self):
        for x in _instances():
            for name in list(vars(x)):
                with pytest.raises(AttributeError):
                    setattr(x, name, None)
                with pytest.raises(AttributeError):
                    delattr(x, name)
            with pytest.raises(AttributeError):
                x.extra = 1

    @pytest.mark.parametrize("protocol", range(pickle.HIGHEST_PROTOCOL + 1))
    def test_pickle_round_trip(self, protocol):
        for x in _instances():
            y = pickle.loads(pickle.dumps(x, protocol))
            assert type(y) is type(x) and y == x and repr(y) == repr(x)

    def test_copy_round_trip(self):
        for x in _instances():
            for y in (copy.copy(x), copy.deepcopy(x)):
                assert type(y) is type(x) and y == x and hash(y) == hash(x)

    def test_defaults_and_keywords(self):
        assert TrailVerdict(True) == TrailVerdict(is_trail=True, witness=None, failure_reason=None)
        assert TrailVerdict(False, failure_reason=FailureReason.EMPTY_SUBSET).witness is None
        report = BoundReport(theorem_value=0.6, m=5)
        assert report.family_d is None and report.family_f is None and report.ratio is None
        assert CountReport(d=9, m=4) == CountReport(4, 9)
        assert StirlingBounds(log_upper=3, log_lower=5) == StirlingBounds(5, 3)

    def test_signature_lists_fields_and_defaults(self):
        want = {
            Multigraph: "(vertex_count, edges)",
            TrailVerdict: "(is_trail, witness=None, failure_reason=None)",
            CountReport: "(m, d)",
            EstimateReport: "(estimate, ci_low, ci_high, confidence, samples, seed)",
            FamilyCount: "(m, even_count, odd_count, total)",
            EisSequence: "(vertices, fresh_edges, eliminated_per_step)",
            StirlingBounds: "(log_lower, log_upper)",
            Case2TailCheck: "(exact_tail_bound, paper_bound, holds)",
            FamilyRatioRow: "(m, d, f, f_sqrt_m, theorem_bound)",
            BoundReport: "(m, theorem_value, family_d=None, ratio=None)",
        }
        assert {type(x) for x in _instances()} == set(want)
        for kind, signature in want.items():
            assert str(inspect.signature(kind)) == signature, kind

    def test_subclass_keeps_its_own_init(self):
        x = Halved(7, label="a")
        assert vars(x) == {"size": 3, "label": "a"} and repr(x) == "Halved(size=3, label='a')"
        assert str(inspect.signature(Halved)) == "(size, label='x')"
        assert x == Halved(6, "a") and hash(x) == hash(Halved(6, "a")) and x != Halved(8, "a")
        with pytest.raises(AttributeError):
            x.size = 1
        with pytest.raises(AttributeError):
            del x.label
        for protocol in range(pickle.HIGHEST_PROTOCOL + 1):
            y = pickle.loads(pickle.dumps(x, protocol))
            assert type(y) is Halved and vars(y) == vars(x)
        for y in (copy.copy(x), copy.deepcopy(x)):
            assert type(y) is Halved and y == x and hash(y) == hash(x)

    @pytest.mark.parametrize("m", [2, 3, 4, 15, 16, 1024, 1025, 15_999, 16_000])
    def test_fractions_are_built_from_m_and_d(self, m):
        # d of the path with m edges, or of the family, which bound_report covers for even m.
        d = m * (m + 1) // 2 if m % 2 else trailfrac.count_family_closed_form(m).total
        count = trailfrac.count_trails_exact(trailfrac.gen_path(m) if m % 2 else trailfrac.gen_family(m))
        assert (count.m, count.d) == (m, d) and count.f == Fraction(d, 2**m)
        report = trailfrac.bound_report(m)
        if m % 2:
            assert report.family_d is report.family_f is None
        else:
            f = report.family_f
            assert report.family_d == d and (f.numerator, f.denominator) == (d, 2**m)
            assert report.ratio == float(Fraction(d, 2**m)) * math.sqrt(m)

    def test_positional_keyword_and_mixed_calls_agree(self):
        for x in _instances():
            kind, values = type(x), vars(x)
            first, *rest = values
            calls = [
                kind(*values.values()),
                kind(**values),
                kind(values[first], **{name: values[name] for name in reversed(rest)}),
            ]
            for y in calls:
                assert y == x and hash(y) == hash(x) and repr(y) == repr(x)

    @pytest.mark.parametrize(
        "call",
        [
            lambda: StirlingBounds(1),
            lambda: StirlingBounds(1, 2, 3),
            lambda: StirlingBounds(1, 2, log_upper=2),
            lambda: StirlingBounds(log_lower=1, size=2),
            lambda: BoundReport(5),
            lambda: BoundReport(1, 2, 3, 4, 5),
            lambda: TrailVerdict(),
            lambda: TrailVerdict(True, bogus=1),
        ],
    )
    def test_bad_arguments_raise_type_error(self, call):
        with pytest.raises(TypeError):
            call()

    @pytest.mark.parametrize(
        "call, message",
        [
            (lambda: Multigraph(-1, ()), "vertex_count must be nonnegative"),
            (lambda: Multigraph(2, [(0, 0)]), "edge 0: self-loop at vertex 0 is forbidden"),
            (lambda: Multigraph(2, [(0, 1), (0, 2)]), "edge 1: endpoint (0, 2) out of range for n=2"),
            (lambda: Multigraph(2, [(-1, 1)]), "edge 0: endpoint (-1, 1) out of range for n=2"),
        ],
    )
    def test_validation_errors_unchanged(self, call, message):
        with pytest.raises(ValueError) as info:
            call()
        assert str(info.value) == message
