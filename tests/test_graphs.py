import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from collections import namedtuple

from trailfrac import (
    GraphFormatError,
    Multigraph,
    gen_cycle,
    gen_family,
    gen_path,
    gen_random_multigraph,
    gen_star,
    greedy_eis,
    parse_graph,
    serialize_graph,
)
from trailfrac.graphs import _edge_indices, _imbalances

from helpers import int_digit_limit, mask_members, reference_parse_graph


@st.composite
def multigraphs(draw, min_n=1, max_n=6, max_m=8):
    n = draw(st.integers(min_n, max_n))
    if n < 2:
        return Multigraph(n, ())
    m = draw(st.integers(0, max_m))
    edges = []
    for _ in range(m):
        s = draw(st.integers(0, n - 1))
        t = draw(st.integers(0, n - 2))
        edges.append((s, t + 1 if t >= s else t))
    return Multigraph(n, tuple(edges))


# A tuple subclass, which Multigraph stores as a plain tuple.
Pair = namedtuple("Pair", "source target")


def _int_pairs(g: Multigraph) -> bool:
    """Whether ``g.edges`` is a tuple of plain ``(source, target)`` tuples of ``int``."""
    return type(g.edges) is tuple and all(
        type(e) is tuple and len(e) == 2 and set(map(type, e)) == {int} for e in g.edges
    )


@st.composite
def graph_and_subset(draw):
    g = draw(multigraphs())
    mask = draw(st.integers(0, (1 << g.m) - 1))
    return g, mask_members(mask)


class TestParse:
    def test_two_cycle(self):
        g = parse_graph("2 2\n0 1\n1 0")
        assert g == Multigraph(2, ((0, 1), (1, 0)))

    def test_path(self):
        g = parse_graph("3 2\n0 1\n1 2")
        assert g == Multigraph(3, ((0, 1), (1, 2)))

    def test_self_loop_rejected(self):
        with pytest.raises(GraphFormatError, match="self-loop"):
            parse_graph("2 1\n0 0")

    def test_comments_and_blank_lines_ignored(self):
        text = "# corpus graph\n\n3 2\n# forward edges\n0 1\n\n1 2\n"
        assert parse_graph(text) == Multigraph(3, ((0, 1), (1, 2)))

    def test_edge_order_is_index_order(self):
        g = parse_graph("3 3\n1 2\n0 1\n0 2")
        assert g.edges == ((1, 2), (0, 1), (0, 2))

    @pytest.mark.parametrize(
        "text",
        [
            "",
            "# only a comment",
            "2",
            "2 1 7",
            "x y",
            "-1 0",
            "2 2\n0 1",
            "2 1\n0 1\n1 0",
            "2 1\n0 1 9",
            "2 1\n0 q",
            "2 1\n0 2",
            "2 1\n-1 0",
        ],
    )
    def test_malformed_documents(self, text):
        with pytest.raises(GraphFormatError):
            parse_graph(text)

    @pytest.mark.parametrize(
        "text",
        [
            "1_0 0",
            "+2 0",
            "2 +0",
            "\u0662 \u0660",
            "\uff12 \uff10",
            "2 1\n0 1_0",
            "2 1\n+0 1",
            "2 1\n\u0660 \u0661",
            "2 1\n\uff10 \uff11",
            "2 1\n0 \u00b9",
        ],
        ids=["underscore", "plus-n", "plus-m", "arabic-indic", "full-width", "edge-underscore", "edge-plus",
             "edge-arabic-indic", "edge-full-width", "superscript"],
    )
    def test_integer_aliases_rejected(self, text):
        # int() reads each of these tokens as a small number.
        with pytest.raises(GraphFormatError, match="unsigned decimal integers"):
            parse_graph(text)

    def test_huge_numeral_rejected(self):
        with pytest.raises(GraphFormatError, match="malformed header"):
            parse_graph("9" * 5000 + " 0\n")


# Numerals of 4300 characters, the longest read, and of 4301.
LONGEST, OVERLONG = "0" * 4299 + "1", "0" * 4300 + "1"


class TestNumeralCap:
    """Numerals past 4300 characters are refused whatever the interpreter's digit limit."""

    @pytest.fixture(params=[4300, 0], ids=["default-limit", "lifted-limit"], autouse=True)
    def limit(self, request):
        with int_digit_limit(request.param):
            yield

    def test_header(self):
        assert parse_graph(f"{LONGEST} 0\n").vertex_count == 1
        text = f"{OVERLONG} 0"
        with pytest.raises(GraphFormatError) as info:
            parse_graph(text + "\n")
        assert str(info.value) == f"malformed header {text!r}: expected two unsigned decimal integers"

    def test_edge_lines(self):
        assert parse_graph(f"3 2\n0 1\n{LONGEST} 2\n").edges == ((0, 1), (1, 2))
        line = f"{OVERLONG} 2"
        with pytest.raises(GraphFormatError) as info:
            parse_graph(f"3 2\n0 1\n{line}\n")
        assert str(info.value) == f"edge line 1: malformed {line!r}, expected two unsigned decimal integers"


# Tokens that are not a vertex index: aliases int() would accept, junk, and
# numerals past the interpreter's 4300-digit limit for str-to-int conversion.
ODD_TOKENS = ["+0", "1_0", "\uff11", "\u0661", "\u00b9", "-1", "x", "007", "9" * 4300, "9" * 5000]
GAPS = [" ", "\t", "  ", " \t "]
NOISE_LINES = ["", "   ", "# comment", "#0 1", "\t# indented", "\x0c"]


@st.composite
def edge_list_documents(draw):
    """Edge-list texts, about half of them well formed.

    Malformed ones mix lines of one or three tokens, tokens out of range or not
    runs of ASCII digits, self-loops and wrong edge counts; both kinds get
    comments, blank lines, tabs, padding and CRLF endings.
    """
    n = draw(st.integers(2, 9))
    clean = draw(st.booleans())
    vertex = st.integers(0, n - 1).map(str)
    if clean:
        pairs = st.tuples(vertex, vertex).filter(lambda p: p[0] != p[1]).map(list)
        rows = draw(st.lists(pairs, max_size=8))
    else:
        token = st.one_of(vertex, vertex, vertex, st.integers(n, n + 2).map(str), st.sampled_from(ODD_TOKENS))
        width = st.sampled_from([2, 2, 2, 1, 3])
        rows = draw(st.lists(width.flatmap(lambda w: st.lists(token, min_size=w, max_size=w)), max_size=8))
    pad = st.sampled_from(["", " ", "\t"])
    lines = [draw(pad) + draw(st.sampled_from(GAPS)).join(row) + draw(pad) for row in rows]
    m = len(rows) if clean else len(rows) + draw(st.sampled_from([0, 0, 0, -1, 1]))
    lines.insert(0, f"{n} {m}")
    for _ in range(draw(st.integers(0, 3))):
        lines.insert(draw(st.integers(0, len(lines))), draw(st.sampled_from(NOISE_LINES)))
    return draw(st.sampled_from(["\n", "\r\n"])).join(lines) + draw(st.sampled_from(["", "\n"]))


def parse_outcome(parse, text):
    """The graph, or the type and message of the exception raised."""
    try:
        return parse(text)
    except Exception as exc:  # noqa: BLE001 - the type is part of the comparison
        return type(exc), str(exc)


class TestParseOracle:
    """Bulk parsing against the per-line parser it replaced: same graphs, same errors."""

    @settings(max_examples=400, deadline=None)
    @given(edge_list_documents())
    def test_matches_per_line_parser(self, text):
        assert parse_outcome(parse_graph, text) == parse_outcome(reference_parse_graph, text)

    @pytest.mark.parametrize(
        "text",
        [
            "3 2\n0 1 2\n1",
            "3 2\n1\n0 1 2",
            "3 2\n0\t1\n1 \t 2",
            "# c\n\n3 2\n# x\n0 1\n\n   \n1 2\n",
            "3 1\n+0 1",
            "3 1\n1_0 1",
            "3 1\n\uff10 1",
            "3 2\n0 1\n\u0661 2",
            "3 1\n0 3",
            "3 2\n0 1\n2 7",
            "3 1\n1 1",
            "3 2\n0 3\n1 1",
            "3 1\n0 " + "9" * 5000,
            "3 1\n" + "1" * 4300 + " 0",
            "3 0\n",
            "3 0\n0 1",
        ],
        ids=["three-then-one", "one-then-three", "tabs", "comments-blanks", "plus", "underscore",
             "full-width", "arabic-indic", "out-of-range", "out-of-range-second", "self-loop",
             "first-error-wins", "5000-digits", "4300-digits", "no-edges", "extra-edge"],
    )
    def test_named_cases(self, text):
        assert parse_outcome(parse_graph, text) == parse_outcome(reference_parse_graph, text)

    def test_large_documents(self):
        # Well formed, then one bad line near the end: the bulk path's failure
        # still names the line the per-line parser names.
        rows = [f"{i % 997} {(i * 7 + 1) % 997}" for i in range(20_000) if i % 997 != (i * 7 + 1) % 997]
        text = f"997 {len(rows)}\n" + "\n".join(rows)
        assert parse_graph(text) == reference_parse_graph(text)
        bad = text[: text.rindex("\n")] + "\n5 5"
        assert parse_outcome(parse_graph, bad) == parse_outcome(reference_parse_graph, bad)
        assert "self-loop at vertex 5" in parse_outcome(parse_graph, bad)[1]


class TestSerialize:
    def test_single_edge(self):
        assert serialize_graph(Multigraph(2, ((0, 1),))) == "2 1\n0 1\n"

    def test_empty_graph(self):
        assert serialize_graph(Multigraph(1, ())) == "1 0\n"

    def test_family_round_trip(self):
        g = gen_family(4)
        assert parse_graph(serialize_graph(g)) == g

    @given(multigraphs())
    def test_round_trip_identity(self, g):
        assert parse_graph(serialize_graph(g)) == g


class TestMultigraphInvariants:
    def test_rejects_self_loop(self):
        with pytest.raises(ValueError, match="self-loop"):
            Multigraph(3, ((0, 0),))

    def test_rejects_out_of_range(self):
        with pytest.raises(ValueError, match="out of range"):
            Multigraph(2, ((0, 2),))

    def test_rejects_negative_vertex_count(self):
        with pytest.raises(ValueError):
            Multigraph(-1, ())

    @pytest.mark.parametrize(
        "edges,message",
        [
            (((0, 1), (1, 5), (2, 2)), "edge 1: endpoint (1, 5) out of range for n=3"),
            ([(0, 1), (2, 2), (0, 7)], "edge 1: self-loop at vertex 2 is forbidden"),
            ([[0, 1], [-1, 2]], "edge 1: endpoint (-1, 2) out of range for n=3"),
            ([(0, 1), (0, 1.5)], "edge 1: endpoint 1.5 is not an integer"),
            ([(0, 1.0)], "edge 0: endpoint 1.0 is not an integer"),
            ([(0, True)], "edge 0: endpoint True is not an integer"),
            ([(0, 1), (1,), (0, 7)], "edge 1: expected a (source, target) pair, got 1 members"),
            (((0, 1, 2), (0, 1)), "edge 0: expected a (source, target) pair, got 3 members"),
        ],
    )
    def test_names_first_offending_edge(self, edges, message):
        with pytest.raises(ValueError) as info:
            Multigraph(3, edges)
        assert str(info.value) == message

    @pytest.mark.parametrize("member", [5, None, object()], ids=["int", "None", "object"])
    @pytest.mark.parametrize("container", [list, tuple, lambda es: (e for e in es)], ids=["list", "tuple", "generator"])
    def test_non_pair_edge_named(self, member, container):
        with pytest.raises(ValueError) as info:
            Multigraph(3, container([(0, 1), member, (0, 7)]))
        assert str(info.value) == f"edge 1: expected a (source, target) pair, got {member!r}"

    @pytest.mark.parametrize("n", [2.0, True])
    def test_rejects_non_integer_vertex_count(self, n):
        with pytest.raises(ValueError) as info:
            Multigraph(n, [(0, 1)])
        assert str(info.value) == f"vertex_count must be an integer, got {n!r}"

    def test_numpy_integers_accepted(self):
        g = Multigraph(np.int64(3), [(np.int64(0), np.uint8(1)), (1, np.int32(2))])
        assert g == Multigraph(3, [(0, 1), (1, 2)])

    def test_numpy_vertex_count_stored_as_int(self):
        g = Multigraph(np.int64(3), [(0, 1), (1, 2)])
        assert type(g.vertex_count) is int
        assert repr(gen_path(np.int64(2))) == repr(gen_path(2))
        # eis reads vertex_count.bit_length(), which numpy integers lack
        assert greedy_eis(g) == greedy_eis(gen_path(np.int64(2))) == greedy_eis(gen_path(2))

    def test_edges_become_an_edge_tuple(self):
        edges = ((0, 1), (1, 2))
        assert Multigraph(3, edges).edges is edges
        for given in ([(0, 1), (1, 2)], ((0, 1), Pair(1, 2)), [[0, 1], [1, 2]], np.array(edges)):
            g = Multigraph(3, given)
            assert g.edges == edges and _int_pairs(g)

    def test_numpy_endpoints_stored_as_int(self):
        g = Multigraph(3, np.array([[0, 1], [1, 2]]))
        assert _int_pairs(g)
        assert repr(g) == "Multigraph(vertex_count=3, edges=((0, 1), (1, 2)))"
        assert set(map(type, greedy_eis(g).vertices)) == {int}
        # the packed heap key of greedy_eis is (degree << 63) | v here, past a C long
        huge = Multigraph(2**62 + 5, np.array([[0, 1], [1, 2]]))
        assert greedy_eis(huge) == greedy_eis(gen_path(2))


class TestEdgeForm:
    """Every construction route stores each edge as a plain pair of ``int``s."""

    @given(multigraphs(max_m=12), st.data())
    def test_multigraph_routes(self, g, data):
        n, pairs = g.vertex_count, list(g.edges)
        forms = (tuple, list, lambda e: Pair(*e), lambda e: tuple(map(np.int64, e)), np.array)
        mixed = [data.draw(st.sampled_from(forms))(e) for e in pairs]
        routes = [
            parse_graph(serialize_graph(g)),
            Multigraph(n, pairs),
            Multigraph(n, list(map(list, pairs))),
            Multigraph(n, mixed),
            Multigraph(np.int64(n), np.array(pairs, dtype=np.int64).reshape(-1, 2)),
        ]
        for h in routes:
            assert h == g and _int_pairs(h)
            assert parse_graph(serialize_graph(h)) == h

    @given(st.integers(0, 5), st.lists(st.tuples(st.integers(-2, 6), st.integers(-2, 6)), max_size=8))
    def test_bulk_and_per_edge_checks_agree(self, n, pairs):
        """A tuple of int pairs, lists, a generator and numpy rows of the same edges build equal graphs or fail alike."""
        forms = (
            tuple(pairs), list(map(list, pairs)), (p for p in pairs), np.array(pairs, dtype=np.int64).reshape(-1, 2)
        )
        outcomes = []
        for edges in forms:
            try:
                outcomes.append(Multigraph(n, edges))
            except ValueError as exc:
                outcomes.append(str(exc))
        assert all(x == outcomes[0] for x in outcomes)
        if isinstance(outcomes[0], Multigraph):
            assert all(map(_int_pairs, outcomes))

    @given(st.integers(1, 30), st.integers(2, 8), st.integers(0, 2**64 - 1))
    def test_generators(self, k, n, seed):
        for g in (
            gen_family(2 * k), gen_path(k), gen_cycle(k + 1), gen_star(k),
            gen_random_multigraph(n, k, seed), gen_random_multigraph(np.int64(n), np.int64(k), seed),
        ):
            assert _int_pairs(g)
            assert parse_graph(serialize_graph(g)) == g


class TestEdgeIndices:
    def test_duplicate_indices_rejected(self):
        with pytest.raises(ValueError, match="duplicate"):
            _edge_indices(gen_path(4), [1, 1])

    def test_out_of_range_rejected(self):
        with pytest.raises(ValueError, match="out of range"):
            _edge_indices(gen_path(4), [4])

    def test_no_edges(self):
        g = Multigraph(0, ())
        assert _edge_indices(g, []) == []
        with pytest.raises(ValueError, match="^edge index 0 out of range for m=0$"):
            _edge_indices(g, [0])

    def test_numpy_indices_come_back_as_ints(self):
        for subset in (np.array([2, 0]), [np.uint8(2), np.int64(0)]):
            indices = _edge_indices(gen_path(3), subset)
            assert indices == [0, 2] and set(map(type, indices)) == {int}

    @given(st.sets(st.integers(0, 299)), st.integers(0, 70))
    def test_indices_sorted(self, chosen, spare):
        g = Multigraph(2, [(0, 1)] * (max(chosen, default=-1) + 1 + spare))
        assert _edge_indices(g, sorted(chosen, reverse=True)) == sorted(chosen)
        assert mask_members(sum(1 << i for i in chosen)) == sorted(chosen)


class TestImbalance:
    def test_path(self):
        assert _imbalances(gen_path(2).edges, [0, 1]) == {0: 1, 1: 0, 2: -1}

    def test_two_parallel_edges(self):
        g = Multigraph(2, ((0, 1), (0, 1)))
        assert _imbalances(g.edges, [0, 1]) == {0: 2, 1: -2}

    def test_empty_subset_all_zero(self):
        assert _imbalances(gen_family(4).edges, []) == {}

    @given(graph_and_subset())
    def test_sums_to_zero(self, gs):
        g, subset = gs
        assert sum(_imbalances(g.edges, subset).values()) == 0
