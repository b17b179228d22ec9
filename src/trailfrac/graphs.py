"""Directed multigraph core: edge lists, edge subsets, parsing and the imbalance primitive.

Vertices are dense integer indices ``0..n-1``. An edge is identified by its
position in the edge list, never by its endpoint pair, so parallel edges stay
distinguishable and an edge subset is an iterable of positions, which
``_edge_indices`` checks and sorts. Self-loops are forbidden. All types here
are immutable and all operations are pure, so values can be shared freely
across workers.

``parse_graph`` checks the edge lines in bulk, and reruns the same token and
endpoint rules (``_decimal_ints``, ``_endpoint_fault``) line by line only to
name the first bad line; ``_edge_indices`` does the same for edge indices.
``trails`` and ``counting`` read ``Multigraph.edges`` as given; ``trails``
also uses ``_edge_indices`` and ``_imbalances``, and ``eis`` uses
``_check_vertices``. Every value type derives from ``Record``.
"""

from __future__ import annotations

import operator
from collections import namedtuple
from collections.abc import Iterable, Iterator
from itertools import chain


class Record:
    """Base of the package's immutable value types: a frozen dataclass without ``dataclasses``.

    A subclass declares its fields as class annotations, in order; a class
    attribute of the same name is that field's default. When the subclass is
    created, one ``__init__(self, <field>, ..., <field>=<default>, ...)`` is
    compiled for it, about 0.09 ms per class, so the interpreter binds the
    arguments and raises its usual ``TypeError``; the body stores the fields
    in ``__dict__``, in field order, and runs ``__post_init__``. Instances
    equal only instances of the same type with equal fields, hash and repr by
    their fields, refuse assignment and deletion, and pickle and copy through
    their ``__dict__``, which holds exactly the fields in field order.

    ``dataclasses`` is not used because importing it loads ``inspect``,
    ``ast`` and ``dis``, and each decorated class compiles its methods at
    import: together about 25 ms of the start-up of every command.
    """

    def __init_subclass__(cls) -> None:
        super().__init_subclass__()
        fields = cls.__dict__.get("__annotations__", {})
        # The defaults are the globals of the compiled code, so ``name=name`` binds each to its value.
        namespace = {name: cls.__dict__[name] for name in fields if name in cls.__dict__}
        params = ", ".join(f"{name}={name}" if name in namespace else name for name in fields)
        values = ", ".join(f"{name!r}: {name}" for name in fields)
        exec(f"def __init__(self, {params}):\n self.__dict__.update({{{values}}})\n self.__post_init__()", namespace)
        cls.__init__ = namespace["__init__"]
        cls.__init__.__qualname__ = f"{cls.__qualname__}.__init__"

    def __post_init__(self) -> None:
        """Validate or normalize the fields; the default accepts them as given."""

    def __eq__(self, other: object) -> bool:
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self.__dict__ == other.__dict__

    def __hash__(self) -> int:
        return hash(tuple(self.__dict__.values()))

    def __repr__(self) -> str:
        fields = ", ".join(f"{name}={value!r}" for name, value in self.__dict__.items())
        return f"{type(self).__qualname__}({fields})"

    def __setattr__(self, name: str, value: object) -> None:
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name: str) -> None:
        raise AttributeError(f"cannot delete field {name!r}")


Edge = namedtuple("Edge", "source target")


class GraphFormatError(ValueError):
    """An edge-list document that does not follow the text format."""


class Multigraph(Record):
    """Immutable directed multigraph with positional edge identity."""

    vertex_count: int
    edges: tuple[Edge, ...]

    def __post_init__(self) -> None:
        [n] = _check_ints(vertex_count=self.vertex_count)
        if n < 0:
            raise ValueError("vertex_count must be nonnegative")
        object.__setattr__(self, "vertex_count", n)
        edges = self.edges
        if type(edges) is not tuple or set(map(type, edges)) - {Edge}:
            edges = tuple(Edge(*e) for e in edges)
            object.__setattr__(self, "edges", edges)
        # Endpoints of other types, bool and float among them, go through the full check below.
        if set(map(type, chain.from_iterable(edges))) <= {int} and all(
            0 <= s < n and 0 <= t < n and s != t for s, t in edges
        ):
            return
        # Find the first offending edge for the message.
        for i, (s, t) in enumerate(edges):
            if fault := _endpoint_fault(s, t, n):
                raise ValueError(f"edge {i}: {fault}")

    @property
    def m(self) -> int:
        """Number of edges."""
        return len(self.edges)


def _is_int(value: object) -> bool:
    """Whether ``value`` is an integer: an ``int``, or a type ``operator.index`` takes, such as numpy's.

    ``bool`` is not one, although it subclasses ``int``: ``True`` would alias 1.
    """
    try:
        operator.index(value)
    except TypeError:
        return False
    return not isinstance(value, bool)


def _check_ints(**values: object) -> list[int]:
    """The keyword values as ``int``s, or ``ValueError`` naming the first that is not an integer by ``_is_int``.

    A numpy integer comes back as an ``int``, so shifts and products of it cannot wrap at 64 bits.
    """
    for name, value in values.items():
        if not _is_int(value):
            raise ValueError(f"{name} must be an integer, got {value!r}")
    return list(map(operator.index, values.values()))


def _endpoint_fault(s: int, t: int, n: int) -> str | None:
    """Why ``s -> t`` is not an edge of a graph on vertices ``0..n-1``, or None if it is."""
    for v in (s, t):
        if not _is_int(v):
            return f"endpoint {v!r} is not an integer"
    if not (0 <= s < n and 0 <= t < n):
        return f"endpoint ({s}, {t}) out of range for n={n}"
    if s == t:
        return f"self-loop at vertex {s} is forbidden"
    return None


def _check_vertices(vertices: Iterable[int], n: int) -> None:
    """``ValueError`` unless each of ``vertices`` is an integer vertex of a graph on ``0..n-1``."""
    for v in vertices:
        if type(v) is not int and not _is_int(v):
            raise ValueError(f"vertex {v!r} is not an integer")
        if not 0 <= v < n:
            raise ValueError(f"vertex {v} out of range for n={n}")


def _edge_indices(g: Multigraph, subset: Iterable[int]) -> list[int]:
    """The edge positions in ``subset`` as ``int``s, ascending; ``ValueError`` naming the first bad one.

    The iterable is read once. Its indices are checked in bulk; if that
    fails, the same rules rerun one index at a time, in input order, to name
    the first that is not an integer, lies outside ``0..m-1`` or repeats. A
    numpy integer passes that rerun and comes back as an ``int``.
    """
    idx = list(subset)
    m = g.m
    if set(map(type, idx)) <= {int}:
        ordered = sorted(idx)
        if not ordered or (0 <= ordered[0] and ordered[-1] < m and len(set(ordered)) == len(ordered)):
            return ordered
    seen: set[int] = set()
    for i in idx:
        if not _is_int(i):
            raise ValueError(f"edge index {i!r} is not an integer")
        j = operator.index(i)
        if not 0 <= j < m:
            raise ValueError(f"edge index {i} out of range for m={m}")
        if j in seen:
            raise ValueError(f"duplicate edge index {i}")
        seen.add(j)
    return sorted(seen)


_MAX_DIGITS = 4300  # longest numeral read: sys.int_info.default_max_str_digits


def _decimal_ints(tokens: list[str]) -> Iterator[int]:
    """The tokens as integers, converted lazily; ``ValueError`` unless each is a run of at most 4300 ASCII digits.

    ``int`` alone also takes signs, underscores, surrounding blanks and
    non-ASCII digits, so ``+0``, ``1_0`` or full-width and Arabic-Indic digits
    would silently alias an index. The joined tokens are tested once, at C
    level, and their lengths only when they are longer together than the cap,
    so a caller who lifts the interpreter's int/str digit limit reads the
    same numerals; ``int`` still raises on an empty token.
    """
    digits = "".join(tokens)
    if digits and not (digits.isascii() and digits.isdigit()):
        raise ValueError("a token is not a run of ASCII digits")
    if len(digits) > _MAX_DIGITS and max(map(len, tokens)) > _MAX_DIGITS:
        raise ValueError(f"a token is longer than {_MAX_DIGITS} digits")
    return map(int, tokens)


def parse_graph(text: str) -> Multigraph:
    """Parse the edge-list text format.

    Format: lines starting with ``#`` (and blank lines) are ignored; the first
    remaining line is the header ``n m``; exactly ``m`` lines ``src dst`` with
    0-based indices written as ASCII decimal digits follow. Edge index = order
    of appearance.

    The edge lines are checked and converted in bulk (``_bulk_edges``); if
    that or the graph's own check fails, some single line fails the same
    checks, which rerun one line at a time to name it.
    """
    lines = list(filter(None, map(str.strip, text.splitlines())))
    if "#" in text:
        lines = [ln for ln in lines if not ln.startswith("#")]
    if not lines:
        raise GraphFormatError("missing header line 'n m'")
    header = lines[0].split()
    if len(header) != 2:
        raise GraphFormatError(f"malformed header {lines[0]!r}: expected 'n m'")
    try:
        n, m = _decimal_ints(header)
    except ValueError:
        raise GraphFormatError(f"malformed header {lines[0]!r}: expected two unsigned decimal integers") from None
    body = lines[1:]
    if len(body) != m:
        raise GraphFormatError(f"expected {m} edge lines, found {len(body)}")
    try:
        return Multigraph(n, _bulk_edges(body))
    except ValueError:
        for k, ln in enumerate(body):
            try:
                ((s, t),) = _bulk_edges([ln])
            except ValueError as exc:
                raise GraphFormatError(f"edge line {k}: malformed {ln!r}, {exc}") from None
            if fault := _endpoint_fault(s, t, n):
                raise GraphFormatError(f"edge line {k}: {fault}") from None
        raise


def _bulk_edges(body: list[str]) -> tuple[Edge, ...]:
    """The edges of the ``src dst`` lines, by C-level string and int operations.

    ``ValueError`` unless every line holds exactly two tokens and every token
    is a run of at most ``_MAX_DIGITS`` ASCII digits; its message is the tail
    of the parse error. Endpoints are left to the ``Multigraph`` check.
    """
    if not body:
        return ()
    if set(map(len, map(str.split, body))) != {2}:
        raise ValueError("expected 'src dst'")
    try:
        ends = _decimal_ints(" ".join(body).split())
        # tuple.__new__(Edge, pair) is what Edge(s, t) runs, without the Python-level call.
        return tuple(map(tuple.__new__, [Edge] * len(body), zip(ends, ends)))
    except ValueError:
        raise ValueError("expected two unsigned decimal integers") from None


def serialize_graph(g: Multigraph) -> str:
    """Render a graph in the edge-list text format; inverse of :func:`parse_graph`."""
    lines = [f"{g.vertex_count} {g.m}"]
    lines.extend(f"{e.source} {e.target}" for e in g.edges)
    return "\n".join(lines) + "\n"


def _imbalances(edges: tuple[Edge, ...], idx: Iterable[int]) -> dict[int, int]:
    """Out-minus-in imbalance for every vertex touched by the listed edges."""
    imb: dict[int, int] = {}
    for j in idx:
        s, t = edges[j]
        imb[s] = imb.get(s, 0) + 1
        imb[t] = imb.get(t, 0) - 1
    return imb
