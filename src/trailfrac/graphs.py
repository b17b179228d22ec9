"""Directed multigraph core: edge lists, parsing, and degree primitives.

Vertices are dense integer indices ``0..n-1``. An edge is identified by its
position in the edge list, never by its endpoint pair, so parallel edges stay
distinguishable and edge subsets are sets of positions. Self-loops are
forbidden. All types here are immutable and all operations are pure, so
values can be shared freely across workers.

``trails`` and ``counting`` build on its ``_edge_arrays``, ``trails`` also on
its ``_imbalances``. Each degree helper decodes its subset once, in time
linear in ``m``. Every value type of the package derives from its ``Record``.
"""

from __future__ import annotations

from typing import Iterable, NamedTuple, Union


class Record:
    """Base of the package's immutable value types: a frozen dataclass without ``dataclasses``.

    A subclass declares its fields as class annotations, in order; a class
    attribute of the same name is that field's default. Instances take their
    fields by position or keyword and then run ``__post_init__``. They equal
    only instances of the same type with equal fields, hash and repr by their
    fields, refuse assignment and deletion, and pickle and copy through their
    ``__dict__``, which holds exactly the fields in field order.

    ``dataclasses`` is not used because importing it loads ``inspect``,
    ``ast`` and ``dis``, and each decorated class compiles its methods at
    import: together about 25 ms of the start-up of every command.
    """

    _fields: tuple[str, ...] = ()
    _defaults: dict[str, object] = {}

    def __init_subclass__(cls) -> None:
        super().__init_subclass__()
        cls._fields = tuple(cls.__dict__.get("__annotations__", ()))
        cls._defaults = {name: cls.__dict__[name] for name in cls._fields if name in cls.__dict__}

    def __init__(self, *args, **kwargs) -> None:
        if kwargs or len(args) != len(self._fields):
            args = self._bind(args, kwargs)
        self.__dict__.update(zip(self._fields, args))
        self.__post_init__()

    def _bind(self, args: tuple, kwargs: dict) -> list:
        """The field values in order from positional, keyword and default values."""
        fields, kind = self._fields, type(self).__name__
        if len(args) > len(fields):
            raise TypeError(f"{kind}() takes {len(fields)} arguments but {len(args)} were given")
        positional = dict(zip(fields, args))
        for name in kwargs:
            if name not in fields:
                raise TypeError(f"{kind}() got an unexpected keyword argument {name!r}")
            if name in positional:
                raise TypeError(f"{kind}() got multiple values for argument {name!r}")
        values = {**self._defaults, **positional, **kwargs}
        for name in fields:
            if name not in values:
                raise TypeError(f"{kind}() missing argument {name!r}")
        return [values[name] for name in fields]

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


class Edge(NamedTuple):
    source: int
    target: int


class GraphFormatError(ValueError):
    """An edge-list document that does not follow the text format."""


class Multigraph(Record):
    """Immutable directed multigraph with positional edge identity."""

    vertex_count: int
    edges: tuple[Edge, ...]

    def __post_init__(self) -> None:
        if self.vertex_count < 0:
            raise ValueError("vertex_count must be nonnegative")
        edges = self.edges
        if type(edges) is not tuple or set(map(type, edges)) - {Edge}:
            edges = tuple(Edge(*e) for e in edges)
            object.__setattr__(self, "edges", edges)
        n = self.vertex_count
        if all(0 <= s < n and 0 <= t < n and s != t for s, t in edges):
            return
        # Find the first offending edge for the message.
        for i, (s, t) in enumerate(edges):
            if not (0 <= s < n) or not (0 <= t < n):
                raise ValueError(f"edge {i}: endpoint ({s}, {t}) out of range for n={n}")
            if s == t:
                raise ValueError(f"edge {i}: self-loop at vertex {s} is forbidden")

    @property
    def m(self) -> int:
        """Number of edges."""
        return len(self.edges)


class EdgeSubset(Record):
    """A subset of edge positions of a width-``m`` edge list, stored as a bit mask.

    Bit ``i`` of ``mask`` is set iff edge ``i`` is a member.
    """

    mask: int
    width: int

    def __post_init__(self) -> None:
        if self.width < 0:
            raise ValueError("width must be nonnegative")
        if not 0 <= self.mask < (1 << self.width):
            raise ValueError(f"mask {self.mask:#x} does not fit in width {self.width}")

    @classmethod
    def from_indices(cls, indices: Iterable[int], width: int) -> EdgeSubset:
        one = ord("1")
        digits = bytearray(b"0" * width)  # binary digits, bit i at position width - 1 - i
        for i in indices:
            if not 0 <= i < width:
                raise ValueError(f"edge index {i} out of range for m={width}")
            if digits[width - 1 - i] == one:
                raise ValueError(f"duplicate edge index {i}")
            digits[width - 1 - i] = one
        return cls(int(digits, 2) if width else 0, width)

    @property
    def indices(self) -> tuple[int, ...]:
        return tuple(mask_indices(self.mask))

    def __len__(self) -> int:
        return self.mask.bit_count()

    def __iter__(self):
        return iter(self.indices)

    def __contains__(self, i: int) -> bool:
        return 0 <= i < self.width and bool(self.mask >> i & 1)


SubsetLike = Union[EdgeSubset, Iterable[int]]


def mask_indices(mask: int) -> list[int]:
    """Positions of the set bits of a nonnegative mask, ascending, in time linear in its width."""
    return [i for i, digit in enumerate(reversed(bin(mask))) if digit == "1"]


def subset_mask(g: Multigraph, subset: SubsetLike) -> int:
    """Normalize an edge subset (EdgeSubset or iterable of indices) to a bit mask."""
    if isinstance(subset, EdgeSubset):
        if subset.width != g.m:
            raise ValueError(f"subset width {subset.width} does not match edge count {g.m}")
        return subset.mask
    return EdgeSubset.from_indices(subset, g.m).mask


def _decimal_ints(tokens: Iterable[str]) -> list[int]:
    """The tokens as integers; ``ValueError`` unless each is a run of ASCII digits.

    ``int`` alone also takes signs, underscores, surrounding blanks and
    non-ASCII digits, so ``+0``, ``1_0`` or full-width and Arabic-Indic digits
    would silently alias an index. Runs longer than the interpreter's
    int-to-str digit limit still raise ``ValueError`` from ``int``.
    """
    tokens = list(tokens)
    for token in tokens:
        if not (token.isascii() and token.isdigit()):
            raise ValueError(f"{token!r} is not a run of ASCII digits")
    return [int(token) for token in tokens]


def parse_graph(text: str) -> Multigraph:
    """Parse the edge-list text format.

    Format: lines starting with ``#`` (and blank lines) are ignored; the first
    remaining line is the header ``n m``; exactly ``m`` lines ``src dst`` with
    0-based indices written as ASCII decimal digits follow. Edge index = order
    of appearance.

    The edge lines are checked and converted in bulk (``_bulk_edges``); if
    that or the graph's own check fails, ``_edges_by_line`` reruns them one
    at a time to name the first offending line.
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
        return Multigraph(n, _edges_by_line(body, n))


def _bulk_edges(body: list[str]) -> tuple[Edge, ...]:
    """The edges of the ``src dst`` lines, by C-level string and int operations.

    ``ValueError`` unless every line holds exactly two tokens and every token
    is a run of ASCII digits short enough for ``int``. Endpoints are left to
    the ``Multigraph`` check.
    """
    if not body:
        return ()
    if set(map(len, map(str.split, body))) != {2}:
        raise ValueError("an edge line does not hold two tokens")
    tokens = " ".join(body).split()
    digits = "".join(tokens)
    if not (digits.isascii() and digits.isdigit()):
        raise ValueError("an edge line holds a token that is not a run of ASCII digits")
    ends = iter(map(int, tokens))
    # tuple.__new__(Edge, pair) is what Edge(s, t) runs, without the Python-level call.
    return tuple(map(tuple.__new__, [Edge] * len(body), zip(ends, ends)))


def _edges_by_line(body: list[str], n: int) -> tuple[Edge, ...]:
    """The edges of the ``src dst`` lines; ``GraphFormatError`` naming the first bad line."""
    edges = []
    for k, ln in enumerate(body):
        parts = ln.split()
        if len(parts) != 2:
            raise GraphFormatError(f"edge line {k}: malformed {ln!r}, expected 'src dst'")
        try:
            s, t = _decimal_ints(parts)
        except ValueError:
            raise GraphFormatError(f"edge line {k}: malformed {ln!r}, expected two unsigned decimal integers") from None
        if s >= n or t >= n:
            raise GraphFormatError(f"edge line {k}: endpoint ({s}, {t}) out of range for n={n}")
        if s == t:
            raise GraphFormatError(f"edge line {k}: self-loop at vertex {s} is forbidden")
        edges.append(Edge(s, t))
    return tuple(edges)


def serialize_graph(g: Multigraph) -> str:
    """Render a graph in the edge-list text format; inverse of :func:`parse_graph`."""
    lines = [f"{g.vertex_count} {g.m}"]
    lines.extend(f"{e.source} {e.target}" for e in g.edges)
    return "\n".join(lines) + "\n"


class Degree(NamedTuple):
    in_degree: int
    out_degree: int
    total: int


class DegreeProfile(Record):
    """Per-vertex (in, out) degree pairs with respect to one edge subset."""

    pairs: tuple[tuple[int, int], ...]

    def total_in(self) -> int:
        return sum(p[0] for p in self.pairs)

    def total_out(self) -> int:
        return sum(p[1] for p in self.pairs)


def _edge_arrays(g: Multigraph) -> tuple[list[int], list[int]]:
    return [e.source for e in g.edges], [e.target for e in g.edges]


def _imbalances(src: list[int], dst: list[int], idx: Iterable[int]) -> dict[int, int]:
    """Out-minus-in imbalance for every vertex touched by the listed edges."""
    imb: dict[int, int] = {}
    for j in idx:
        s, t = src[j], dst[j]
        imb[s] = imb.get(s, 0) + 1
        imb[t] = imb.get(t, 0) - 1
    return imb


def _members(g: Multigraph, subset: SubsetLike | None) -> Iterable[int]:
    """Ascending member edge indices of a subset (default: all edges), decoded once."""
    return range(g.m) if subset is None else mask_indices(subset_mask(g, subset))


def degree(g: Multigraph, v: int, subset: SubsetLike | None = None) -> Degree:
    """In-, out-, and total degree of ``v`` with respect to a subset (default: all edges)."""
    if not 0 <= v < g.vertex_count:
        raise ValueError(f"vertex {v} out of range for n={g.vertex_count}")
    ins, outs = degree_profile(g, subset).pairs[v]
    return Degree(ins, outs, ins + outs)


def degree_profile(g: Multigraph, subset: SubsetLike | None = None) -> DegreeProfile:
    ins = [0] * g.vertex_count
    outs = [0] * g.vertex_count
    edges = g.edges
    for i in _members(g, subset):
        s, t = edges[i]
        outs[s] += 1
        ins[t] += 1
    return DegreeProfile(tuple(zip(ins, outs)))


def imbalance_profile(g: Multigraph, subset: SubsetLike | None = None) -> tuple[int, ...]:
    """Per-vertex out-degree minus in-degree with respect to a subset; sums to zero."""
    src, dst = _edge_arrays(g)
    imb = _imbalances(src, dst, _members(g, subset))
    return tuple(imb.get(v, 0) for v in range(g.vertex_count))


def incident_edges(g: Multigraph, vertices: Iterable[int]) -> EdgeSubset:
    """Edges with at least one endpoint in ``vertices``."""
    vs = set(vertices)
    for v in vs:
        if not 0 <= v < g.vertex_count:
            raise ValueError(f"vertex {v} out of range for n={g.vertex_count}")
    hits = (i for i, (s, t) in enumerate(g.edges) if s in vs or t in vs)
    return EdgeSubset.from_indices(hits, g.m)
