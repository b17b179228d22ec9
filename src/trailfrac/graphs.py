"""Directed multigraph core: edge lists, parsing, and degree primitives.

Vertices are dense integer indices ``0..n-1``. An edge is identified by its
position in the edge list, never by its endpoint pair, so parallel edges stay
distinguishable and edge subsets are sets of positions. Self-loops are
forbidden. All types here are immutable and all operations are pure, so
values can be shared freely across workers.

``parse_graph`` checks the edge lines in bulk, and reruns the same token and
endpoint rules (``_decimal_ints``, ``_endpoint_fault``) line by line only to
name the first bad line. ``trails`` and ``counting`` build on ``_edge_arrays``,
``trails`` also on ``_imbalances``. Each degree helper decodes its subset
once, in time linear in ``m``. Every value type derives from ``Record``.
"""

from __future__ import annotations

from collections import namedtuple
from collections.abc import Iterable, Iterator


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
            if fault := _endpoint_fault(s, t, n):
                raise ValueError(f"edge {i}: {fault}")

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


SubsetLike = EdgeSubset | Iterable[int]


def _endpoint_fault(s: int, t: int, n: int) -> str | None:
    """Why ``s -> t`` is not an edge of a graph on vertices ``0..n-1``, or None if it is."""
    if not (0 <= s < n and 0 <= t < n):
        return f"endpoint ({s}, {t}) out of range for n={n}"
    if s == t:
        return f"self-loop at vertex {s} is forbidden"
    return None


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


def _decimal_ints(tokens: list[str]) -> Iterator[int]:
    """The tokens as integers, converted lazily; ``ValueError`` unless each is a run of ASCII digits.

    ``int`` alone also takes signs, underscores, surrounding blanks and
    non-ASCII digits, so ``+0``, ``1_0`` or full-width and Arabic-Indic digits
    would silently alias an index. The joined tokens are tested once, at C
    level; ``int`` still raises on an empty token or an overlong run.
    """
    digits = "".join(tokens)
    if digits and not (digits.isascii() and digits.isdigit()):
        raise ValueError("a token is not a run of ASCII digits")
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
    is a run of ASCII digits short enough for ``int``; its message is the tail
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


Degree = namedtuple("Degree", "in_degree out_degree total")


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
