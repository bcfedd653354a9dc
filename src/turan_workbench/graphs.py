"""Partitioned host graphs with bit-parallel adjacency.

A :class:`PartitionedGraph` is a k-partite host: the vertex set is split
into parts (clusters) V_1, ..., V_k and no edge may join two vertices of
the same part.  Vertices are globally indexed 0..N-1 in part order, so
part boundaries are derived from the part sizes and every graph with the
same part sizes lives on the same universe.

Adjacency is stored as one Python int per vertex (a fixed-width bit row
over the universe); all counting primitives reduce to masked popcounts,
which is what the search modules are throughput-bound on.

Rows are decoded in C where they are dense: :func:`set_bits` turns a mask
into flag bytes (``bin``, reversed, then ``bytes.translate``) and
compresses the positions with them, and :meth:`PartitionedGraph.canonical_json`
compresses a list of vertex-id strings, formatted once per call, with the
same flags.  A mask of a few set bits is walked bit by bit instead, so no
sparse row costs time in the vertex count.

Vertex sets are plain int bitmasks; every operation also accepts an
iterable of vertex indices and normalizes it via :meth:`PartitionedGraph.mask`.
"""

from __future__ import annotations

import json
from fractions import Fraction
from itertools import chain, compress
from typing import Iterable, Iterator, Sequence

VertexSet = "int | Iterable[int]"   # vertex sets: a bitmask or an index iterable

MAX_DOCUMENT_VERTICES = 65_536      # size guard on graphs read from documents


class GraphInvariantError(ValueError):
    """An input would violate the k-partite host invariants."""


def check_vertex_count(count: int) -> None:
    """Reject a graph of more than ``MAX_DOCUMENT_VERTICES`` vertices, the
    most a graph document may hold: documents are checked before they are
    parsed, and builders before they allocate a host they could not write
    and read back."""
    if count > MAX_DOCUMENT_VERTICES:
        raise GraphInvariantError(
            f"a graph document may have at most {MAX_DOCUMENT_VERTICES} vertices, "
            f"got {count}")


def bits(mask: int) -> Iterator[int]:
    """Iterate set bit positions of ``mask`` in ascending order."""
    while mask:
        low = mask & -mask
        yield low.bit_length() - 1
        mask ^= low


# set_bits lists masks of at most this many set bits by walking them: below
# about 12 bits that beats the flag codec on masks of 32 bits or more, and on
# long, sparse rows the walk wins by far
_FEW_BITS = 12

# _FLAGS maps the digits of bin() to the flag bytes 0 and 1
_FLAGS = bytes.maketrans(b"01", b"\x00\x01")


def _flags(mask: int) -> bytes:
    """One flag byte per bit of ``mask``, lowest bit first, up to its top bit."""
    return bin(mask)[:1:-1].encode().translate(_FLAGS)


def _walk(mask: int) -> list[int]:
    """The set bit positions of ``mask``, ascending, found top bit first: each
    step allocates one bit and one mask that ends below it."""
    out = []
    while mask:
        top = mask.bit_length() - 1
        out.append(top)
        mask ^= 1 << top
    out.reverse()
    return out


def set_bits(mask: int) -> list[int]:
    """The set bit positions of a nonnegative ``mask``, ascending: walked on a
    few bits, else by compressing the positions with the mask's flag bytes,
    in C (faster than :func:`bits` on long, dense rows).  A mask of any
    length comes out whole."""
    if mask.bit_count() <= _FEW_BITS:
        return _walk(mask)
    flags = _flags(mask)
    return list(compress(range(len(flags)), flags))


def mask_of(vertices: Iterable[int]) -> int:
    m = 0
    for v in vertices:
        m |= 1 << v
    return m


class PartitionedGraph:
    """Immutable k-partite graph over a fixed, globally indexed universe."""

    __slots__ = ("part_sizes", "num_vertices", "part_of", "part_start", "_rows",
                 "universe_mask", "_part_masks")

    def __init__(self, part_sizes: Sequence[int], edges: Iterable[tuple[int, int]] = ()):
        sizes = tuple(int(s) for s in part_sizes)
        if not sizes or any(s <= 0 for s in sizes):
            raise GraphInvariantError(f"part sizes must be positive, got {sizes}")
        self.part_sizes = sizes
        self.num_vertices = sum(sizes)
        part_of = []
        starts = []
        pos = 0
        for i, s in enumerate(sizes):
            starts.append(pos)
            part_of.extend([i] * s)
            pos += s
        self.part_of = tuple(part_of)
        self.part_start = tuple(starts)
        self.universe_mask = (1 << self.num_vertices) - 1
        self._part_masks = tuple(
            ((1 << s) - 1) << st for s, st in zip(sizes, starts)
        )
        n = self.num_vertices
        if not isinstance(edges, (list, tuple)):
            edges = list(edges)        # a bad edge is looked up in a second pass
        rows = [0] * n
        for u, v in edges:
            # rows[-1] is a valid index, and a shift must not be negative or huge
            if not (0 <= u < n and 0 <= v < n):
                _raise_first_bad_edge(n, part_of, edges)
            rows[u] |= 1 << v
            rows[v] |= 1 << u
        # a loop or an edge inside a part sets a bit of the vertex's own part
        masks = self._part_masks
        if edges and any(rows[v] & masks[p] for v, p in enumerate(part_of)):
            _raise_first_bad_edge(n, part_of, edges)
        self._rows = rows

    @classmethod
    def from_rows(cls, part_sizes: Sequence[int], rows: Sequence[int]) -> "PartitionedGraph":
        """The graph whose adjacency rows are ``rows`` (one bitmask per vertex).

        Rejects a wrong row count, a bit outside the universe or inside the
        vertex's own part (a loop included), and an asymmetric pair of rows.
        """
        g = cls(part_sizes)
        rows = list(rows)
        if len(rows) != g.num_vertices:
            raise GraphInvariantError(
                f"expected {g.num_vertices} rows, got {len(rows)}")
        foreign = [~g.universe_mask | own for own in g._part_masks]
        upper = 0
        for v, (row, p) in enumerate(zip(rows, g.part_of)):
            if row & foreign[p]:
                raise GraphInvariantError(
                    f"row {v} has a bit outside the universe or inside part {p}")
            higher = set_bits(row >> (v + 1) << (v + 1))
            if higher:
                upper += len(higher)
                bit = 1 << v
                for u in higher:
                    if not rows[u] & bit:
                        raise GraphInvariantError(f"rows {v} and {u} are not symmetric")
        # every bit above the diagonal has its mirror below it, so the rows
        # are symmetric iff there are no other bits below the diagonal
        if sum(map(int.bit_count, rows)) != 2 * upper:
            raise GraphInvariantError("rows are not symmetric")
        g._rows = rows
        return g

    # -- basic accessors -------------------------------------------------

    def part_mask(self, i: int) -> int:
        return self._part_masks[i]

    def part_vertices(self, i: int) -> range:
        st = self.part_start[i]
        return range(st, st + self.part_sizes[i])

    def neighbors(self, v: int) -> int:
        return self._rows[v]

    def rows(self) -> list[int]:
        """A copy of the adjacency rows (callers may mutate the copy)."""
        return list(self._rows)

    def has_edge(self, u: int, v: int) -> bool:
        return bool(self._rows[u] >> v & 1)

    def degree(self, v: int) -> int:
        return self._rows[v].bit_count()

    def _upper_rows(self) -> Iterator[tuple[int, list[int]]]:
        """Each vertex u with its neighbours v > u, ascending."""
        for u, row in enumerate(self._rows):
            yield u, set_bits(row >> (u + 1) << (u + 1))

    def edges(self) -> Iterator[tuple[int, int]]:
        """Edges (u, v) with u < v, in ascending lex order."""
        for u, higher in self._upper_rows():
            for v in higher:
                yield (u, v)

    def mask(self, vertices: VertexSet) -> int:
        if isinstance(vertices, int):
            m = vertices
        else:
            m = mask_of(vertices)
        if m & ~self.universe_mask:
            raise GraphInvariantError("vertex set is not a subset of the universe")
        return m

    # -- counting primitives ---------------------------------------------

    def edge_count(self) -> int:
        return sum(r.bit_count() for r in self._rows) // 2

    def pair_count(self, x: VertexSet, y: VertexSet) -> int:
        """Number of ordered pairs (a, b) in X x Y with {a, b} an edge.

        Follows the ordered-pair convention for intersecting sets: loops are
        impossible, and pair_count(X, X) equals twice the edges inside X.
        """
        xm = self.mask(x)
        ym = self.mask(y)
        rows = self._rows
        return sum((rows[v] & ym).bit_count() for v in bits(xm))

    def density(self, x: VertexSet, y: VertexSet) -> Fraction:
        xm = self.mask(x)
        ym = self.mask(y)
        denom = xm.bit_count() * ym.bit_count()
        if denom == 0:
            raise GraphInvariantError("density undefined for an empty side")
        return Fraction(self.pair_count(xm, ym), denom)

    # -- interchange format ----------------------------------------------

    def to_document(self) -> dict:
        return {"parts": list(self.part_sizes),
                "edges": [[u, v] for u, higher in self._upper_rows() for v in higher]}

    @classmethod
    def from_document(cls, doc: dict) -> "PartitionedGraph":
        """Parse a graph document.  Part sizes and vertex ids must be
        integers: floats, strings and booleans are rejected, not converted.
        Part sizes summing past ``MAX_DOCUMENT_VERTICES`` are rejected before
        anything is allocated."""
        try:
            parts = doc["parts"]
            edges = doc["edges"]
        except (KeyError, TypeError) as exc:
            raise GraphInvariantError(f"malformed graph document: {exc}") from exc
        if type(parts) is not list or not set(map(type, parts)) <= {int}:
            raise GraphInvariantError(f"part sizes must be a list of integers, got {parts!r}")
        check_vertex_count(sum(parts))
        try:
            pairs = (type(edges) is list and set(map(len, edges)) <= {2}
                     and set(map(type, chain.from_iterable(edges))) <= {int})
        except TypeError:        # an edge that is not a list
            pairs = False
        if not pairs:
            raise GraphInvariantError("edges must be a list of pairs of integers")
        return cls(parts, edges)

    def canonical_json(self) -> str:
        """``canonical_json(self.to_document())``, written directly.

        The vertex ids are formatted once per call.  A row's ids above the
        diagonal are picked from that list: a dense row compresses a slice of
        it with the row's flag bytes, a sparse one indexes it bit by bit, so
        no row with few bits for its length costs time in the vertex count."""
        ids = list(map(str, range(self.num_vertices)))
        segments = []
        for u, row in enumerate(self._rows):
            higher = row >> (u + 1)
            if not higher:
                continue
            # walk a row of at most 2 + 1/16 of its length in set bits: fitted
            # to where the walk (one list index per bit) gets slower than the
            # flags, from 5 set bits of 24, 10 of 64, 17 of 224, 64 of 1,024
            if higher.bit_count() <= 2 + (higher.bit_length() >> 4):
                picked = [ids[u + 1 + v] for v in _walk(higher)]
            else:
                flags = _flags(higher)
                picked = compress(ids[u + 1:u + 1 + len(flags)], flags)
            segments.append(f"[{ids[u]}," + f"],[{ids[u]},".join(picked) + "]")
        return ('{"edges":[' + ",".join(segments) + '],"parts":['
                + ",".join(map(str, self.part_sizes)) + "]}\n")

    # -- constructors -----------------------------------------------------

    @classmethod
    def complete(cls, part_sizes: Sequence[int]) -> "PartitionedGraph":
        """Complete multipartite host: every cross-part pair is an edge."""
        g = cls(part_sizes)
        return cls.from_rows(part_sizes, [g.universe_mask & ~g._part_masks[p] for p in g.part_of])

    # -- misc ---------------------------------------------------------------

    def __eq__(self, other: object) -> bool:
        return (isinstance(other, PartitionedGraph)
                and self.part_sizes == other.part_sizes
                and self._rows == other._rows)

    def __hash__(self) -> int:
        return hash((self.part_sizes, tuple(self._rows)))

    def __repr__(self) -> str:
        return (f"PartitionedGraph(parts={self.part_sizes}, "
                f"edges={self.edge_count()})")


def _raise_first_bad_edge(n: int, part_of: Sequence[int],
                          edges: Iterable[tuple[int, int]]) -> None:
    """Raise for the first edge, in input order, that is out of range, a
    loop or inside one part."""
    for u, v in edges:
        if not (0 <= u < n and 0 <= v < n):
            raise GraphInvariantError(f"edge ({u},{v}) out of range")
        if u == v:
            raise GraphInvariantError(f"loop at vertex {u}")
        if part_of[u] == part_of[v]:
            raise GraphInvariantError(
                f"edge ({u},{v}) joins two vertices of part {part_of[u]}")


def validate_class_partition(g: PartitionedGraph, class_masks: Sequence[int]) -> None:
    """Check that the masks are disjoint and cover the universe (r >= 1)."""
    if not class_masks:
        raise GraphInvariantError("a class partition needs at least one class")
    seen = 0
    for cm in class_masks:
        m = g.mask(cm)
        if seen & m:
            raise GraphInvariantError("class partition has overlapping classes")
        seen |= m
    if seen != g.universe_mask:
        raise GraphInvariantError("class partition does not cover the universe")


def canonical_json(obj: object) -> str:
    """Canonical one-line JSON used by every artifact and cache record."""
    return json.dumps(obj, sort_keys=True, separators=(",", ":")) + "\n"
