"""Partitioned host graphs with bit-parallel adjacency.

A :class:`PartitionedGraph` is a k-partite host: the vertex set is split
into parts (clusters) V_1, ..., V_k and no edge may join two vertices of
the same part.  Vertices are globally indexed 0..N-1 in part order, so
part boundaries are derived from the part sizes and every graph with the
same part sizes lives on the same universe.

Adjacency is stored as one Python int per vertex (a fixed-width bit row
over the universe); all counting primitives reduce to masked popcounts,
which is what the search modules are throughput-bound on.

Vertex sets are plain int bitmasks; every operation also accepts an
iterable of vertex indices and normalizes it via :meth:`PartitionedGraph.mask`.
"""

from __future__ import annotations

import json
from fractions import Fraction
from typing import Iterable, Iterator, Sequence

VertexSet = "int | Iterable[int]"   # vertex sets: a bitmask or an index iterable


class GraphInvariantError(ValueError):
    """An input would violate the k-partite host invariants."""


def bits(mask: int) -> Iterator[int]:
    """Iterate set bit positions of ``mask`` in ascending order."""
    while mask:
        low = mask & -mask
        yield low.bit_length() - 1
        mask ^= low


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
        rows = [0] * self.num_vertices
        n = self.num_vertices
        for u, v in edges:
            if not (0 <= u < n and 0 <= v < n):
                raise GraphInvariantError(f"edge ({u},{v}) out of range")
            if u == v:
                raise GraphInvariantError(f"loop at vertex {u}")
            if part_of[u] == part_of[v]:
                raise GraphInvariantError(
                    f"edge ({u},{v}) joins two vertices of part {part_of[u]}")
            rows[u] |= 1 << v
            rows[v] |= 1 << u
        self._rows = rows

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

    def edges(self) -> Iterator[tuple[int, int]]:
        """Edges (u, v) with u < v, in ascending lex order."""
        for u in range(self.num_vertices):
            higher = self._rows[u] >> (u + 1)
            for off in bits(higher):
                yield (u, u + 1 + off)

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
                "edges": [[u, v] for u, v in self.edges()]}

    @classmethod
    def from_document(cls, doc: dict) -> "PartitionedGraph":
        try:
            parts = doc["parts"]
            edges = doc["edges"]
        except (KeyError, TypeError) as exc:
            raise GraphInvariantError(f"malformed graph document: {exc}") from exc
        return cls(parts, [(int(u), int(v)) for u, v in edges])

    def canonical_json(self) -> str:
        return canonical_json(self.to_document())

    # -- constructors -----------------------------------------------------

    @classmethod
    def empty(cls, part_sizes: Sequence[int]) -> "PartitionedGraph":
        return cls(part_sizes)

    @classmethod
    def complete(cls, part_sizes: Sequence[int]) -> "PartitionedGraph":
        """Complete multipartite host: every cross-part pair is an edge."""
        g = cls(part_sizes)
        rows = g._rows
        for v in range(g.num_vertices):
            rows[v] = g.universe_mask & ~g._part_masks[g.part_of[v]]
        return g

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
