"""Builders for the explicit extremal graph families.

Every builder has an exact edge-count postcondition, asserted by the test
suite rather than trusted:

* ``build_template``    -> turan_count(r, k) * n^2
* ``basic_construction``    -> turan_count(r, k) * n^2 + e(B) + (t-1)(k-r-1)n
* ``improved_construction`` -> turan_count(r, k) * n^2 + e(B) + (t-1)(b-1)n
                               + b' * floor((t-1)^2 / 4),  b = k-r, b' = min(b-1, r-b)

where B is the pluggable class-1 graph (a maximum K_{t,t}-free graph is
unknown in general, so both builders accept any K_{t,t}-free bipartite B on
two n-sets and express their edge counts in terms of e(B); the oracle module
supplies a true maximum when n is small).

The C4-free regular overlays come from Sidon (B2) sets: a set S of residues
mod n with all pairwise differences distinct yields a |S|-regular bipartite
Cayley graph (i, i+s mod n) without K_{2,2}, since a repeated difference
would be exactly a 4-cycle.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from itertools import chain
from math import comb
from typing import Iterable, Optional, Sequence

from .detectors import find_biclique
from .graphs import PartitionedGraph, check_vertex_count


class ConstructionError(ValueError):
    """Parameters outside a builder's validity range, or a bad plug-in graph."""


def turan_count(r: int, k: int) -> int:
    """Edge count t_r(k) of the Turan graph T_r(k) (balanced complete r-partite)."""
    if not (1 <= r <= k):
        raise ConstructionError(f"need 1 <= r <= k, got r={r}, k={k}")
    a, b = divmod(k, r)
    return (k * k - b * (a + 1) ** 2 - (r - b) * a * a) // 2


def chromatic_trivial_value(k: int, pattern) -> Optional[int]:
    """Coefficient C(k,2) when chi(pattern) > k (so ex_k(n, F) = C(k,2) n^2), else None."""
    if pattern.chromatic_number > k:
        return comb(k, 2)
    return None


# ---------------------------------------------------------------------------
# templates


@dataclass(frozen=True, order=True)
class Piece:
    """One leftover-cluster piece W_i: ``size`` vertices of ``cluster`` in ``cls``."""
    cls: int
    cluster: int
    size: int


@dataclass(frozen=True)
class TemplateSpec:
    """Combinatorial description of a template: r classes over k clusters of size n.

    ``cluster_classes[c]`` is the class of whole cluster c, or -1 for the
    b = k - a*r leftover clusters, whose vertices are split into pieces
    (at most one piece per class; the pieces of one cluster partition it).
    Construction checks these rules (Definition 3.1) and raises
    ConstructionError on any other spec, so every instance is a template.
    """

    r: int
    k: int
    n: int
    cluster_classes: tuple[int, ...]
    pieces: tuple[Piece, ...] = field(default=())

    def __post_init__(self) -> None:
        r, k, n = self.r, self.k, self.n
        if r < 1 or n < 1 or k < r:
            raise ConstructionError(f"bad template ranges r={r}, k={k}, n={n}")
        a, b = divmod(k, r)
        if len(self.cluster_classes) != k:
            raise ConstructionError("cluster_classes must have one entry per cluster")
        whole = [c for c in self.cluster_classes if c != -1]
        if any(not (0 <= c < r) for c in whole):
            raise ConstructionError("cluster class out of range")
        per_class = [whole.count(i) for i in range(r)]
        if per_class != [a] * r:
            raise ConstructionError(f"each class needs exactly {a} whole clusters, got {per_class}")
        leftovers = [c for c, cl in enumerate(self.cluster_classes) if cl == -1]
        if len(leftovers) != b:
            raise ConstructionError(f"expected {b} leftover clusters, got {len(leftovers)}")
        classes_seen = set()
        per_cluster: dict[int, int] = {q: 0 for q in leftovers}
        for p in self.pieces:
            if p.cls in classes_seen:
                raise ConstructionError(f"class {p.cls} receives more than one piece")
            classes_seen.add(p.cls)
            if p.cluster not in per_cluster:
                raise ConstructionError(f"piece drawn from non-leftover cluster {p.cluster}")
            if not (0 <= p.cls < r) or p.size < 0:
                raise ConstructionError(f"bad piece {p}")
            per_cluster[p.cluster] += p.size
        if any(tot != n for tot in per_cluster.values()):
            raise ConstructionError("piece sizes of each leftover cluster must sum to n")

    def class_of_vertices(self) -> list[int]:
        """The class of every vertex, the one piece layout: clusters are the
        host parts in index order, and within a leftover cluster the pieces
        occupy consecutive ranges in piece order."""
        n = self.n
        out = [cl for cl in self.cluster_classes for _ in range(n)]
        end: dict[int, int] = {}       # leftover cluster -> end of its last piece
        for p in self.pieces:
            start = end.get(p.cluster, p.cluster * n)
            out[start:start + p.size] = [p.cls] * p.size
            end[p.cluster] = start + p.size
        return out

    def z_masks(self) -> list[int]:
        """Per class, the union of its whole clusters (the Z_i)."""
        n = self.n
        masks = [0] * self.r
        for c, cl in enumerate(self.cluster_classes):
            if cl != -1:
                masks[cl] |= ((1 << n) - 1) << (c * n)
        return masks

    def u_masks(self) -> list[int]:
        """Per class, all its vertices U_i = Z_i u W_i."""
        masks = [0] * self.r
        for v, cl in enumerate(self.class_of_vertices()):
            masks[cl] |= 1 << v
        return masks

    def w_masks(self) -> list[int]:
        """Per class, its piece W_i (may be empty)."""
        return [u & ~z for u, z in zip(self.u_masks(), self.z_masks())]

    def to_document(self) -> dict:
        return {"r": self.r, "k": self.k, "n": self.n,
                "cluster_classes": list(self.cluster_classes),
                "pieces": [[p.cls, p.cluster, p.size] for p in self.pieces]}

    @classmethod
    def from_document(cls, doc: dict) -> "TemplateSpec":
        """Parse a spec document.  Every number must be an integer: floats,
        strings and booleans are rejected, not converted."""
        try:
            head = [doc["r"], doc["k"], doc["n"]]
            classes, pieces = doc["cluster_classes"], doc["pieces"]
        except (KeyError, TypeError) as exc:
            raise ConstructionError(f"malformed template spec: {exc!r}") from exc
        if not (_int_seq(head) and _int_seq(classes) and type(pieces) is list
                and all(_int_seq(p, 3) for p in pieces)):
            raise ConstructionError(
                "a template spec needs integers r, k, n, a list of integer cluster "
                "classes and a list of [class, cluster, size] integer pieces")
        return cls(*head, tuple(classes), tuple(Piece(*p) for p in pieces))

    @classmethod
    def standard(cls, r: int, k: int, n: int,
                 splits: Sequence[Sequence[tuple[int, int]]] = ()) -> "TemplateSpec":
        """Definition-3.1 layout: class i owns clusters [i*a, (i+1)*a), leftovers last.

        ``splits`` has one entry per leftover cluster: a sequence of
        (class, size) pairs.  Default: leftover cluster j goes wholly to class j.
        """
        if r < 1:
            raise ConstructionError(f"bad template ranges r={r}, k={k}, n={n}")
        if not (isinstance(splits, (list, tuple))
                and all(isinstance(s, (list, tuple)) and all(_int_seq(p, 2) for p in s)
                        for s in splits)):
            raise ConstructionError(
                f"splits must be lists of (class, size) integer pairs, got {splits!r}")
        a, b = divmod(k, r)
        assignment = [-1] * k
        for i in range(r):
            for j in range(i * a, (i + 1) * a):
                assignment[j] = i
        pieces = []
        if b and not splits:
            splits = [[(j, n)] for j in range(b)]
        for j, split in enumerate(splits):
            for cl, size in split:
                pieces.append(Piece(cl, a * r + j, size))
        return cls(r, k, n, tuple(assignment), tuple(pieces))


def _int_seq(x, length: Optional[int] = None) -> bool:
    """``x`` is a list or tuple of integers (booleans rejected), of
    ``length`` items when one is given."""
    return (type(x) in (list, tuple) and all(type(v) is int for v in x)
            and (length is None or len(x) == length))


def build_template(spec: TemplateSpec) -> PartitionedGraph:
    """The template graph: all cross-class pairs except pairs inside one cluster."""
    n, k = spec.n, spec.k
    check_vertex_count(k * n)
    return PartitionedGraph.from_rows([n] * k, cross_class_rows(n, spec.class_of_vertices()))


# ---------------------------------------------------------------------------
# Sidon sets and C4-free regular bipartite graphs


def _sidon_differences(chosen: Sequence[int], diffs: set[int], x: int,
                       n: int) -> Optional[list[int]]:
    """The differences mod n that adding x to the B2 set ``chosen`` (whose
    differences are ``diffs``) creates, or None if any of them repeats."""
    new = []
    for s in chosen:
        for d in ((x - s) % n, (s - x) % n):
            if d in diffs or d in new:
                return None
            new.append(d)
    return new


def sidon_set(n: int, t: int) -> tuple[int, ...]:
    """The lex-least t-element B2 set in Z_n that contains 0: all pairwise
    differences distinct mod n.

    n >= 8t^2 guarantees room (t = 1 is exempt).  Failure in range is a
    defect, so it raises rather than returning a partial set.
    """
    if t < 1:
        raise ConstructionError("t must be >= 1")
    if t > 1 and n < 8 * t * t:
        raise ConstructionError(f"need n >= 8t^2 = {8 * t * t}, got n={n}")
    found = _sidon_search(n, t)
    if len(found) < t:
        raise ConstructionError(f"no Sidon set of size {t} found in Z_{n} (defect)")
    return found


def largest_sidon_set(n: int, node_cap: int = 2_000_000) -> tuple[int, ...]:
    """The largest B2 set in Z_n found by backtracking (0 is wlog included).

    Exhaustive when the search finishes under the node cap: the set is then
    maximum, and the lex-least of that size.  On larger n the cap truncates
    the search and the best set found so far is returned, which is still a
    valid Sidon set.
    """
    return _sidon_search(n, n, node_cap)


def _sidon_search(n: int, want: int, node_cap: Optional[int] = None) -> tuple[int, ...]:
    """The first largest B2 set in Z_n that contains 0, over residues in
    increasing order, or the first one of ``want`` elements, which ends the
    search (as do more than ``node_cap`` nodes).  A branch ends once it
    cannot beat the best set, which while that is smaller than ``want``
    never cuts a branch that could reach ``want``."""
    if n < 1:
        raise ConstructionError("n must be >= 1")
    best: list[int] = [0]
    chosen = [0]
    diffs: set[int] = set()
    nodes = 0

    class _Stop(Exception):
        pass

    def extend(start: int) -> None:
        nonlocal best, nodes
        nodes += 1
        if node_cap is not None and nodes > node_cap:
            raise _Stop
        if len(chosen) > len(best):
            best = list(chosen)
        if len(best) >= want:
            raise _Stop
        if len(chosen) + (n - start) <= len(best):
            return
        for x in range(start, n):
            new = _sidon_differences(chosen, diffs, x, n)
            if new is None:
                continue
            chosen.append(x)
            diffs.update(new)
            extend(x + 1)
            chosen.pop()
            diffs.difference_update(new)

    try:
        extend(1)
    except _Stop:
        pass
    return tuple(best)


def cayley_bipartite(n: int, shifts: Iterable[int]) -> PartitionedGraph:
    """Bipartite Cayley graph on two n-sets: left i ~ right (i+s mod n)."""
    edges = [(i, n + (i + s) % n) for s in shifts for i in range(n)]
    return PartitionedGraph([n, n], edges)


def regular_c4free_bipartite(n: int, t: int) -> PartitionedGraph:
    """t-regular K_{2,2}-free bipartite graph on two n-sets (Sidon-Cayley).

    t = 1 is a perfect matching and bypasses the n >= 8t^2 gate.
    """
    if t < 1 or n < 1:
        raise ConstructionError("need n, t >= 1")
    check_vertex_count(2 * n)
    return cayley_bipartite(n, sidon_set(n, t))


# ---------------------------------------------------------------------------
# the two lower-bound constructions


@dataclass(frozen=True)
class ConstructionParams:
    n: int
    r: int
    k: int
    t: int

    def __post_init__(self):
        if not (self.r < self.k <= 2 * self.r):
            raise ConstructionError(f"need r < k <= 2r, got r={self.r}, k={self.k}")
        if self.t < 2 or self.n < 1:
            raise ConstructionError(f"need t >= 2 and n >= 1 (t={self.t}, n={self.n})")

    @property
    def b(self) -> int:
        return self.k - self.r

    @property
    def t_prime(self) -> int:
        return (self.t - 1 + 1) // 2  # ceil((t-1)/2)

    @property
    def b_prime(self) -> int:
        return min(self.b - 1, self.r - self.b)


def _check_class1(class1: PartitionedGraph, n: int, t: int) -> None:
    if class1.part_sizes != (n, n):
        raise ConstructionError(
            f"class-1 graph must be bipartite on two {n}-sets, got parts {class1.part_sizes}")
    w = find_biclique(class1, t)
    if w is not None:
        raise ConstructionError(f"class-1 graph contains K_{{{t},{t}}}: {w.classes}")


def basic_construction(p: ConstructionParams,
                       class1_graph: PartitionedGraph) -> PartitionedGraph:
    """Blow-up with classes V_i u V_{i+r}: B on class 1, (t-1)-regular C4-free
    graphs on classes 2..k-r.  Edge count t_r(k)n^2 + e(B) + (t-1)(k-r-1)n."""
    return _blowup(p, class1_graph, 0)


def improved_construction(p: ConstructionParams,
                          class1_graph: PartitionedGraph) -> PartitionedGraph:
    """The moved-vertex construction; the basic one when b' = 0 (b < 2 or k = 2r).

    Moves the first t' vertices of clusters V_{i,1} and V_{i,2} from row i to
    row i+b-1 for i in [2, b'+1], overlays (t-1)-regular C4-free graphs on the
    trimmed rows 2..b, and places 2t' disjoint K_{1,t-1} stars plus one
    K_{t',t'} on each receiving row.  Edge count
    t_r(k)n^2 + e(B) + (t-1)(b-1)n + b' * floor((t-1)^2/4).
    """
    return _blowup(p, class1_graph, p.b_prime)


def _blowup(p: ConstructionParams, class1_graph: PartitionedGraph,
            bp: int) -> PartitionedGraph:
    """The blow-up with ``bp`` moved-vertex rows (0: the basic construction)."""
    n, r, k, t = p.n, p.r, p.k, p.t
    b = p.b
    check_vertex_count(k * n)
    _check_class1(class1_graph, n, t)
    if bp:
        if n < 8 * t * t:
            raise ConstructionError(f"improved construction needs n >= 8t^2 = {8 * t * t}")
    elif b >= 2 and t - 1 > 1 and n < 8 * (t - 1) ** 2:
        raise ConstructionError(
            f"(t-1)-regular C4-free overlays need n >= 8(t-1)^2 = {8 * (t - 1) ** 2}")
    tp = p.t_prime
    # V_{i,1} is cluster i-1 (i in [1,r]) and V_{i,2} is cluster r+i-1 (i in
    # [1,b]), both in row i-1 (0-based); the first t' vertices of V_{i,1}
    # and V_{i,2}, i in [2,b'+1], move to row i+b-2
    cls = [c % r for c in range(k) for _ in range(n)]      # cluster c in class c mod r
    for i in range(2, bp + 2):
        for v in chain(range((i - 1) * n, (i - 1) * n + tp),
                       range((r + i - 1) * n, (r + i - 1) * n + tp)):
            cls[v] = i + b - 2
    rows = cross_class_rows(n, cls)
    _overlay(rows, class1_graph, 0, r * n)
    for i in range(2, b + 1):
        # rows that gave up vertices get their overlay on the trimmed clusters
        skip = tp if i <= bp + 1 else 0
        _overlay(rows, regular_c4free_bipartite(n - skip, t - 1),
                 (i - 1) * n + skip, (r + i - 1) * n + skip)
    for i in range(b + 1, b + bp + 1):
        # the vertices moved from V_{i-b+1,1} and V_{i-b+1,2}: 2t' disjoint
        # K_{1,t-1} stars into V_{i,1} (2t'(t-1) <= t(t-1) < n leaves fit),
        # and a K_{t',t'} between the two halves
        s1 = range((i - b) * n, (i - b) * n + tp)
        s2 = range((r + i - b) * n, (r + i - b) * n + tp)
        leaf = (i - 1) * n
        for c in chain(s1, s2):
            for v in range(leaf, leaf + t - 1):
                _join(rows, c, v)
            leaf += t - 1
        for u in s1:
            for v in s2:
                _join(rows, u, v)
    return PartitionedGraph.from_rows([n] * k, rows)


def _join(rows: list[int], u: int, v: int) -> None:
    rows[u] |= 1 << v
    rows[v] |= 1 << u


def cross_class_rows(n: int, cls: Sequence[int]) -> list[int]:
    """Bit rows of the blow-up on clusters of n consecutive vertices: each
    vertex v is joined to every vertex in another class (``cls[v]``) and
    another cluster."""
    class_masks: dict[int, int] = {}
    for v, c in enumerate(cls):
        class_masks[c] = class_masks.get(c, 0) | 1 << v
    universe = (1 << len(cls)) - 1
    cluster = (1 << n) - 1
    return [universe & ~(cluster << v // n * n) & ~class_masks[c]
            for v, c in enumerate(cls)]


def _overlay(rows: list[int], g: PartitionedGraph, left: int, right: int) -> None:
    """OR the bipartite graph ``g`` on two m-sets into ``rows``, its left
    side on vertices left..left+m-1 and its right side on right..right+m-1."""
    m = g.part_sizes[0]
    for u in range(m):
        rows[left + u] |= g.neighbors(u) >> m << right
        rows[right + u] |= g.neighbors(m + u) << left


def basic_edge_count(p: ConstructionParams, class1_edges: int) -> int:
    return (turan_count(p.r, p.k) * p.n * p.n + class1_edges
            + (p.t - 1) * (p.k - p.r - 1) * p.n)


def g_value(p: ConstructionParams, z_value: int) -> int:
    """Lower-bound formula g(n, r, k, t) = t_r(k)n^2 + z + (t-1)(k-r-1)n
    + min(k-r-1, 2r-k)*floor((t-1)^2/4), the improved construction's edge
    count with e(B) for z (when b < 2 or k = 2r the moved-vertex terms
    vanish and it is the basic count).

    ``z_value`` stands in for z_t(n, n); supplying it is the caller's
    responsibility (exact from the oracle when in range, otherwise a
    construction value) and is recorded in output provenance.
    """
    if z_value < 0:
        raise ConstructionError(f"need z >= 0, got z={z_value}")
    n, r, k, t = p.n, p.r, p.k, p.t
    return (turan_count(r, k) * n * n + z_value + (t - 1) * (k - r - 1) * n
            + min(k - r - 1, 2 * r - k) * ((t - 1) ** 2 // 4))
