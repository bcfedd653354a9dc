"""Witness-producing detectors for K_{1,t}, K_{s,t} and K_q(t) containment.

"F-free" means subgraph containment (pattern classes need not be independent
in the host): a K_q(t) copy is q disjoint t-sets with every cross-class pair
an edge.  Each detector either returns an explicit :class:`Witness` (checkable
by :func:`verify_witness` independently of search internals), returns None,
or raises :class:`BudgetExhausted` -- truncated searches never report
freeness silently.

The K_q(t) engine works on the complement: a copy exists iff some qt-vertex
set S has non-adjacency components of size <= t that pack into q groups of t
(vertices in different groups must be adjacent, and every non-adjacent pair
must share a group).  The DFS adds vertices in a fixed order and returns the
first set that packs, so its witness is the least one in that order; sound
pruning never changes it.  It prunes with two core filters, two kinds of
bound and two checks in its candidate loop:

* degree: a copy vertex is adjacent to every copy vertex outside its own
  class, so it has at least total - t = (q - 1) t neighbours among the
  chosen vertices and the candidates.  Every node keeps only the (q - 1)
  t-core of those (the minimum-degree core of Seidman, "Network structure
  and minimum degree", Social Networks 1983), and gives up when a chosen
  vertex falls out of it or fewer than total vertices remain.  A dropped
  vertex lies in no copy of the subtree, so the filter cuts only subtrees
  the DFS would have left empty-handed, and the first set found is the
  same;
* neighbourhood core: the same core one level down.  Let x be a vertex of
  a copy inside the available vertices A.  The copy minus x's class is a
  K_{q-1}(t) inside N(x) & A, each of its vertices has (q - 2) t
  neighbours in it, so it lies in the (q - 2) t-core of N(x) & A, and that
  core keeps at least (q - 1) t vertices.  A vertex whose core is smaller
  lies in no copy inside A.  ``run`` drops such vertices from a root pool,
  every node tests its newest chosen vertex against its own filtered
  available vertices, and every node passes those down as its children's
  pool.  For q = 2 the degree filter implies the test, and hosts whose
  complement splits skip it: there the region supplies decide at or near
  the root, and on the n = 32 constructions the test cut no node while
  doubling their DFS time;
* per host part: a part is independent, so a copy meets it in one class
  (at most t vertices);
* per region: when the host's complement splits into several non-adjacency
  components, or into several cross-part non-adjacency blobs, the regions
  are its components, each split into its blobs when that lowers the bound,
  and each region gets a supply -- an upper bound on how many vertices
  any valid set can take from it, the same ladder for every t: exact on a
  region that meets two host parts, a k-core bound on any other (see
  ``_supply_uncached``), never above the per-part bound, and memoized.
  Every node bounds each region by the supply of what is still available
  there.  Regions are enumerated scarcest supply first, each in ascending
  vertex order;
* children: a child taken at candidate v needs qt - |chosen| - 1 more
  vertices, all from the candidates after v and outside the child's
  blocked set.  The loop stops once the candidates after v are too few,
  and skips a child whose unblocked ones are too few, so neither spends a
  node (the child would give up at its first size test).

A graph whose complement is one component and one blob (a random graph,
typically) gets no supplies: its one region's supply is a relaxation of the
question itself, and the DFS over the same vertices answers that directly.
It is enumerated in ascending order, and the neighbourhood cores prune it.
The blow-up constructions split into many regions, and their supplies prove
freeness at or near the root.

Each DFS leaf packs the components of its set into q classes of t, and
the DFS returns the first packing found; ``run`` sorts it into the
witness classes.  The engine's per-graph state (complement rows, part lookup,
regions) lives in a :class:`PackingContext`; ``find_complete_multipartite``
builds one per graph and runs its DFS, unless the graph has fewer than qt
vertices, when it answers None with no context and no node.

The cross-pair branch and bound and the greedy K_{t,t}-free construction ask
another question: their graph is K_q(t)-free and they add one edge uv.
:func:`contains_uniform_pattern` answers it on their adjacency rows,
anchored at the new edge, with no context and no complement.  Any new copy
puts u and v in two different classes (a copy with both in one class, or
missing either, was there before), so it is u's class {u} + A' with A' in
N(v), v's class {v} + B' with B' in N(u) and adjacent to all of A', and a
K_{q-2}(t) inside the common neighbourhood C of those two classes -- the
edge-local reduction of Chiba and Nishizeki, "Arboricity and subgraph
listing algorithms", SIAM J. Comput. 1985.  For t = 1 that is a K_{q-2}
inside N(u) & N(v).
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from itertools import combinations
from typing import Optional, Sequence

from .graphs import PartitionedGraph, bits, set_bits

DEFAULT_BUDGET = 10**8
# PackingContext._core walks masks of at most this many vertices lowest bit
# first, without a list.  On the check-free panel's masks the walk takes
# 0.80-0.97 of the time of a loop over ``set_bits`` at 17-28 vertices and
# 1.05-1.17 at 31-32; both go in ascending order, so node counts do not move
_WALK_BITS = 24


class BudgetExhausted(RuntimeError):
    """A search hit its node-expansion budget before reaching a verdict."""


class Budget:
    __slots__ = ("limit", "used")

    def __init__(self, limit: Optional[int]):
        self.limit = limit
        self.used = 0

    def spend(self) -> None:
        self.used += 1
        if self.limit is not None and self.used > self.limit:
            raise BudgetExhausted(f"expansion budget {self.limit} exhausted")


def as_budget(budget: "int | Budget | None") -> Budget:
    return budget if isinstance(budget, Budget) else Budget(budget)


@dataclass(frozen=True)
class ForbiddenPattern:
    """A complete multipartite pattern, described by its class sizes."""

    kind: str
    class_sizes: tuple[int, ...]

    def __post_init__(self):
        if not self.class_sizes or any(s < 1 for s in self.class_sizes):
            raise ValueError(f"pattern class sizes must be >= 1: {self.class_sizes}")

    @classmethod
    def star(cls, t: int) -> "ForbiddenPattern":
        return cls("star", (1, t))

    @classmethod
    def biclique(cls, s: int, t: int) -> "ForbiddenPattern":
        return cls("biclique", (s, t))

    @classmethod
    def complete_multipartite(cls, q: int, t: int) -> "ForbiddenPattern":
        if q < 1:
            raise ValueError("q must be >= 1")
        return cls("complete_multipartite", (t,) * q)

    @property
    def chromatic_number(self) -> int:
        return len(self.class_sizes)


@dataclass(frozen=True)
class Witness:
    """Class-by-class vertex certificate of pattern containment."""

    classes: tuple[tuple[int, ...], ...]

    def vertices(self) -> tuple[int, ...]:
        return tuple(v for cl in self.classes for v in cl)


def verify_witness(g: PartitionedGraph, pattern: ForbiddenPattern, w: Witness) -> bool:
    """Re-check a witness: disjoint classes, sizes per pattern, all cross pairs edges."""
    seen: set[int] = set()
    for cl in w.classes:
        for v in cl:
            if not (0 <= v < g.num_vertices) or v in seen:
                return False
            seen.add(v)
    if sorted(len(cl) for cl in w.classes) != sorted(pattern.class_sizes):
        return False
    for ca, cb in combinations(w.classes, 2):
        for u in ca:
            row = g.neighbors(u)
            for v in cb:
                if not (row >> v & 1):
                    return False
    return True


# ---------------------------------------------------------------------------
# simple detectors


def find_biclique(g: PartitionedGraph, t: int, s: "int | None" = None,
                  within: "int | None" = None,
                  budget: "int | Budget | None" = None) -> Optional[Witness]:
    """First K_{s,t} (s defaults to t) with both sides inside ``within``;
    s = 1 gives the first K_{1,t} (None iff every vertex of ``within`` has
    fewer than t neighbours in it).  The witness lists the s-class first.

    Enumerates the subsets A of the smaller side's size, min(s, t), in
    ascending (canonical) order, intersecting neighbour rows as it goes, so
    it nests min(s, t) calls deep; a witness needs as many common
    neighbours outside A as the larger side has vertices, and takes the
    lowest of them.  Internal edges of either side are irrelevant.
    """
    if t < 1 or (s is not None and s < 1):
        raise ValueError("pattern sizes must be >= 1")
    if s is None:
        s = t
    small, big = min(s, t), max(s, t)
    wm = g.universe_mask if within is None else g.mask(within)
    verts = list(bits(wm))
    bud = as_budget(budget)

    def extend(start: int, amask: int, depth: int, common: int) -> Optional[Witness]:
        bud.spend()
        if depth == small:
            avail = common & ~amask
            if avail.bit_count() >= big:
                a = tuple(bits(amask))
                b = []
                for u in bits(avail):
                    b.append(u)
                    if len(b) == big:
                        break
                return Witness((a, tuple(b)) if s <= t else (tuple(b), a))
            return None
        for i in range(start, len(verts)):
            v = verts[i]
            nc = common & g.neighbors(v) if depth else g.neighbors(v) & wm
            if (nc & ~(amask | (1 << v))).bit_count() < big:
                continue
            found = extend(i + 1, amask | (1 << v), depth + 1, nc)
            if found is not None:
                return found
        return None

    return extend(0, 0, 0, wm)


# ---------------------------------------------------------------------------
# K_q(t) engine


class PackingContext:
    """Per-graph state of the complement-packing K_q(t) search.

    Built once from a host graph and the pattern K_q(t); :meth:`run` is the
    DFS on it.  Holds the complement rows ``H`` (``H[v]``: the
    non-neighbours of v), the host parts, which give the per-part
    pigeonhole caps, and the regions.

    The complement's components are computed first.  If the graph is one
    component and one cross-part blob, the whole vertex set is one region
    with no supply (ascending order; ``split`` is False): the DFS bounds it
    by the part cap and, for q >= 3, prunes it by the neighbourhood-core
    test (``nbhd_core``).  Otherwise the vertices are split once
    into *regions*: non-adjacency components, each further split into
    cross-part non-adjacency blobs when that lowers the bound (any
    partition gives a sound bound, since a valid set restricted to a region
    is still valid there).  Vertices are enumerated region-by-region,
    scarcest supply first, so the tightest decisions are made at the top of
    the tree, and every DFS node bounds each region by the supply of its
    available vertices (``region_bound``), which is never above their part
    cap.  Building the context spends nothing; only :meth:`run` spends, on
    the ``budget`` the context is built with (unlimited when None).

    The DFS enumerates the regions in their order, each in ascending vertex
    order, so a node's place in that order is a pointer ``(r, lo)``: region
    r from vertex lo on, then every later region whole (``later[r]``).  Its
    candidates are those vertices minus the chosen and blocked ones, taken
    lowest bit first, region by region; a child taken at vertex v in region
    r gets ``(r, v + 1)``.  A node's candidates lie inside the pool its
    parent passed down: the parent's filtered available vertices, or at
    the root ``root_pool()``.  Before bounding, each node runs the degree
    filter of the module docstring on the chosen vertices plus the
    candidates, then, when ``nbhd_core`` is set, the neighbourhood-core
    test on its newest chosen vertex; its candidate loop skips the children
    that cannot fill the copy.  None of these spends budget or changes the
    witness.

    Why split hosts skip the neighbourhood-core test: its proof holds on
    any host, but there the region supplies already decide at or near the
    root.  On the 18 n = 32 constructions it cut no node and doubled their
    DFS time.
    """

    def __init__(self, g: PartitionedGraph, q: int, t: int,
                 budget: "int | Budget | None" = None):
        self.rows = rows = g.rows()
        self.universe = universe = g.universe_mask
        self.q, self.t, self.total = q, t, q * t
        part_masks = [g.part_mask(i) for i in range(len(g.part_sizes))]
        self.budget = as_budget(budget)
        self.H = [universe & ~(row | 1 << v) for v, row in enumerate(rows)]
        self.part_mask_of = [part_masks[p] for p in g.part_of]
        # ``_part_cap``: a part of at most t vertices never binds, so those
        # vertices are counted by one popcount
        self.big_parts = [pm for pm in part_masks if pm.bit_count() > t]
        self.small_mask = universe
        for pm in self.big_parts:
            self.small_mask &= ~pm
        self._supply_memo: dict[int, int] = {}
        self.regions = [universe]
        self.region_supply = [universe.bit_count()]
        comps = self._components(universe, cross_part_only=False)
        # one region: its supply only relaxes the DFS, so none is built
        self.split = len(comps) > 1 or len(self._components(universe, True)) > 1
        if self.split:
            self._build_regions(comps)
        # what bounds a region's available vertices in the DFS: the supply
        # on split hosts, else the part cap
        self.region_bound = self._supply if self.split else self._part_cap
        # the neighbourhood-core test runs on one-region hosts, for q >= 3
        # (for q = 2 the degree filter implies it)
        self.nbhd_core = not self.split and q > 2
        # later[r] = the vertices of the regions after region r
        self.later = [0] * len(self.regions)
        for r in range(len(self.regions) - 1, 0, -1):
            self.later[r - 1] = self.later[r] | self.regions[r]

    def _build_regions(self, comps: list[int]) -> None:
        """Split the universe into regions with their supplies, ranked for
        enumeration: most-constrained regions first (fewest vertices per
        unit of supply), so conflicts surface at the top of the tree."""
        regions: list[int] = []
        for comp in comps:
            comp_bound = self._supply(comp)
            blobs = self._components(comp, cross_part_only=True)
            if len(blobs) > 1:
                blob_bounds = [self._supply(b) for b in blobs]
                if sum(blob_bounds) < comp_bound:
                    regions.extend(blobs)
                    continue
            regions.append(comp)
        supply = {rg: self._supply(rg) for rg in regions}
        regions.sort(key=lambda rg: (Fraction(rg.bit_count(), max(supply[rg], 1)),
                                     rg.bit_count(), rg & -rg))
        self.regions = regions
        self.region_supply = [supply[rg] for rg in regions]

    # -- complement components -------------------------------------------

    def _components(self, mask: int, cross_part_only: bool) -> list[int]:
        comps = []
        rest = mask
        while rest:
            comp = rest & -rest
            frontier = comp
            while frontier:
                nxt = 0
                for v in bits(frontier):
                    hv = self.H[v]
                    if cross_part_only:
                        hv &= ~self.part_mask_of[v]
                    nxt |= hv
                frontier = nxt & mask & ~comp
                comp |= frontier
            comps.append(comp)
            rest &= ~comp
        return comps

    def _core(self, mask: int, k: int, need: int = 0) -> int:
        """The k-core of the graph inside ``mask``: the vertices left once
        every vertex with fewer than k neighbours among those left is
        peeled, to a fixpoint (Seidman 1983).  It is the largest subset of
        the mask with minimum degree k, so the order of peeling does not
        matter.  Peeling stops once fewer than ``need`` vertices are left:
        the result has at least ``need`` vertices exactly when the core
        does, and is then the core, so a caller passing ``need`` may only
        compare the result's size with it."""
        rows = self.rows
        size = mask.bit_count()
        while size >= need:
            keep = mask
            if size <= _WALK_BITS:
                rest = mask
                while rest:
                    low = rest & -rest
                    rest ^= low
                    if (rows[low.bit_length() - 1] & keep).bit_count() < k:
                        keep ^= low
                        size -= 1
                        if size < need:
                            return keep
            else:
                for v in set_bits(mask):
                    if (rows[v] & keep).bit_count() < k:
                        keep ^= 1 << v
                        size -= 1
                        if size < need:
                            return keep
            if keep == mask:
                return mask
            mask = keep
        return mask

    # -- supply bounds ------------------------------------------------------

    def _part_cap(self, mask: int) -> int:
        """The per-part pigeonhole: a valid set takes at most t vertices of
        each host part, so at most sum over parts of min(|mask & part|, t)
        vertices of the mask."""
        t = self.t
        cap = (mask & self.small_mask).bit_count()
        for pm in self.big_parts:
            c = (mask & pm).bit_count()
            cap += c if c < t else t
        return cap

    def _supply(self, mask: int) -> int:
        """Upper bound on |S'| over S' subset of mask with non-adjacency
        components of size <= t: the ladder of ``_supply_uncached``, never
        above the part cap of the mask, memoized."""
        if mask.bit_count() <= self.t:
            return mask.bit_count()
        val = self._supply_memo.get(mask)
        if val is None:
            val = min(self._supply_uncached(mask), self._part_cap(mask))
            self._supply_memo[mask] = val
        return val

    def _supply_uncached(self, mask: int) -> int:
        """The supply ladder.  A mask that meets exactly two host parts X
        and Y gets the exact value: each part is independent, so a valid
        set there is at most t vertices, or a K_{a,b} between X and Y with
        a, b <= t, and the supply is the largest such a + b (t if there is
        none).  Every other mask gets the core ladder: a vertex of a valid
        set S' has at least |S'| - t neighbours in S', so S' lies in the
        (|S'| - t)-core of the mask (Seidman 1983), whose vertices all have
        degree at least |S'| - t.  It starts at the largest s such that s
        vertices of the mask have degree at least s - t, and lowers s while
        the (s - t)-core keeps fewer than s vertices; that core only grows
        as s falls.
        """
        rows = self.rows
        t = self.t
        x = mask & self.part_mask_of[(mask & -mask).bit_length() - 1]
        y = mask ^ x
        if y and not y & ~self.part_mask_of[(y & -y).bit_length() - 1]:
            # the probe's class filler finds a K_{a,b}, spending nothing
            for s in range(self._part_cap(mask), t, -1):
                for a in range(max(1, s - t), min(t, s - 1) + 1):
                    if _fill(rows, x, y, a, 1, s - a, lambda: None):
                        return s
            return t
        degrees = sorted(((rows[v] & mask).bit_count() for v in bits(mask)), reverse=True)
        s = sum(d >= i - t for i, d in enumerate(degrees, 1))
        while self._core(mask, s - t, s).bit_count() < s:
            s -= 1
        return s

    # -- packing ------------------------------------------------------------

    def _pack(self, comps: list[tuple[int, int]]) -> Optional[list[list[int]]]:
        """Pack component masks into q bins of exactly t; None if impossible."""
        items = sorted(comps, key=lambda c: -c[1])
        bins: list[list[int]] = [[] for _ in range(self.q)]
        room = [self.t] * self.q

        def place(i: int) -> bool:
            if i == len(items):
                return all(r == 0 for r in room)
            cm, csz = items[i]
            tried = set()
            for b in range(len(bins)):
                if room[b] >= csz and room[b] not in tried:
                    tried.add(room[b])
                    room[b] -= csz
                    bins[b].append(cm)
                    if place(i + 1):
                        return True
                    bins[b].pop()
                    room[b] += csz
            return False

        if place(0):
            return bins
        return None

    # -- main DFS -------------------------------------------------------------

    def run(self) -> Optional[tuple[tuple[int, ...], ...]]:
        """Least copy of the pattern (its classes, sorted), or None; the DFS
        spends one unit of the context's budget per node."""
        bins = self._dfs([], 0, 0, 0, [], 0, 0, self.root_pool())
        if bins is None:
            return None
        classes = []
        for group in bins:
            members: list[int] = []
            for cm in group:
                members.extend(bits(cm))
            classes.append(tuple(sorted(members)))
        return tuple(sorted(classes))

    def _add(self, v: int, comps: list[tuple[int, int]], blocked: int, seen1: int
             ) -> Optional[tuple[list[tuple[int, int]], int, int]]:
        """The DFS state after choosing vertex v, or None if v joins a
        non-adjacency component of more than t vertices.

        ``comps`` lists the chosen set's non-adjacency components with their
        sizes; v's component (v plus every component it has a non-edge to)
        goes last, after the others in their order.  ``seen1`` holds the
        vertices with a non-edge into the chosen set.  For t = 2, ``blocked``
        holds the vertices that would merge two chosen components or grow a
        full one: those with a non-edge into two chosen vertices, or into a
        component of size 2.
        """
        t = self.t
        H = self.H
        hv = H[v]
        merged = 1
        newmask = 1 << v
        keep = []
        for c in comps:
            if hv & c[0]:
                merged += c[1]
                if merged > t:
                    return None
                newmask |= c[0]
            else:
                keep.append(c)
        keep.append((newmask, merged))
        if t == 2:
            blocked |= seen1 & hv
            if merged == 2:
                for u in bits(newmask):
                    blocked |= H[u]
        return keep, blocked, seen1 | hv

    def root_pool(self) -> int:
        """The vertices the DFS may take: all of them, minus, on one-region
        hosts with q >= 3, each vertex that fails the neighbourhood-core test
        against the pool, in ascending order.  A vertex that fails lies in no
        copy inside the pool, so every copy stays inside it."""
        pool = self.universe
        if self.nbhd_core:
            for x in set_bits(pool):
                if not self._nbhd_ok(x, pool):
                    pool ^= 1 << x
        return pool

    def _nbhd_ok(self, x: int, avail: int) -> bool:
        """Whether x passes the neighbourhood-core test inside ``avail``: a
        copy through x leaves a K_{q-1}(t) in N(x) & avail once x's class is
        taken out, so the (q - 2) t-core there keeps at least (q - 1) t
        vertices."""
        need = self.total - self.t
        return self._core(self.rows[x] & avail, need - self.t, need).bit_count() >= need

    def _dfs(self, chosen: list[int], smask: int, r0: int, lo: int,
             comps: list[tuple[int, int]], blocked: int, seen1: int, pool: int
             ) -> Optional[list[list[int]]]:
        self.budget.spend()
        total = self.total
        if len(chosen) == total:
            return self._pack(comps)
        t = self.t
        regions = self.regions
        # avail: the chosen vertices plus the candidates (region r0 from
        # vertex lo on and the later regions whole, inside the pool, minus
        # the blocked ones)
        avail = (((regions[r0] & -(1 << lo)) | self.later[r0]) & pool & ~blocked) | smask
        # degree filter: a copy vertex has (q - 1) t neighbours in the copy
        avail = self._core(avail, total - t, total)
        if avail.bit_count() < total or smask & ~avail:
            return None
        if self.nbhd_core and chosen and not self._nbhd_ok(chosen[-1], avail):
            return None
        above = avail ^ smask
        # Two complementary decompositions bound |S'|, each counting a
        # region's vertices by ``region_bound`` of them.  The supply (exact
        # on two parts, the degree bound and the cores elsewhere) and the
        # part cap never grow as the mask shrinks, so that bound is never
        # above the region's own supply.
        #  A. per region: everything available there;
        #  B. candidates with a non-edge into S merge into chosen components,
        #     so collectively they fit those components' leftover capacity,
        #     while untouched candidates are counted per region.
        att = above & seen1
        free = above & ~seen1
        att_term = min(att.bit_count(), t * len(comps) - len(chosen))
        bound_a = 0
        bound_b = len(chosen) + att_term
        region_bound = self.region_bound
        for rg in regions:
            sub = avail & rg
            if sub:
                bound_a += region_bound(sub)
            sub = free & rg
            if sub:
                bound_b += region_bound(sub)
        if bound_a < total or bound_b < total:
            return None
        # a child taken at v takes its other ``need`` vertices from ``rest``,
        # the candidates after v, minus its own blocked ones
        need = total - len(chosen) - 1
        for r in range(r0, len(regions)):
            todo = above & regions[r]
            rest_later = above & self.later[r]
            while todo:
                low = todo & -todo
                todo ^= low
                rest = todo | rest_later
                if rest.bit_count() < need:
                    return None
                v = low.bit_length() - 1
                state = self._add(v, comps, blocked, seen1)
                if state is None or (rest & ~state[1]).bit_count() < need:
                    continue
                chosen.append(v)
                found = self._dfs(chosen, smask | low, r, v + 1, *state, avail)
                chosen.pop()
                if found is not None:
                    return found
        return None


def find_complete_multipartite(g: PartitionedGraph, q: int, t: int,
                               budget: "int | Budget | None" = DEFAULT_BUDGET,
                               ) -> Optional[Witness]:
    """First K_q(t) in the host, or None; raises BudgetExhausted on truncation."""
    if q < 1 or t < 1:
        raise ValueError("q and t must be >= 1")
    if q * t > g.num_vertices:
        return None     # no copy fits, so no context is built and no node spent
    classes = PackingContext(g, q, t, budget=budget).run()
    if classes is None:
        return None
    w = Witness(classes)
    if not verify_witness(g, ForbiddenPattern.complete_multipartite(q, t), w):
        raise AssertionError(f"internal error: unsound K_{q}({t}) witness {classes}")
    return w


def contains_uniform_pattern(rows: Sequence[int], u: int, v: int, q: int, t: int,
                             budget: Budget) -> bool:
    """Whether adding the edge uv to the graph of ``rows`` creates a K_q(t).

    Precondition: the graph of ``rows`` (one adjacency mask per vertex) is
    K_q(t)-free and does not hold uv; the answer is then whether the graph
    plus uv has a copy through u and v.  ``search.maximize_free`` and the
    greedy ``zarankiewicz._greedy_ktt_free`` keep that invariant and probe
    each new edge before they add it.

    The search is anchored at the new edge (module docstring).  It takes
    A' from N(v) and then B' from N(u) & N(A'), t - 1 vertices each, and
    places the q - 2 other classes one at a time inside C = N(A + B): each
    class is the lowest vertex x left in C plus t - 1 vertices of C above x,
    and the classes after it lie above x in the common neighbourhood of the
    classes fixed so far.  Popcount pretests spend no budget: the probe
    needs |N(u) & N(v)| >= (q - 2) t, a vertex joins A', B' or a class only
    if enough of the common neighbourhood stays for the classes after it,
    and p classes are placed only from at least p t vertices.  It spends one
    unit of ``budget`` per (A', B') pair and one per class it fixes.
    """
    nu, nv = rows[u], rows[v]
    if (nu & nv).bit_count() < (q - 2) * t:
        return False
    return _pick_a(rows, nv, nu, nu & nv, t - 1, q - 2, t, budget.spend)


def _pick_a(rows: Sequence[int], pool: int, cu: int, cuv: int, k: int, p: int,
            t: int, spend) -> bool:
    """Extend A' by k vertices of ``pool`` (part of N(v)), lowest bit first,
    then take B' from ``cu``.  ``cu`` = N(u) & N(A') holds B' and C, and
    ``cuv`` = cu & N(v) holds C, where p classes of t are still to go."""
    if not k:
        return _fill(rows, cu, cuv, t - 1, p, t, spend)
    rest = p * t
    while pool.bit_count() >= k:
        low = pool & -pool
        pool ^= low
        row = rows[low.bit_length() - 1]
        nxt = cuv & row
        if nxt.bit_count() >= rest and _pick_a(rows, pool, cu & row, nxt, k - 1, p, t,
                                               spend):
            return True
    return False


def _fill(rows: Sequence[int], pool: int, common: int, k: int, p: int, t: int,
          spend) -> bool:
    """Complete a class with k more vertices of ``pool``, lowest bit first,
    spend a node on it, then place the p classes after it inside
    ``common``, the vertices adjacent to every vertex fixed so far."""
    if not k:
        spend()
        return not p or _place(rows, common, p, t, spend)
    need = p * t
    while pool.bit_count() >= k:
        low = pool & -pool
        pool ^= low
        nxt = common & rows[low.bit_length() - 1]
        if nxt.bit_count() >= need and _fill(rows, pool, nxt, k - 1, p, t, spend):
            return True
    return False


def _place(rows: Sequence[int], cand: int, p: int, t: int, spend) -> bool:
    """Place p classes of t inside ``cand``, the lowest vertex's class
    first: the lowest vertex x left plus t - 1 vertices above it, with the
    classes after it above x and adjacent to all of its class."""
    need = p * t
    while cand.bit_count() >= need:
        low = cand & -cand
        cand ^= low      # the vertices above x
        nxt = cand & rows[low.bit_length() - 1]
        if nxt.bit_count() >= need - t and _fill(rows, cand, nxt, t - 1, p - 1, t, spend):
            return True
    return False


def find_pattern(g: PartitionedGraph, pattern: ForbiddenPattern,
                 budget: "int | Budget | None" = DEFAULT_BUDGET) -> Optional[Witness]:
    """Dispatch to the detector matching the pattern kind: stars and
    bicliques to ``find_biclique``, K_q(t) to ``find_complete_multipartite``."""
    if pattern.kind in ("star", "biclique"):
        s, t = pattern.class_sizes
        return find_biclique(g, t, s=s, budget=budget)
    q = len(pattern.class_sizes)
    t = pattern.class_sizes[0]
    return find_complete_multipartite(g, q, t, budget=budget)
