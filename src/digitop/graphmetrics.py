"""Exact metric and structural computations on finite graphs.

Images, subset families and function graphs all project to
:class:`FiniteGraph` via :func:`as_finite_graph`; everything here then
works uniformly: shortest/longest cycles, dominating sets, eccentricity,
center, radius, diameter, disconnecting sets, DOT and CSV emission.
A graph is its vertex count and rows and knows no vertex label: the DOT
and CSV writers print vertex i as ``labels(i)``, by default its number.
The girth search runs the library's one predecessor breadth-first search
(``lattice._bfs``) from one end of each edge with the edge masked out of
that end's row, so the first path found to the other end closes a
shortest cycle through the edge.
The longest-cycle and minimum-dominating-set searches are exact
branch-and-bound kernels over bitmask adjacency rows; the longest-cycle
search is iterative, with an explicit stack, so its path length is not
bounded by the recursion limit.  It peels from the free vertices a step
can still reach (``lattice._flood``) every vertex with fewer than two
neighbours among them, the step's vertex and the anchor, and it stops the
anchor loop once the vertices left cannot beat the incumbent; both cuts
keep the witness of the unpruned search.  Every vertex space has such
rows (``adjacency_rows``) and hands them over as they are.  A graph's
eccentricities are computed once, and radius, diameter, center,
eccentricity and the CSV table all read them.  ``bounded_eccentricities``
computes them exactly from per-vertex bounds: it runs frontier-mask
breadth-first searches, each stopping as soon as every vertex is seen or
with no result at the first level that adds none, only until every
vertex's bounds meet.  A graph alone starts from the trivial bounds;
``seed_eccentricities`` starts it from bounds its space knows, such as a
hyperspace's bounds from the Hausdorff distance.  ``bfs_distances`` walks
each level once, recording its distances and ORing its rows in the same
lowest-bit loop, and ``connected_components`` is ``lattice._components``.
Of the package this module imports only ``value``, ``errors`` and
``lattice``, so ``hyperspace`` imports the eccentricity kernel at the top.
"""

from __future__ import annotations

import io
from collections.abc import Iterable, Iterator

from .errors import BudgetError
from .lattice import DigitalImage, Point, _bfs, _bits, _components, _flood, _row_pairs
from .value import Value, cached_property

#: Vertex cap for the exponential longest-cycle search.
DEFAULT_CYCLE_BUDGET = 20
#: Vertex cap for the exact dominating-set search.
DEFAULT_DOMINATING_BUDGET = 40


class FiniteGraph(Value):
    """An undirected simple graph over vertices 0..n-1 with bitmask rows."""

    n: int
    adj: tuple[int, ...]

    def __init__(self, n: int, adj: tuple[int, ...]):
        if type(n) is not int:
            raise ValueError(f"vertex count must be an integer, got {n!r}")
        if n < 0 or len(adj) != n:
            raise ValueError("adjacency row count must equal the vertex count")
        for i, row in enumerate(adj):
            if row >> n:
                raise ValueError(f"adjacency row {i} references unknown vertices")
            if row >> i & 1:
                raise ValueError(f"self-loop at vertex {i}")
            for j in _bits(row):
                if not adj[j] >> i & 1:
                    raise ValueError(f"edge {i}-{j} is not symmetric")
        self._set(n, adj)

    @classmethod
    def from_edges(cls, n: int, edges: Iterable[tuple[int, int]]) -> "FiniteGraph":
        """The graph on 0..n-1 with these edges, checked by the constructor."""
        rows = [0] * n
        for i, j in edges:
            rows[i] |= 1 << j
            rows[j] |= 1 << i
        return cls(n, tuple(rows))

    def adjacent(self, i: int, j: int) -> bool:
        return bool(self.adj[i] >> j & 1)

    def neighbors(self, i: int) -> Iterator[int]:
        return _bits(self.adj[i])

    def degree(self, i: int) -> int:
        return self.adj[i].bit_count()

    def edges(self) -> Iterator[tuple[int, int]]:
        """The edges (i, j), i < j, in ascending order."""
        return _row_pairs(self.adj)

    @cached_property
    def edge_count(self) -> int:
        return sum(map(int.bit_count, self.adj)) // 2

    @cached_property
    def _eccentricities(self) -> tuple[int, ...] | None:
        """Every vertex's eccentricity, or None when the graph is disconnected."""
        return bounded_eccentricities(self.adj)

    @property
    def eccentricities(self) -> tuple[int, ...]:
        """Every vertex's eccentricity; ValueError when the graph is disconnected or empty."""
        eccs = self._eccentricities
        if eccs is None:
            raise ValueError("metric is undefined on a disconnected graph")
        if not eccs:
            raise ValueError("metric is undefined on a graph with no vertices")
        return eccs


def bounded_eccentricities(adj: tuple[int, ...], lower=None,
                           upper=None) -> tuple[int, ...] | None:
    """Every vertex's eccentricity over the rows ``adj``, or None when they are disconnected.

    The bounding method of Takes and Kosters ("Computing the eccentricity
    distribution of large graphs", Algorithms 6(1), 2013).  ``lower[v] <=
    ecc(v) <= upper[v]`` must hold for every vertex; the defaults are 0 and
    n.  A vertex is open while its bounds differ.  A breadth-first search
    runs from an open vertex, alternately the one with the lowest lower
    bound and the one with the highest upper bound, ties to the lowest
    index.  A search from s of eccentricity e fixes ecc(s) = e and tightens
    every vertex v at distance d to max(e - d, d) <= ecc(v) <= e + d, and
    a vertex whose bounds meet is closed.  Exact whatever the order.
    """
    n = len(adj)
    lo = [0] * n if lower is None else list(lower)
    hi = [n] * n if upper is None else list(upper)
    full = (1 << n) - 1
    left = [v for v in range(n) if lo[v] != hi[v]]
    by_lower = True
    while left:
        s = min(left, key=lo.__getitem__) if by_lower else max(left, key=hi.__getitem__)
        by_lower = not by_lower
        # one frontier-mask search from s that stops once every vertex is
        # seen, so the last level, at distance e, keeps no distance.  It
        # walks the frontier itself, not with lattice._cover, to record each
        # vertex's level in the same pass: a _bits walk plus _cover ran about
        # 1.5x slower (1.1-2.2x) on the K(X) and 2^X graphs of 8-13-point blobs.
        dist = [None] * n
        seen = frontier = 1 << s
        e = 0
        while seen != full:
            reach = 0
            while frontier:
                low = frontier & -frontier
                i = low.bit_length() - 1
                dist[i] = e
                reach |= adj[i]
                frontier ^= low
            frontier = reach & ~seen
            if not frontier:
                return None
            seen |= frontier
            e += 1
        # s closes at e, so each search closes a vertex whatever the bounds
        left.remove(s)
        lo[s] = hi[s] = e
        still = []
        for v in left:
            d = dist[v]
            if d is None:
                d = e
            a, b = lo[v], hi[v]
            if e - d > a:
                a = e - d
            if d > a:
                a = d
            if e + d < b:
                b = e + d
            lo[v], hi[v] = a, b
            if a != b:
                still.append(v)
        left = still
    return tuple(lo)


def seed_eccentricities(G: FiniteGraph, lower, upper=None) -> None:
    """Compute G's eccentricities from bounds ``lower <= ecc <= upper`` per
    vertex (``upper`` None for none) and keep them as G's own, the tuple
    that radius, diameter, center, eccentricity and the CSV table read.
    The bounds must hold; the eccentricities are then exact."""
    G.__dict__["_eccentricities"] = bounded_eccentricities(G.adj, lower, upper)


def as_finite_graph(space) -> FiniteGraph:
    """Project any vertex space (image, family, function graph) to its rows."""
    rows = space.adjacency_rows
    return FiniteGraph._trusted(len(rows), rows)


def induced_subgraph(G: FiniteGraph, keep: Iterable[int]) -> FiniteGraph:
    """The subgraph on the kept vertices, renumbered in ascending order."""
    kept = sorted(set(keep))
    if kept and not 0 <= kept[0] <= kept[-1] < G.n:
        raise ValueError(f"vertex indices must lie in 0..{G.n - 1}")
    pos = {v: i for i, v in enumerate(kept)}
    rows = []
    for v in kept:
        row = 0
        for w in _bits(G.adj[v]):
            if w in pos:
                row |= 1 << pos[w]
        rows.append(row)
    return FiniteGraph._trusted(len(kept), tuple(rows))


# -- traversal ---------------------------------------------------------------


def bfs_distances(G: FiniteGraph, source: int) -> list[int | None]:
    """Each vertex's path distance from ``source``, None where there is no path."""
    adj, dist = G.adj, [None] * G.n
    seen = frontier = 1 << source
    d = 0
    while frontier:
        # one lowest-bit walk records the level and ORs its rows, as in
        # bounded_eccentricities
        reach = 0
        while frontier:
            low = frontier & -frontier
            i = low.bit_length() - 1
            dist[i] = d
            reach |= adj[i]
            frontier ^= low
        frontier = reach & ~seen
        seen |= frontier
        d += 1
    return dist


def connected_components(G: FiniteGraph) -> tuple[tuple[int, ...], ...]:
    """The components as ascending vertex tuples, in order of their lowest vertex."""
    return tuple(tuple(_bits(comp)) for comp in _components(G.adj))


def is_connected_graph(G: FiniteGraph) -> bool:
    full = (1 << G.n) - 1
    return _flood(G.adj, 1, full) == full


# -- cycles ------------------------------------------------------------------


class CycleWitness(Value):
    """A cyclic sequence of at least 3 distinct, consecutively adjacent vertices."""

    vertices: tuple[int, ...]

    def __init__(self, vertices: tuple[int, ...]):
        self._set(vertices)

    @property
    def length(self) -> int:
        return len(self.vertices)


def is_valid_cycle(G: FiniteGraph, vertices: Iterable[int]) -> bool:
    seq = tuple(vertices)
    if len(seq) < 3 or len(set(seq)) != len(seq):
        return False
    if any(not 0 <= v < G.n for v in seq):
        return False
    return all(G.adjacent(seq[i], seq[(i + 1) % len(seq)]) for i in range(len(seq)))


def girth(G: FiniteGraph) -> CycleWitness | None:
    """A shortest cycle, or None when the graph is acyclic.

    For each edge, the shortest path between its ends avoiding the edge
    closes a shortest cycle through it.
    """
    adj = G.adj
    best: tuple[int, ...] | None = None
    for u, v in G.edges():
        # v is the goal and is never expanded, so masking the edge out of u's row suffices
        path = _bfs(u, lambda i: _bits(adj[i] & ~(1 << v) if i == u else adj[i]), v.__eq__)
        if path is not None and (best is None or len(path) < len(best)):
            best = tuple(path)
            if len(best) == 3:
                break
    return CycleWitness(best) if best is not None else None


def longest_cycle(G: FiniteGraph, budget: int = DEFAULT_CYCLE_BUDGET) -> CycleWitness | None:
    """A maximum-length cycle by exact depth-first search with pruning.

    Simple paths are grown over vertices above the anchor (the cycle's
    minimum vertex).  After the search steps to v, the free vertices it can
    still reach are peeled: a vertex with fewer than two neighbours among
    them, v and the anchor cannot be interior to a path from v back to the
    anchor, so it is dropped, until nothing changes.  A branch is cut when
    the peeled set cannot beat the incumbent or the anchor has no
    neighbour in it or at v.  The anchor loop stops once the vertices from
    the anchor up cannot beat the incumbent.  Only subtrees without a
    longer cycle are cut and children are expanded in ascending order, so
    the incumbents, and the witness, are those of the unpruned search.
    The search keeps its own stack, one entry per path vertex, so a long
    path cannot exhaust Python's recursion limit.
    """
    if G.n > budget:
        raise BudgetError("longest-cycle search", f"{G.n} vertices", budget)
    best_len = 2  # cycles have length >= 3
    best_path: tuple[int, ...] | None = None
    adj = G.adj
    full_mask = (1 << G.n) - 1

    for anchor in range(G.n):
        if G.n - anchor <= best_len:
            break
        anchor_bit = 1 << anchor
        above = full_mask & ~((anchor_bit << 1) - 1)
        closes = adj[anchor]
        # path[i] is a path vertex, frees[i] the vertices still free after
        # it and pending[i] its children not yet expanded.
        path, frees, pending = [anchor], [above], [closes & above]
        while path:
            children = pending[-1]
            if not children:
                path.pop()
                frees.pop()
                pending.pop()
                continue
            low = children & -children
            pending[-1] = children ^ low
            v = low.bit_length() - 1
            free = frees[-1] ^ low
            path.append(v)
            frees.append(free)
            length = len(path)
            if length >= 3 and adj[v] >> anchor & 1 and length > best_len:
                best_len = length
                best_path = tuple(path)
            # peel the free vertices reachable from v that cannot be interior
            cand = _flood(adj, adj[v], free)
            ends = low | anchor_bit
            while cand:
                keep = cand | ends
                drop = 0
                for w in _bits(cand):
                    if (adj[w] & keep).bit_count() < 2:
                        drop |= 1 << w
                if not drop:
                    break
                cand ^= drop
            if length + cand.bit_count() > best_len and closes & (cand | low):
                pending.append(adj[v] & free)
            else:
                pending.append(0)
    return CycleWitness(best_path) if best_path is not None else None


# -- domination ----------------------------------------------------------------


def is_dominating(D: Iterable[int], G: FiniteGraph) -> bool:
    """Every vertex is in D or adjacent to a member of D."""
    cover = 0
    for d in D:
        if not 0 <= d < G.n:
            raise ValueError(f"vertex {d} is not in the graph")
        cover |= G.adj[d] | (1 << d)
    return cover == (1 << G.n) - 1


def minimum_dominating_set(G: FiniteGraph,
                           budget: int = DEFAULT_DOMINATING_BUDGET) -> frozenset[int]:
    """A dominating set of minimum size, by exact branch and bound."""
    if G.n > budget:
        raise BudgetError("dominating-set search", f"{G.n} vertices", budget)
    if not G.n:
        return frozenset()
    full = (1 << G.n) - 1
    closed = tuple(G.adj[i] | (1 << i) for i in range(G.n))
    # greedy cover for the initial upper bound
    chosen: list[int] = []
    covered = 0
    while covered != full:
        v = max(range(G.n), key=lambda i: (closed[i] & ~covered).bit_count())
        chosen.append(v)
        covered |= closed[v]
    best = list(chosen)
    max_gain = max(c.bit_count() for c in closed)

    def branch(covered: int, picked: list[int]) -> None:
        nonlocal best
        if covered == full:
            if len(picked) < len(best):
                best = list(picked)
            return
        missing = (full & ~covered).bit_count()
        lower = (missing + max_gain - 1) // max_gain
        if len(picked) + lower >= len(best):
            return
        # branch on the undominated vertex with the fewest closed dominators
        target = min(_bits(full & ~covered),
                     key=lambda v: closed[v].bit_count())
        for d in _bits(closed[target]):
            picked.append(d)
            branch(covered | closed[d], picked)
            picked.pop()

    branch(0, [])
    return frozenset(best)


# -- eccentricity, center, radius, diameter ------------------------------------


def eccentricity(G: FiniteGraph, v: int) -> int:
    return G.eccentricities[v]


def center(G: FiniteGraph) -> frozenset[int]:
    eccs = G.eccentricities
    r = min(eccs)
    return frozenset(v for v, e in enumerate(eccs) if e == r)


def radius(G: FiniteGraph) -> int:
    return min(G.eccentricities)


def diameter(G: FiniteGraph) -> int:
    return max(G.eccentricities)


# -- disconnecting sets ---------------------------------------------------------


def disconnects(Y: Iterable[Point], X: DigitalImage) -> bool:
    """True iff removing Y leaves the image disconnected."""
    rest = ((1 << len(X)) - 1) & ~X.mask_of(Y)
    if not rest:
        raise ValueError("cannot remove every point of the image")
    return _flood(X.neighbor_masks, rest & -rest, rest) != rest


# -- export -------------------------------------------------------------------


def to_dot(G: FiniteGraph, name: str = "G",
           highlight: CycleWitness | None = None, *, labels=str) -> str:
    """Graphviz source for the graph; an optional cycle is drawn bold.

    Vertex i is printed as the name string ``labels(i)``.
    """
    hot = set()
    if highlight is not None:
        seq = highlight.vertices
        hot = {tuple(sorted((seq[i], seq[(i + 1) % len(seq)]))) for i in range(len(seq))}
    out = io.StringIO()
    out.write(f"graph {name} {{\n")
    for i in range(G.n):
        out.write(f'  n{i} [label="{labels(i)}"];\n')
    for i, j in G.edges():
        style = " [style=bold color=red]" if (i, j) in hot else ""
        out.write(f"  n{i} -- n{j}{style};\n")
    out.write("}\n")
    return out.getvalue()


def metrics_csv(G: FiniteGraph, *, labels=str) -> str:
    """Per-vertex metric table: vertex, label, degree, eccentricity; labels as in
    to_dot, with each double quote printed as a single one."""
    eccs = G.eccentricities if G.n else ()
    lines = ["vertex,label,degree,eccentricity"]
    for v in range(G.n):
        label = labels(v).replace('"', "'")
        lines.append(f'{v},"{label}",{G.degree(v)},{eccs[v]}')
    return "\n".join(lines) + "\n"
