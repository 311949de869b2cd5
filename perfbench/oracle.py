"""Independent answers for the benchmark's jobs, in plain stdlib code.

Nothing here imports digitop.  Images are lists of integer points with a
c_u selector; graphs are lists of adjacency bitmasks; maps are tuples of
value indices.  Every routine is the direct, small-input method: power-set
scans, BFS from every vertex, subset dynamic programming, brute-force step
search over continuous maps.
"""

from __future__ import annotations

import itertools
import re
from collections import deque


def bits(mask):
    while mask:
        low = mask & -mask
        yield low.bit_length() - 1
        mask ^= low


def popcount(mask):
    return bin(mask).count("1")


def adjacent(p, q, u):
    """c_u adjacency of two distinct lattice points."""
    ones = 0
    for a, b in zip(p, q):
        d = a - b
        if d in (1, -1):
            ones += 1
        elif d:
            return False
    return 0 < ones <= u


class Image:
    """A finite image: sorted points, c_u selector, neighbourhood bitmasks."""

    def __init__(self, points, u):
        self.points = sorted(tuple(p) for p in points)
        self.u = u
        self.dim = len(self.points[0])
        self.index = {p: i for i, p in enumerate(self.points)}
        n = len(self.points)
        self.nbr = [0] * n
        for i, p in enumerate(self.points):
            for j, q in enumerate(self.points):
                if adjacent(p, q, u):
                    self.nbr[i] |= 1 << j
        self.closed = [m | (1 << i) for i, m in enumerate(self.nbr)]

    def __len__(self):
        return len(self.points)

    def doc(self):
        return {"dim": self.dim, "adjacency": f"c{self.u}",
                "points": [list(p) for p in self.points]}

    def connected(self, mask):
        if not mask:
            return False
        start = mask & -mask
        seen = start
        frontier = start
        while frontier:
            nxt = 0
            for i in bits(frontier):
                nxt |= self.nbr[i]
            nxt &= mask & ~seen
            seen |= nxt
            frontier = nxt
        return seen == mask

    def members(self, kind):
        """Nonempty subsets as masks, ascending: all of them or the connected ones."""
        full = range(1, 1 << len(self.points))
        if kind == "full":
            return list(full)
        return [m for m in full if self.connected(m)]

    def member_set(self, mask):
        return frozenset(self.points[i] for i in bits(mask))


def image_from_doc(doc):
    return Image([tuple(p) for p in doc["points"]], int(doc["adjacency"][1:]))


# -- graphs -------------------------------------------------------------------


class Graph:
    """An undirected graph on 0..n-1 with adjacency bitmasks and labels."""

    def __init__(self, adj, labels):
        self.adj = adj
        self.n = len(adj)
        self.labels = labels
        self.vertex_of = {lab: i for i, lab in enumerate(labels)}

    @property
    def edge_count(self):
        return sum(popcount(a) for a in self.adj) // 2

    def edge_set(self):
        return {(i, j) for i in range(self.n) for j in bits(self.adj[i]) if i < j}

    def degree(self, v):
        return popcount(self.adj[v])

    def distances(self, s):
        dist = [-1] * self.n
        dist[s] = 0
        queue = deque([s])
        while queue:
            i = queue.popleft()
            for j in bits(self.adj[i]):
                if dist[j] < 0:
                    dist[j] = dist[i] + 1
                    queue.append(j)
        return dist

    def eccentricities(self):
        eccs = []
        for s in range(self.n):
            dist = self.distances(s)
            if min(dist) < 0:
                raise ValueError("graph is disconnected")
            eccs.append(max(dist))
        return eccs

    def is_cycle(self, seq):
        k = len(seq)
        if k < 3 or len(set(seq)) != k:
            return False
        return all(self.adj[seq[i]] >> seq[(i + 1) % k] & 1 for i in range(k))

    def girth(self):
        """Shortest cycle length (0 when acyclic), by BFS from every vertex."""
        best = 0
        for s in range(self.n):
            dist = [-1] * self.n
            parent = [-1] * self.n
            dist[s] = 0
            queue = deque([s])
            while queue:
                i = queue.popleft()
                for j in bits(self.adj[i]):
                    if dist[j] < 0:
                        dist[j] = dist[i] + 1
                        parent[j] = i
                        queue.append(j)
                    elif parent[i] != j:
                        length = dist[i] + dist[j] + 1
                        if best == 0 or length < best:
                            best = length
        return best

    def longest_cycle(self):
        """Longest cycle length (0 when acyclic), by subset DP over simple paths.

        For each anchor a (the cycle's smallest vertex), reach[mask] is the
        set of end vertices of paths from a that visit exactly mask.
        """
        best = 0
        for a in range(self.n):
            above = self.adj[a] & ~((1 << (a + 1)) - 1)
            if popcount(above) < 2:
                continue
            start = 1 << a
            reach = {start: start}
            layer = [start]
            size = 1
            while layer:
                nxt = {}
                for mask in layer:
                    ends = reach[mask]
                    for v in bits(ends):
                        if size >= 3 and self.adj[v] >> a & 1 and v != a:
                            best = max(best, size)
                        ext = self.adj[v] & ~mask & ~((1 << (a + 1)) - 1)
                        for w in bits(ext):
                            m2 = mask | (1 << w)
                            nxt[m2] = nxt.get(m2, 0) | (1 << w)
                reach = nxt
                layer = list(nxt)
                size += 1
        return best

    def domination_number(self):
        full = (1 << self.n) - 1
        closed = [a | (1 << i) for i, a in enumerate(self.adj)]
        for k in range(1, self.n + 1):
            for combo in itertools.combinations(range(self.n), k):
                cover = 0
                for v in combo:
                    cover |= closed[v]
                if cover == full:
                    return k
        return 0

    def dominates(self, vertices):
        cover = 0
        for v in vertices:
            cover |= self.adj[v] | (1 << v)
        return cover == (1 << self.n) - 1


def image_graph(img):
    return Graph(list(img.nbr), list(img.points))


def hyperspace_graph(img, kind):
    """The lifted graph on 2^X or K(X): each member within one closed step of the other."""
    masks = img.members(kind)
    covers = []
    for m in masks:
        c = 0
        for i in bits(m):
            c |= img.closed[i]
        covers.append(c)
    n = len(masks)
    adj = [0] * n
    for i in range(n):
        mi, ci = masks[i], covers[i]
        for j in range(i + 1, n):
            if not mi & ~covers[j] and not masks[j] & ~ci:
                adj[i] |= 1 << j
                adj[j] |= 1 << i
    return Graph(adj, [img.member_set(m) for m in masks])


def view_graph(img, view):
    return image_graph(img) if view == "image" else hyperspace_graph(img, view)


# -- labels as the CLI prints them ---------------------------------------------

_POINT = re.compile(r"\(([-\d,]+)\)|(-?\d+)")


def parse_label(text):
    """A vertex label back into a point or a frozenset of points."""
    text = text.strip()
    if text.startswith("{"):
        return frozenset(_points_in(text[1:-1]))
    pts = _points_in(text)
    if len(pts) != 1:
        raise ValueError(f"bad label {text!r}")
    return pts[0]


def _points_in(text):
    out = []
    for tup, single in _POINT.findall(text):
        out.append(tuple(int(c) for c in tup.split(",")) if tup else (int(single),))
    return out


def shift(obj, off):
    """Translate every point (a list of ints) inside a JSON value by off."""
    if isinstance(obj, list):
        if obj and all(isinstance(c, int) for c in obj):
            return [c + d for c, d in zip(obj, off)]
        return [shift(v, off) for v in obj]
    if isinstance(obj, dict):
        return {k: shift(v, off) for k, v in obj.items()}
    return obj


def shift_label(lab, off):
    if isinstance(lab, frozenset):
        return frozenset(tuple(c - d for c, d in zip(p, off)) for p in lab)
    return tuple(c - d for c, d in zip(lab, off))


# -- maps between images --------------------------------------------------------


def continuous(X, Y, values):
    """values[i] is the index in Y of the image of X.points[i]."""
    for i in range(len(X)):
        for j in bits(X.nbr[i]):
            if not Y.closed[values[i]] >> values[j] & 1:
                return False
    return True


def _order(X):
    """Points of X in BFS order per component, with earlier neighbours."""
    order, placed = [], 0
    for root in range(len(X)):
        if placed >> root & 1:
            continue
        placed |= 1 << root
        queue = deque([root])
        while queue:
            i = queue.popleft()
            order.append(i)
            for j in bits(X.nbr[i] & ~placed):
                placed |= 1 << j
                queue.append(j)
    pos = {i: k for k, i in enumerate(order)}
    earlier = [[order[t] for t in range(k) if X.nbr[i] >> order[t] & 1]
               for k, i in enumerate(order)]
    return order, earlier, pos


def continuous_maps(X, Y, allowed=None, limit=None):
    """All continuous maps as value tuples; allowed[i] masks the values at i."""
    order, earlier, _ = _order(X)
    full = (1 << len(Y)) - 1
    values = [0] * len(X)
    out = []

    def grow(k):
        if limit is not None and len(out) > limit:
            return
        if k == len(order):
            out.append(tuple(values))
            return
        i = order[k]
        mask = full if allowed is None else allowed[i]
        for t in earlier[k]:
            mask &= Y.closed[values[t]]
        for v in bits(mask):
            values[i] = v
            grow(k + 1)

    grow(0)
    return out


def step_neighbours(X, Y, h, strong):
    """Continuous maps one deformation step from h (h itself included).

    Plain step: each value stays within one closed step of h.  Strong step:
    the value at x is within one closed step of h at every x' adjacent or
    equal to x.
    """
    allowed = []
    for i in range(len(X)):
        if strong:
            m = (1 << len(Y)) - 1
            for j in bits(X.closed[i]):
                m &= Y.closed[h[j]]
        else:
            m = Y.closed[h[i]]
        allowed.append(m)
    return continuous_maps(X, Y, allowed)


def homotopy_distance(X, Y, f, g, strong):
    """Fewest deformation steps from f to g, or None: BFS over continuous maps."""
    if f == g:
        return 0
    dist = {f: 0}
    queue = deque([f])
    while queue:
        h = queue.popleft()
        for k in step_neighbours(X, Y, h, strong):
            if k not in dist:
                dist[k] = dist[h] + 1
                if k == g:
                    return dist[k]
                queue.append(k)
    return None


def contractible(X):
    """True iff the identity deforms to a constant, by depth-first step search
    that tries maps with the smallest image first."""
    ident = tuple(range(len(X)))
    seen = {ident}
    stack = [ident]
    while stack:
        h = stack.pop()
        if len(set(h)) == 1:
            return True
        nxt = [k for k in step_neighbours(X, X, h, False) if k not in seen]
        nxt.sort(key=lambda k: -len(set(k)))
        for k in nxt:
            seen.add(k)
        stack.extend(nxt)
    return False


def function_values(X, Y, doc_pairs):
    table = {tuple(x): tuple(y) for x, y in doc_pairs}
    return tuple(Y.index[table[p]] for p in X.points)


def check_step_table(X, Y, slices, f, g, strong):
    """A homotopy step table re-checked directly; slices are value tuples."""
    if not slices or slices[0] != f or slices[-1] != g:
        return "witness endpoints differ from f and g"
    for h in slices:
        if not continuous(X, Y, h):
            return "witness slice is not continuous"
    for h0, h1 in zip(slices, slices[1:]):
        for i in range(len(X)):
            near = X.closed[i] if strong else 1 << i
            for j in bits(near):
                if not Y.closed[h0[i]] >> h1[j] & 1:
                    return "witness step moves too far"
    return None


# -- multivalued maps -------------------------------------------------------------


def preserves_connectivity(X, Y, F):
    """F[i] is a value mask over Y; every connected A has a connected F(A)."""
    for m in X.members("connected"):
        img = 0
        for i in bits(m):
            img |= F[i]
        if not Y.connected(img):
            return False
    return True


def subdivision_points(X, r):
    """Per base point, the points of its r-cell, coordinates scaled by r."""
    cells = []
    for p in X.points:
        cells.append([tuple(r * c + k for c, k in zip(p, delta))
                      for delta in itertools.product(range(r), repeat=X.dim)])
    return cells


def has_generator(X, Y, F, r):
    """Whether a continuous map on S(X, r) takes exactly F(x) on each x-cell."""
    cells = subdivision_points(X, r)
    S = Image([q for cell in cells for q in cell], X.u)
    cell_of = [0] * len(S)
    for ci, cell in enumerate(cells):
        for q in cell:
            cell_of[S.index[q]] = ci
    allowed = [F[cell_of[i]] for i in range(len(S))]
    order, earlier, _ = _order(S)
    values = [0] * len(S)
    left = [len(cell) for cell in cells]
    covered = [0] * len(cells)

    def grow(k):
        if k == len(order):
            return all(covered[c] == F[c] for c in range(len(cells)))
        i = order[k]
        c = cell_of[i]
        mask = allowed[i]
        for t in earlier[k]:
            mask &= Y.closed[values[t]]
        missing = popcount(F[c] & ~covered[c])
        if missing > left[c]:
            return False
        if missing == left[c]:
            mask &= F[c] & ~covered[c]
        left[c] -= 1
        old = covered[c]
        for v in bits(mask):
            values[i] = v
            covered[c] = old | (1 << v)
            if grow(k + 1):
                return True
        covered[c] = old
        left[c] += 1
        return False

    return grow(0)


def check_generator(X, Y, F, r, gen_doc):
    """The CLI's generator witness re-checked on the translated inputs."""
    cells = subdivision_points(X, r)
    S = image_from_doc(gen_doc["domain"])
    if sorted(S.points) != sorted(q for cell in cells for q in cell):
        return "generator domain is not the subdivision"
    table = {tuple(x): tuple(y) for x, y in gen_doc["pairs"]}
    if set(table) != set(S.points) or any(y not in Y.index for y in table.values()):
        return "generator table is not a map into the codomain"
    values = tuple(Y.index[table[p]] for p in S.points)
    if not continuous(S, Y, values):
        return "generator is not continuous"
    for ci, cell in enumerate(cells):
        got = 0
        for q in cell:
            got |= 1 << Y.index[table[q]]
        if got != F[ci]:
            return "generator misses a value set"
    return None
