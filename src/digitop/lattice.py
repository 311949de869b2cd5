"""Digital images: finite sets of lattice points in Z^n under a c_u adjacency.

A digital image is treated as a graph whose vertices are lattice points and
whose edges are given by the c_u relation: two distinct points are adjacent
when at most u coordinates differ by exactly 1 and all other coordinates
agree.  Everything here is immutable and safe to share between threads.

Every search that only grows a set steps with ``_cover``, the OR of
bitmask rows over a mask's bits (over closed rows, a set's closed cover).
``_flood`` grows a seed with it inside a mask, and ``_components``, the
one component walk of images and graphs, floods from the lowest vertex
left.  ``_bfs`` returns the first path it finds to a goal, expanding
neighbours in the order given; girth, ``FunctionGraph.find_path`` and
contractibility call it.  The homotopy searches grow their balls from
both ends in ``homotopy._RowGraph.path``, which states when they meet.

An image's neighbour masks come from one kernel: each point is one integer
key in a mixed radix wide enough that no c_u step wraps, so each of its
positive steps is one addition and one lookup (see ``neighbor_masks``).
The constructor checks each point once, with ``_as_point``.

Every JSON document loader (images here, families, maps, multifunctions,
homotopy tables and the CLI's map pairs) reads its top-level fields through
``_fields``, the one place a non-object or a missing key is refused, and
every map-like document's ``pairs`` through ``_pairs``, every member or
value set of points through ``_point_list``, and any other array field
(a homotopy's ``slices``) through ``_array``.
"""

from __future__ import annotations

import itertools
import re
from collections import deque
from collections.abc import Iterable, Iterator, Sequence
from functools import lru_cache
from operator import add

from .value import Value, cached_property

Point = tuple[int, ...]

#: The c_u selector is a plain positive integer u with 1 <= u <= dim.
AdjacencyKind = int


def cu_adjacent(x: Point, y: Point, u: AdjacencyKind) -> bool:
    """c_u adjacency: x != y, at most u coordinates differ by exactly 1, rest equal."""
    if len(x) != len(y):
        raise ValueError(f"dimension mismatch: point {x} vs point {y}")
    if not 1 <= u <= len(x):
        raise ValueError(f"adjacency c_{u} is invalid for dimension {len(x)}")
    if x == y:
        return False
    ones = 0
    for a, b in zip(x, y):
        d = a - b
        if d == 0:
            continue
        if d == 1 or d == -1:
            ones += 1
        else:
            return False
    return ones <= u


def adjacent_or_equal(x: Point, y: Point, u: AdjacencyKind) -> bool:
    """The closed relation: equal or c_u-adjacent."""
    return x == y or cu_adjacent(x, y, u)


@lru_cache(maxsize=None)
def _positive_steps(dim: int, u: int) -> tuple[tuple[int, ...], ...]:
    """The c_u steps whose first nonzero entry is +1, as one column per coordinate.

    These are the nonzero offsets in {-1,0,1}^dim with at most u nonzero
    entries, one of each pair delta, -delta.
    """
    steps = [delta for delta in itertools.product((-1, 0, 1), repeat=dim)
             if sum(map(bool, delta)) <= u and delta > (0,) * dim]
    return tuple(zip(*steps))


def _as_point(p, dim: int | None = None) -> Point:
    try:
        pt = tuple(p)
    except TypeError:
        raise ValueError(f"not a lattice point: {p!r}") from None
    # bool is an int subclass, but true/false are not coordinates
    if not pt or not all(type(c) is int for c in pt):
        raise ValueError(f"not a lattice point: {p!r}")
    if dim is not None and len(pt) != dim:
        raise ValueError(f"point {pt} has dimension {len(pt)}, expected {dim}")
    return pt


class DigitalImage(Value):
    """A finite digital image (X, c_u): lattice points plus a c_u selector.

    Points are stored sorted lexicographically and must be distinct, so two
    images are equal exactly when they have the same point set, dimension
    and adjacency.
    """

    dim: int
    points: tuple[Point, ...]
    adjacency: AdjacencyKind

    def __init__(self, dim: int, points: Iterable, adjacency: AdjacencyKind):
        # bool is an int subclass, but true/false are no dimension or selector
        if type(dim) is not int:
            raise ValueError(f"dim must be an integer, got {dim!r}")
        if dim < 1:
            raise ValueError("dimension must be positive")
        if type(adjacency) is not int:
            raise ValueError(f"adjacency must be an integer, got {adjacency!r}")
        if not 1 <= adjacency <= dim:
            raise ValueError(f"adjacency c_{adjacency} is invalid for dimension {dim}")
        # point by point, so a refusal names the first bad point
        pts = tuple(sorted(_as_point(p, dim) for p in points))
        if not pts:
            raise ValueError("a digital image needs at least one point")
        # the point index, built here, finds any duplicate at once
        index = dict(zip(pts, range(len(pts))))
        if len(index) < len(pts):
            for a, b in zip(pts, pts[1:]):
                if a == b:
                    raise ValueError(f"duplicate point {a}")
        self._set(dim, pts, adjacency)
        self.__dict__["point_index"] = index

    @classmethod
    def of(cls, points: Iterable, adjacency: AdjacencyKind = 1) -> DigitalImage:
        """The image on ``points``, of the first point's dimension; the constructor checks all."""
        pts = list(points)
        if not pts:
            raise ValueError("a digital image needs at least one point")
        return cls(len(_as_point(pts[0])), pts, adjacency)

    @cached_property
    def point_index(self) -> dict[Point, int]:
        """Per point, its index in ``points``; the constructor stores the one it built."""
        return dict(zip(self.points, range(len(self.points))))

    # -- the generic vertex-space protocol (shared with families and
    #    function graphs): vertices / vertex_index / adjacency_rows --------

    @property
    def vertices(self) -> tuple[Point, ...]:
        return self.points

    @property
    def vertex_index(self) -> dict[Point, int]:
        return self.point_index

    @property
    def adjacency_rows(self) -> tuple[int, ...]:
        """Per point, the bitmask of its neighbors: the image's graph as rows."""
        return self.neighbor_masks

    def adjacent(self, x: Point, y: Point) -> bool:
        return cu_adjacent(x, y, self.adjacency)

    def adjacent_or_equal(self, x: Point, y: Point) -> bool:
        return x == y or cu_adjacent(x, y, self.adjacency)

    # -- basic queries ---------------------------------------------------

    def __len__(self) -> int:
        return len(self.points)

    def __contains__(self, p) -> bool:
        try:
            return _as_point(p, self.dim) in self.point_index
        except ValueError:  # not a lattice point, or one of another dimension
            return False

    @cached_property
    def point_set(self) -> frozenset[Point]:
        return frozenset(self.points)

    def neighbors(self, x: Point) -> frozenset[Point]:
        """N(X, x, c_u): the points of the image adjacent to x."""
        x = _as_point(x, self.dim)
        i = self.point_index.get(x)
        if i is None:
            raise ValueError(f"point {x} is not in the image")
        return self.points_of(self.neighbor_masks[i])

    @cached_property
    def neighbor_masks(self) -> tuple[int, ...]:
        """Per point, the bitmask (over the point order) of its open neighborhood.

        Each point is read as one integer key: its coordinates are the
        digits of a mixed radix, each coordinate after the first in a radix
        two more than its extent (max - min).  A point's coordinate and a
        stepped point's differ by at most extent + 1, less than the radix,
        so no step wraps: the neighbour across a step is the point whose
        key is the point's key plus the step's.  Each step with a positive
        key is one addition and one dictionary lookup, and sets both ends.
        """
        pts = self.points
        n = len(pts)
        masks = [0] * n
        cols = _positive_steps(self.dim, self.adjacency)
        coords = tuple(zip(*pts))
        keys, steps = coords[0], cols[0]
        for coord, col in zip(coords[1:], cols[1:]):
            width = max(coord) - min(coord) + 2
            keys = map(add, map(width.__mul__, keys), coord)
            steps = map(add, map(width.__mul__, steps), col)
        index = dict(zip(keys, range(n)))
        steps = tuple(steps)
        for key, i in index.items():
            for step in steps:
                j = index.get(key + step)
                if j is not None:
                    masks[i] |= 1 << j
                    masks[j] |= 1 << i
        return tuple(masks)

    @cached_property
    def closed_neighbor_masks(self) -> tuple[int, ...]:
        return tuple(m | (1 << i) for i, m in enumerate(self.neighbor_masks))

    @cached_property
    def connectivity_order(self) -> tuple[tuple[int, ...], tuple[tuple[int, ...], ...]]:
        """Point indices in breadth-first order, one component after another.

        Each component is searched from its lowest point, the lowest index
        not placed yet.  The second tuple holds, per position, the earlier
        positions whose points are adjacent to the point there, so a
        backtracking search in this order tests each adjacent pair as soon
        as both ends are placed.
        """
        nbr = self.neighbor_masks
        order: list[int] = []
        placed = 0
        for root in range(len(nbr)):
            if placed >> root & 1:
                continue
            placed |= 1 << root
            k = len(order)
            order.append(root)
            while k < len(order):  # the order is its own queue
                fresh = nbr[order[k]] & ~placed
                placed |= fresh
                while fresh:
                    low = fresh & -fresh
                    order.append(low.bit_length() - 1)
                    fresh ^= low
                k += 1
        # position k's earlier neighbours: its neighbours among order[:k]
        earlier = []
        before, position = 0, {}  # the points placed so far; a point's bit -> its position
        for k, i in enumerate(order):
            row, found = nbr[i] & before, []
            while row:
                low = row & -row
                found.append(position[low])
                row ^= low
            found.sort()
            earlier.append(tuple(found))
            before |= 1 << i
            position[1 << i] = k
        return tuple(order), tuple(earlier)

    def mask_of(self, pts: Iterable[Point]) -> int:
        idx = self.point_index
        mask = 0
        for p in pts:
            p = _as_point(p, self.dim)
            if p not in idx:
                raise ValueError(f"point {p} is not in the image")
            mask |= 1 << idx[p]
        return mask

    def points_of(self, mask: int) -> frozenset[Point]:
        return frozenset(self.points[i] for i in _bits(mask))

    # -- connectivity ----------------------------------------------------

    def is_connected_subset(self, pts: Iterable[Point]) -> bool:
        return is_connected(pts, self)

    def is_connected(self) -> bool:
        full = (1 << len(self.points)) - 1
        return _flood(self.neighbor_masks, 1, full) == full

    def components(self) -> tuple[frozenset[Point], ...]:
        """The c_u components of the image, in order of their smallest point."""
        return tuple(map(self.points_of, _components(self.neighbor_masks)))

    def restrict(self, pts: Iterable[Point]) -> DigitalImage:
        """The image on a nonempty subset of the points, same adjacency."""
        sub = [_as_point(p, self.dim) for p in pts]
        for p in sub:
            if p not in self.point_set:
                raise ValueError(f"point {p} is not in the image")
        return DigitalImage(self.dim, tuple(sub), self.adjacency)


def _bits(mask: int) -> Iterator[int]:
    while mask:
        low = mask & -mask
        yield low.bit_length() - 1
        mask ^= low


def _cover(rows: Sequence[int], mask: int) -> int:
    """The OR of ``rows[i]`` over the bits i of ``mask``: one breadth-first step."""
    c = 0
    while mask:
        low = mask & -mask
        c |= rows[low.bit_length() - 1]
        mask ^= low
    return c


def _flood(rows: Sequence[int], seed: int, within: int) -> int:
    """The part of ``within`` reachable from ``seed`` along the bitmask ``rows``."""
    seen = frontier = seed & within
    while frontier:
        frontier = _cover(rows, frontier) & within & ~seen
        seen |= frontier
    return seen


def _components(rows: Sequence[int]) -> Iterator[int]:
    """The components of the bitmask ``rows`` as masks, in order of their lowest bit."""
    left = (1 << len(rows)) - 1
    while left:
        comp = _flood(rows, left & -left, left)
        yield comp
        left ^= comp


def _bfs(start, neighbors, is_goal):
    """Breadth-first search from ``start``, expanding ``neighbors(v)`` in order.

    Returns the path to the first vertex found with ``is_goal``, or None if
    there is none.
    """
    prev = {start: None}
    if is_goal(start):
        return [start]
    queue = deque([start])
    while queue:
        v = queue.popleft()
        for w in neighbors(v):
            if w not in prev:
                prev[w] = v
                if is_goal(w):
                    path = [w]
                    while prev[path[-1]] is not None:
                        path.append(prev[path[-1]])
                    return path[::-1]
                queue.append(w)
    return None


def _row_pairs(rows: tuple[int, ...]) -> Iterator[tuple[int, int]]:
    """The pairs (i, j), i < j, with bit j set in ``rows[i]``, in ascending order."""
    for i, row in enumerate(rows):
        for j in _bits(row >> (i + 1)):
            yield (i, i + 1 + j)


def interval(a: int, b: int) -> DigitalImage:
    """The digital interval [a, b]_Z with c_1 adjacency."""
    if a > b:
        raise ValueError(f"empty interval [{a}, {b}]")
    return DigitalImage(1, tuple((i,) for i in range(a, b + 1)), 1)


def neighbors(X: DigitalImage, x: Point) -> frozenset[Point]:
    return X.neighbors(x)


def is_connected(A: Iterable[Point], X: DigitalImage) -> bool:
    """True iff every pair of points of A is joined by a c_u path inside A."""
    mask = X.mask_of(A)
    if not mask:
        raise ValueError("connectivity of the empty set is undefined here")
    return _flood(X.neighbor_masks, mask & -mask, mask) == mask


# -- paths ----------------------------------------------------------------


class LatticePath(Value):
    """A c_u path y_0 ... y_m in an image: consecutive steps adjacent or equal."""

    image: DigitalImage
    steps: tuple[Point, ...]

    def __init__(self, image: DigitalImage, steps: Iterable):
        steps = tuple(_as_point(p, image.dim) for p in steps)
        if not steps:
            raise ValueError("a path needs at least one point")
        for p in steps:
            if p not in image.point_set:
                raise ValueError(f"path point {p} is not in the image")
        for a, b in zip(steps, steps[1:]):
            if not image.adjacent_or_equal(a, b):
                raise ValueError(f"consecutive path points {a}, {b} are not adjacent")
        self._set(image, steps)

    @property
    def start(self) -> Point:
        return self.steps[0]

    @property
    def end(self) -> Point:
        return self.steps[-1]

    @property
    def length(self) -> int:
        """Number of steps m (one less than the number of entries)."""
        return len(self.steps) - 1


def concatenate(p1: LatticePath, p2: LatticePath) -> LatticePath:
    """The product path p1 . p2; the shared endpoint appears once."""
    if p1.image != p2.image:
        raise ValueError("paths live in different images")
    if p1.end != p2.start:
        raise ValueError(f"cannot concatenate: {p1.end} != {p2.start}")
    return LatticePath(p1.image, p1.steps + p2.steps[1:])


# -- small named images ----------------------------------------------------

# A 5-point cycle cannot be realized with c_1 (those graphs are bipartite)
# and does not embed in (Z^2, c_2) without chords, so S_5 lives in Z^3
# under c_3.  Even lengths >= 6 use a flattened hexagon in (Z^2, c_2).
_PENTAGON = ((0, 0, 0), (1, 0, 1), (2, 1, 0), (1, 2, -1), (0, 1, -1))


def cycle_points(n: int) -> tuple[Point, ...]:
    """The points of an n-cycle image, in cyclic order."""
    if n == 4:
        return ((0, 0), (1, 0), (1, 1), (0, 1))
    if n == 5:
        return _PENTAGON
    if n >= 6 and n % 2 == 0:
        k = n // 2 - 1
        top = [(i, 1) for i in range(1, k + 1)]
        bottom = [(i, -1) for i in range(k, 0, -1)]
        return tuple([(0, 0)] + top + [(k + 1, 0)] + bottom)
    raise ValueError(f"no cycle construction for n={n} (need 4, 5 or even >= 6)")


def cycle_image(n: int) -> DigitalImage:
    """A digital image whose adjacency graph is exactly an n-cycle."""
    pts = cycle_points(n)
    u = {4: 1, 5: 3}.get(n, 2)
    return DigitalImage.of(pts, u)


# -- JSON ------------------------------------------------------------------


def image_to_json(X: DigitalImage) -> dict:
    return {
        "dim": X.dim,
        "adjacency": f"c{X.adjacency}",
        "points": [list(p) for p in X.points],
    }


def _fields(doc, what: str, *keys: str) -> list:
    """The values of ``keys`` in the JSON object ``doc``, in that order.

    Every document loader reads its fields here.  A ValueError says
    "<what> document must be a JSON object" or "<what> document is
    missing '<key>'", naming the first key that is absent.
    """
    if not isinstance(doc, dict):
        raise ValueError(f"{what} document must be a JSON object")
    for key in keys:
        if key not in doc:
            raise ValueError(f"{what} document is missing {key!r}")
    return [doc[key] for key in keys]


def _array(value, what: str, field: str) -> list:
    """A document's ``field``, checked to be an array; a ValueError names the
    document kind and the field."""
    if not isinstance(value, list):
        raise ValueError(f"{what} document's {field} must be an array, got {value!r}")
    return value


def _pairs(pairs, what: str) -> list:
    """A document's ``pairs``, checked to be an array of two-item arrays.

    The map, family-map and multifunction loaders unpack their pairs
    through here.  A ValueError names the document kind and the entry.
    """
    for entry in _array(pairs, what, "pairs"):
        if not isinstance(entry, list) or len(entry) != 2:
            raise ValueError(f"{what} document's pair {entry!r} is not a two-item array")
    return pairs


def _point_list(value, what: str, entry: str) -> list:
    """An entry that holds points (a member, a value set), checked to be an array.

    The family, family-map and multifunction loaders read such entries
    through here, one level below ``_pairs``.  A ValueError names the
    document kind and the entry.
    """
    if not isinstance(value, list):
        raise ValueError(f"{what} document's {entry} {value!r} is not an array of points")
    return value


#: An adjacency selector's only spelling: no sign, blank, leading zero or non-ASCII digit.
_SELECTOR = re.compile(r"c(0|[1-9][0-9]*)")


def image_from_json(doc: dict) -> DigitalImage:
    dim, adjacency, points = _fields(doc, "image", "dim", "adjacency", "points")
    if type(dim) is not int:
        raise ValueError(f"dim must be an integer, got {dim!r}")
    if not isinstance(points, list):
        raise ValueError("points must be an array of point arrays")
    if not isinstance(adjacency, str) or not _SELECTOR.fullmatch(adjacency):
        raise ValueError(f"bad adjacency selector {adjacency!r} (expected e.g. 'c1')")
    # each point array becomes a tuple once, so a refused point's message prints a tuple
    return DigitalImage(dim, [tuple(p) if isinstance(p, list) else p for p in points],
                        int(adjacency[1:]))
