"""Function graphs and homotopy decision by breadth-first search.

The vertices of a function graph are the continuous maps X -> Y.  Two
distinct maps are pointwise-adjacent ("phi") when their values at every
point are adjacent or equal, and cross-adjacent ("psi") when values at any
two adjacent-or-equal domain points are adjacent or equal.  Homotopy is
decided by reachability in the phi graph and strong homotopy by
reachability in the psi graph; each witness path converts to a step table
that an independent verifier accepts.

The adjacency rule is written once, as the allow masks of
``_allow_masks``: per point, the values a neighbour of a map may take, a
box around the map.  One kernel, ``_continuous_rows``, builds each
continuous row inside a list of boxes once, with the mask of the boxes
that hold it.  A map is its value row (``FiniteFunction.row``).  The
graph of rows is ``_RowGraph``, generated lazily: the decisions stop once
decided.  The homotopy searches grow balls from f and from g, one level
(one kernel call) at a time, in ``_RowGraph.path``, whose docstring
states when they meet; their witness is the lexicographically least
shortest path from f, the one a search from f alone finds over sorted
neighbours.  Contractibility searches from the identity, one row at a
time, for a map one phi step from a constant.  A search charges its
function budget, per row generated, the number of expanded maps whose
box holds it: the rows that expanding each map alone would generate; a
row of an intersected box counts once.
``build_function_graph`` enumerates the maps with one full box and their
adjacency with one kernel call over all their boxes; its ``vertices``
are built only when asked for, and its ``find_path`` is the reference
the lazy search is tested against.

For two given maps, each closeness rule is written once on rows and
returns domain indices: ``phi_counterexample`` scans the domain,
``psi_counterexample`` the domain's closed adjacency rows.  ``phi_adjacent``,
``psi_adjacent`` and the step-table verifier ``verify_homotopy`` read them.
"""

from __future__ import annotations

from functools import lru_cache, reduce
from operator import and_, getitem, itemgetter, or_

from .errors import BudgetError
from .functions import (FiniteFunction, function_from_json, function_to_json, induced_map,
                        is_continuous)
from .hyperspace import DEFAULT_POINT_BUDGET, family_of
from .lattice import (DigitalImage, _array, _as_point, _bfs, _bits, _fields, _flood,
                      _row_pairs)
from .value import Value, cached_property

#: Cap on the raw search space #Y ** #X of a function enumeration, and on
#: the continuous rows one lazy search generates over all its expansions.
DEFAULT_FUNCTION_BUDGET = 10 ** 6

PHI = "phi"
PSI = "psi"


def _check_same_signature(f: FiniteFunction, g: FiniteFunction) -> None:
    if f.domain != g.domain or f.codomain != g.codomain:
        raise ValueError("functions must share domain and codomain")


def phi_adjacent(f: FiniteFunction, g: FiniteFunction) -> bool:
    """Pointwise closeness: f != g and f(x), g(x) adjacent or equal for all x."""
    _check_same_signature(f, g)
    return f != g and phi_counterexample(f, g) is None


def psi_adjacent(f: FiniteFunction, g: FiniteFunction) -> bool:
    """Cross closeness: f != g and f(x0), g(x1) adjacent or equal whenever x0, x1 are."""
    _check_same_signature(f, g)
    return f != g and psi_counterexample(f, g) is None


def phi_counterexample(f: FiniteFunction, g: FiniteFunction) -> int | None:
    """The index of the first domain vertex where f, g are neither adjacent nor equal, or None."""
    _check_same_signature(f, g)
    cod_rows = f.codomain.adjacency_rows
    for i, (a, b) in enumerate(zip(f.row, g.row)):
        if a != b and not cod_rows[a] >> b & 1:
            return i
    return None


def psi_counterexample(f: FiniteFunction, g: FiniteFunction) -> tuple[int, int] | None:
    """The first domain index pair (i, j) violating the cross condition, or None.

    The pairs are the adjacent-or-equal ones, read from the domain's closed
    adjacency rows in ascending order of i, then j.
    """
    _check_same_signature(f, g)
    cod_rows, grow = f.codomain.adjacency_rows, g.row
    for i, (row, a) in enumerate(zip(f.domain.adjacency_rows, f.row)):
        close = cod_rows[a] | 1 << a
        for j in _bits(row | 1 << i):
            if not close >> grow[j] & 1:
                return (i, j)
    return None


# -- enumeration of continuous maps -----------------------------------------


def _check_budget(X: DigitalImage, Y: DigitalImage, budget: int) -> None:
    if len(Y) ** len(X) > budget:
        raise BudgetError("continuous-map enumeration", f"{len(Y)}^{len(X)} tables", budget)


def _holder_table(Y: DigitalImage, boxes: list[list[int]]) -> list[list[int]]:
    """Per position k of the boxes and value y, ``holders[k][y]``: the mask
    of the boxes whose mask at k holds y.  Boxes with the same mask at k
    are gathered first, so each distinct mask's bits are walked once."""
    holders = []
    for masks in zip(*boxes):
        boxes_of = {}
        for b, m in enumerate(masks):
            boxes_of[m] = boxes_of.get(m, 0) | 1 << b
        held = [0] * len(Y)
        for m, group in boxes_of.items():
            for y in _bits(m):
                held[y] |= group
        holders.append(held)
    return holders


def _continuous_rows(Y: DigitalImage, order: list[int], earlier: list[list[int]],
                     boxes: list[list[int]], budget: float = float("inf"),
                     spent: int = 0, holders: list[list[int]] | None = None
                     ) -> tuple[dict[tuple[int, ...], int], int]:
    """Every continuous row inside at least one box, mapped to the mask of
    the boxes that hold it, and the charge: the sum of their popcounts.

    A box is an allow mask per position of ``order`` (see
    ``DigitalImage.connectivity_order``); a row lists value indices in point order.
    The search backtracks over the positions with an explicit stack and
    carries the mask of boxes that hold the prefix (``holders[k][y]``: the
    boxes whose mask at position k holds y, ``_holder_table(Y, boxes)``,
    built here unless the caller passes it).  It drops a prefix once no
    box holds it or a value is not adjacent or equal to the value at an
    earlier adjacent point, so each row is built once, in no particular
    order.  With ``spent`` charged before, a BudgetError stops the search
    as soon as the total charge passes ``budget``.
    """
    closed = Y.closed_neighbor_masks
    n = len(order)
    perm = [0] * n
    for k, i in enumerate(order):
        perm[i] = k
    take = itemgetter(*perm) if n > 1 else tuple
    if len(boxes) == 1:  # the one box holds every candidate
        union, holders = boxes[0], [[1] * len(Y)] * n
    else:
        union = [reduce(or_, masks) for masks in zip(*boxes)]
        if holders is None:
            holders = _holder_table(Y, boxes)
    assignment = [0] * n
    live = [0] * n  # per position, the boxes holding the prefix before it
    todo = [0] * n  # per position, the candidate values not tried yet
    live[0], todo[0] = (1 << len(boxes)) - 1, union[0]
    rows = {}
    charge, limit = 0, budget - spent
    k = 0
    while k >= 0:
        m = todo[k]
        if not m:
            k -= 1
            continue
        low = m & -m
        todo[k] = m ^ low
        assignment[k] = y = low.bit_length() - 1
        held = live[k] & holders[k][y]
        if not held:
            continue
        if k + 1 == n:
            rows[take(assignment)] = held
            charge += held.bit_count()
            if charge > limit:
                raise BudgetError("function-graph search", f"more than {budget} rows", budget)
            continue
        k += 1
        live[k] = held
        m = union[k]
        for t in earlier[k]:
            m &= closed[assignment[t]]
        todo[k] = m
    return rows, charge


def enumerate_continuous_maps(X: DigitalImage, Y: DigitalImage,
                              budget: int = DEFAULT_FUNCTION_BUDGET) -> tuple[FiniteFunction, ...]:
    """Exactly the continuous maps X -> Y, in value order.

    Backtracks over the points of X in a connectivity-respecting order so a
    partial assignment is pruned as soon as an adjacent pair violates the
    adjacency-preservation criterion.
    """
    return tuple(FiniteFunction._trusted(X, Y, row) for row in _all_continuous_rows(X, Y, budget))


def _all_continuous_rows(X: DigitalImage, Y: DigitalImage, budget: int) -> list[tuple[int, ...]]:
    _check_budget(X, Y, budget)
    order, earlier = X.connectivity_order
    rows, _ = _continuous_rows(Y, order, earlier, [[(1 << len(Y)) - 1] * len(X)], budget)
    return sorted(rows)


def _allow_masks(X: DigitalImage, Y: DigitalImage, flavor: str, order):
    """The phi or psi adjacency rule as allow masks over the points of ``order``.

    ``allow(row)`` gives, per position of ``order``, the mask of values a
    map adjacent or equal to ``row`` may take at the point there:
    ``closed_y[row[i]]`` for phi, and for psi the values adjacent or equal
    to ``row`` on all of N[i].  A continuous row other than ``row`` is a
    neighbour of ``row`` exactly when its values lie in these masks.
    """
    closed_y = Y.closed_neighbor_masks
    if flavor == PHI:
        return lambda row: [closed_y[row[i]] for i in order]
    closed_x = X.closed_neighbor_masks
    nbhds = [tuple(_bits(closed_x[i])) for i in order]
    full = (1 << len(Y)) - 1

    def allow(row: tuple[int, ...]) -> list[int]:
        masks = []
        for nbhd in nbhds:
            m = full
            for j in nbhd:
                m &= closed_y[row[j]]
            masks.append(m)
        return masks

    return allow


class _RowGraph:
    """The phi or psi graph of rows X -> Y, generated lazily and charged to
    one function budget.

    ``box(row)`` is the box of a row: its allow masks over the points of
    the domain's ``connectivity_order``, with ``pin`` = (point index, value
    index) fixing the value at one point.  ``expand(boxes)``, one
    ``_continuous_rows`` call, maps each continuous row inside one of
    ``boxes`` to the mask of those that hold it.  ``neighbors(row)`` lists
    a row's neighbours and ``path(start, goal)`` finds a witness.  A
    BudgetError stops the call in which the summed charges pass ``budget``.
    """

    def __init__(self, X: DigitalImage, Y: DigitalImage, flavor: str, pin=None,
                 budget: float = DEFAULT_FUNCTION_BUDGET):
        self.Y, self.budget, self.spent = Y, budget, 0
        self.order, self.earlier = X.connectivity_order
        self.allow = _allow_masks(X, Y, flavor, self.order)
        self.pin = None if pin is None else (self.order.index(pin[0]), 1 << pin[1])

    def box(self, row: tuple[int, ...]) -> list[int]:
        masks = self.allow(row)
        if self.pin is not None:
            k, m = self.pin
            masks[k] &= m
        return masks

    def expand(self, boxes: list[list[int]], holders=None) -> dict[tuple[int, ...], int]:
        rows, charge = _continuous_rows(self.Y, self.order, self.earlier, boxes, self.budget,
                                        self.spent, holders)
        self.spent += charge
        return rows

    def neighbors(self, row: tuple[int, ...]) -> list[tuple[int, ...]]:
        """The rows adjacent to ``row`` in lexicographic order, the vertex
        order of ``build_function_graph``: a search over these lists
        expands exactly as it would over the whole graph.  Expanding
        ``row``'s box is charged as ``expand`` is."""
        rows = self.expand([self.box(row)])
        del rows[row]
        return sorted(rows)

    def path(self, start: tuple[int, ...], goal: tuple[int, ...]) -> list[tuple[int, ...]] | None:
        """The path a breadth-first search from ``start`` over ``neighbors``
        finds to ``goal``, the lexicographically least shortest one, or None.

        The meeting rule: balls grow from both ends, and the level where they
        meet is never generated.  A row lies in a box of a level exactly when
        it is adjacent or equal to a row there.  d = 1 is a test of ``goal``
        against ``start``'s box, and d = 2 one single-box kernel call over the
        intersected box of the two, whose least row is the middle and whose
        rows are each charged once.  From d = 3 on, the smaller frontier's
        boxes and their holder table are built once per level: the other
        frontier's rows are tested against them, uncharged, and the rows held
        are the meeting level; if there are none, the level is expanded with
        that table.  A single-box level that is not tested gets no table,
        which the kernel does not need.  The balls stay disjoint, so the next
        level of one ball meets the other only in its frontier, and a frontier
        that empties means there is no path.  Each row keeps its mask over the
        level before it.  A forward row lies on a shortest path when it is
        kept by one a level further on that does, and the last forward level
        does so exactly inside the backward ball; ``on_path`` holds these sets
        as masks.  The walk from ``start`` then takes, at each step, the least
        neighbour one step nearer ``goal``: from ``on_path`` while in the
        forward ball, then from the level its mask points into.
        """
        if start == goal:
            return [start]
        pick = itemgetter(*self.order) if len(self.order) > 1 else tuple
        masks = self.box(start)
        if all(m >> y & 1 for m, y in zip(masks, pick(goal))):
            return [start, goal]
        masks = list(map(and_, masks, self.box(goal)))
        rows = self.expand([masks]) if all(masks) else ()
        if rows:
            return [start, min(rows), goal]
        balls = ({start: 0}, {goal: 0})  # row -> its neighbours in the level before
        levels = ([[start]], [[goal]])  # the levels of each ball, as lists
        while True:
            side = 0 if len(levels[0][-1]) <= len(levels[1][-1]) else 1
            ball = balls[side]
            boxes = [self.box(row) for row in levels[side][-1]]
            tested = len(levels[0]) + len(levels[1]) > 3  # d <= 2 is settled above
            holders = _holder_table(self.Y, boxes) if tested or len(boxes) > 1 else None
            if tested:
                meet = {row: m for row in levels[1 - side][-1]
                        if (m := reduce(and_, map(getitem, holders, pick(row))))}
                if meet:
                    ball.update(meet)
                    levels[side].append(list(meet))
                    break
            new = {w: m for w, m in self.expand(boxes, holders).items() if w not in ball}
            if not new:
                return None
            ball.update(new)
            levels[side].append(list(new))
        (forward, backward), (ahead, behind) = balls, levels
        on_path = [sum(1 << q for q, w in enumerate(ahead[-1]) if w in backward)]
        for level in reversed(ahead[2:]):
            kept = 0
            for q in _bits(on_path[-1]):
                kept |= forward[level[q]]
            on_path.append(kept)
        path, p = [start], 0
        for level, mask in zip(ahead[1:], reversed(on_path)):
            w, p = min((level[q], q) for q in _bits(mask) if forward[level[q]] >> p & 1)
            path.append(w)
        for level in reversed(behind[:-1]):
            path.append(min(level[i] for i in _bits(backward[path[-1]])))
        return path


# -- function graphs ---------------------------------------------------------


class FunctionGraph(Value):
    """The graph of continuous maps X -> Y under the phi or psi adjacency.

    ``rows`` holds the maps as value rows in lexicographic order; the
    adjacency rows, edges and ``FiniteFunction`` vertices are built on first use.
    """

    domain: DigitalImage
    codomain: DigitalImage
    flavor: str
    rows: tuple[tuple[int, ...], ...]

    def __init__(self, domain: DigitalImage, codomain: DigitalImage, flavor: str,
                 rows: tuple[tuple[int, ...], ...]):
        self.__dict__.update(domain=domain, codomain=codomain, flavor=flavor, rows=rows,
                             _key=(domain, codomain, flavor, rows))

    def __len__(self) -> int:
        return len(self.rows)

    @cached_property
    def vertices(self) -> tuple[FiniteFunction, ...]:
        return tuple(FiniteFunction._trusted(self.domain, self.codomain, row) for row in self.rows)

    @cached_property
    def vertex_index(self) -> dict[FiniteFunction, int]:
        return {f: i for i, f in enumerate(self.vertices)}

    @cached_property
    def _row_index(self) -> dict[tuple[int, ...], int]:
        return {row: i for i, row in enumerate(self.rows)}

    @cached_property
    def adjacency_rows(self) -> tuple[int, ...]:
        """Per map, the bitmask of its neighbours' indices.

        One unbounded level expansion of all rows, in index order, maps
        each row to the boxes that hold it: the indices of the maps
        adjacent or equal to it.  Row i is that mask less bit i.
        """
        graph = _RowGraph(self.domain, self.codomain, self.flavor, budget=float("inf"))
        held = graph.expand(list(map(graph.box, self.rows)))
        return tuple(held[row] ^ 1 << i for i, row in enumerate(self.rows))

    @cached_property
    def edges(self) -> tuple[tuple[int, int], ...]:
        """The edge list (i, j), i < j, in ascending order, built on first use."""
        return tuple(_row_pairs(self.adjacency_rows))

    def index_of(self, f: FiniteFunction) -> int:
        i = self._row_index.get(getattr(f, "row", None))
        if i is None or f.domain != self.domain or f.codomain != self.codomain:
            raise ValueError("function is not a vertex of this graph")
        return i

    def adjacent(self, f: FiniteFunction, g: FiniteFunction) -> bool:
        i, j = self.index_of(f), self.index_of(g)
        return bool(self.adjacency_rows[i] >> j & 1)

    def adjacent_or_equal(self, f, g) -> bool:
        return f == g or self.adjacent(f, g)

    def find_path(self, f: FiniteFunction, g: FiniteFunction) -> tuple[FiniteFunction, ...] | None:
        """A shortest path of vertices from f to g, or None if separated."""
        rows = self.adjacency_rows
        path = _bfs(self.index_of(f), lambda i: _bits(rows[i]), self.index_of(g).__eq__)
        X, Y, maps = self.domain, self.codomain, self.rows
        return None if path is None else tuple(FiniteFunction._trusted(X, Y, maps[k]) for k in path)

    def component_of(self, f: FiniteFunction) -> frozenset[int]:
        rows = self.adjacency_rows
        return frozenset(_bits(_flood(rows, 1 << self.index_of(f), (1 << len(rows)) - 1)))


@lru_cache(maxsize=32)
def build_function_graph(X: DigitalImage, Y: DigitalImage, flavor: str = PHI,
                         budget: int = DEFAULT_FUNCTION_BUDGET) -> FunctionGraph:
    """The phi or psi graph of the continuous maps X -> Y, in value order."""
    if flavor not in (PHI, PSI):
        raise ValueError(f"unknown function-graph flavor {flavor!r}")
    graph = FunctionGraph(X, Y, flavor, tuple(_all_continuous_rows(X, Y, budget)))
    graph.adjacency_rows  # built once and cached on the graph
    return graph


# -- homotopy tables ---------------------------------------------------------


class HomotopyTable(Value):
    """A step table H(x, t) given by its time slices H_0 ... H_m."""

    domain: object
    codomain: object
    slices: tuple[FiniteFunction, ...]

    def __init__(self, domain, codomain, slices: tuple[FiniteFunction, ...]):
        if not slices:
            raise ValueError("a homotopy table needs at least one slice")
        for h in slices:
            if h.domain != domain or h.codomain != codomain:
                raise ValueError("slice signature does not match the table")
        self.__dict__.update(domain=domain, codomain=codomain, slices=slices,
                             _key=(domain, codomain, slices))

    @property
    def m(self) -> int:
        return len(self.slices) - 1

    def __call__(self, x, t: int):
        return self.slices[t].table[x]


class HomotopyDecision(Value):
    """Outcome of a homotopy search: related or not, plus the witness path."""

    related: bool
    path: tuple[FiniteFunction, ...] | None

    def __init__(self, related: bool, path: tuple[FiniteFunction, ...] | None):
        self.__dict__.update(related=related, path=path, _key=(related, path))

    def __bool__(self) -> bool:
        return self.related

    def table(self) -> HomotopyTable | None:
        if self.path is None:
            return None
        first = self.path[0]
        return HomotopyTable(first.domain, first.codomain, self.path)


def _search(f: FiniteFunction, g: FiniteFunction, flavor: str, budget: int,
            point: int | None = None) -> tuple[FiniteFunction, ...] | None:
    """The witness path from f to g in the lazily generated function graph.

    The witness is the lexicographically least shortest path, comparing
    value rows from f on: the path a breadth-first search from f finds
    when it expands neighbours in row order, as ``find_path`` does on the
    whole graph.  ``_RowGraph.path`` finds it from balls grown at f and
    at g, so neither ball reaches as far as a search from f alone, and
    never generates the level where they meet (its meeting rule).  The
    kernel calls are charged to ``budget``.  With the domain index
    ``point``, only maps agreeing with f there are visited, on both sides.
    """
    X, Y = f.domain, f.codomain
    if not (is_continuous(f) and is_continuous(g)):
        raise ValueError("function is not a vertex of this graph")
    pin = None if point is None else (point, f.row[point])
    path = _RowGraph(X, Y, flavor, pin, budget).path(f.row, g.row)
    return None if path is None else tuple(FiniteFunction._trusted(X, Y, row) for row in path)


def homotopic(f: FiniteFunction, g: FiniteFunction,
              budget: int = DEFAULT_FUNCTION_BUDGET) -> HomotopyDecision:
    """Decide homotopy of continuous f, g by pointwise-adjacency reachability."""
    _check_same_signature(f, g)
    path = _search(f, g, PHI, budget)
    return HomotopyDecision(path is not None, path)


def strongly_homotopic(f: FiniteFunction, g: FiniteFunction,
                       budget: int = DEFAULT_FUNCTION_BUDGET) -> HomotopyDecision:
    """Decide strong homotopy by cross-adjacency reachability."""
    _check_same_signature(f, g)
    path = _search(f, g, PSI, budget)
    return HomotopyDecision(path is not None, path)


def pointed_homotopic(f: FiniteFunction, g: FiniteFunction, basepoint,
                      budget: int = DEFAULT_FUNCTION_BUDGET,
                      strong: bool = False) -> HomotopyDecision:
    """Decide (strong) homotopy holding the basepoint fixed.

    The search runs in the subgraph of maps agreeing with f at the
    basepoint, so every step of a witness keeps the basepoint still.  The
    basepoint is a domain point given as a sequence of ints, a tuple or a
    list; a malformed point or one outside the domain raises ValueError.
    """
    _check_same_signature(f, g)
    X = f.domain
    i = X.point_index.get(_as_point(basepoint, X.dim))
    if i is None:
        raise ValueError(f"basepoint {basepoint!r} is not a domain vertex")
    if g.row[i] != f.row[i]:
        return HomotopyDecision(False, None)
    path = _search(f, g, PSI if strong else PHI, budget, i)
    return HomotopyDecision(path is not None, path)


def verify_homotopy(H: HomotopyTable, f: FiniteFunction, g: FiniteFunction,
                    mode: str = "plain", fixed_point: int | None = None) -> bool:
    """Check a step table against the deformation conditions.

    The endpoint slices must equal f and g and every slice must be
    continuous.  Consecutive slices must be pointwise close (plain mode)
    or cross close (strong mode): ``phi_counterexample`` or
    ``psi_counterexample`` finds nothing, equal slices allowed.  A fixed
    point, given by its domain vertex index, must never move.
    """
    if mode not in ("plain", "strong"):
        raise ValueError(f"unknown homotopy mode {mode!r}")
    if fixed_point is not None and not 0 <= fixed_point < len(f.row):
        raise ValueError(f"fixed point {fixed_point!r} is not a domain vertex index")
    # the slices carry H's spaces, so this also refuses f, g of other spaces
    if H.slices[0] != f or H.slices[-1] != g:
        return False
    if not all(is_continuous(h) for h in H.slices):
        return False
    step = phi_counterexample if mode == "plain" else psi_counterexample
    if any(step(h0, h1) is not None for h0, h1 in zip(H.slices, H.slices[1:])):
        return False
    if fixed_point is not None:
        base = H.slices[0].row[fixed_point]
        if any(h.row[fixed_point] != base for h in H.slices):
            return False
    return True


# -- induced homotopies ------------------------------------------------------


def lift_homotopy_to_hyperspace(H: HomotopyTable, kind: str = "connected",
                                budget: int = DEFAULT_POINT_BUDGET) -> HomotopyTable:
    """The family-level table A, t |-> H_t(A) over the chosen family kind."""
    dom_fam = _family_cached(H.domain, kind, budget)
    cod_fam = _family_cached(H.codomain, kind, budget)
    lifted = tuple(induced_map(h, dom_fam, codomain_family=cod_fam) for h in H.slices)
    return HomotopyTable(dom_fam, cod_fam, lifted)


_family_cached = lru_cache(maxsize=64)(family_of)


# -- contractibility and post-composition ------------------------------------


def is_contractible(X: DigitalImage, budget: int = DEFAULT_FUNCTION_BUDGET) -> bool:
    """True iff the identity reaches some constant map in the phi graph of X^X.

    A breadth-first search from the identity stops one step short of the
    constants: a row is phi-adjacent or equal to the constant c exactly
    when c is adjacent or equal to each of its values, so the goal is a
    row whose values' closed neighbourhoods share a point.  It does not
    search from the constants as well: a constant's neighbours are all the
    continuous rows into one closed neighbourhood, so that ball grows wide.
    The rows the search generates are charged to ``budget``.
    """
    closed = X.closed_neighbor_masks

    def near_constant(row: tuple[int, ...]) -> bool:
        common = -1
        for v in row:
            common &= closed[v]
            if not common:
                return False
        return True

    path = _bfs(tuple(range(len(X))), _RowGraph(X, X, PHI, budget=budget).neighbors, near_constant)
    return path is not None


def postcompose_map(f: FiniteFunction, W: DigitalImage,
                    budget: int = DEFAULT_FUNCTION_BUDGET) -> FiniteFunction:
    """The vertex map F |-> f o F from the phi graph of X^W to that of Y^W."""
    if not is_continuous(f):
        raise ValueError("post-composition needs a continuous map")
    source = build_function_graph(W, f.domain, PHI, budget)
    target = build_function_graph(W, f.codomain, PHI, budget)
    index, values = target._row_index, f.row
    row = tuple(index[tuple(map(values.__getitem__, F))] for F in source.rows)
    return FiniteFunction._trusted(source, target, row)


# -- JSON ------------------------------------------------------------------


def homotopy_to_json(H: HomotopyTable) -> dict:
    """The table's document: its slices share one domain and one codomain document."""
    first = function_to_json(H.slices[0])
    return {"m": H.m, "slices": [first] + [function_to_json(h, first) for h in H.slices[1:]]}


def homotopy_from_json(doc: dict) -> HomotopyTable:
    m, slices = _fields(doc, "homotopy", "m", "slices")
    # bool is an int subclass, but true/false are not a slice count
    if type(m) is not int:
        raise ValueError(f"homotopy document's m must be an integer, got {m!r}")
    slices = [function_from_json(s) for s in _array(slices, "homotopy", "slices")]
    if not slices or m != len(slices) - 1:
        raise ValueError("homotopy document slice count does not match m")
    return HomotopyTable(slices[0].domain, slices[0].codomain, tuple(slices))
