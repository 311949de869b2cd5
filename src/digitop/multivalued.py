"""Multivalued maps between digital images and their continuity notions.

Four notions are implemented: weak continuity (adjacent inputs have
adjacent value sets), strong continuity (adjacent inputs have mutually
covering value sets), connectivity preservation (connected sets have
connected images), and generator continuity (the map is produced by a
single-valued continuous map on a subdivision of the domain).
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from functools import cached_property
from typing import Iterable

from .errors import BudgetError
from .functions import FiniteFunction, adjacent_vertex_pairs, induced_map
from .hyperspace import DEFAULT_POINT_BUDGET, enumerate_connected_subsets, family_of
from .lattice import (DigitalImage, Point, _as_point, _bits, _connectivity_order,
                      adjacent_or_equal)

#: Cap on the number of subdivision points a generator search will handle.
DEFAULT_SUBDIVISION_BUDGET = 64


@dataclass(frozen=True)
class MultiFunction:
    """A total map from points to nonempty point sets of the codomain."""

    domain: DigitalImage
    codomain: DigitalImage
    pairs: tuple[tuple[Point, frozenset[Point]], ...]

    def __post_init__(self):
        table = {x: frozenset(v) for x, v in self.pairs}
        if set(table) != set(self.domain.points) or len(self.pairs) != len(self.domain.points):
            raise ValueError("multifunction table must be total on the domain")
        cod = self.codomain.point_set
        for x, vals in table.items():
            if not vals:
                raise ValueError(f"value set at {x} is empty")
            if not vals <= cod:
                raise ValueError(f"value set at {x} leaves the codomain")
        object.__setattr__(self, "pairs",
                           tuple((x, table[x]) for x in self.domain.points))

    @classmethod
    def from_table(cls, domain, codomain, table) -> "MultiFunction":
        return cls(domain, codomain, tuple((x, frozenset(v)) for x, v in table.items()))

    @cached_property
    def table(self) -> dict[Point, frozenset[Point]]:
        return dict(self.pairs)

    def __call__(self, x: Point) -> frozenset[Point]:
        return self.table[x]

    def image_of(self, A: Iterable[Point]) -> frozenset[Point]:
        out: frozenset[Point] = frozenset()
        for x in A:
            out |= self.table[x]
        return out


def as_multifunction(f: FiniteFunction) -> MultiFunction:
    """View a single-valued map as a multifunction with singleton values."""
    return MultiFunction(f.domain, f.codomain,
                         tuple((x, frozenset((y,))) for x, y in f.pairs))


def has_weak_continuity(F: MultiFunction) -> bool:
    """Adjacent inputs have value sets meeting within one closed step."""
    u = F.codomain.adjacency
    for x, y in adjacent_vertex_pairs(F.domain):
        fx, fy = F.table[x], F.table[y]
        if not any(adjacent_or_equal(a, b, u) for a in fx for b in fy):
            return False
    return True


def has_strong_continuity(F: MultiFunction) -> bool:
    return strong_continuity_counterexample(F) is None


def strong_continuity_counterexample(F: MultiFunction):
    """A triple (x, y, p) where p in F(x) has no closed partner in F(y), or None."""
    u = F.codomain.adjacency
    for x, y in adjacent_vertex_pairs(F.domain):
        fx, fy = F.table[x], F.table[y]
        for p in fx:
            if not any(adjacent_or_equal(p, q, u) for q in fy):
                return (x, y, p)
        for q in fy:
            if not any(adjacent_or_equal(q, p, u) for p in fx):
                return (y, x, q)
    return None


def is_connectivity_preserving(F: MultiFunction,
                               budget: int = DEFAULT_POINT_BUDGET) -> bool:
    """Every connected subset of the domain has a connected image."""
    family = enumerate_connected_subsets(F.domain, budget)
    for member in family.members:
        if not F.codomain.is_connected_subset(F.image_of(member)):
            return False
    return True


# -- subdivisions ------------------------------------------------------------


@dataclass(frozen=True)
class Subdivision:
    """S(X, r): each point of the base replaced by an r^n block.

    Coordinates are scaled by r so everything stays integral; after scaling
    the inherited adjacency is plain c_u at spacing 1.
    """

    base: DigitalImage
    r: int

    def __post_init__(self):
        if self.r < 1:
            raise ValueError("subdivision factor must be a positive integer")

    @cached_property
    def image(self) -> DigitalImage:
        pts = []
        for x in self.base.points:
            pts.extend(self.cell(x))
        return DigitalImage(self.base.dim, tuple(pts), self.base.adjacency)

    @property
    def points(self) -> tuple[Point, ...]:
        return self.image.points

    def cell(self, x: Point) -> tuple[Point, ...]:
        """The subdivision points replacing base point x, scaled by r."""
        offsets = itertools.product(range(self.r), repeat=self.base.dim)
        return tuple(tuple(self.r * c + k for c, k in zip(x, delta)) for delta in offsets)

    def base_point_of(self, y: Point) -> Point:
        return tuple(c // self.r for c in y)


def subdivide(X: DigitalImage, r: int) -> Subdivision:
    return Subdivision(X, r)


@dataclass(frozen=True)
class EgsResult:
    """Outcome of a generator search: the witness (r, generator) if found."""

    found: bool
    r: int | None
    generator: FiniteFunction | None
    r_max: int

    def __bool__(self) -> bool:
        return self.found


def is_egs_continuous(F: MultiFunction, r_max: int,
                      budget: int = DEFAULT_SUBDIVISION_BUDGET) -> EgsResult:
    """Search r = 1..r_max for a continuous generator on the subdivision.

    A generator is a continuous f on S(X, r) whose value set over each cell
    equals F at that cell's base point.  A negative result only means no
    generator exists for any r up to r_max.
    """
    if r_max < 1:
        raise ValueError("r_max must be at least 1")
    for r in range(1, r_max + 1):
        sub = Subdivision(F.domain, r)
        n_points = len(F.domain) * r ** F.domain.dim
        if n_points > budget:
            raise BudgetError("generator search", f"{n_points} subdivision points", budget)
        gen = _find_generator(F, sub)
        if gen is not None:
            return EgsResult(True, r, gen, r_max)
    return EgsResult(False, None, None, r_max)


def _find_generator(F: MultiFunction, sub: Subdivision) -> FiniteFunction | None:
    """Backtracking search for a continuous map on the subdivision generating F."""
    S = sub.image
    Y = F.codomain
    yindex = Y.point_index
    n = len(S)
    # cell id and allowed-value mask per subdivision point
    base_points = F.domain.points
    cell_id = {}
    for ci, x in enumerate(base_points):
        for y in sub.cell(x):
            cell_id[y] = ci
    required = [sum(1 << yindex[v] for v in F.table[x]) for x in base_points]
    remaining = [len(sub.cell(x)) for x in base_points]
    closed_y = Y.closed_neighbor_masks
    order, earlier = _connectivity_order(S)
    cells = [cell_id[S.points[i]] for i in order]
    allowed0 = [required[c] for c in cells]
    assignment = [0] * n
    covered = [0] * len(base_points)
    # pending[k]: values not yet tried at level k; olds[k]: its cell's
    # coverage before level k was entered
    pending = [0] * n
    olds = [0] * n

    def options(k: int) -> int:
        """The values level k may take given the earlier assignments."""
        c = cells[k]
        allowed = allowed0[k]
        for t in earlier[k]:
            allowed &= closed_y[assignment[t]]
            if not allowed:
                return 0
        uncovered = required[c] & ~covered[c]
        # each still-unassigned cell point must cover a new value when tight
        need = uncovered.bit_count()
        if need == remaining[c]:
            return allowed & uncovered
        return allowed if need < remaining[c] else 0

    # Backtracking on an explicit stack, values tried in ascending order,
    # so the depth is not bounded by the recursion limit.
    found = False
    k = 0
    while True:
        if k == n:
            if all(covered[c] == required[c] for c in range(len(base_points))):
                found = True
                break
            k -= 1
        else:
            c = cells[k]
            pending[k] = options(k)
            olds[k] = covered[c]
            remaining[c] -= 1
        while k >= 0 and not pending[k]:
            c = cells[k]
            covered[c] = olds[k]
            remaining[c] += 1
            k -= 1
        if k < 0:
            break
        low = pending[k] & -pending[k]
        pending[k] ^= low
        assignment[k] = low.bit_length() - 1
        covered[cells[k]] = olds[k] | low
        k += 1

    if found:
        table = {}
        ypts = Y.points
        for k, i in enumerate(order):
            table[S.points[i]] = ypts[assignment[k]]
        return FiniteFunction.from_table(S, Y, table)
    return None


def generates(f: FiniteFunction, F: MultiFunction, sub: Subdivision) -> bool:
    """Independent check that f on the subdivision produces exactly F."""
    if f.domain != sub.image or f.codomain != F.codomain:
        return False
    from .functions import is_continuous

    if not is_continuous(f):
        return False
    return all(f.image_of(sub.cell(x)) == F.table[x] for x in F.domain.points)


# -- induced maps on hyperspaces ---------------------------------------------


def induced_multifunction_map(F: MultiFunction, kind: str = "full",
                              budget: int = DEFAULT_POINT_BUDGET) -> FiniteFunction:
    """The set-image map A |-> F(A) on the chosen family kind."""
    return induced_map(F, family_of(F.domain, kind, budget),
                       family_of(F.codomain, kind, budget))


# -- JSON ------------------------------------------------------------------


def multifunction_to_json(F: MultiFunction) -> dict:
    from .lattice import image_to_json

    return {
        "domain": image_to_json(F.domain),
        "codomain": image_to_json(F.codomain),
        "pairs": [[list(x), [list(p) for p in sorted(v)]] for x, v in F.pairs],
    }


def multifunction_from_json(doc: dict) -> MultiFunction:
    from .lattice import image_from_json

    if not isinstance(doc, dict):
        raise ValueError("multifunction document must be a JSON object")
    try:
        dom = image_from_json(doc["domain"])
        cod = image_from_json(doc["codomain"])
        pairs = doc["pairs"]
    except KeyError as missing:
        raise ValueError(f"multifunction document is missing {missing}") from None
    return MultiFunction(dom, cod,
                         tuple((_as_point(x), frozenset(map(_as_point, v)))
                               for x, v in pairs))
