"""Multivalued maps between digital images and their continuity notions.

Four notions are implemented: weak continuity (adjacent inputs have
adjacent value sets), strong continuity (adjacent inputs have mutually
covering value sets), connectivity preservation (connected sets have
connected images), and generator continuity (the map is produced by a
single-valued continuous map on a subdivision of the domain).

A multifunction is its ``masks`` row: per domain point, the bitmask of
its value set over the codomain's point order.  Equality and hashing read
the spaces and the masks; the labelled ``pairs`` and ``table`` are views
built on first use.  Every check reads that row and adjacency rows.  A
value set's closed cover is the OR of its values' closed neighbourhood
rows, so x, y meet weakly when ``cover(masks[x]) & masks[y]`` is nonzero
and F(x) has an unmatched value in F(y) when
``masks[x] & ~cover(masks[y])`` is; the image of a domain mask is the OR
of its points' masks, tested with one flood.  A witness value is the
lowest unmatched one in codomain order, so it does not depend on how a
document lists a value set.  Witnesses are indices: the caller names them.
"""

from __future__ import annotations

import itertools
from collections.abc import Iterable

from .errors import BudgetError
from .functions import FiniteFunction, induced_map, is_continuous
from .hyperspace import DEFAULT_POINT_BUDGET, enumerate_connected_subsets, family_of
from .lattice import (DigitalImage, Point, _as_point, _cover, _fields, _flood, _pairs,
                      _point_list, _row_pairs, image_from_json, image_to_json)
from .value import Value, cached_property

#: Cap on the number of subdivision points a generator search will handle.
DEFAULT_SUBDIVISION_BUDGET = 64


class MultiFunction(Value):
    """A total map from points to nonempty point sets, held as its ``masks`` row.

    Identity is (domain, codomain, masks).  The constructor checks a table
    of (point, value set) pairs; :meth:`_trusted` builds one unchecked.
    ``pairs`` and ``table`` are label views built from the masks on first use.
    """

    domain: DigitalImage
    codomain: DigitalImage
    masks: tuple[int, ...]

    def __init__(self, domain, codomain, pairs):
        table = {x: frozenset(v) for x, v in pairs}
        if set(table) != set(domain.points) or len(pairs) != len(domain.points):
            raise ValueError("multifunction table must be total on the domain")
        cod = codomain.point_set
        for x, vals in table.items():
            if not vals:
                raise ValueError(f"value set at {x} is empty")
            if not vals <= cod:
                raise ValueError(f"value set at {x} leaves the codomain")
        index = codomain.point_index
        masks = tuple(sum(1 << index[p] for p in table[x]) for x in domain.points)
        self.__dict__.update(domain=domain, codomain=codomain, masks=masks,
                             _key=(domain, codomain, masks))

    @classmethod
    def _trusted(cls, domain, codomain, masks: tuple[int, ...]) -> MultiFunction:
        """The multifunction with value masks that are valid by construction, unchecked."""
        F = object.__new__(cls)
        F.__dict__.update(domain=domain, codomain=codomain, masks=masks,
                          _key=(domain, codomain, masks))
        return F

    @classmethod
    def from_table(cls, domain, codomain, table) -> "MultiFunction":
        return cls(domain, codomain, tuple((x, frozenset(v)) for x, v in table.items()))

    @cached_property
    def pairs(self) -> tuple[tuple[Point, frozenset[Point]], ...]:
        return tuple(zip(self.domain.points, map(self.codomain.points_of, self.masks)))

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
    return MultiFunction._trusted(f.domain, f.codomain, tuple(1 << v for v in f.row))


def has_weak_continuity(F: MultiFunction) -> bool:
    """Adjacent inputs have value sets meeting within one closed step."""
    closed_y, masks = F.codomain.closed_neighbor_masks, F.masks
    return all(_cover(closed_y, masks[i]) & masks[j]
               for i, j in _row_pairs(F.domain.adjacency_rows))


def has_strong_continuity(F: MultiFunction) -> bool:
    return strong_continuity_counterexample(F) is None


def strong_continuity_counterexample(F: MultiFunction) -> tuple[int, int, int] | None:
    """Indices (x, y, p), x and y in the domain and p in the codomain, where
    p in F(x) has no closed partner in F(y), or None.

    Adjacent pairs are scanned in ascending index order, each first from
    its lower end; p is the lowest unmatched value in codomain order.
    """
    closed_y, masks = F.codomain.closed_neighbor_masks, F.masks
    for i, j in _row_pairs(F.domain.adjacency_rows):
        for a, b in ((i, j), (j, i)):
            unmatched = masks[a] & ~_cover(closed_y, masks[b])
            if unmatched:
                return (a, b, (unmatched & -unmatched).bit_length() - 1)
    return None


def is_connectivity_preserving(F: MultiFunction,
                               budget: int = DEFAULT_POINT_BUDGET) -> bool:
    """Every connected subset of the domain has a connected image."""
    family = enumerate_connected_subsets(F.domain, budget)
    rows, masks = F.codomain.neighbor_masks, F.masks
    for member in family.masks:
        image = _cover(masks, member)
        if _flood(rows, image & -image, image) != image:
            return False
    return True


# -- subdivisions ------------------------------------------------------------


class Subdivision(Value):
    """S(X, r): each point of the base replaced by an r^n block.

    Coordinates are scaled by r so everything stays integral; after scaling
    the inherited adjacency is plain c_u at spacing 1.
    """

    base: DigitalImage
    r: int

    def __init__(self, base: DigitalImage, r: int):
        if r < 1:
            raise ValueError("subdivision factor must be a positive integer")
        self.__dict__.update(base=base, r=r, _key=(base, r))

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


class EgsResult(Value):
    """Outcome of a generator search: the witness (r, generator) if found."""

    found: bool
    r: int | None
    generator: FiniteFunction | None
    r_max: int

    def __init__(self, found: bool, r: int | None, generator: FiniteFunction | None, r_max: int):
        self.__dict__.update(found=found, r=r, generator=generator, r_max=r_max,
                             _key=(found, r, generator, r_max))

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
    """Backtracking search for a continuous map on the subdivision generating F.

    Positions follow ``S.connectivity_order``; ``left[k]`` counts the
    positions of k's cell at or after k and ``before[k]`` is the cell's
    previous position (n for none), whose ``covered`` entry is what the cell
    holds before k.  Values are tried in ascending order on an explicit stack.
    """
    S, Y = sub.image, F.codomain
    n = len(S)
    closed_y = Y.closed_neighbor_masks
    order, earlier = S.connectivity_order
    cells = [F.domain.point_index[sub.base_point_of(S.points[i])] for i in order]
    required = [F.masks[c] for c in cells]
    before, left, last = [n] * n, [n // len(F.masks)] * n, {}
    for k, c in enumerate(cells):
        if c in last:
            before[k] = last[c]
            left[k] = left[before[k]] - 1
        last[c] = k
    assignment, todo = [0] * n, [0] * n  # todo: per position, the values not tried yet
    covered = [0] * (n + 1)  # per position, its cell's coverage up to it; 0 at n

    def options(k: int) -> int:
        """The values position k may take given the earlier positions."""
        allowed = required[k]
        for t in earlier[k]:
            allowed &= closed_y[assignment[t]]
        uncovered = required[k] & ~covered[before[k]]
        need = uncovered.bit_count()
        if need == left[k]:
            return allowed & uncovered
        return allowed if need < left[k] else 0

    k, todo[0] = 0, options(0)
    while k >= 0:
        m = todo[k]
        if not m:
            k -= 1
            continue
        low = m & -m
        todo[k] = m ^ low
        assignment[k] = low.bit_length() - 1
        covered[k] = covered[before[k]] | low
        if k + 1 == n:
            row = tuple(a for _, a in sorted(zip(order, assignment)))  # in point order
            return FiniteFunction._trusted(S, Y, row)
        k += 1
        todo[k] = options(k)
    return None


def generates(f: FiniteFunction, F: MultiFunction, sub: Subdivision) -> bool:
    """Independent check that f on the subdivision produces exactly F."""
    if f.domain != sub.image or f.codomain != F.codomain or not is_continuous(f):
        return False
    base_index = F.domain.point_index
    images = [0] * len(F.masks)
    for p, v in zip(sub.points, f.row):
        images[base_index[sub.base_point_of(p)]] |= 1 << v
    return tuple(images) == F.masks


# -- induced maps on hyperspaces ---------------------------------------------


def induced_multifunction_map(F: MultiFunction, kind: str = "full",
                              budget: int = DEFAULT_POINT_BUDGET) -> FiniteFunction:
    """The set-image map A |-> F(A) on the chosen family kind."""
    return induced_map(F, family_of(F.domain, kind, budget),
                       family_of(F.codomain, kind, budget))


# -- JSON ------------------------------------------------------------------


def multifunction_to_json(F: MultiFunction) -> dict:
    return {
        "domain": image_to_json(F.domain),
        "codomain": image_to_json(F.codomain),
        "pairs": [[list(x), [list(p) for p in sorted(v)]] for x, v in F.pairs],
    }


def multifunction_from_json(doc: dict) -> MultiFunction:
    domain, codomain, pairs = _fields(doc, "multifunction", "domain", "codomain", "pairs")
    domain, codomain, what = image_from_json(domain), image_from_json(codomain), "multifunction"
    return MultiFunction(domain, codomain,
                         tuple((_as_point(x), frozenset(map(_as_point,
                                                            _point_list(v, what, "value set"))))
                               for x, v in _pairs(pairs, what)))
