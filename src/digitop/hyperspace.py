"""Hyperspaces of digital images: (2^X, kappa') and K(X, kappa').

Members of a hyperspace are nonempty subsets of the base image, encoded as
bit-vectors over the image's canonical point order.  Two distinct members
A, B are adjacent when every point of A is within one step of B and every
point of B is within one step of A (the closed-coverage reading of the
hyperspace adjacency), which reduces to two bitmask coverage checks.

A family's graph is held as one adjacency row per member, a bitmask over
member indices.  The rows are built bit-parallel from per-point member
bitsets: with S_p the members holding p and C_p the members whose cover
holds p (the members meeting N[p], so the OR of S_q over q in N[p]),
row(A) is within(A), the AND of C_p over p in A, cut to the members in
no S_p for p outside cover(A), less A itself.  One pass over the
ascending masks serves every family: a member A with an earlier member
A - {p} takes cover(A) = cover(A - {p}) | N[p] and within(A) =
within(A - {p}) & C_p from it, and the mask of the members inside a
cover is built once per distinct cover.  Every member of 2^X or K(X) but
the singletons has such a smaller member (a connected set stays
connected without a point that is not a cut point), so only singletons
and some members of custom families AND over their points.  That is a
few big-integer operations per member and |X| per distinct cover,
instead of O(|X|) per member or a scan over all N^2 / 2 pairs.

The Hausdorff distance d_H(A, B) under X's path metric
(:func:`hausdorff_distance`) is the least d with A inside N_d(B) and B
inside N_d(A), N_d the d-fold closed cover, and is read by growing those
nested covers; d_H <= 1 is exactly the lifted adjacency.  On a connected
X the distance in 2^X is d_H, and in K(X) it is at least d_H, so a
family reads bounds on its members' eccentricities off X's own, which
come from the one eccentricity kernel, ``graphmetrics.bounded_eccentricities``
(``SubsetFamily.eccentricity_bounds``); :func:`lift_dominating` gives the
members meeting a set of points.  Every cover grows by ``lattice._cover``,
and maps such as ``functions.interval_triangle_iso`` live above this module.

A family is itself a vertex space (``vertices``, ``vertex_index``,
``adjacency_rows``), so maps between families are value rows like maps
between images, and :func:`hyperspace_graph` hands back the family with
its rows built; :func:`family_of` is the one place a family kind picks an
enumerator.
"""

from __future__ import annotations

from collections.abc import Iterable
from functools import cached_property

from .errors import BudgetError
from .graphmetrics import bounded_eccentricities
from .lattice import (DigitalImage, Point, _bits, _cover, _fields, _flood, _row_pairs,
                      image_from_json, image_to_json)
from .value import Value

#: Images with more points than this may not be expanded into hyperspaces.
DEFAULT_POINT_BUDGET = 24

FAMILY_KINDS = ("full", "connected", "custom")


def _check_budget(X: DigitalImage, budget: int) -> None:
    if len(X) > budget:
        raise BudgetError("hyperspace enumeration", f"{len(X)} points", budget)


class SubsetFamily(Value):
    """A family of nonempty subsets of a base image, with the lifted adjacency.

    ``masks`` holds the members as bit-vectors in ascending order; the
    ``members`` view materializes them as frozensets of points.  ``kind``
    records whether this is all of 2^X, all of K(X), or a custom subfamily.
    The constructor validates every member; the enumerators, whose output
    is valid by construction, use :meth:`_trusted` instead.
    """

    base: DigitalImage
    masks: tuple[int, ...]
    kind: str

    def __init__(self, base: DigitalImage, masks: Iterable[int], kind: str):
        if kind not in FAMILY_KINDS:
            raise ValueError(f"unknown family kind {kind!r}")
        masks = tuple(sorted(masks))
        full = (1 << len(base)) - 1
        for m in masks:
            if m == 0:
                raise ValueError("the empty set is not a hyperspace member")
            if m & ~full:
                raise ValueError(f"member mask {m:#x} is not a subset of the base")
        for a, b in zip(masks, masks[1:]):
            if a == b:
                raise ValueError("duplicate family member")
        if kind == "full" and len(masks) != full:
            raise ValueError("full family must contain every nonempty subset")
        if kind == "connected":
            nbr = base.neighbor_masks
            for m in masks:
                if _flood(nbr, m & -m, m) != m:
                    raise ValueError("connected family contains a disconnected member")
        self.__dict__.update(base=base, masks=masks, kind=kind, _key=(base, masks, kind))

    @classmethod
    def _trusted(cls, base: DigitalImage, masks: tuple[int, ...], kind: str) -> SubsetFamily:
        """A family from ascending, distinct, valid member masks, unchecked."""
        family = object.__new__(cls)
        family.__dict__.update(base=base, masks=masks, kind=kind,
                               _key=(base, masks, kind))
        return family

    def __len__(self) -> int:
        return len(self.masks)

    @cached_property
    def members(self) -> tuple[frozenset[Point], ...]:
        return tuple(self.base.points_of(m) for m in self.masks)

    @cached_property
    def _mask_index(self) -> dict[int, int]:
        return {m: i for i, m in enumerate(self.masks)}

    @cached_property
    def adjacency_rows(self) -> tuple[int, ...]:
        """Per member, the bitmask over member indices of its adjacent members."""
        masks, n = self.masks, len(self.base)
        if len(masks) < 2:
            return (0,) * len(masks)
        closed, index = self.base.closed_neighbor_masks, self._mask_index
        # per point p: S_p (members holding p) and C_p (members whose cover
        # holds p, that is, members meeting N[p]: the OR of S_q over q in N[p])
        held = self._point_members
        covered = [_cover(held, c) for c in closed]
        # rows[i] is first within(A), the AND of C_p over p in A: the members
        # whose cover holds A.  A member one point p larger than an earlier
        # member takes its cover and within from that member, whose row is
        # not cut before every member has read it.
        covers, rows = [], []
        for m in masks:
            rest = m
            while rest:
                p = rest.bit_length() - 1
                j = index.get(m ^ (1 << p))
                if j is not None:
                    covers.append(covers[j] | closed[p])
                    rows.append(rows[j] & covered[p])
                    break
                rest ^= 1 << p
            else:
                covers.append(_cover(closed, m))
                within = -1
                for p in _bits(m):
                    within &= covered[p]
                rows.append(within)
        # Then each row is cut to the members inside cover(A), those in no
        # S_p for p outside it, with one such mask per distinct cover.
        points, inside = (1 << n) - 1, {}
        for i, c in enumerate(covers):
            keep = inside.get(c)
            if keep is None:
                keep = inside[c] = ~_cover(held, points ^ c)
            # A lies in within(A) and inside cover(A), so the XOR clears its own bit.
            rows[i] = (rows[i] & keep) ^ (1 << i)
        return tuple(rows)

    @cached_property
    def _point_members(self) -> list[int]:
        """Per point p, S_p: the bitmask of the indices of the members holding p."""
        return _point_bitsets(self.masks, len(self.base))

    def eccentricity_bounds(self) -> tuple[tuple[int, ...], tuple[int, ...] | None] | None:
        """Bounds ``(lower, upper)`` on each member's eccentricity in the
        family's graph, from the base's eccentricities; None where there are none.

        On a connected base X the distance in 2^X is the Hausdorff distance
        d_H, the least d at which each member lies in the other's d-fold
        closed cover (d = 1 is the lifted adjacency), so member A's
        eccentricity there is the largest ecc_X(a) over a in A, realised by
        the singleton of a point farthest from such an a: for the ``full``
        family lower equals upper.  K(X) holds every singleton and its
        distance is at least d_H, so for the ``connected`` family the same
        value is a lower bound and ``upper`` is None.  A ``custom`` family,
        or one over a disconnected base, has no bounds.  X's eccentricities
        come from the eccentricity kernel, ``graphmetrics.bounded_eccentricities``
        over X's neighbour rows, which returns None on a disconnected X.
        Member A takes the largest eccentricity among its points, read level
        by level from the per-point member bitsets.
        """
        if self.kind == "custom":
            return None
        ecc = bounded_eccentricities(self.base.neighbor_masks)
        if ecc is None:
            return None
        levels = sorted(set(ecc), reverse=True)
        # every member not placed at a higher level holds only points of the lowest
        lower = [levels[-1]] * len(self.masks)
        held, placed = self._point_members, 0
        for e in levels[:-1]:
            hit = _cover(held, sum(1 << p for p, ep in enumerate(ecc) if ep == e)) & ~placed
            placed |= hit
            for i in _bits(hit):
                lower[i] = e
        lower = tuple(lower)
        return lower, lower if self.kind == "full" else None

    @cached_property
    def edges(self) -> tuple[tuple[int, int], ...]:
        """The edge list (i, j), i < j, in ascending order, built on first use."""
        return tuple(_row_pairs(self.adjacency_rows))

    @cached_property
    def edge_count(self) -> int:
        return sum(map(int.bit_count, self.adjacency_rows)) // 2

    def index_of(self, member: Iterable[Point]) -> int:
        mem = frozenset(member)
        try:
            return self.vertex_index[mem]
        except KeyError:
            raise ValueError(f"not a member of the family: {sorted(mem)}") from None

    def __contains__(self, member) -> bool:
        return frozenset(member) in self.vertex_index

    # -- vertex-space protocol -------------------------------------------

    @property
    def vertices(self) -> tuple[frozenset[Point], ...]:
        return self.members

    @cached_property
    def vertex_index(self) -> dict[frozenset[Point], int]:
        return {mem: i for i, mem in enumerate(self.members)}

    def adjacent(self, A: frozenset[Point], B: frozenset[Point]) -> bool:
        return bool(self.adjacency_rows[self.index_of(A)] >> self.index_of(B) & 1)

    def adjacent_or_equal(self, A, B) -> bool:
        return frozenset(A) == frozenset(B) or self.adjacent(A, B)

    def subfamily(self, members: Iterable[Iterable[Point]], kind: str = "custom") -> SubsetFamily:
        masks = tuple(self.base.mask_of(m) for m in members)
        for m in masks:
            if m not in self._mask_index:
                raise ValueError("subfamily member is not a member of this family")
        return SubsetFamily(self.base, masks, kind)


def _point_bitsets(masks: tuple[int, ...], n: int) -> list[int]:
    """Per bit p < n, the bitmask of the indices i with bit p set in ``masks[i]``.

    A transpose of the masks' binary strings, for nonempty ``masks`` of at
    most n bits: ``bin(m | 1 << n)`` is "0b1" and then m's n digits, so in
    these strings joined from the last mask to the first, the digits at
    stride n + 3 from n + 2 - p spell the binary numeral of bit p's bitset.
    """
    width = n + 3
    s = "".join(map(bin, map((1 << n).__or__, reversed(masks))))
    return [int(s[width - 1 - p::width], 2) for p in range(n)]


def hyper_adjacent(A: Iterable[Point], B: Iterable[Point], X: DigitalImage) -> bool:
    """Hyperspace adjacency of two distinct nonempty subsets of X.

    True iff every point of A has a partner in B within the closed adjacency
    and every point of B has one in A.
    """
    a = X.mask_of(A)
    b = X.mask_of(B)
    if a == 0 or b == 0:
        raise ValueError("hyperspace members must be nonempty")
    if a == b:
        raise ValueError("hyperspace adjacency is between distinct members")
    closed = X.closed_neighbor_masks
    return not (b & ~_cover(closed, a) or a & ~_cover(closed, b))


def hausdorff_distance(X: DigitalImage, a: int, b: int) -> int | None:
    """d_H(A, B) for nonempty point masks a, b of X under its path metric.

    The least d with A inside N_d(B) and B inside N_d(A), where N_d is the
    d-fold closed cover: N_1 is the cover that :func:`hyper_adjacent`
    tests, so d = 1 is the lifted adjacency.  Both covers grow one step at
    a time; None when d_H is infinite, that is, when a cover that still
    misses the other set stops growing.
    """
    if not (0 < a < 1 << len(X) and 0 < b < 1 << len(X)):
        raise ValueError("hyperspace members must be nonempty masks of X's points")
    closed = X.closed_neighbor_masks
    near_a, near_b, d = a, b, 0
    while b & ~near_a or a & ~near_b:
        grown_a, grown_b = _cover(closed, near_a), _cover(closed, near_b)
        if grown_a == near_a and b & ~near_a or grown_b == near_b and a & ~near_b:
            return None
        near_a, near_b, d = grown_a, grown_b, d + 1
    return d


def enumerate_all_subsets(X: DigitalImage, budget: int = DEFAULT_POINT_BUDGET) -> SubsetFamily:
    """The full hyperspace 2^X: every nonempty subset, 2^n - 1 members."""
    _check_budget(X, budget)
    n = len(X)
    return SubsetFamily._trusted(X, tuple(range(1, 1 << n)), "full")


def enumerate_connected_subsets(X: DigitalImage, budget: int = DEFAULT_POINT_BUDGET) -> SubsetFamily:
    """K(X): exactly the connected nonempty subsets, each generated once.

    Incremental growth: for each root point, connected sets whose smallest
    point is the root are grown by adding exclusive neighbors with larger
    index, so no set is ever produced twice and the power set is never
    scanned.  The growth runs on an explicit stack of (set, extension
    candidates, closed neighbourhood of the set), so its depth is not
    bounded by the recursion limit; a set with no candidates left is
    emitted without being pushed.
    """
    _check_budget(X, budget)
    nbr = X.neighbor_masks
    out: list[int] = []
    for v in range(len(X)):
        above = ~((1 << (v + 1)) - 1)
        out.append(1 << v)
        stack = [(1 << v, nbr[v] & above, nbr[v] | (1 << v))]
        while stack:
            sub, ext, snb = stack.pop()
            while ext:
                low = ext & -ext
                ext ^= low
                w = low.bit_length() - 1
                grown = sub | low
                out.append(grown)
                grown_ext = ext | (nbr[w] & above & ~snb)
                if grown_ext:
                    stack.append((grown, grown_ext, snb | nbr[w] | low))
    return SubsetFamily._trusted(X, tuple(sorted(out)), "connected")


def family_of(image: DigitalImage, kind: str,
              budget: int = DEFAULT_POINT_BUDGET) -> SubsetFamily:
    """The ``full`` (2^X) or ``connected`` (K(X)) family over an image."""
    if kind == "full":
        return enumerate_all_subsets(image, budget)
    if kind == "connected":
        return enumerate_connected_subsets(image, budget)
    raise ValueError(f"cannot enumerate a {kind!r} family; pass one explicitly")


def lift_dominating(D: Iterable[Point], X: DigitalImage,
                    family: SubsetFamily | None = None,
                    budget: int = DEFAULT_POINT_BUDGET) -> frozenset[int]:
    """Indices (into the family's member order) of members meeting D."""
    if family is None:
        family = enumerate_all_subsets(X, budget)
    elif family.base != X:
        raise ValueError("the family is not a hyperspace of X")
    dmask = X.mask_of(D)
    return frozenset(i for i, m in enumerate(family.masks) if m & dmask)


def hyperspace_graph(family: SubsetFamily) -> SubsetFamily:
    """The family with its graph under the lifted adjacency built as rows."""
    family.adjacency_rows  # built once and cached on the family
    return family


def union_of_family(W: Iterable[Iterable[Point]]) -> frozenset[Point]:
    """The union of a nonempty collection of members."""
    members = [frozenset(m) for m in W]
    if not members:
        raise ValueError("union of an empty collection of members")
    out: frozenset[Point] = frozenset()
    for m in members:
        out |= m
    return out


def triangle_image(a: int, b: int) -> DigitalImage:
    """The staircase triangle {(x, y) : a <= x <= y <= b} under c_2."""
    if a > b:
        raise ValueError(f"empty triangle for a={a} > b={b}")
    pts = tuple((x, y) for x in range(a, b + 1) for y in range(x, b + 1))
    return DigitalImage(2, pts, 2)


# -- JSON ------------------------------------------------------------------


def family_to_json(family: SubsetFamily) -> dict:
    return {
        "base": image_to_json(family.base),
        "kind": family.kind,
        "members": [[list(p) for p in sorted(m)] for m in family.members],
    }


def family_from_json(doc: dict) -> SubsetFamily:
    base, kind, members = _fields(doc, "family", "base", "kind", "members")
    base = image_from_json(base)
    masks = tuple(base.mask_of(tuple(tuple(p) for p in m)) for m in members)
    return SubsetFamily(base, masks, kind)
