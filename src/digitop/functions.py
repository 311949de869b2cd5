"""Single-valued maps between digital images and their induced hyperspace maps.

A :class:`FiniteFunction` is a total table between two finite vertex spaces.
The usual case is image -> image, but the same class carries maps whose
domain or codomain is a subset family or a function graph, such as an
induced map A |-> f(A).  Every space exposes ``vertices``, ``vertex_index``
(vertex -> index) and ``adjacency_rows`` (per vertex, the bitmask of its
neighbours' indices).  A map is its value ``row`` of codomain indices in
domain order: two maps are equal exactly when their spaces and rows are,
and the labelled ``pairs`` and ``table`` are views built on first use.
The checkers below read rows: values a, b are adjacent or equal iff
``a == b or cod_rows[a] >> b & 1``, whatever the codomain.  The
inducing-map search needs no enumeration: a map's values on singletons
fix it.  ``interval_triangle_iso`` is the paper's map from K([a, b]_Z)
onto the c_2 triangle.
"""

from __future__ import annotations

from collections.abc import Iterable, Mapping
from functools import cached_property

from .hyperspace import (DEFAULT_POINT_BUDGET, SubsetFamily, enumerate_connected_subsets,
                         family_from_json, family_of, family_to_json, triangle_image)
from .lattice import (DigitalImage, Point, _as_point, _cover, _fields, _row_pairs,
                      image_from_json, image_to_json, interval)
from .value import Value


class FiniteFunction(Value):
    """A total map between two vertex spaces, held as its value ``row``.

    Identity is (domain, codomain, row).  The constructor takes a table of
    (vertex, value) pairs and checks it; maps the library builds itself
    come from the unchecked :meth:`_trusted`.  ``pairs`` (in domain order)
    and ``table`` are label views built from the row on first use.
    """

    domain: object
    codomain: object
    row: tuple[int, ...]

    def __init__(self, domain, codomain, pairs):
        table = dict(pairs)
        verts = domain.vertices
        if len(pairs) != len(verts) or set(table) != set(verts):
            raise ValueError("function table must be total on the domain")
        index = codomain.vertex_index
        for x, y in table.items():
            if y not in index:
                raise ValueError(f"value {y!r} at {x!r} is outside the codomain")
        row = tuple(index[table[x]] for x in verts)
        self.__dict__.update(domain=domain, codomain=codomain, row=row,
                             _key=(domain, codomain, row))

    @classmethod
    def _trusted(cls, domain, codomain, row: tuple[int, ...]) -> FiniteFunction:
        """The map with a value row that is valid by construction, unchecked."""
        f = object.__new__(cls)
        f.__dict__.update(domain=domain, codomain=codomain, row=row,
                          _key=(domain, codomain, row))
        return f

    @classmethod
    def from_table(cls, domain, codomain, table: Mapping) -> "FiniteFunction":
        return cls(domain, codomain, tuple(table.items()))

    @cached_property
    def pairs(self) -> tuple[tuple[object, object], ...]:
        values = self.codomain.vertices
        return tuple(zip(self.domain.vertices, map(values.__getitem__, self.row)))

    @cached_property
    def table(self) -> dict:
        return dict(self.pairs)

    def __call__(self, x):
        return self.table[x]

    def image_of(self, A: Iterable) -> frozenset:
        return frozenset(self.table[x] for x in A)

    def values(self) -> tuple:
        return tuple(y for _, y in self.pairs)

    def __repr__(self):
        body = ", ".join(f"{x}->{y}" for x, y in self.pairs)
        return f"<map {body}>"


def identity_map(space) -> FiniteFunction:
    return FiniteFunction._trusted(space, space, tuple(range(len(space.adjacency_rows))))


def constant_map(domain, codomain, value) -> FiniteFunction:
    return FiniteFunction(domain, codomain, tuple((v, value) for v in domain.vertices))


def compose(g: FiniteFunction, f: FiniteFunction) -> FiniteFunction:
    """g after f."""
    if g.domain != f.codomain and g.domain.vertices != f.codomain.vertices:
        raise ValueError("composition mismatch: codomain of f is not domain of g")
    return FiniteFunction._trusted(f.domain, g.codomain, tuple(map(g.row.__getitem__, f.row)))


# -- continuity -------------------------------------------------------------


def is_continuous(f: FiniteFunction) -> bool:
    """True iff adjacent domain vertices map to adjacent-or-equal values."""
    return continuity_counterexample(f) is None


def continuity_counterexample(f: FiniteFunction) -> tuple[int, int] | None:
    """The first adjacent domain pair (i, j) with values neither adjacent nor equal, or None."""
    row, cod_rows = f.row, f.codomain.adjacency_rows
    for i, j in _row_pairs(f.domain.adjacency_rows):
        a, b = row[i], row[j]
        if a != b and not cod_rows[a] >> b & 1:
            return (i, j)
    return None


def is_isomorphism(f: FiniteFunction) -> bool:
    """True iff f is a continuous bijection with a continuous inverse."""
    row = f.row
    if sorted(row) != list(range(len(f.codomain.adjacency_rows))) or not is_continuous(f):
        return False
    inverse = tuple(sorted(range(len(row)), key=row.__getitem__))
    return is_continuous(FiniteFunction._trusted(f.codomain, f.domain, inverse))


def is_retraction(r: FiniteFunction, Y: Iterable[Point]) -> bool:
    """True iff r is continuous onto Y and fixes every point of Y."""
    pts = frozenset(Y)
    if not pts:
        raise ValueError("a retraction target cannot be empty")
    if not pts <= set(r.domain.vertices):
        raise ValueError("retraction target is not a subset of the domain")
    if set(r.codomain.vertices) != pts:
        raise ValueError("retraction codomain must equal the target set")
    dom, cod = r.domain.vertex_index, r.codomain.vertex_index
    return all(r.row[dom[y]] == cod[y] for y in pts) and is_continuous(r)


# -- induced maps on hyperspaces --------------------------------------------


def induced_map(f, family: SubsetFamily,
                codomain_family: SubsetFamily | None = None,
                budget: int = DEFAULT_POINT_BUDGET) -> FiniteFunction:
    """The set-image map A |-> f(A) between families.

    ``f`` is a :class:`FiniteFunction` or a multifunction.  Its value
    masks per domain point are ``1 << v`` for each value v of its ``row``,
    or a multifunction's ``masks``, moved onto the codomain family's base
    when that is another image.  A member's image is the OR of its points'
    value masks, looked up among the codomain family's member masks.  The
    codomain family defaults to the family of the same kind over f's
    codomain.  If some member's image is not a member there (for a
    connected family this happens exactly when the image is disconnected),
    the map does not exist and a ValueError names the offending member.
    """
    if family.base != f.domain:
        raise ValueError("family is not over the domain of f")
    if codomain_family is None:
        codomain_family = family_of(f.codomain, family.kind, budget)
    base = codomain_family.base
    value_masks = f.masks if hasattr(f, "masks") else [1 << v for v in f.row]
    if base != f.codomain:
        value_masks = [base.mask_of(f.codomain.points_of(m)) for m in value_masks]
    index = codomain_family._mask_index
    row = []
    for m in family.masks:
        img = _cover(value_masks, m)
        if img not in index:
            raise ValueError(
                f"image of member {sorted(family.base.points_of(m))} is "
                f"{sorted(base.points_of(img))}, not a member of the codomain family")
        row.append(index[img])
    return FiniteFunction._trusted(family, codomain_family, tuple(row))


def find_inducing_map(F: FiniteFunction) -> FiniteFunction | None:
    """A continuous f with f_* = F, or None when no continuous map induces F.

    Since f_*({x}) = {f(x)}, the values on singletons fix the only
    candidate f; it is returned when it is continuous and induces F.
    """
    dom_family, cod_family = F.domain, F.codomain
    if dom_family.kind not in ("full", "connected") or cod_family.kind not in ("full", "connected"):
        raise ValueError("inducing-map search needs full or connected families")
    X, Y = dom_family.base, cod_family.base
    singleton = dom_family._mask_index
    images = [cod_family.masks[F.row[singleton[1 << i]]] for i in range(len(X))]
    if any(m & (m - 1) for m in images):
        return None
    f = FiniteFunction._trusted(X, Y, tuple(m.bit_length() - 1 for m in images))
    if not is_continuous(f):
        return None
    try:
        candidate = induced_map(f, dom_family, codomain_family=cod_family)
    except ValueError:
        return None
    return f if candidate.row == F.row else None


def interval_triangle_iso(a: int, b: int) -> FiniteFunction:
    """The map [m, n] |-> (m, n) from K([a, b]_Z) onto the c_2 triangle.

    Its domain is the connected-subset family, so :func:`is_isomorphism`
    can certify it directly.
    """
    if a > b:
        raise ValueError(f"empty interval [{a}, {b}]")
    family = enumerate_connected_subsets(interval(a, b))
    table = {}
    for member in family.members:
        xs = sorted(p[0] for p in member)
        table[member] = (xs[0], xs[-1])
    return FiniteFunction.from_table(family, triangle_image(a, b), table)


# -- JSON ------------------------------------------------------------------


def function_to_json(f: FiniteFunction, images: dict | None = None) -> dict:
    """The map's document.  Its pairs reuse the point lists of its image
    documents; ``images``, a document with "domain" and "codomain" fields
    (another map's, say), gives the image documents to share."""
    if images is None:
        if not isinstance(f.domain, DigitalImage) or not isinstance(f.codomain, DigitalImage):
            raise ValueError("only image-to-image functions have a JSON document form")
        images = {"domain": image_to_json(f.domain), "codomain": image_to_json(f.codomain)}
    xs, ys = images["domain"]["points"], images["codomain"]["points"]
    return {**images, "pairs": [[xs[i], ys[v]] for i, v in enumerate(f.row)]}


def function_from_json(doc: dict) -> FiniteFunction:
    domain, codomain, pairs = _fields(doc, "function", "domain", "codomain", "pairs")
    return FiniteFunction(image_from_json(domain), image_from_json(codomain),
                          tuple((_as_point(x), _as_point(y)) for x, y in pairs))


def family_function_to_json(F: FiniteFunction) -> dict:
    return {
        "domain": family_to_json(F.domain),
        "codomain": family_to_json(F.codomain),
        "pairs": [[[list(p) for p in sorted(a)], [list(p) for p in sorted(b)]]
                  for a, b in F.pairs],
    }


def family_function_from_json(doc: dict) -> FiniteFunction:
    domain, codomain, pairs = _fields(doc, "family function", "domain", "codomain", "pairs")
    table = tuple((frozenset(map(_as_point, a)), frozenset(map(_as_point, b)))
                  for a, b in pairs)
    return FiniteFunction(family_from_json(domain), family_from_json(codomain), table)
