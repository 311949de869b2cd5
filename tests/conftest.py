"""Shared references for maps whose codomain is a family or a function graph."""

import pytest

from digitop import (DigitalImage, FiniteFunction, FunctionGraph, SubsetFamily,
                     build_function_graph, compose, induced_map, interval, postcompose_map)
from digitop.homotopy import PHI, PSI
from digitop.hyperspace import family_of
from digitop.verify import (random_connected_image, random_continuous_function,
                            random_function, random_image)


def close_on_points(space, a, b):
    """a, b adjacent or equal in ``space``, decided on lattice points.

    Images use c_u adjacency, families the closed coverage of their points,
    function graphs the phi or psi rule on the maps' values; no adjacency
    row of any space is read.
    """
    if a == b:
        return True
    if isinstance(space, DigitalImage):
        return space.adjacent(a, b)
    if isinstance(space, SubsetFamily):
        near = space.base.adjacent_or_equal
        return (all(any(near(p, q) for q in b) for p in a)
                and all(any(near(p, q) for q in a) for p in b))
    X, Y = space.domain, space.codomain
    if space.flavor == PHI:
        steps = [(x, x) for x in X.points]
    else:
        steps = [(x0, x1) for x0 in X.points for x1 in X.points if X.adjacent_or_equal(x0, x1)]
    return all(Y.adjacent_or_equal(a(x0), b(x1)) for x0, x1 in steps)


def other_codomain_maps(rng):
    """Maps on one pair of spaces whose codomain is a family or a function graph.

    Family-valued: induced maps and random, mostly discontinuous, tables.
    Function-graph-valued: post-compositions F |-> h o F, the retract map
    F |-> incl o r o F of the verify suite's retract claim, and random
    tables, on phi graphs, and random tables on psi graphs.
    """
    X, Y = random_image(rng, 3), random_image(rng, 3)
    case = rng.randrange(4)
    maps = []
    if case == 0:
        kind = rng.choice(("full", "connected"))
        dom, cod = family_of(X, kind), family_of(Y, kind)
        for _ in range(2):
            try:
                maps.append(induced_map(random_function(rng, X, Y), dom, cod))
            except ValueError:  # a disconnected image in a connected family
                pass
    elif case == 1:
        W = random_image(rng, 2)
        dom, cod = build_function_graph(W, X, PHI), build_function_graph(W, Y, PHI)
        maps = [postcompose_map(random_continuous_function(rng, X, Y), W) for _ in range(2)]
    elif case == 2:
        a, c, b = sorted(rng.sample(range(4), 3))
        Yi, Wi = interval(a, b), interval(a, c)
        r = FiniteFunction(Yi, Wi, tuple((p, (min(p[0], c),)) for p in Yi.points))
        incl = FiniteFunction(Wi, Yi, tuple((p, p) for p in Wi.points))
        dom = cod = build_function_graph(random_connected_image(rng, 2), Yi, PHI)
        maps = [FiniteFunction.from_table(dom, cod, {F: compose(incl, compose(r, F))
                                                     for F in dom.vertices})]
    else:
        W = random_image(rng, 2)
        dom, cod = build_function_graph(W, X, PSI), build_function_graph(W, Y, PSI)
    for _ in range(2):
        maps.append(FiniteFunction.from_table(
            dom, cod, {v: rng.choice(cod.vertices) for v in dom.vertices}))
    return maps


@pytest.fixture(name="close_on_points")
def _close_on_points():
    return close_on_points


@pytest.fixture(name="other_codomain_maps")
def _other_codomain_maps():
    return other_codomain_maps


@pytest.fixture(name="refuse_labels")
def _refuse_labels(monkeypatch):
    """A call that makes every later build of a family's ``members`` or a
    function graph's ``vertices``, and of the indexes read from them, fail."""
    def refuse(space):
        raise AssertionError(f"a {type(space).__name__} built its vertex labels")

    def install():
        monkeypatch.setattr(SubsetFamily, "members", property(refuse))
        monkeypatch.setattr(FunctionGraph, "vertices", property(refuse))

    return install
