"""Graph kernels against networkx, used here as an independent oracle only.

Girth length, eccentricities, radius, diameter, center and connected
components on random graphs and on the graphs of random images, of their
hyperspaces and of custom subfamilies, disconnected ones included; and
isomorphism of random images, decided by trying every bijection.
Skipped when networkx is not installed; the library itself never imports
it.
"""

import random
from itertools import combinations, permutations

import pytest

from digitop import (FiniteFunction, as_finite_graph, center, connected_components, diameter,
                     eccentricity, enumerate_all_subsets, enumerate_connected_subsets, girth,
                     hyperspace_graph, is_isomorphism, radius)
from digitop.verify import random_graph, random_image

nx = pytest.importorskip("networkx")


def sample_graphs(seed, count=150):
    """Random graphs, and the graphs of random images, their K(X) and 2^X,
    and random custom subfamilies of 2^X."""
    rng = random.Random(seed)
    out = []
    for _ in range(count):
        kind = rng.randrange(5)
        if kind == 0:
            out.append(random_graph(rng, 12))
            continue
        X = random_image(rng, 6 if kind < 3 else 5)
        if kind == 1:
            space = X
        elif kind == 2:
            space = hyperspace_graph(enumerate_connected_subsets(X))
        else:
            space = hyperspace_graph(enumerate_all_subsets(X))
            if kind == 4:
                kept = [m for m in space.members if rng.random() < 0.6]
                space = hyperspace_graph(space.subfamily(kept or space.members[:1]))
        out.append(as_finite_graph(space))
    return out


def to_networkx(G):
    H = nx.Graph()
    H.add_nodes_from(range(G.n))
    H.add_edges_from(G.edges())
    return H


@pytest.mark.parametrize("seed", range(3))
def test_components_match(seed):
    seen = set()
    for G in sample_graphs(seed):
        expect = sorted(sorted(c) for c in nx.connected_components(to_networkx(G)))
        assert sorted(map(list, connected_components(G))) == expect
        seen.add(len(expect) > 1)
    assert seen == {False, True}


@pytest.mark.parametrize("seed", range(3))
def test_girth_length_matches(seed):
    seen = set()
    for G in sample_graphs(seed):
        expect = nx.girth(to_networkx(G))
        found = girth(G)
        assert (found.length if found else float("inf")) == expect
        seen.add(found is None)
    assert seen == {False, True}


@pytest.mark.parametrize("seed", range(3))
def test_distance_metrics_match(seed):
    seen = set()
    for G in sample_graphs(seed):
        H = to_networkx(G)
        connected = nx.is_connected(H)
        seen.add(connected)
        if not connected:
            with pytest.raises(ValueError, match="disconnected"):
                radius(G)
            with pytest.raises(nx.NetworkXError):
                nx.radius(H)
            continue
        eccs = nx.eccentricity(H)
        assert [eccentricity(G, v) for v in range(G.n)] == [eccs[v] for v in range(G.n)]
        assert radius(G) == nx.radius(H)
        assert diameter(G) == nx.diameter(H)
        assert center(G) == frozenset(nx.center(H))
    assert seen == {False, True}


def image_to_networkx(X):
    """The graph of an image from its c_u adjacency test on point pairs."""
    H = nx.Graph()
    H.add_nodes_from(range(len(X)))
    H.add_edges_from((i, j) for i, j in combinations(range(len(X)), 2)
                     if X.adjacent(X.points[i], X.points[j]))
    return H


@pytest.mark.parametrize("seed", range(3))
def test_some_bijection_is_an_isomorphism_iff_networkx_says_so(seed):
    rng = random.Random(seed)
    seen = set()
    for _ in range(60):
        X = random_image(rng, 5)
        Y = random_image(rng, 5)
        while len(Y) != len(X):
            Y = random_image(rng, 5)
        found = any(is_isomorphism(FiniteFunction(X, Y, tuple(zip(X.points, values))))
                    for values in permutations(Y.points))
        assert found == nx.is_isomorphic(image_to_networkx(X), image_to_networkx(Y))
        if len(X) >= 4:
            seen.add(found)
    assert seen == {False, True}
