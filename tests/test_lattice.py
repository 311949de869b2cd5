"""Lattice layer: c_u adjacency, neighborhoods, connectivity, paths."""

import itertools
import random
from collections import deque

import pytest
from hypothesis import given, settings, strategies as st

from digitop import (DigitalImage, HomotopyTable, LatticePath, as_multifunction, concatenate,
                     cu_adjacent, cycle_image, cycle_points, enumerate_connected_subsets,
                     family_from_json, family_to_json, function_from_json, function_to_json,
                     homotopy_from_json, homotopy_to_json, identity_map, image_from_json,
                     image_to_json, induced_map, interval, is_connected,
                     multifunction_from_json, multifunction_to_json, neighbors)
from digitop.cli import _run_check
from digitop.functions import family_function_from_json, family_function_to_json
from digitop.graphmetrics import as_finite_graph, bfs_distances, connected_components
from digitop.lattice import _bits, _components, _connectivity_order, _cover, _flood
from digitop.verify import random_image

points_1d = st.integers(-5, 5).map(lambda v: (v,))
dims = st.integers(1, 4)


def lattice_points(dim):
    return st.tuples(*([st.integers(-4, 4)] * dim))


class TestCuAdjacent:
    def test_diagonal_needs_u2(self):
        assert cu_adjacent((0, 0), (1, 1), 2)
        assert not cu_adjacent((0, 0), (1, 1), 1)

    def test_irreflexive(self):
        assert not cu_adjacent((3,), (3,), 1)

    def test_dimension_mismatch(self):
        with pytest.raises(ValueError):
            cu_adjacent((0,), (0, 0), 1)

    def test_bad_u(self):
        with pytest.raises(ValueError):
            cu_adjacent((0,), (1,), 2)

    @given(dims.flatmap(lambda d: st.tuples(lattice_points(d), lattice_points(d),
                                            st.integers(1, d))))
    @settings(max_examples=200)
    def test_symmetric_and_irreflexive(self, data):
        x, y, u = data
        assert cu_adjacent(x, y, u) == cu_adjacent(y, x, u)
        assert not cu_adjacent(x, x, u)

    @given(dims.flatmap(lambda d: st.tuples(lattice_points(d), lattice_points(d),
                                            st.integers(1, d), st.integers(1, d))))
    @settings(max_examples=200)
    def test_monotone_in_u(self, data):
        x, y, u, v = data
        if u > v:
            u, v = v, u
        if cu_adjacent(x, y, u):
            assert cu_adjacent(x, y, v)


class TestNeighbors:
    def test_interval_interior(self):
        X = interval(0, 2)
        assert neighbors(X, (1,)) == {(0,), (2,)}
        assert neighbors(X, (0,)) == {(1,)}

    def test_c1_diagonal_isolated(self):
        X = DigitalImage.of([(0, 0), (1, 1)], 1)
        assert neighbors(X, (0, 0)) == frozenset()

    def test_outside_point_rejected(self):
        with pytest.raises(ValueError):
            neighbors(interval(0, 2), (5,))

    @given(dims.flatmap(lambda d: st.tuples(
        st.sets(lattice_points(d), min_size=1, max_size=30), st.integers(1, d))))
    @settings(max_examples=100)
    def test_rows_match_pair_scan(self, data):
        # rows come from step lookups when 3**dim <= 4 * #points, else from a pair scan
        pts, u = data
        X = DigitalImage.of(pts, u)
        for i, p in enumerate(X.points):
            expect = {q for q in X.points if cu_adjacent(p, q, u)}
            assert X.points_of(X.neighbor_masks[i]) == expect == X.neighbors(p)

    @given(st.integers(0, 2 ** 32 - 1))
    @settings(max_examples=50, deadline=None)
    def test_bfs_distances_match_point_bfs(self, seed):
        # random images of up to 10 points, disconnected ones included; the
        # reference is a queue over points and X.neighbors, not over rows
        X = random_image(random.Random(seed), 10)
        G = as_finite_graph(X)
        for i, p in enumerate(X.points):
            dist, queue = {p: 0}, deque([p])
            while queue:
                q = queue.popleft()
                for r in sorted(X.neighbors(q)):
                    if r not in dist:
                        dist[r] = dist[q] + 1
                        queue.append(r)
            assert bfs_distances(G, i) == [dist.get(q) for q in X.points]

    def test_neighbor_count_bounds(self):
        line = interval(-3, 3)
        for p in line.points:
            assert len(line.neighbors(p)) <= 2
        box4 = DigitalImage.of([(i, j) for i in range(4) for j in range(4)], 1)
        box8 = DigitalImage.of(box4.points, 2)
        for p in box4.points:
            assert len(box4.neighbors(p)) <= 4
            assert len(box8.neighbors(p)) <= 8
        # interior points of a full rectangle meet the bound exactly
        assert len(box4.neighbors((1, 1))) == 4
        assert len(box8.neighbors((2, 2))) == 8


def brute_force_connected(pts, X):
    """Pairwise path existence inside the set, by exhaustive DFS."""
    pts = sorted(set(pts))
    for a, b in itertools.combinations(pts, 2):
        stack, seen = [a], {a}
        while stack:
            p = stack.pop()
            for q in pts:
                if q not in seen and X.adjacent(p, q):
                    seen.add(q)
                    stack.append(q)
        if b not in seen:
            return False
    return True


class TestConnectivity:
    def test_interval_connected(self):
        assert is_connected(interval(0, 3).points, interval(0, 3))

    def test_gap_disconnected(self):
        X = interval(0, 2)
        assert not is_connected([(0,), (2,)], X)

    def test_diagonal_c2_connected(self):
        X = DigitalImage.of([(0, 0), (1, 1)], 2)
        assert is_connected(X.points, X)

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            is_connected([], interval(0, 1))

    def test_against_brute_force(self):
        rng = random.Random(11)
        box = [(i, j) for i in range(4) for j in range(3)]
        for _ in range(150):
            k = rng.randint(1, 12)
            pts = rng.sample(box, min(k, len(box)))
            u = rng.choice((1, 2))
            X = DigitalImage.of(box, u)
            assert is_connected(pts, X) == brute_force_connected(pts, X)

    def test_components_partition(self):
        X = DigitalImage.of([(0,), (1,), (3,), (5,), (6,)], 1)
        comps = X.components()
        assert sorted(sorted(c) for c in comps) == [
            [(0,), (1,)], [(3,)], [(5,), (6,)]]


def point_bfs_components(X):
    """The point breadth-first search ``DigitalImage.components`` replaced."""
    remaining = set(X.points)
    comps = []
    for start in X.points:
        if start not in remaining:
            continue
        seen = {start}
        queue = deque([start])
        while queue:
            p = queue.popleft()
            for q in X.neighbors(p):
                if q in remaining and q not in seen:
                    seen.add(q)
                    queue.append(q)
        remaining -= seen
        comps.append(frozenset(seen))
    return tuple(comps)


def components_connectivity_order(X):
    """The ``_connectivity_order`` that rooted each of ``point_bfs_components``
    at its smallest point, which it replaced."""
    nbr = X.neighbor_masks
    order = []
    placed = set()
    for comp in point_bfs_components(X):
        root = X.point_index[min(comp)]
        queue = deque([root])
        placed.add(root)
        while queue:
            i = queue.popleft()
            order.append(i)
            for j in _bits(nbr[i]):
                if j not in placed:
                    placed.add(j)
                    queue.append(j)
    pos = [0] * len(order)
    for k, i in enumerate(order):
        pos[i] = k
    earlier = [sorted(pos[j] for j in _bits(nbr[i]) if pos[j] < k)
               for k, i in enumerate(order)]
    return order, earlier


def random_sparse_image(rng):
    """A random image in a 4^dim box, dim 1 to 3, often disconnected."""
    dim = rng.randint(1, 3)
    box = list(itertools.product(range(4), repeat=dim))
    pts = rng.sample(box, rng.randint(1, min(len(box), 12)))
    return DigitalImage(dim, tuple(pts), rng.randint(1, dim))


@st.composite
def bitmask_rows(draw):
    """Symmetric adjacency rows on up to 10 vertices with at most as many
    edges as vertices, so often disconnected."""
    n = draw(st.integers(0, 10))
    pairs = [(i, j) for i in range(n) for j in range(i + 1, n)]
    rows = [0] * n
    for i, j in draw(st.lists(st.sampled_from(pairs), max_size=n)) if pairs else ():
        rows[i] |= 1 << j
        rows[j] |= 1 << i
    return tuple(rows)


def point_reach(rows, start, inside):
    """The vertices of ``inside`` reachable from the set ``start`` through
    ``inside``, by a point breadth-first search over the rows' bit lists."""
    seen = start & inside
    queue = deque(seen)
    while queue:
        i = queue.popleft()
        for j in _bits(rows[i]):
            if j in inside and j not in seen:
                seen.add(j)
                queue.append(j)
    return seen


class TestConnectivityReferences:
    @settings(max_examples=300, deadline=None)
    @given(bitmask_rows(), st.integers(0, 2 ** 10 - 1), st.integers(0, 2 ** 10 - 1))
    def test_mask_steps_match_point_references(self, rows, seed, within):
        n = len(rows)
        seed &= (1 << n) - 1
        within &= (1 << n) - 1

        def vertices(mask):
            return {i for i in range(n) if mask >> i & 1}

        assert _cover(rows, 0) == 0
        assert vertices(_cover(rows, seed)) == {j for i in vertices(seed) for j in _bits(rows[i])}
        # the last within excludes the seed, so the flood reaches nothing
        for inside in (within, within | seed, within & ~seed):
            assert vertices(_flood(rows, seed, inside)) == point_reach(
                rows, vertices(seed), vertices(inside))
        comps, left = [], set(range(n))
        for v in range(n):
            if v in left:
                comps.append(point_reach(rows, {v}, left))
                left -= comps[-1]
        assert list(map(vertices, _components(rows))) == comps

    @settings(max_examples=200, deadline=None)
    @given(st.integers(0, 2 ** 32 - 1))
    def test_image_and_graph_components_agree(self, seed):
        X = random_sparse_image(random.Random(seed))
        index = X.point_index
        assert connected_components(as_finite_graph(X)) == tuple(
            tuple(sorted(index[p] for p in comp)) for comp in X.components())

    def test_components_and_order_match_point_search(self):
        rng = random.Random(31)
        counts = set()
        for _ in range(400):
            X = random_sparse_image(rng)
            comps = X.components()
            assert comps == point_bfs_components(X)
            assert _connectivity_order(X) == components_connectivity_order(X)
            assert X.is_connected() == (len(comps) == 1)
            counts.add(min(len(comps), 3))
        assert counts == {1, 2, 3}

    def test_subset_connectivity_matches_point_search(self):
        rng = random.Random(32)
        for _ in range(400):
            X = random_sparse_image(rng)
            pts = rng.sample(X.points, rng.randint(1, len(X)))
            assert is_connected(pts, X) == (len(point_bfs_components(X.restrict(pts))) == 1)

    def test_foreign_point_rejected(self):
        with pytest.raises(ValueError, match="not in the image"):
            is_connected([(0,), (5,)], interval(0, 2))


class TestPaths:
    def test_concatenate(self):
        X = interval(0, 3)
        p1 = LatticePath(X, ((0,), (1,), (2,)))
        p2 = LatticePath(X, ((2,), (3,)))
        assert concatenate(p1, p2).steps == ((0,), (1,), (2,), (3,))

    def test_singleton_identity(self):
        X = interval(0, 2)
        p = LatticePath(X, ((0,), (1,)))
        assert concatenate(p, LatticePath(X, ((1,),))).steps == p.steps

    def test_endpoint_mismatch(self):
        X = interval(0, 3)
        with pytest.raises(ValueError):
            concatenate(LatticePath(X, ((0,),)), LatticePath(X, ((2,),)))

    def test_invalid_step_rejected(self):
        with pytest.raises(ValueError):
            LatticePath(interval(0, 3), ((0,), (2,)))

    def test_associative_on_random_triples(self):
        rng = random.Random(5)
        X = interval(0, 6)
        for _ in range(100):
            def walk(start, n):
                steps = [start]
                for _ in range(n):
                    nxt = steps[-1][0] + rng.choice((-1, 0, 1))
                    steps.append((min(6, max(0, nxt)),))
                return steps
            a = walk((rng.randint(0, 6),), rng.randint(0, 4))
            b = walk(a[-1], rng.randint(0, 4))
            c = walk(b[-1], rng.randint(0, 4))
            p1, p2, p3 = (LatticePath(X, tuple(s)) for s in (a, b, c))
            left = concatenate(concatenate(p1, p2), p3)
            right = concatenate(p1, concatenate(p2, p3))
            assert left == right
            assert left.length == p1.length + p2.length + p3.length


class TestImageConstruction:
    def test_duplicates_rejected(self):
        with pytest.raises(ValueError):
            DigitalImage(1, ((0,), (0,)), 1)

    def test_points_sorted(self):
        X = DigitalImage(1, ((2,), (0,), (1,)), 1)
        assert X.points == ((0,), (1,), (2,))

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            DigitalImage(1, (), 1)

    def test_bad_adjacency(self):
        with pytest.raises(ValueError):
            DigitalImage(1, ((0,),), 2)

    def test_json_round_trip(self):
        X = DigitalImage.of([(0, 1), (1, 1), (2, 0)], 2)
        assert image_from_json(image_to_json(X)) == X

    def test_json_rejects_garbage(self):
        with pytest.raises(ValueError):
            image_from_json({"dim": 1, "adjacency": "k1", "points": [[0]]})
        with pytest.raises(ValueError):
            image_from_json({"dim": 1, "points": [[0]]})


class TestCycleImages:
    @pytest.mark.parametrize("n", [4, 5, 6, 8, 10])
    def test_cycle_is_two_regular_and_cyclic(self, n):
        img = cycle_image(n)
        pts = cycle_points(n)
        assert len(img) == n
        for i, p in enumerate(pts):
            expect = {pts[(i - 1) % n], pts[(i + 1) % n]}
            assert img.neighbors(p) == expect

    def test_odd_large_unsupported(self):
        with pytest.raises(ValueError):
            cycle_image(7)


def _pair_from_json(doc):
    """Read a pair document the way the CLI's two-map checks do."""
    return _run_check("phi-adjacent", doc, None)


def _loader_cases():
    """(document name, loader, a valid document) for each of the six loaders
    and for the pair document of the CLI's two-map checks."""
    X = interval(0, 1)
    K = enumerate_connected_subsets(X)
    f = identity_map(X)
    return [
        ("image", image_from_json, image_to_json(X)),
        ("family", family_from_json, family_to_json(K)),
        ("function", function_from_json, function_to_json(f)),
        ("family function", family_function_from_json,
         family_function_to_json(induced_map(f, K))),
        ("multifunction", multifunction_from_json, multifunction_to_json(as_multifunction(f))),
        ("homotopy", homotopy_from_json, homotopy_to_json(HomotopyTable(X, X, (f, f)))),
        ("pair", _pair_from_json, {"f": function_to_json(f), "g": function_to_json(f)}),
    ]


def _malformed_documents():
    for what, load, doc in _loader_cases():
        yield pytest.param(load, ["not", "an", "object"],
                           f"{what} document must be a JSON object", id=f"{what}-not-object")
        for key in doc:
            short = {k: v for k, v in doc.items() if k != key}
            yield pytest.param(load, short, f"{what} document is missing {key!r}",
                               id=f"{what}-missing-{key}")


class TestDocumentLoaders:
    @pytest.mark.parametrize("load, doc, message", _malformed_documents())
    def test_malformed_document_message(self, load, doc, message):
        with pytest.raises(ValueError) as exc:
            load(doc)
        assert str(exc.value) == message
