"""Graph metrics layer: cycles, domination, eccentricity, disconnection."""

import itertools
import random
from collections import deque

import pytest
from hypothesis import given, settings, strategies as st

from digitop import (BudgetError, DigitalImage, FiniteGraph, SubsetFamily,
                     as_finite_graph, build_function_graph, center, connected_components, diameter,
                     disconnects, eccentricity, enumerate_all_subsets,
                     enumerate_connected_subsets, girth, hyperspace_graph,
                     induced_subgraph, interval, is_connected_graph,
                     is_dominating, is_valid_cycle, lift_dominating,
                     longest_cycle, metrics_csv, minimum_dominating_set,
                     radius, to_dot, cycle_image)
from digitop.graphmetrics import bfs_distances, bounded_eccentricities, seed_eccentricities
from digitop.hyperspace import family_of
from digitop.lattice import _bits, is_connected
from digitop.verify import (oracle_longest_cycle, random_connected_image,
                            random_graph, random_image)


def path_graph(n):
    return FiniteGraph.from_edges(n, [(i, i + 1) for i in range(n - 1)])


def complete_graph(n):
    return FiniteGraph.from_edges(n, [(i, j) for i in range(n) for j in range(i + 1, n)])


def bfs_components(G):
    """The components of G by ``bfs_distances`` from each unplaced vertex."""
    comps, placed = [], set()
    for s in range(G.n):
        if s not in placed:
            dist = bfs_distances(G, s)
            comps.append(tuple(v for v in range(G.n) if dist[v] is not None))
            placed.update(comps[-1])
    return tuple(comps)


def frontier_eccentricities(G):
    """The generator-based frontier search ``FiniteGraph._eccentricities``
    replaced, one level past the last vertex; the reference it must equal."""
    adj, n = G.adj, G.n
    full = (1 << n) - 1
    out = []
    for s in range(n):
        seen = frontier = 1 << s
        ecc = -1
        while frontier:
            ecc += 1
            reach = 0
            for i in _bits(frontier):
                reach |= adj[i]
            frontier = reach & ~seen
            seen |= frontier
        if seen != full:
            return None
        out.append(ecc)
    return tuple(out)


def cycle_graph(n):
    return FiniteGraph.from_edges(n, [(i, (i + 1) % n) for i in range(n)])


def lollipop_graph(clique, tail):
    """A clique on 0..clique-1 with a path of ``tail`` more vertices hung from its last vertex."""
    return FiniteGraph.from_edges(clique + tail, [(i, j) for i in range(clique)
                                                  for j in range(i + 1, clique)]
                                  + [(i, i + 1) for i in range(clique - 1, clique + tail - 1)])


def recursive_longest_cycle(G):
    """The recursive longest-cycle search ``longest_cycle`` replaced; the
    reference its witnesses must equal, vertex for vertex."""
    best_len = 2
    best_path = None
    adj = G.adj
    full_mask = (1 << G.n) - 1

    def reachable_from(v, allowed):
        seen = 1 << v
        frontier = seen
        while frontier:
            nxt = 0
            for i in _bits(frontier):
                nxt |= adj[i]
            nxt &= allowed & ~seen
            seen |= nxt
            frontier = nxt
        return seen

    path = []

    def dfs(v, free, anchor):
        nonlocal best_len, best_path
        path.append(v)
        if len(path) >= 3 and adj[v] >> anchor & 1 and len(path) > best_len:
            best_len = len(path)
            best_path = tuple(path)
        reach = reachable_from(v, free)
        if len(path) + bin(reach & free).count("1") > best_len and adj[anchor] & reach:
            for w in _bits(adj[v] & free):
                dfs(w, free & ~(1 << w), anchor)
        path.pop()

    for anchor in range(G.n):
        above = full_mask & ~((1 << (anchor + 1)) - 1)
        path.append(anchor)
        for w in _bits(adj[anchor] & above):
            dfs(w, above & ~(1 << w), anchor)
        path.pop()
    return best_path


def permutation_longest_cycle_length(G):
    """Longest cycle length by checking vertex permutations of every subset,
    largest subsets first: the permutation search ``verify.oracle_longest_cycle``
    replaced; the reference both it and ``longest_cycle`` must equal."""
    best = None
    for k in range(G.n, 2, -1):
        if best is not None:
            break
        for sub in itertools.combinations(range(G.n), k):
            anchor, rest = sub[0], sub[1:]
            for perm in itertools.permutations(rest):
                if k > 3 and perm[0] > perm[-1]:
                    continue  # each cycle once per direction
                seq = (anchor,) + perm
                if all(G.adjacent(seq[i], seq[(i + 1) % k]) for i in range(k)):
                    best = k
                    break
            if best is not None:
                break
    return best


def subset_dp_longest_cycle_length(G):
    """Longest cycle length by dynamic programming over vertex subsets.

    For each anchor s (the cycle's minimum vertex), ``ends[sub]`` is the
    set of vertices at which a path from s covering exactly s and the
    vertices of ``sub`` (bit j standing for vertex s + 1 + j) can end.  An
    independent oracle for graphs too large for the permutation oracle.
    """
    best = None
    for s in range(G.n):
        m = G.n - s - 1
        ends = [0] * (1 << m)
        ends[0] = 1 << s
        for sub in range(1 << m):
            here = ends[sub]
            if not here:
                continue
            length = sub.bit_count() + 1
            if length >= 3 and here & G.adj[s] and (best is None or length > best):
                best = length
            for j in range(m):
                if not sub >> j & 1 and G.adj[s + 1 + j] & here:
                    ends[sub | 1 << j] |= 1 << (s + 1 + j)
    return best


def brute_force_domination_number(G):
    """The smallest k such that some k-subset of the vertices dominates G,
    found by trying every k-subset from itertools.combinations in turn."""
    closed = [{v} for v in range(G.n)]
    for i, j in G.edges():
        closed[i].add(j)
        closed[j].add(i)
    everything = set(range(G.n))
    for k in range(1, G.n + 1):
        for subset in itertools.combinations(range(G.n), k):
            if set().union(*(closed[v] for v in subset)) == everything:
                return k, closed


class TestFiniteGraph:
    def test_symmetry_enforced(self):
        with pytest.raises(ValueError):
            FiniteGraph(2, (0b10, 0b00))

    def test_self_loop_rejected(self):
        with pytest.raises(ValueError):
            FiniteGraph.from_edges(1, [(0, 0)])

    def test_bad_rows_and_edges_rejected(self):
        for n, rows in ((2, (0b10,)), (-1, ()), (2, (0b100, 0)), (1, (0b1,))):
            with pytest.raises(ValueError):
                FiniteGraph(n, rows)
        with pytest.raises(IndexError):
            FiniteGraph.from_edges(2, [(0, 2)])
        with pytest.raises(ValueError):
            FiniteGraph.from_edges(2, [(0, -1)])
        with pytest.raises(ValueError):
            FiniteGraph.from_edges(-1, [])

    def test_from_edges_equals_checked_constructor(self):
        rng = random.Random(4)
        for _ in range(30):
            G = random_graph(rng, 9)
            assert FiniteGraph(G.n, G.adj) == G
            assert G.edge_count == len(list(G.edges()))

    def test_projection_from_image(self):
        X = interval(0, 2)
        G = as_finite_graph(X)
        assert G.n == 3 and sorted(G.edges()) == [(0, 1), (1, 2)]

    def test_a_graph_is_its_rows(self):
        assert FiniteGraph._fields == ("n", "adj")
        X = interval(0, 2)
        spaces = [X, cycle_image(5), hyperspace_graph(enumerate_all_subsets(X)),
                  hyperspace_graph(enumerate_connected_subsets(X)),
                  SubsetFamily(X, (), "custom"), build_function_graph(X, interval(0, 1))]
        for space in spaces:
            G = as_finite_graph(space)
            rows = FiniteGraph(len(space.vertices), space.adjacency_rows)
            assert G == rows and hash(G) == hash(rows)
        G = as_finite_graph(X)
        assert G == FiniteGraph(len(X), X.neighbor_masks)
        assert hash(G) == hash(FiniteGraph(len(X), X.neighbor_masks))
        assert as_finite_graph(SubsetFamily(X, (), "custom")) == FiniteGraph(0, ())

    def test_induced_subgraph(self):
        G = path_graph(4)
        sub = induced_subgraph(G, [0, 1, 3])
        assert sub.n == 3 and sorted(sub.edges()) == [(0, 1)]

    def test_induced_subgraph_refuses_indices_outside_the_graph(self):
        G = path_graph(4)
        for keep in ([-1], [0, 5], [4], [-2, 1, 3]):
            with pytest.raises(ValueError, match=r"0\.\.3"):
                induced_subgraph(G, keep)
        assert induced_subgraph(G, []) == FiniteGraph(0, ())
        assert induced_subgraph(G, [3, 0]) == FiniteGraph(2, (0, 0))

    def test_components_match_bfs_distances(self):
        rng = random.Random(12)
        seen = set()
        for _ in range(500):
            n = rng.randint(0, 12)
            p = rng.choice((0.05, 0.15, 0.3, 0.6))
            G = FiniteGraph.from_edges(n, [(i, j) for i in range(n) for j in range(i + 1, n)
                                           if rng.random() < p])
            comps = bfs_components(G)
            assert connected_components(G) == comps
            assert is_connected_graph(G) == (len(comps) <= 1)
            seen.add(min(len(comps), 2))
        assert seen == {0, 1, 2}


def edge_scan_girth(G):
    """The girth search ``girth`` replaced: per edge, its own BFS that skips
    the edge both ways; the reference its witnesses must equal."""
    def shortest_path_avoiding_edge(u, v):
        prev = {u: -1}
        queue = deque([u])
        while queue:
            i = queue.popleft()
            for j in _bits(G.adj[i]):
                if (i, j) in ((u, v), (v, u)):
                    continue
                if j not in prev:
                    prev[j] = i
                    if j == v:
                        path = [v]
                        while path[-1] != u:
                            path.append(prev[path[-1]])
                        return tuple(reversed(path))
                    queue.append(j)
        return None

    best = None
    for u, v in G.edges():
        path = shortest_path_avoiding_edge(u, v)
        if path is not None and (best is None or len(path) < len(best)):
            best = path
            if len(best) == 3:
                break
    return best


class TestGirth:
    def test_isolated_hyperspace_acyclic(self):
        X = DigitalImage.of([(0,), (2,), (4,)], 1)
        G = as_finite_graph(hyperspace_graph(enumerate_connected_subsets(X)))
        assert girth(G) is None

    def test_nonisolated_hyperspace_has_triangle(self):
        rng = random.Random(1)
        for _ in range(40):
            X = random_image(rng, 6)
            G = as_finite_graph(hyperspace_graph(enumerate_connected_subsets(X)))
            w = girth(G)
            nonisolated = any(X.neighbors(p) for p in X.points)
            assert (w is not None and w.length == 3) == nonisolated
            if w is not None:
                assert is_valid_cycle(G, w.vertices)

    def test_five_cycle(self):
        G = as_finite_graph(cycle_image(5))
        assert girth(G).length == 5

    def test_tree_acyclic(self):
        assert girth(path_graph(6)) is None

    def test_same_witness_as_edge_scan(self):
        rng = random.Random(13)
        lengths = set()
        graphs = [as_finite_graph(cycle_image(n)) for n in (4, 5, 6, 12)]
        for _ in range(400):
            n = rng.randint(3, 14)
            density = rng.choice((0.12, 0.2, 0.35, 0.6))
            graphs.append(FiniteGraph.from_edges(
                n, [(i, j) for i in range(n) for j in range(i + 1, n) if rng.random() < density]))
        for i in range(100):
            X = random_image(rng, 6) if i % 2 else random_connected_image(rng, 6)
            graphs.append(as_finite_graph(X))
            graphs.append(as_finite_graph(hyperspace_graph(enumerate_connected_subsets(X))))
        for G in graphs:
            w = girth(G)
            assert (w.vertices if w else None) == edge_scan_girth(G)
            lengths.add(w.length if w else None)
        assert {None, 3, 4, 5} <= lengths


class TestLongestCycle:
    def test_triangle(self):
        assert longest_cycle(complete_graph(3)).length == 3

    def test_spanning_cycle_of_full_hyperspace(self):
        fam = enumerate_all_subsets(interval(1, 4))
        G = as_finite_graph(hyperspace_graph(fam))
        w = longest_cycle(G)
        assert w.length == 15
        assert is_valid_cycle(G, w.vertices)

    def test_spanning_cycle_witness_pinned(self):
        # the vertex tuple the search has returned on 2^[1,4] since it
        # was recursive; pruning must not move it
        G = as_finite_graph(hyperspace_graph(enumerate_all_subsets(interval(1, 4))))
        assert longest_cycle(G).vertices == (0, 1, 3, 7, 11, 5, 4, 8, 9, 10,
                                             12, 13, 14, 6, 2)

    def test_listed_spanning_sequence_validates(self):
        fam = enumerate_all_subsets(interval(1, 4))
        G = as_finite_graph(hyperspace_graph(fam))
        listed = [{1, 2}, {1, 2, 3}, {1, 3}, {1, 4}, {1, 3, 4}, {1, 2, 4},
                  {1, 2, 3, 4}, {2, 3, 4}, {2, 3}, {2, 4}, {3, 4},
                  {4}, {3}, {2}, {1}]
        idx = [fam.index_of(frozenset((v,) for v in s)) for s in listed]
        assert is_valid_cycle(G, idx)

    def test_six_cycle_around_branch_point(self):
        X = interval(0, 2)  # 1 has the non-adjacent neighbors 0 and 2
        K = enumerate_connected_subsets(X)
        G = as_finite_graph(hyperspace_graph(K))
        seq = [{(0,)}, {(0,), (1,)}, {(0,), (1,), (2,)}, {(1,), (2,)}, {(2,)}, {(1,)}]
        idx = [K.index_of(frozenset(s)) for s in seq]
        assert is_valid_cycle(G, idx)
        assert longest_cycle(G).length >= 6

    def test_matches_permutation_oracle(self):
        rng = random.Random(2)
        for _ in range(30):
            G = random_graph(rng, 8)
            w = longest_cycle(G)
            got = w.length if w else None
            assert got == permutation_longest_cycle_length(G)
            if w is not None:
                assert is_valid_cycle(G, w.vertices)

    def test_subset_oracle_matches_permutations_on_every_small_graph(self):
        # every labelled graph of 1 to 5 vertices: 1 + 2 + 8 + 64 + 1024
        checked = 0
        for n in range(1, 6):
            pairs = list(itertools.combinations(range(n), 2))
            for chosen in range(1 << len(pairs)):
                G = FiniteGraph.from_edges(n, [p for k, p in enumerate(pairs) if chosen >> k & 1])
                assert oracle_longest_cycle(G) == permutation_longest_cycle_length(G)
                checked += 1
        assert checked == 1099

    def test_subset_oracle_matches_permutations_on_random_graphs(self):
        rng = random.Random(12)
        lengths = set()
        for _ in range(200):
            G = random_graph(rng, 8)
            expect = permutation_longest_cycle_length(G)
            assert oracle_longest_cycle(G) == expect
            lengths.add(expect)
        assert None in lengths and 8 in lengths

    def test_girth_at_most_longest(self):
        rng = random.Random(3)
        for _ in range(30):
            G = random_graph(rng, 8)
            short, long_ = girth(G), longest_cycle(G)
            assert (short is None) == (long_ is None)
            if short is not None:
                assert 3 <= short.length <= long_.length

    def test_budget(self):
        with pytest.raises(BudgetError):
            longest_cycle(complete_graph(21))

    def test_same_witness_as_recursive_search(self):
        rng = random.Random(5)
        for _ in range(200):
            n = rng.randint(3, 16)
            density = rng.choice((0.2, 0.35, 0.5, 0.7))
            G = FiniteGraph.from_edges(n, [(i, j) for i in range(n) for j in range(i + 1, n)
                                           if rng.random() < density])
            w = longest_cycle(G)
            assert (w.vertices if w else None) == recursive_longest_cycle(G)

    def test_same_witness_as_recursive_search_on_hyperspaces(self):
        # the peel cuts most on these graphs, so they get their own check
        rng = random.Random(8)
        checked = 0
        while checked < 50:
            X = random_connected_image(rng, 6, min_points=3) if checked % 2 else random_image(rng, 6)
            G = as_finite_graph(hyperspace_graph(enumerate_connected_subsets(X)))
            if not 4 <= G.n <= 18:
                continue
            checked += 1
            w = longest_cycle(G)
            assert (w.vertices if w else None) == recursive_longest_cycle(G)

    def test_matches_subset_dp_oracle_beyond_permutations(self):
        rng = random.Random(9)
        for n in range(9, 14):
            for density in (0.15, 0.25, 0.4, 0.6) * 3:
                G = FiniteGraph.from_edges(n, [(i, j) for i in range(n) for j in range(i + 1, n)
                                               if rng.random() < density])
                w = longest_cycle(G)
                assert (w.length if w else None) == subset_dp_longest_cycle_length(G)
                if w is not None:
                    assert is_valid_cycle(G, w.vertices)


class TestDominating:
    def test_all_vertices(self):
        G = path_graph(5)
        assert is_dominating(range(5), G)

    def test_alternating_on_path(self):
        assert is_dominating([1, 3], path_graph(5))

    def test_empty_fails(self):
        assert not is_dominating([], path_graph(3))

    def test_vertex_outside_the_graph_refused(self):
        for d in (3, -1):
            with pytest.raises(ValueError, match=f"^vertex {d} is not in the graph$"):
                is_dominating([0, d], path_graph(3))

    def test_minimum_budget(self):
        with pytest.raises(BudgetError,
                           match="^dominating-set search needs 5 vertices but the budget is 4$"):
            minimum_dominating_set(path_graph(5), budget=4)
        assert minimum_dominating_set(path_graph(5), budget=5) == {1, 3}

    def test_minimum_on_singleton(self):
        assert minimum_dominating_set(FiniteGraph(1, (0,))) == {0}

    def test_minimum_on_path3(self):
        assert minimum_dominating_set(path_graph(3)) == {1}

    def test_minimum_on_five_cycle(self):
        G = as_finite_graph(cycle_image(5))
        assert len(minimum_dominating_set(G)) == 2

    def test_minimum_matches_enumeration(self):
        rng = random.Random(4)
        for _ in range(25):
            G = random_graph(rng, 7)
            best = minimum_dominating_set(G)
            assert is_dominating(best, G)
            brute = min(
                (bin(m).count("1") for m in range(1, 1 << G.n)
                 if is_dominating([i for i in range(G.n) if m >> i & 1], G)))
            assert len(best) == brute

    def test_minimum_matches_subset_oracle_beyond_verify_sizes(self):
        rng = random.Random(41)
        graphs = []
        for _ in range(30):
            n, density = rng.randint(10, 15), rng.choice((0.15, 0.3, 0.5))
            graphs.append(FiniteGraph.from_edges(
                n, [(i, j) for i in range(n) for j in range(i + 1, n) if rng.random() < density]))
        while len(graphs) < 60:
            X = random_image(rng, 4)
            if len(X) >= 3:
                graphs.append(as_finite_graph(hyperspace_graph(enumerate_all_subsets(X))))
                graphs.append(as_finite_graph(hyperspace_graph(enumerate_connected_subsets(X))))
        sizes = set()
        for G in graphs:
            size, closed = brute_force_domination_number(G)
            best = minimum_dominating_set(G)
            assert len(best) == size
            assert set().union(*(closed[v] for v in best)) == set(range(G.n))
            sizes.add(size)
        assert max(sizes) >= 4 and min(sizes) <= 2

    def test_lift_whole_image(self):
        X = interval(0, 2)
        fam = enumerate_all_subsets(X)
        assert lift_dominating(X.points, X, family=fam) == frozenset(range(len(fam)))

    def test_lift_refuses_a_family_of_another_image(self):
        X, other = interval(0, 5), enumerate_connected_subsets(interval(0, 2))
        with pytest.raises(ValueError, match="not a hyperspace of X"):
            lift_dominating([(0,), (2,), (5,)], X, family=other)
        same = enumerate_connected_subsets(interval(0, 5))
        assert lift_dominating([(0,)], X, family=same) == frozenset(
            i for i, m in enumerate(same.masks) if m & 1)

    def test_lift_iff(self):
        rng = random.Random(5)
        for _ in range(40):
            X = random_image(rng, 5)
            fam = enumerate_all_subsets(X)
            G = as_finite_graph(hyperspace_graph(fam))
            GX = as_finite_graph(X)
            for dmask in range(1 << len(X)):
                D = [X.points[i] for i in range(len(X)) if dmask >> i & 1]
                low = is_dominating([X.point_index[p] for p in D], GX)
                high = is_dominating(lift_dominating(D, X, family=fam), G)
                assert low == high


class TestMetrics:
    def test_path_center(self):
        G = path_graph(5)
        assert center(G) == {2}
        assert radius(G) == 2
        assert diameter(G) == 4
        assert eccentricity(G, 0) == 4

    def test_complete(self):
        G = complete_graph(4)
        assert radius(G) == diameter(G) == 1

    def test_disconnected_rejected(self):
        G = FiniteGraph.from_edges(3, [(0, 1)])
        with pytest.raises(ValueError):
            diameter(G)
        with pytest.raises(ValueError):
            eccentricity(G, 0)

    @pytest.mark.parametrize("G", [
        as_finite_graph(SubsetFamily(interval(0, 2), (), "custom")), FiniteGraph(0, ()),
    ], ids=["empty-custom-family", "empty"])
    def test_no_vertices(self, G):
        for metric in (radius, diameter, center):
            with pytest.raises(ValueError,
                               match="^metric is undefined on a graph with no vertices$"):
                metric(G)
        best = minimum_dominating_set(G)
        assert best == frozenset() and is_dominating(best, G)
        assert metrics_csv(G) == "vertex,label,degree,eccentricity\n"

    def test_disconnected_rejected_on_every_call(self):
        G = as_finite_graph(hyperspace_graph(enumerate_connected_subsets(
            DigitalImage.of([(0,), (2,)], 1))))
        for _ in range(3):
            for metric in (radius, diameter, center, metrics_csv):
                with pytest.raises(ValueError, match="disconnected"):
                    metric(G)
            with pytest.raises(ValueError, match="disconnected"):
                G.eccentricities

    @given(st.integers(0, 2 ** 32 - 1), st.sampled_from(("full", "connected")))
    @settings(max_examples=60, deadline=None)
    def test_eccentricities_match_per_source_bfs(self, seed, kind):
        X = random_image(random.Random(seed), 8)
        build = enumerate_all_subsets if kind == "full" else enumerate_connected_subsets
        G = as_finite_graph(hyperspace_graph(build(X)))
        assert G.edge_count == len(list(G.edges()))
        dists = [bfs_distances(G, v) for v in range(G.n)]
        if any(None in d for d in dists):
            with pytest.raises(ValueError):
                G.eccentricities
            return
        eccs = tuple(max(d) for d in dists)
        assert G.eccentricities == eccs
        assert radius(G) == min(eccs)
        assert diameter(G) == max(eccs)
        assert center(G) == {v for v, e in enumerate(eccs) if e == min(eccs)}
        assert [eccentricity(G, v) for v in range(G.n)] == list(eccs)

    @pytest.mark.parametrize("G", [
        path_graph(150), path_graph(300), cycle_graph(151), cycle_graph(300),
        lollipop_graph(30, 30), FiniteGraph.from_edges(0, []), path_graph(1),
        FiniteGraph.from_edges(4, [(0, 1), (1, 3)]), FiniteGraph.from_edges(2, []),
    ], ids=["path150", "path300", "cycle151", "cycle300", "lollipop30", "empty",
            "single", "isolated", "two-isolated"])
    def test_eccentricities_match_frontier_reference(self, G):
        eccs = frontier_eccentricities(G)
        assert G._eccentricities == eccs
        if eccs is None:
            for metric in (radius, diameter, center, metrics_csv,
                           lambda G: eccentricity(G, 0)):
                with pytest.raises(ValueError, match="disconnected"):
                    metric(G)

    def test_eccentricities_match_frontier_reference_on_hyperspaces(self):
        rng = random.Random(10)
        seen = set()
        for k in range(60):
            X = random_connected_image(rng, 6) if k % 3 else random_image(rng, 6)
            family = enumerate_all_subsets(X) if k % 2 else enumerate_connected_subsets(X)
            custom = family.subfamily(m for m in family.members if rng.random() < 0.6)
            for space in (family, custom):
                G = as_finite_graph(space)
                eccs = frontier_eccentricities(G)
                assert G._eccentricities == eccs
                seen.add(eccs is None)
        assert seen == {False, True}

    def test_against_floyd_warshall(self):
        rng = random.Random(6)
        for _ in range(20):
            G = random_graph(rng, 7)
            if not is_connected_graph(G):
                continue
            dist = [[0 if i == j else (1 if G.adjacent(i, j) else 10 ** 6)
                     for j in range(G.n)] for i in range(G.n)]
            for k in range(G.n):
                for i in range(G.n):
                    for j in range(G.n):
                        d = dist[i][k] + dist[k][j]
                        if d < dist[i][j]:
                            dist[i][j] = d
            eccs = [max(row) for row in dist]
            assert radius(G) == min(eccs)
            assert diameter(G) == max(eccs)
            for v in range(G.n):
                assert eccentricity(G, v) == eccs[v]

    def test_radius_diameter_bounds(self):
        rng = random.Random(7)
        for _ in range(30):
            G = random_graph(rng, 8)
            if not is_connected_graph(G):
                continue
            r, d = radius(G), diameter(G)
            assert r <= d <= 2 * r

    def test_hyperspace_diameter_bound(self):
        rng = random.Random(8)
        for _ in range(40):
            X = random_connected_image(rng, 6, min_points=2)
            K = enumerate_connected_subsets(X)
            G = as_finite_graph(hyperspace_graph(K))
            assert diameter(G) < 2 * (len(X) + radius(as_finite_graph(X)) - 1)


def seeded_graph(family):
    """The family's graph with its eccentricities seeded as ``metrics`` seeds
    them: from the family's bounds when it has them."""
    G = as_finite_graph(hyperspace_graph(family))
    bounds = family.eccentricity_bounds()
    if bounds is not None:
        seed_eccentricities(G, *bounds)
    return G


class TestBoundedEccentricities:
    @given(st.integers(0, 2 ** 32 - 1))
    @settings(max_examples=100, deadline=None)
    def test_any_valid_bounds_give_the_reference(self, seed):
        rng = random.Random(seed)
        G = random_graph(rng, 12)
        eccs = frontier_eccentricities(G)
        if eccs is None:
            assert bounded_eccentricities(G.adj) is None
            return
        lower = [rng.randint(0, e) for e in eccs]
        upper = [rng.randint(e, G.n) for e in eccs]
        assert bounded_eccentricities(G.adj, lower, upper) == eccs
        assert bounded_eccentricities(G.adj, lower) == eccs
        assert bounded_eccentricities(G.adj, upper=upper) == eccs

    def test_met_bounds_are_the_answer(self):
        # no search runs when every vertex's bounds meet, so they are returned as given
        G = path_graph(3)
        assert bounded_eccentricities(G.adj, (2, 1, 2), (2, 1, 2)) == (2, 1, 2)
        assert bounded_eccentricities((), (), ()) == ()

    def test_every_search_closes_its_source(self):
        # lower bound 3 does not hold at the centre of P_5 (ecc 2); the
        # search from it must still close it rather than pick it again
        assert len(bounded_eccentricities(path_graph(5).adj, [3] * 5, [5] * 5)) == 5

    @given(st.integers(0, 2 ** 32 - 1), st.booleans(), st.sampled_from(("full", "connected")))
    @settings(max_examples=80, deadline=None)
    def test_family_path_matches_frontier_reference(self, seed, connected, kind):
        rng = random.Random(seed)
        X = random_connected_image(rng, 8) if connected else random_image(rng, 8)
        family = family_of(X, kind)
        assert (family.eccentricity_bounds() is None) == (not X.is_connected())
        G = seeded_graph(family)
        eccs = frontier_eccentricities(G)
        if eccs is None:
            with pytest.raises(ValueError, match="^metric is undefined on a disconnected graph$"):
                G.eccentricities
        else:
            assert G.eccentricities == eccs

    @pytest.mark.parametrize("n", [4, 5, 6, 8, 10, 12])
    def test_cycle_images(self, n):
        X = cycle_image(n)
        connected = enumerate_connected_subsets(X)
        lower, upper = connected.eccentricity_bounds()
        G = seeded_graph(connected)
        eccs = frontier_eccentricities(G)
        assert upper is None and G.eccentricities == eccs
        assert all(lo <= e for lo, e in zip(lower, eccs))
        # past C_4 the seed is below the truth on some members, which close
        # through upper bounds
        assert any(lo < e for lo, e in zip(lower, eccs)) == (n > 4)
        if n <= 8:
            full = enumerate_all_subsets(X)
            lower, upper = full.eccentricity_bounds()
            assert lower == upper == frontier_eccentricities(as_finite_graph(full))

    def test_one_point_and_disconnected_bases(self):
        point = DigitalImage.of([(0,)])
        assert family_of(point, "full").eccentricity_bounds() == ((0,), (0,))
        assert family_of(point, "connected").eccentricity_bounds() == ((0,), None)
        apart = DigitalImage.of([(0,), (2,), (3,)])
        for kind in ("full", "connected"):
            assert family_of(apart, kind).eccentricity_bounds() is None

    def test_custom_family_has_no_bounds(self):
        family = enumerate_connected_subsets(interval(0, 3))
        custom = family.subfamily(m for m in family.members if len(m) != 2)
        assert custom.eccentricity_bounds() is None
        assert seeded_graph(custom).eccentricities == frontier_eccentricities(
            as_finite_graph(custom))


class TestDisconnects:
    def test_cut_vertex(self):
        assert disconnects([(1,)], interval(0, 2))

    def test_leaf_removal(self):
        assert not disconnects([(0,)], interval(0, 2))

    def test_removing_everything_rejected(self):
        with pytest.raises(ValueError):
            disconnects(interval(0, 1).points, interval(0, 1))

    def test_point_outside_the_image_refused(self):
        with pytest.raises(ValueError, match=r"^point \(5,\) is not in the image$"):
            disconnects([(1,), (5,)], interval(0, 2))

    @pytest.mark.parametrize("Y, message", [
        ([5], "not a lattice point: 5"),
        ([[1.0, 1.0]], r"not a lattice point: \[1\.0, 1\.0\]"),
        ([(0, 0, 0)], r"point \(0, 0, 0\) has dimension 3, expected 2"),
    ], ids=["not-a-sequence", "float-coordinates", "wrong-dimension"])
    def test_a_bad_point_is_named(self, Y, message):
        X = DigitalImage.of([(0, 0), (1, 0), (1, 1)])
        with pytest.raises(ValueError, match=f"^{message}$"):
            disconnects(Y, X)

    def test_matches_point_set_reference(self):
        # every subset of 400 random images of up to 8 points, in shuffled order,
        # against the point-set form: remove Y's tuples, test the rest's connectivity
        def reference(Y, X):
            removed = {tuple(p) for p in Y}
            for p in removed:
                if p not in X.point_set:
                    raise ValueError(f"point {p} is not in the image")
            rest = [p for p in X.points if p not in removed]
            if not rest:
                raise ValueError("cannot remove every point of the image")
            return not is_connected(rest, X)

        def outcome(f, Y, X):
            try:
                return f(Y, X)
            except ValueError as e:
                return str(e)

        rng = random.Random(35)
        for _ in range(400):
            X = random_image(rng, 8)
            for mask in range(1 << len(X)):
                Y = [X.points[i] for i in _bits(mask)]
                rng.shuffle(Y)
                assert outcome(disconnects, Y, X) == outcome(reference, Y, X), (X, Y)

    def test_lifts_to_hyperspace(self):
        X = interval(0, 4)
        K = enumerate_connected_subsets(X)
        G = as_finite_graph(hyperspace_graph(K))
        Y = [(2,)]
        assert disconnects(Y, X)
        ymask = X.mask_of(Y)
        keep = [i for i, m in enumerate(K.masks) if not m & ymask]
        assert not is_connected_graph(induced_subgraph(G, keep))


class TestExport:
    def test_dot_contains_labels_and_highlight(self):
        fam = enumerate_connected_subsets(interval(1, 2))
        G = as_finite_graph(hyperspace_graph(fam))
        w = longest_cycle(G)
        dot = to_dot(G, highlight=w, labels=("{1}", "{2}", "{1,2}").__getitem__)
        assert dot.startswith("graph G {")
        assert '"{1,2}"' in dot
        assert "style=bold" in dot

    def test_labels_default_to_vertex_numbers(self):
        G = path_graph(3)
        assert to_dot(G) == to_dot(G, labels=("0", "1", "2").__getitem__)
        assert '  n2 [label="2"];' in to_dot(G)
        assert metrics_csv(G) == metrics_csv(G, labels="012".__getitem__)
        named = metrics_csv(G, labels=("5", "{1,2}", 'a"b').__getitem__)
        assert named.splitlines()[1:] == ['0,"5",1,2', '1,"{1,2}",2,1', '2,"a\'b",1,2']

    def test_csv_shape(self):
        G = path_graph(3)
        lines = metrics_csv(G).strip().splitlines()
        assert lines[0] == "vertex,label,degree,eccentricity"
        assert len(lines) == 4

    def test_cycle_witness_validation(self):
        G = path_graph(4)
        assert not is_valid_cycle(G, (0, 1, 2))
        assert not is_valid_cycle(G, (0, 1, 1))
        # vertices out of range are refused before any row is read
        assert not is_valid_cycle(complete_graph(4), (0, 1, 4))
        assert not is_valid_cycle(complete_graph(4), (-1, 0, 1))
        assert is_valid_cycle(complete_graph(4), (0, 1, 2, 3))
