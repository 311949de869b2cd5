"""Homotopy layer: function graphs, component search, verification, lifting."""

import itertools
import random
import time
from collections import deque
from unittest import mock

import pytest
from hypothesis import assume, given, settings, strategies as st

from digitop import (BudgetError, DigitalImage, FiniteFunction, HomotopyTable,
                     pointed_homotopic,
                     build_function_graph, compose, constant_map, cycle_image,
                     cycle_points, enumerate_continuous_maps, has_strong_continuity,
                     homotopic, homotopy_from_json,
                     homotopy_to_json, identity_map, induced_map,
                     is_contractible, is_continuous, interval,
                     lift_homotopy_to_hyperspace, phi_adjacent, postcompose_map,
                     psi_adjacent, strongly_homotopic, verify_homotopy)
import digitop.homotopy
from digitop.homotopy import (PHI, PSI, _adjacent_rows, _all_continuous_rows,
                              phi_counterexample, psi_counterexample)
import digitop.graphmetrics as gm
from digitop.hyperspace import family_of
from digitop.lattice import _bfs
from digitop.verify import (oracle_homotopic, random_continuous_function, random_multifunction,
                            random_function, random_image, rotations)


def fn(X, Y, *values):
    return FiniteFunction(X, Y, tuple(zip(X.points, values)))


def pair_scan_psi_counterexample(f, g):
    """The scan over all domain pairs that ``psi_counterexample`` replaced,
    returning the indices of the first failing pair."""
    dom, cod = f.domain, f.codomain
    for i, x0 in enumerate(dom.vertices):
        for j, x1 in enumerate(dom.vertices):
            if dom.adjacent_or_equal(x0, x1) and not cod.adjacent_or_equal(f.table[x0], g.table[x1]):
                return (i, j)
    return None


def pair_scan_verify_homotopy(H, f, g, mode="plain", fixed_point=None):
    """The verifier ``verify_homotopy`` replaced: a pointwise scan per step
    and, in strong mode, a domain pair scan at t1 = t0 and t1 = t0 + 1."""
    if H.domain != f.domain or H.codomain != f.codomain:
        return False
    if f.domain != g.domain or f.codomain != g.codomain:
        return False
    if H.slices[0].pairs != f.pairs or H.slices[-1].pairs != g.pairs:
        return False
    cod = H.codomain
    for h in H.slices:
        if not is_continuous(h):
            return False
    for h0, h1 in zip(H.slices, H.slices[1:]):
        for x in H.domain.vertices:
            if not cod.adjacent_or_equal(h0.table[x], h1.table[x]):
                return False
    if mode == "strong":
        dom = H.domain
        verts = dom.vertices
        for t0, h0 in enumerate(H.slices):
            for t1 in (t0, t0 + 1):
                if t1 > H.m:
                    continue
                h1 = H.slices[t1]
                for x in verts:
                    for y in verts:
                        if dom.adjacent_or_equal(x, y):
                            if not cod.adjacent_or_equal(h0.table[x], h1.table[y]):
                                return False
    if fixed_point is not None:
        x = H.domain.vertices[fixed_point]
        base = H.slices[0].table[x]
        if any(h.table[x] != base for h in H.slices):
            return False
    return True


def random_step_table(rng, X, Y):
    """Up to four slices, each after the first a continuous map within one
    step of the one before or a random, often discontinuous, map."""
    maps = enumerate_continuous_maps(X, Y)
    h = rng.choice(maps) if rng.random() < 0.8 else random_function(rng, X, Y)
    slices = [h]
    for _ in range(rng.randint(0, 3)):
        close = [m for m in maps if all(Y.adjacent_or_equal(a, b)
                                        for a, b in zip(h.values(), m.values()))]
        h = rng.choice(close) if close and rng.random() < 0.85 else random_function(rng, X, Y)
        slices.append(h)
    return HomotopyTable(X, Y, tuple(slices))


def reference_oracle_homotopic(f, g):
    """The table oracle ``verify.oracle_homotopic`` replaced: a breadth-first
    search that tests each frontier map against every continuous map,
    point by point through the labelled ``table``s; the reference its
    verdicts must equal."""
    X, Y = f.domain, f.codomain
    maps = enumerate_continuous_maps(X, Y)

    def step_ok(h0, h1):
        return all(Y.adjacent_or_equal(h0.table[x], h1.table[x]) for x in X.points)

    seen = {f}
    frontier = [f]
    for _ in range(len(maps)):
        if g in seen:
            return True
        frontier = list(dict.fromkeys(h1 for h0 in frontier for h1 in maps
                                      if h1 not in seen and step_ok(h0, h1)))
        if not frontier:
            break
        seen.update(frontier)
    return g in seen


@pytest.fixture(scope="module")
def remark_pair():
    X = interval(0, 2)
    f = fn(X, X, (0,), (1,), (2,))
    g = fn(X, X, (1,), (2,), (2,))
    return f, g


class TestAdjacencies:
    def test_remark_pair_phi_not_psi(self, remark_pair):
        f, g = remark_pair
        assert phi_adjacent(f, g)
        assert not psi_adjacent(f, g)

    def test_equal_maps_not_adjacent(self, remark_pair):
        f, _ = remark_pair
        assert not phi_adjacent(f, f)
        assert not psi_adjacent(f, f)

    def test_mismatch_rejected(self, remark_pair):
        f, _ = remark_pair
        h = identity_map(interval(0, 1))
        with pytest.raises(ValueError):
            phi_adjacent(f, h)
        with pytest.raises(ValueError):
            psi_adjacent(f, h)

    def test_rotation_steps_phi(self):
        rots = rotations(5)
        assert phi_adjacent(rots[0], rots[1])
        assert phi_adjacent(rots[3], rots[4])

    def test_distinct_rotations_not_psi(self):
        rots = rotations(5)
        for j in range(5):
            for k in range(j + 1, 5):
                assert not psi_adjacent(rots[j], rots[k])

    def test_adjacent_constants_psi(self):
        X, Y = interval(0, 2), interval(0, 3)
        assert psi_adjacent(constant_map(X, Y, (1,)), constant_map(X, Y, (2,)))

    def test_psi_implies_phi_sampled(self):
        rng = random.Random(4)
        for _ in range(30):
            X, Y = random_image(rng, 3), random_image(rng, 3)
            maps = enumerate_continuous_maps(X, Y)
            f, g = rng.choice(maps), rng.choice(maps)
            if psi_adjacent(f, g):
                assert phi_adjacent(f, g)


class TestCounterexamples:
    def test_match_the_pair_scans(self, close_on_points, other_codomain_maps):
        rng = random.Random(41)
        found = set()
        for _ in range(300):
            X, Y = random_image(rng, 4), random_image(rng, 4)
            f = random_function(rng, X, Y)
            g = rng.choice((f, random_function(rng, X, Y)))
            if rng.random() < 0.3:
                kind = rng.choice(("full", "connected"))
                try:
                    f, g = (induced_map(h, family_of(X, kind), family_of(Y, kind))
                            for h in (f, g))
                except ValueError:  # a disconnected image in a connected family
                    pass
            first = [i for i, (x, y) in enumerate(f.pairs)
                     if not f.codomain.adjacent_or_equal(y, g.table[x])]
            assert phi_counterexample(f, g) == (first[0] if first else None)
            assert psi_counterexample(f, g) == pair_scan_psi_counterexample(f, g)
            found.add((isinstance(f.domain, DigitalImage), psi_counterexample(f, g) is None))
        assert len(found) == 4
        # family- and function-graph-valued maps against point-level scans
        found = set()
        for _ in range(60):
            maps = other_codomain_maps(rng)
            dom, cod = maps[0].domain, maps[0].codomain
            close = lambda a, b: close_on_points(cod, a, b)
            verts = dom.vertices
            for f in maps:
                for g in maps:
                    first = [i for i, x in enumerate(verts) if not close(f(x), g(x))]
                    assert phi_counterexample(f, g) == (first[0] if first else None)
                    first = [(i, j) for i, x0 in enumerate(verts) for j, x1 in enumerate(verts)
                             if close_on_points(dom, x0, x1) and not close(f(x0), g(x1))]
                    assert psi_counterexample(f, g) == (first[0] if first else None)
                    found.add((type(cod).__name__, not first))
        assert found == {(name, ok) for name in ("SubsetFamily", "FunctionGraph")
                         for ok in (False, True)}

    def test_predicates_build_no_labels(self, other_codomain_maps, refuse_labels):
        """The row predicates read no family member and no function-graph vertex."""
        rng = random.Random(43)
        cases = [other_codomain_maps(rng) for _ in range(40)]
        multis = [random_multifunction(rng, interval(0, 1), interval(0, 2)) for _ in range(20)]
        refuse_labels()
        seen = set()
        for maps in cases:
            for f in maps:
                seen.add(("continuous", is_continuous(f)))
                for g in maps:
                    seen.add(("phi", phi_adjacent(f, g)))
                    seen.add(("psi", psi_adjacent(f, g)))
                    H = HomotopyTable(f.domain, f.codomain, (f, g))
                    for mode in ("plain", "strong"):
                        seen.add((mode, verify_homotopy(H, f, g, mode=mode)))
        seen.update(("strong continuity", has_strong_continuity(F)) for F in multis)
        names = ("continuous", "phi", "psi", "plain", "strong", "strong continuity")
        assert seen == {(name, ok) for name in names for ok in (False, True)}


class TestEnumeration:
    def test_singleton_domain(self):
        X, Y = interval(0, 0), interval(0, 3)
        assert len(enumerate_continuous_maps(X, Y)) == len(Y)

    def test_two_point_self_maps(self):
        X = interval(0, 1)
        assert len(enumerate_continuous_maps(X, X)) == 4

    def test_cycle_contains_rotations(self):
        S5 = cycle_image(5)
        maps = set(enumerate_continuous_maps(S5, S5))
        for r in rotations(5):
            assert r in maps

    def test_matches_brute_force(self):
        rng = random.Random(6)
        import itertools

        for _ in range(20):
            X, Y = random_image(rng, 3), random_image(rng, 3)
            got = {f.values() for f in enumerate_continuous_maps(X, Y)}
            expect = set()
            for values in itertools.product(Y.points, repeat=len(X)):
                f = FiniteFunction(X, Y, tuple(zip(X.points, values)))
                if is_continuous(f):
                    expect.add(values)
            assert got == expect

    def test_budget(self):
        X = interval(0, 9)
        with pytest.raises(BudgetError):
            enumerate_continuous_maps(X, X, budget=100)


class TestFunctionGraph:
    def test_singleton_domain_graph(self):
        G = build_function_graph(interval(0, 0), interval(0, 1), PHI)
        assert len(G.vertices) == 2 and len(G.edges) == 1

    def test_unknown_flavor_refused(self):
        with pytest.raises(ValueError, match="^unknown function-graph flavor 'chi'$"):
            build_function_graph(interval(0, 1), interval(0, 1), "chi")

    def test_psi_edges_within_phi(self):
        rng = random.Random(12)
        for _ in range(15):
            X, Y = random_image(rng, 3), random_image(rng, 3)
            phi = build_function_graph(X, Y, PHI)
            psi = build_function_graph(X, Y, PSI)
            assert set(psi.edges) <= set(phi.edges)

    def test_phi_edges_match_predicate(self):
        rng = random.Random(14)
        for _ in range(10):
            X, Y = random_image(rng, 4), random_image(rng, 4)
            G = build_function_graph(X, Y, PHI)
            verts = G.vertices
            expect = {(i, j) for i in range(len(verts)) for j in range(i + 1, len(verts))
                      if phi_adjacent(verts[i], verts[j])}
            # DOT output follows the edge order
            assert G.edges == tuple(sorted(expect))

    def test_psi_edges_match_predicate(self):
        rng = random.Random(15)
        for _ in range(10):
            X, Y = random_image(rng, 4), random_image(rng, 4)
            G = build_function_graph(X, Y, PSI)
            verts = G.vertices
            expect = {(i, j) for i in range(len(verts)) for j in range(i + 1, len(verts))
                      if psi_adjacent(verts[i], verts[j])}
            # DOT output follows the edge order
            assert G.edges == tuple(sorted(expect))

    @given(st.integers(0, 2 ** 32 - 1), st.sampled_from((PHI, PSI)))
    @settings(max_examples=40, deadline=None)
    def test_graph_matches_pair_predicates(self, seed, flavor):
        # the row kernel that builds the graph against the map-pair predicates
        rng = random.Random(seed)
        X, Y = random_image(rng, 5), random_image(rng, 6)
        tables = [FiniteFunction._trusted(X, Y, row)
                  for row in itertools.product(range(len(Y)), repeat=len(X))]
        maps = [f for f in tables if is_continuous(f)]
        # every pair is tested, so keep the graphs small enough to be quick
        assume(len(maps) <= 256)
        G = build_function_graph(X, Y, flavor)
        assert G.rows == tuple(f.row for f in maps)
        assert all(is_continuous(f) for f in G.vertices)
        adjacent = phi_adjacent if flavor == PHI else psi_adjacent
        assert G.edges == tuple((i, j) for i in range(len(maps)) for j in range(i + 1, len(maps))
                                if adjacent(maps[i], maps[j]))

    def test_index_of_rejects_maps_of_other_spaces(self):
        X, Y = interval(0, 1), interval(0, 2)
        G = build_function_graph(X, Y, PHI)
        assert G.index_of(constant_map(X, Y, (0,))) == 0
        # the vertex row (0, 0) on another codomain, on another domain, and
        # on a domain with the same points under another adjacency
        X2 = DigitalImage.of([(0, 0), (1, 1)], 2)
        G2 = build_function_graph(X2, Y, PHI)
        for graph, h in ((G, constant_map(X, interval(0, 3), (0,))),
                         (G, constant_map(interval(5, 6), Y, (0,))),
                         (G2, constant_map(DigitalImage.of(X2.points, 1), Y, (0,))),
                         (G, fn(X, Y, (0,), (2,)))):
            with pytest.raises(ValueError, match="function is not a vertex of this graph"):
                graph.index_of(h)

    def test_rotations_in_distinct_psi_components(self):
        S5 = cycle_image(5)
        G = build_function_graph(S5, S5, PSI)
        comps = {G.index_of(r): G.component_of(r) for r in rotations(5)}
        for i, ci in comps.items():
            for j, cj in comps.items():
                if i != j:
                    assert ci != cj


def sorted_neighbor_lists(G):
    """Per vertex, its neighbours sorted ascending, read off the edge list."""
    nbrs = [[] for _ in G.vertices]
    for i, j in G.edges:
        nbrs[i].append(j)
        nbrs[j].append(i)
    return [sorted(ns) for ns in nbrs]


def reference_bfs(nbrs, src, dst=None, allowed=lambda i: True):
    """Breadth-first search over neighbour lists: (path to dst or None, reached)."""
    prev = {src: None}
    queue = deque([src])
    while queue and dst not in prev:
        i = queue.popleft()
        for j in nbrs[i]:
            if j not in prev and allowed(j):
                prev[j] = i
                queue.append(j)
    if dst not in prev:
        return None, set(prev)
    path = [dst]
    while prev[path[-1]] is not None:
        path.append(prev[path[-1]])
    return path[::-1], set(prev)


class TestFunctionGraphRows:
    """Row-based adjacency and search against the edge list and list-based BFS."""

    @given(st.integers(0, 2 ** 32 - 1), st.sampled_from((PHI, PSI)))
    @settings(max_examples=60, deadline=None)
    def test_rows_and_search_match_edge_list(self, seed, flavor):
        rng = random.Random(seed)
        X, Y = random_image(rng, 3), random_image(rng, 3)
        G = build_function_graph(X, Y, flavor)
        n, edges = len(G.vertices), set(G.edges)
        assert G.adjacency_rows == tuple(
            sum(1 << j for j in range(n) if (min(i, j), max(i, j)) in edges)
            for i in range(n))
        nbrs = sorted_neighbor_lists(G)
        x0 = rng.choice(X.points)
        for _ in range(10):
            s, t = rng.randrange(n), rng.randrange(n)
            f, g = G.vertices[s], G.vertices[t]
            path = reference_bfs(nbrs, s, t)[0]
            found = G.find_path(f, g)
            assert (None if found is None else [G.index_of(h) for h in found]) == path
            assert G.component_of(f) == reference_bfs(nbrs, s)[1]
            # the pointed search stays among the maps that agree with f at x0
            fixed = f.table[x0]
            keep = lambda i: G.vertices[i].table[x0] == fixed
            path = reference_bfs(nbrs, s, t, keep)[0] if keep(t) else None
            found = pointed_homotopic(f, g, x0, strong=flavor == PSI).path
            assert (None if found is None else [G.index_of(h) for h in found]) == path


class TestHomotopic:
    def test_reflexive_empty_path(self, remark_pair):
        f, _ = remark_pair
        d = homotopic(f, f)
        assert d and d.path == (f,) and d.table().m == 0

    def test_rotations_homotopic_with_witness(self):
        rots = rotations(5)
        for j in range(5):
            for k in range(5):
                d = homotopic(rots[j], rots[k])
                assert d
                assert verify_homotopy(d.table(), rots[j], rots[k])

    def test_identity_not_homotopic_to_constant_on_cycle(self):
        S5 = cycle_image(5)
        assert not homotopic(identity_map(S5), constant_map(S5, S5, S5.points[0]))

    def test_matches_table_oracle(self):
        rng = random.Random(19)
        for _ in range(40):
            X, Y = random_image(rng, 3), random_image(rng, 3)
            maps = enumerate_continuous_maps(X, Y)
            f, g = rng.choice(maps), rng.choice(maps)
            assert bool(homotopic(f, g)) == oracle_homotopic(f, g)

    def test_table_oracle_matches_reference(self):
        rng = random.Random(23)
        verdicts = []
        for _ in range(300):
            X, Y = random_image(rng, 4), random_image(rng, 4)
            maps = enumerate_continuous_maps(X, Y)
            f, g = rng.choice(maps), rng.choice(maps)
            verdicts.append(oracle_homotopic(f, g))
            assert verdicts[-1] == reference_oracle_homotopic(f, g)
        assert True in verdicts and False in verdicts

    def test_table_oracle_starts_from_any_map(self, remark_pair):
        # the start need not be continuous: the search steps from it to the
        # continuous maps within one step, here the identity f, and on
        f, _ = remark_pair
        X = f.domain
        jump = fn(X, X, (0,), (2,), (2,))
        ends = (jump, f, constant_map(X, X, (2,)))
        verdicts = [oracle_homotopic(jump, g) for g in ends]
        assert verdicts == [reference_oracle_homotopic(jump, g) for g in ends] == [True] * 3
        assert not oracle_homotopic(f, jump)


class TestStronglyHomotopic:
    def test_reflexive(self, remark_pair):
        f, _ = remark_pair
        assert strongly_homotopic(f, f)

    def test_rotations_separated(self):
        rots = rotations(5)
        assert not strongly_homotopic(rots[0], rots[1])

    def test_remark_pair_by_component_search(self, remark_pair):
        # independent cross-step BFS oracle over all continuous self-maps
        f, g = remark_pair
        X = f.domain
        maps = enumerate_continuous_maps(X, X)
        seen, frontier = {f}, [f]
        while frontier:
            new = [h for h in maps if h not in seen
                   and any(psi_adjacent(p, h) for p in frontier)]
            seen.update(new)
            frontier = new
        d = strongly_homotopic(f, g)
        assert bool(d) == (g in seen)
        if d:
            assert verify_homotopy(d.table(), f, g, mode="strong")

    def test_witness_passes_strong_verifier(self):
        rng = random.Random(23)
        hits = 0
        for _ in range(40):
            X, Y = random_image(rng, 3), random_image(rng, 3)
            maps = enumerate_continuous_maps(X, Y)
            f, g = rng.choice(maps), rng.choice(maps)
            d = strongly_homotopic(f, g)
            if d:
                hits += 1
                assert verify_homotopy(d.table(), f, g, mode="strong")
        assert hits > 0


class TestVerifyHomotopy:
    def test_rotation_table(self):
        rots = rotations(5)
        S5 = rots[0].domain
        pts = cycle_points(5)
        j, k = 1, 3
        slices = tuple(
            FiniteFunction.from_table(S5, S5, {pts[i]: pts[(i + t) % 5] for i in range(5)})
            for t in range(j, k + 1))
        H = HomotopyTable(S5, S5, slices)
        assert verify_homotopy(H, rots[j], rots[k])

    def test_zero_step(self, remark_pair):
        f, _ = remark_pair
        H = HomotopyTable(f.domain, f.codomain, (f,))
        assert verify_homotopy(H, f, f)

    def test_table_refuses_empty_or_mismatched_slices(self, remark_pair):
        f, _ = remark_pair
        with pytest.raises(ValueError, match="^a homotopy table needs at least one slice$"):
            HomotopyTable(f.domain, f.codomain, ())
        with pytest.raises(ValueError, match="^slice signature does not match the table$"):
            HomotopyTable(f.domain, f.codomain, (f, identity_map(interval(0, 1))))

    def test_unknown_mode_refused(self, remark_pair):
        f, _ = remark_pair
        H = HomotopyTable(f.domain, f.codomain, (f,))
        with pytest.raises(ValueError, match="^unknown homotopy mode 'loose'$"):
            verify_homotopy(H, f, f, mode="loose")

    def test_maps_of_other_spaces_fail(self, remark_pair):
        f, _ = remark_pair
        H = HomotopyTable(f.domain, f.codomain, (f,))
        other = identity_map(interval(5, 7))
        assert not verify_homotopy(H, other, other)

    def test_one_step_needs_pointwise_closeness(self):
        X = interval(0, 3)
        f = identity_map(X)
        g = fn(X, X, (2,), (3,), (3,), (3,))  # jumps two steps at 0
        H = HomotopyTable(X, X, (f, g))
        assert not verify_homotopy(H, f, g)

    def test_one_step_iff_phi(self):
        rng = random.Random(29)
        for _ in range(200):
            X, Y = random_image(rng, 3), random_image(rng, 3)
            maps = enumerate_continuous_maps(X, Y)
            f, g = rng.choice(maps), rng.choice(maps)
            H = HomotopyTable(X, Y, (f, g))
            assert verify_homotopy(H, f, g) == (f.pairs == g.pairs or phi_adjacent(f, g))

    def test_wrong_endpoints_rejected(self, remark_pair):
        f, g = remark_pair
        H = HomotopyTable(f.domain, f.codomain, (f, g))
        assert not verify_homotopy(H, g, f)

    def test_fixed_point_mode(self):
        X = interval(0, 2)
        f = identity_map(X)
        g = fn(X, X, (0,), (1,), (1,))
        H = HomotopyTable(X, X, (f, g))
        assert verify_homotopy(H, f, g, fixed_point=0)
        assert not verify_homotopy(H, f, g, fixed_point=2)
        for bad in (-1, 3):
            with pytest.raises(ValueError):
                verify_homotopy(H, f, g, fixed_point=bad)

    def test_strong_mode_rejects_plain_only_step(self, remark_pair):
        f, g = remark_pair
        H = HomotopyTable(f.domain, f.codomain, (f, g))
        assert verify_homotopy(H, f, g)
        assert not verify_homotopy(H, f, g, mode="strong")


    def test_matches_pair_scan_verifier(self):
        rng = random.Random(43)
        verdicts = set()
        for _ in range(250):
            X, Y = random_image(rng, 3), random_image(rng, 3)
            H = random_step_table(rng, X, Y)
            tables = [H]
            kinds = ("full", "connected") if all(map(is_continuous, H.slices)) else ("full",)
            tables += [lift_homotopy_to_hyperspace(H, rng.choice(kinds))]
            for T in tables:
                f, g = T.slices[0], T.slices[-1]
                if rng.random() < 0.1:
                    f, g = g, f
                x = rng.randrange(len(T.domain.vertices))
                for mode in ("plain", "strong"):
                    for fixed in (None, x):
                        ok = verify_homotopy(T, f, g, mode=mode, fixed_point=fixed)
                        assert ok == pair_scan_verify_homotopy(T, f, g, mode, fixed)
                        verdicts.add((T is H, mode, ok))
        assert len(verdicts) == 8


class TestLifting:
    def test_constant_table_lifts(self):
        X = interval(0, 2)
        H = HomotopyTable(X, X, (identity_map(X),))
        for kind in ("full", "connected"):
            lifted = lift_homotopy_to_hyperspace(H, kind)
            ident = identity_map(lifted.domain)
            assert verify_homotopy(lifted, ident, ident)

    def test_rotation_homotopy_lifts_over_connected_family(self):
        rots = rotations(5)
        d = homotopic(rots[0], rots[2])
        H = d.table()
        lifted = lift_homotopy_to_hyperspace(H, "connected")
        f_star = induced_map(rots[0], lifted.domain, codomain_family=lifted.codomain)
        g_star = induced_map(rots[2], lifted.domain, codomain_family=lifted.codomain)
        assert verify_homotopy(lifted, f_star, g_star)

    def test_pointed_lift_fixes_singleton(self):
        X = interval(0, 2)
        f = identity_map(X)
        g = fn(X, X, (0,), (1,), (1,))
        H = HomotopyTable(X, X, (f, g))
        lifted = lift_homotopy_to_hyperspace(H, "connected")
        fs = induced_map(f, lifted.domain, codomain_family=lifted.codomain)
        gs = induced_map(g, lifted.domain, codomain_family=lifted.codomain)
        fixed = lifted.domain.vertex_index[frozenset({(0,)})]
        assert verify_homotopy(lifted, fs, gs, fixed_point=fixed)

    def test_pointed_lift_check_builds_no_labels(self, refuse_labels):
        """The suite's pointed lift check names the fixed singleton {x_0} by
        its index, the index of mask 1, so it reads no family member."""
        X = interval(0, 2)
        f = identity_map(X)
        verdicts = []
        for g in (fn(X, X, (0,), (1,), (1,)), fn(X, X, (1,), (1,), (1,))):
            lifted = lift_homotopy_to_hyperspace(HomotopyTable(X, X, (f, g)), "connected")
            fs = induced_map(f, lifted.domain, codomain_family=lifted.codomain)
            gs = induced_map(g, lifted.domain, codomain_family=lifted.codomain)
            singleton = lifted.domain._mask_index[1]
            refuse_labels()
            verdicts.append(verify_homotopy(lifted, fs, gs, fixed_point=singleton))
        assert verdicts == [True, False]


class TestPointedHomotopic:
    def test_interval_collapse_holding_origin(self):
        X = interval(0, 2)
        f = identity_map(X)
        g = constant_map(X, X, (0,))
        d = pointed_homotopic(f, g, (0,))
        assert d
        assert verify_homotopy(d.table(), f, g, fixed_point=0)

    def test_differing_basepoint_values(self):
        X = interval(0, 2)
        d = pointed_homotopic(identity_map(X), constant_map(X, X, (1,)), (0,))
        assert not d

    def test_strong_variant(self):
        X = interval(0, 1)
        f = identity_map(X)
        g = constant_map(X, X, (0,))
        d = pointed_homotopic(f, g, (0,), strong=True)
        if d:
            assert verify_homotopy(d.table(), f, g, mode="strong", fixed_point=0)

    def test_bad_basepoint(self):
        X = interval(0, 1)
        with pytest.raises(ValueError):
            pointed_homotopic(identity_map(X), identity_map(X), (9,))

    def test_basepoint_as_list(self):
        X = interval(0, 2)
        f, g = identity_map(X), constant_map(X, X, (0,))
        d = pointed_homotopic(f, g, [0])
        assert d and d == pointed_homotopic(f, g, (0,))

    @pytest.mark.parametrize("basepoint", ([0, 0], (), ("0",), [True], [0.0]))
    def test_malformed_basepoint(self, basepoint):
        X = interval(0, 2)
        with pytest.raises(ValueError):
            pointed_homotopic(identity_map(X), identity_map(X), basepoint)


class TestContractible:
    def test_singleton(self):
        assert is_contractible(interval(0, 0))

    def test_interval(self):
        assert is_contractible(interval(0, 2))

    def test_cycle_not_contractible(self):
        assert not is_contractible(cycle_image(5))

    def test_four_cycle_contractible(self):
        # the rotation-rigidity phenomenon needs more than 4 points; the
        # 4-cycle folds onto a point
        assert is_contractible(cycle_image(4))

    def test_six_cycle_not_contractible(self):
        assert not is_contractible(cycle_image(6))


def _graph_paths(path):
    return None if path is None else [h.pairs for h in path]


def _paths(decision):
    return _graph_paths(decision.path)


def _rows(decision):
    return None if decision.path is None else [h.row for h in decision.path]


def reference_bidirectional_bfs(start, goal, neighbors):
    """The two-ball search that expands a level one vertex at a time and
    stops before the level where the balls meet, with its charge.

    ``neighbors(v)`` lists v's neighbours and is not charged itself.  Expanding
    v is charged one row for v and one per neighbour.  Before a ball grows,
    the vertices of the other frontier adjacent or equal to one of its own
    frontier are found without a charge; if there are any, they are the
    meeting.  d <= 2 is settled first, by intersecting the closed
    neighbourhoods of ``start`` and ``goal``: d = 1 costs nothing, and each
    vertex of the intersection is charged once.  It is the reference for
    the level expansion of ``lattice._bidirectional_bfs``."""
    closed = {}

    def near(v):
        if v not in closed:
            closed[v] = {v, *neighbors(v)}
        return closed[v]

    if start == goal:
        return [start], 0
    if goal in near(start):
        return [start, goal], 0
    common = near(start) & near(goal)
    if common:
        return [start, min(common), goal], len(common)
    charge = 0
    balls = ({start: []}, {goal: []})
    fronts = [[start], [goal]]
    levels = [fronts[0]]
    while True:
        side = 0 if len(fronts[0]) <= len(fronts[1]) else 1
        ball = balls[side]
        new = {}
        for w in fronts[1 - side]:
            held = [v for v in fronts[side] if w in near(v)]
            if held:
                new[w] = held
        met = bool(new)
        if not met:
            for v in fronts[side]:
                charge += len(near(v))
                for w in near(v):
                    if w in new:
                        new[w].append(v)
                    elif w not in ball:
                        new[w] = [v]
            if not new:
                return None, charge
        ball.update(new)
        fronts[side] = list(new)
        if side == 0:
            levels.append(fronts[0])
        if met:
            break
    forward, backward = balls
    on_path = [{w for w in levels[-1] if w in backward}]
    while len(on_path) < len(levels):
        on_path.append({v for w in on_path[-1] for v in forward[w]})
    path = [start]
    for level in reversed(on_path[:-1]):
        u = path[-1]
        path.append(min(w for w in level if u in forward[w]))
    while path[-1] != goal:
        path.append(min(backward[path[-1]]))
    return path, charge


def reference_generating_bfs(start, goal, neighbors):
    """The two-ball search that expands a level one vertex at a time, calling
    ``neighbors(v)`` once per vertex v of the frontier, and that generates
    the level where the balls meet; each vertex keeps the list of its
    neighbours one level nearer its own end.  Charged one row per vertex
    expanded and one per neighbour listed, it is the reference for the
    charge of a search that does not stop before the meeting level."""
    if start == goal:
        return [start]
    balls = ({start: []}, {goal: []})
    fronts = [[start], [goal]]
    levels = [fronts[0]]
    while True:
        side = 0 if len(fronts[0]) <= len(fronts[1]) else 1
        ball = balls[side]
        new = {}
        for v in fronts[side]:
            for w in neighbors(v):
                if w in new:
                    new[w].append(v)
                elif w not in ball:
                    new[w] = [v]
        if not new:
            return None
        ball.update(new)
        fronts[side] = list(new)
        if side == 0:
            levels.append(fronts[0])
        if not balls[1 - side].keys().isdisjoint(new):
            break
    forward, backward = balls
    on_path = [{w for w in levels[-1] if w in backward}]
    while len(on_path) < len(levels):
        on_path.append({v for w in on_path[-1] for v in forward[w]})
    path = [start]
    for level in reversed(on_path[:-1]):
        u = path[-1]
        path.append(min(w for w in level if u in forward[w]))
    while path[-1] != goal:
        path.append(min(backward[path[-1]]))
    return path


class TestLazySearch:
    """The lazy searches against a BFS over the prebuilt function graph."""

    def assert_same_as_graph(self, f, g):
        X, Y = f.domain, f.codomain
        phi = build_function_graph(X, Y, PHI)
        psi = build_function_graph(X, Y, PSI)
        lazy = homotopic(f, g)
        assert _paths(lazy) == _graph_paths(phi.find_path(f, g))
        if lazy:
            assert verify_homotopy(lazy.table(), f, g)
        strong = strongly_homotopic(f, g)
        assert _paths(strong) == _graph_paths(psi.find_path(f, g))
        if strong:
            assert verify_homotopy(strong.table(), f, g, mode="strong")
        for i, x0 in enumerate(X.points):
            # a search kept to the maps that agree with f at x0 finds no g that moves it
            for flag, graph in ((False, phi), (True, psi)):
                keep = lambda k: graph.rows[k][i] == f.row[i]
                nbrs, s, t = sorted_neighbor_lists(graph), graph.index_of(f), graph.index_of(g)
                path = reference_bfs(nbrs, s, t, keep)[0] if keep(t) else None
                pointed = pointed_homotopic(f, g, x0, strong=flag)
                assert _rows(pointed) == (None if path is None else [graph.rows[k] for k in path])

    @given(st.integers(0, 2 ** 32 - 1), st.sampled_from((PHI, PSI)))
    @settings(max_examples=60, deadline=None)
    def test_neighbour_lists_match_graph_rows(self, seed, flavor):
        # the lazy search expands exactly as a search over the whole graph
        rng = random.Random(seed)
        X, Y = random_image(rng, 4), random_image(rng, 4)
        G = build_function_graph(X, Y, flavor)
        yindex = Y.point_index
        rows = [tuple(yindex[y] for _, y in f.pairs) for f in G.vertices]
        neighbors = _adjacent_rows(X, Y, flavor)
        for i, row in enumerate(rows):
            expect = [rows[j] for j in range(len(rows)) if G.adjacency_rows[i] >> j & 1]
            assert neighbors(row) == expect
            for x in range(len(X)):
                pinned = _adjacent_rows(X, Y, flavor, pin=(x, row[x]))
                assert pinned(row) == [r for r in expect if r[x] == row[x]]

    @given(st.integers(0, 2 ** 32 - 1))
    @settings(max_examples=60, deadline=None)
    def test_decisions_match_graph_search(self, seed):
        rng = random.Random(seed)
        X, Y = random_image(rng, 4), random_image(rng, 4)
        maps = enumerate_continuous_maps(X, Y)
        f, g = rng.choice(maps), rng.choice(maps)
        self.assert_same_as_graph(f, g)
        assert bool(homotopic(f, g)) == oracle_homotopic(f, g)

    def test_witness_follows_graph_vertex_order(self):
        # the backtracking visits X in the order (0,0), (1,0), (1,1), (0,2),
        # not in point order, and some shortest paths here are not unique
        X = DigitalImage.of([(0, 0), (0, 2), (1, 0), (1, 1)], 2)
        Y = DigitalImage.of([(0, 0), (0, 1), (1, 0), (1, 1)], 1)
        maps = enumerate_continuous_maps(X, Y)[::5]
        for f in maps:
            for g in maps:
                self.assert_same_as_graph(f, g)

    @given(st.integers(0, 2 ** 32 - 1))
    @settings(max_examples=60, deadline=None)
    def test_witness_matches_forward_search(self, seed):
        # the forward search that the two-ball search replaced is the reference
        rng = random.Random(seed)
        X, Y = random_image(rng, 6), random_image(rng, 7)
        rows = _all_continuous_rows(X, Y, 10 ** 6)
        f, g = rng.choice(rows), rng.choice(rows)
        F, G = (FiniteFunction._trusted(X, Y, row) for row in (f, g))
        for flavor, strong in ((PHI, False), (PSI, True)):
            path = _bfs(f, _adjacent_rows(X, Y, flavor, budget=10 ** 9), g.__eq__)
            decide = strongly_homotopic if strong else homotopic
            assert _rows(decide(F, G, budget=10 ** 9)) == path
            for i, x in enumerate(X.points):
                path = None
                if f[i] == g[i]:
                    neighbors = _adjacent_rows(X, Y, flavor, (i, f[i]), 10 ** 9)
                    path = _bfs(f, neighbors, g.__eq__)
                assert _rows(pointed_homotopic(F, G, x, 10 ** 9, strong)) == path

    @given(st.integers(0, 2 ** 32 - 1), st.sampled_from((PHI, PSI)), st.booleans())
    @settings(max_examples=80, deadline=None)
    def test_level_search_matches_row_by_row_search(self, seed, flavor, pinned):
        # same witness as the row-by-row two-ball search, and the same
        # charge c: the search passes at budget c and stops at c - 1
        rng = random.Random(seed)
        X, Y = random_image(rng, 5), random_image(rng, 6)
        rows = _all_continuous_rows(X, Y, 10 ** 6)
        f, g = rng.choice(rows), rng.choice(rows)
        F, G = (FiniteFunction._trusted(X, Y, row) for row in (f, g))
        strong = flavor == PSI
        if pinned:
            i = rng.randrange(len(X))
            pin = (i, f[i])
            search = lambda budget: pointed_homotopic(F, G, X.points[i], budget, strong)
        else:
            pin = None
            search = lambda budget: (strongly_homotopic if strong else homotopic)(F, G, budget)
        path, c = None, 0
        if pin is None or f[pin[0]] == g[pin[0]]:
            neighbors = _adjacent_rows(X, Y, flavor, pin, 10 ** 9)
            path, c = reference_bidirectional_bfs(f, g, neighbors)
        assert _rows(search(c)) == path
        if c:
            with pytest.raises(BudgetError):
                search(c - 1)

    @given(st.integers(0, 2 ** 32 - 1), st.sampled_from((PHI, PSI)), st.booleans())
    @settings(max_examples=40, deadline=None)
    def test_meeting_test_charges_no_more(self, seed, flavor, pinned):
        # stopping before the meeting level never charges more than
        # generating it, and charges the same when the balls never meet;
        # each example draws g twice each at distance 0, 1, 2 and >= 3 from
        # f, and unrelated to f
        charged = []
        rows_of = digitop.homotopy._continuous_rows

        def counted(*args):
            rows, charge = rows_of(*args)
            charged.append(charge)
            return rows, charge

        rng = random.Random(seed)

        def draw(wanted):
            # images, f and a pin until some g lies at the wanted distance
            for _ in range(500):
                X, Y = random_image(rng, 4), random_image(rng, 6)
                graph = build_function_graph(X, Y, flavor)
                f = rng.choice(graph.rows)
                i = rng.randrange(len(X)) if pinned else None
                keep = [k for k, row in enumerate(graph.rows) if i is None or row[i] == f[i]]
                sub = gm.induced_subgraph(gm.as_finite_graph(graph), keep)
                dist = gm.bfs_distances(sub, keep.index(graph._row_index[f]))
                near = [k for k, d in zip(keep, dist)
                        if (None if d is None else min(d, 3)) == wanted]
                if near:
                    return X, Y, f, graph.rows[rng.choice(near)], i
            raise AssertionError(f"no pair at distance {wanted}")

        for wanted in (0, 1, 2, 3, None) * 2:
            X, Y, f, g, i = draw(wanted)
            pin = None if i is None else (i, f[i])
            neighbors = _adjacent_rows(X, Y, flavor, pin, 10 ** 9)
            old_charge = [0]

            def listed(row):
                rows = neighbors(row)
                old_charge[0] += len(rows) + 1
                return rows

            path = reference_generating_bfs(f, g, listed)
            F, G = (FiniteFunction._trusted(X, Y, row) for row in (f, g))
            charged.clear()
            with mock.patch.object(digitop.homotopy, "_continuous_rows", counted):
                if pinned:
                    decision = pointed_homotopic(F, G, X.points[i], 10 ** 9, flavor == PSI)
                else:
                    decide = strongly_homotopic if flavor == PSI else homotopic
                    decision = decide(F, G, 10 ** 9)
            assert _rows(decision) == path
            assert (path is None) == (wanted is None)
            if path is not None:
                assert min(len(path) - 1, 3) == wanted
            assert sum(charged) <= old_charge[0]
            if path is None:
                assert sum(charged) == old_charge[0]

    @given(st.integers(0, 2 ** 32 - 1), st.booleans())
    @settings(max_examples=60, deadline=None)
    def test_witness_at_least_sup_distance(self, seed, pinned):
        # one phi step moves each value by at most one, and psi steps are
        # phi steps, so m >= d_inf(f, g) = max_x d_Y(f(x), g(x))
        rng = random.Random(seed)
        X, Y = random_image(rng, 5), random_image(rng, 6)
        rows = _all_continuous_rows(X, Y, 10 ** 6)
        f, g = rng.choice(rows), rng.choice(rows)
        if pinned:
            i = rng.randrange(len(X))
            g = rng.choice([row for row in rows if row[i] == f[i]])
        F, G = (FiniteFunction._trusted(X, Y, row) for row in (f, g))
        codomain = gm.as_finite_graph(Y)
        gaps = [gm.bfs_distances(codomain, a)[b] for a, b in zip(f, g)]
        for strong in (False, True):
            if pinned:
                decision = pointed_homotopic(F, G, X.points[i], 10 ** 9, strong)
            else:
                decision = (strongly_homotopic if strong else homotopic)(F, G, 10 ** 9)
            if None in gaps:
                assert decision.path is None
            elif decision:
                assert decision.table().m >= max(gaps)

    @given(st.integers(0, 2 ** 32 - 1))
    @settings(max_examples=60, deadline=None)
    def test_one_step_goal_matches_constant_goal(self, seed):
        # random images in Z and Z^2 under c1 and c2, disconnected ones included
        X = random_image(random.Random(seed), 5)
        n = len(X)
        path = _bfs(tuple(range(n)), _adjacent_rows(X, X, PHI, budget=10 ** 9),
                    lambda row: row.count(row[0]) == n)
        assert is_contractible(X, 10 ** 9) == (path is not None)

    @given(st.integers(0, 2 ** 32 - 1))
    @settings(max_examples=40, deadline=None)
    def test_contractible_matches_graph_component(self, seed):
        X = random_image(random.Random(seed), 4)
        graph = build_function_graph(X, X, PHI)
        constants = {graph.index_of(constant_map(X, X, p)) for p in X.points}
        assert is_contractible(X) == bool(graph.component_of(identity_map(X)) & constants)

    def test_rotations_match_graph_search(self):
        rots = rotations(5)
        for f in rots:
            for g in rots:
                self.assert_same_as_graph(f, g)
        S5 = rots[0].domain
        self.assert_same_as_graph(rots[0], constant_map(S5, S5, S5.points[0]))

    def test_large_constant_map_needs_no_enumeration(self):
        X, Y = interval(0, 1499), interval(0, 0)
        f = constant_map(X, Y, (0,))
        d = homotopic(f, f)
        assert d and d.path == (f,)

    def test_eight_cycle_not_contractible(self):
        start = time.perf_counter()
        assert not is_contractible(cycle_image(8), budget=2 * 10 ** 7)
        assert time.perf_counter() - start < 5.0

    def test_folding_box_contractible(self):
        box = DigitalImage.of([(x, y) for x in range(2) for y in range(3)], 2)
        start = time.perf_counter()
        assert is_contractible(box)
        assert time.perf_counter() - start < 5.0

    def test_work_budget_charges_every_generated_row(self, monkeypatch):
        # both balls of a search are charged; #Y^#X is not
        generated = []
        rows_of = digitop.homotopy._continuous_rows

        def counted(*args):
            rows, charge = rows_of(*args)
            generated.append(charge)
            return rows, charge

        monkeypatch.setattr(digitop.homotopy, "_continuous_rows", counted)
        X = interval(0, 4)
        f, c = identity_map(X), constant_map(X, X, (0,))
        searches = (lambda b: homotopic(f, c, b), lambda b: strongly_homotopic(f, c, b),
                    lambda b: pointed_homotopic(f, c, (0,), b),
                    lambda b: pointed_homotopic(f, c, (0,), b, strong=True),
                    lambda b: is_contractible(interval(0, 5), b))
        for search in searches:
            generated.clear()
            expect = search(10 ** 6)
            rows = sum(generated)
            assert 0 < rows < 5 ** 5 and search(rows) == expect
            with pytest.raises(BudgetError):
                search(rows - 1)
        assert homotopic(f, f, budget=0) and is_contractible(interval(0, 2), budget=0)

    def test_discontinuous_map_rejected(self):
        X = interval(0, 2)
        jump = fn(X, X, (0,), (2,), (2,))
        with pytest.raises(ValueError):
            homotopic(jump, identity_map(X))
        with pytest.raises(ValueError):
            strongly_homotopic(identity_map(X), jump)


class TestPostcompose:
    def test_identity_gives_identity(self):
        X, W = interval(0, 2), interval(0, 1)
        T = postcompose_map(identity_map(X), W)
        assert all(a == b for a, b in T.pairs)

    def test_discontinuous_map_refused(self):
        X = interval(0, 2)
        with pytest.raises(ValueError, match="^post-composition needs a continuous map$"):
            postcompose_map(fn(X, X, (0,), (2,), (2,)), interval(0, 1))

    def test_continuous_as_graph_map(self):
        rng = random.Random(33)
        for _ in range(10):
            W = random_image(rng, 2)
            X, Y = random_image(rng, 3), random_image(rng, 3)
            f = random_continuous_function(rng, X, Y)
            assert is_continuous(postcompose_map(f, W))

    def test_composition_law(self):
        rng = random.Random(34)
        for _ in range(10):
            W = random_image(rng, 2)
            X, Y, Z = (random_image(rng, 3) for _ in range(3))
            f = random_continuous_function(rng, X, Y)
            g = random_continuous_function(rng, Y, Z)
            left = postcompose_map(compose(g, f), W)
            right = compose(postcompose_map(g, W), postcompose_map(f, W))
            assert left.pairs == right.pairs

    def test_phi_step_propagates_vertexwise(self):
        rng = random.Random(35)
        for _ in range(20):
            W = random_image(rng, 2)
            X = random_image(rng, 3)
            Y = random_image(rng, 3)
            maps = enumerate_continuous_maps(X, Y)
            f = rng.choice(maps)
            partners = [h for h in maps if phi_adjacent(f, h)]
            if not partners:
                continue
            g = rng.choice(partners)
            fs, gs = postcompose_map(f, W), postcompose_map(g, W)
            target = fs.codomain
            for F in fs.domain.vertices:
                assert target.adjacent_or_equal(fs.table[F], gs.table[F])


class TestSerialization:
    def test_round_trip(self):
        rots = rotations(5)
        H = homotopic(rots[0], rots[1]).table()
        doc = homotopy_to_json(H)
        back = homotopy_from_json(doc)
        assert back == H

    def test_slice_count_checked(self):
        rots = rotations(5)
        doc = homotopy_to_json(homotopic(rots[0], rots[1]).table())
        doc["m"] = 5
        with pytest.raises(ValueError):
            homotopy_from_json(doc)
