"""Hyperspace layer: member adjacency, enumeration, lifted connectivity."""

import itertools
import random
import re

import pytest
from hypothesis import given, settings, strategies as st

from digitop import (BudgetError, DigitalImage, SubsetFamily, as_finite_graph,
                     connected_components, disconnects, enumerate_all_subsets,
                     enumerate_connected_subsets, family_from_json,
                     family_to_json, hausdorff_distance, hyper_adjacent,
                     hyperspace_graph, interval,
                     interval_triangle_iso, is_connected_graph, is_isomorphism,
                     lift_dominating, triangle_image, union_of_family)
from digitop.graphmetrics import bfs_distances, induced_subgraph
from digitop.hyperspace import family_of
from digitop.lattice import adjacent_or_equal
from digitop.verify import random_connected_image, random_image


def pair_scan_edges(family):
    """Reference edge list: test every member pair against both coverage conditions."""
    closed = family.base.closed_neighbor_masks
    covers = [0] * len(family)
    for k, m in enumerate(family.masks):
        for i in range(len(family.base)):
            if m >> i & 1:
                covers[k] |= closed[i]
    masks = family.masks
    return [(i, j) for i in range(len(masks)) for j in range(i + 1, len(masks))
            if masks[i] & ~covers[j] == 0 and masks[j] & ~covers[i] == 0]


def rows_of(count, edges):
    """Adjacency rows over ``count`` vertices from an edge list."""
    rows = [0] * count
    for i, j in edges:
        rows[i] |= 1 << j
        rows[j] |= 1 << i
    return tuple(rows)


def quantifier_adjacent(A, B, X):
    """Direct reading of the hyperspace adjacency: closed partners both ways."""
    u = X.adjacency
    fwd = all(any(adjacent_or_equal(a, b, u) for b in B) for a in A)
    back = all(any(adjacent_or_equal(b, a, u) for a in A) for b in B)
    return fwd and back


class TestHyperAdjacent:
    def test_superset_with_edge(self):
        X = interval(0, 1)
        assert hyper_adjacent({(0,)}, {(0,), (1,)}, X)

    def test_distant_singletons(self):
        X = interval(0, 2)
        assert not hyper_adjacent({(0,)}, {(2,)}, X)

    def test_overlapping_pairs(self):
        X = interval(1, 4)
        assert hyper_adjacent({(1,), (2,)}, {(1,), (3,)}, X)

    def test_equal_members_rejected(self):
        X = interval(0, 1)
        with pytest.raises(ValueError):
            hyper_adjacent({(0,)}, {(0,)}, X)

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            hyper_adjacent(set(), {(0,)}, interval(0, 1))

    def test_matches_quantifier_oracle_and_symmetric(self):
        rng = random.Random(3)
        for _ in range(200):
            X = random_image(rng, 5)
            pts = X.points
            A = frozenset(rng.sample(pts, rng.randint(1, len(pts))))
            B = frozenset(rng.sample(pts, rng.randint(1, len(pts))))
            if A == B:
                continue
            got = hyper_adjacent(A, B, X)
            assert got == quantifier_adjacent(A, B, X)
            assert got == hyper_adjacent(B, A, X)


class TestEnumeration:
    def test_full_counts(self):
        assert len(enumerate_all_subsets(interval(1, 1))) == 1
        assert len(enumerate_all_subsets(interval(1, 3))) == 7
        assert len(enumerate_all_subsets(interval(1, 4))) == 15

    def test_connected_interval_counts(self):
        for n in range(1, 9):
            K = enumerate_connected_subsets(interval(1, n))
            assert len(K) == n * (n + 1) // 2

    def test_connected_growth_deeper_than_recursion_limit(self):
        # a member of 1200 points is grown one point at a time
        K = enumerate_connected_subsets(interval(0, 1199), budget=2000)
        assert len(K) == 1200 * 1201 // 2 == 720600

    def test_connected_singleton(self):
        assert len(enumerate_connected_subsets(interval(0, 0))) == 1

    def test_two_isolated_points(self):
        X = DigitalImage.of([(0,), (2,)], 1)
        K = enumerate_connected_subsets(X)
        assert sorted(K.members) == [frozenset({(0,)}), frozenset({(2,)})]

    def test_connected_equals_filtered_power_set(self):
        rng = random.Random(9)
        for _ in range(40):
            X = random_image(rng, 6)
            K = enumerate_connected_subsets(X)
            expect = {m for m in enumerate_all_subsets(X).members
                      if X.is_connected_subset(m)}
            assert set(K.members) == expect

    def test_budget_enforced(self):
        X = interval(0, 25)
        with pytest.raises(BudgetError):
            enumerate_all_subsets(X)
        with pytest.raises(BudgetError):
            enumerate_connected_subsets(X, budget=10)


class TestHyperspaceGraph:
    def test_two_point_interval_triangle(self):
        K = enumerate_connected_subsets(interval(1, 2))
        view = hyperspace_graph(K)
        assert len(view.members) == 3
        assert len(view.edges) == 3  # every pair adjacent

    def test_single_member(self):
        X = interval(0, 0)
        view = hyperspace_graph(enumerate_connected_subsets(X))
        assert len(view.members) == 1 and view.edges == ()

    def test_adjacency_lookup(self):
        X = interval(0, 1)
        view = hyperspace_graph(enumerate_all_subsets(X))
        a, b = frozenset({(0,)}), frozenset({(1,)})
        assert view.adjacent(a, b)
        assert view.adjacent_or_equal(a, a)


class TestAdjacencyRows:
    @given(st.integers(0, 2 ** 32 - 1), st.sampled_from(("full", "connected")))
    @settings(max_examples=80, deadline=None)
    def test_rows_match_pair_scan(self, seed, kind):
        X = random_image(random.Random(seed), 8)
        build = enumerate_all_subsets if kind == "full" else enumerate_connected_subsets
        family = build(X)
        expect = pair_scan_edges(family)
        view = hyperspace_graph(family)
        assert list(view.edges) == expect
        assert view.edge_count == len(expect)
        assert view.adjacency_rows == rows_of(len(family), expect)

    @given(st.integers(0, 2 ** 32 - 1), st.sampled_from(("full", "connected")),
           st.floats(0.05, 0.95))
    @settings(max_examples=80, deadline=None)
    def test_custom_rows_match_pair_scan(self, seed, kind, share):
        # Sparse subfamilies drop many one-point-smaller subsets, so their
        # members also take covers and rows without a parent in the family.
        rng = random.Random(seed)
        X = random_image(rng, 7)
        whole = (enumerate_all_subsets if kind == "full" else enumerate_connected_subsets)(X)
        family = whole.subfamily(m for m in whole.members if rng.random() < share)
        expect = pair_scan_edges(family)
        assert family.adjacency_rows == rows_of(len(family), expect)
        assert family.edge_count == len(expect)

    def test_members_without_a_smaller_member(self):
        X = interval(0, 3)
        for members in ([{0, 2}], [{0}, {0, 1, 2}], [{0, 2}, {1, 3}, {0, 1, 2, 3}],
                        [{1}, {0, 2}, {0, 1, 2}, {3}, {1, 2, 3}]):
            family = SubsetFamily(X, tuple(X.mask_of((p,) for p in m) for m in members),
                                  "custom")
            assert family.adjacency_rows == rows_of(len(family), pair_scan_edges(family))

    def test_empty_family(self):
        X = interval(0, 2)
        doc = family_to_json(enumerate_all_subsets(X))
        doc.update(kind="custom", members=[])
        for family in (SubsetFamily(X, (), "custom"), family_from_json(doc)):
            assert family.adjacency_rows == ()
            assert family.edge_count == 0 and family.edges == ()

    @given(st.integers(0, 2 ** 32 - 1))
    @settings(max_examples=40, deadline=None)
    def test_enumerators_pass_full_validation(self, seed):
        X = random_image(random.Random(seed), 8)
        for family in (enumerate_all_subsets(X), enumerate_connected_subsets(X)):
            assert SubsetFamily(X, family.masks, family.kind) == family
            assert list(family.masks) == sorted(set(family.masks))

    def test_view_adjacency_matches_rows(self):
        X = DigitalImage.of([(0, 0), (0, 1), (1, 1), (2, 2)], 2)
        view = hyperspace_graph(enumerate_all_subsets(X))
        for A, B in itertools.product(view.members, repeat=2):
            expect = A != B and hyper_adjacent(A, B, X)
            assert view.adjacent(A, B) == expect


def definition_hausdorff(X, a, b):
    """d_H by its definition over point-to-point BFS distances in X's graph,
    None when some point of one set reaches no point of the other."""
    G = as_finite_graph(X)
    A = [i for i in range(len(X)) if a >> i & 1]
    B = [i for i in range(len(X)) if b >> i & 1]
    worst = 0
    for S, T in ((A, B), (B, A)):
        for p in S:
            dist = bfs_distances(G, p)
            reach = [dist[q] for q in T if dist[q] is not None]
            if not reach:
                return None
            worst = max(worst, min(reach))
    return worst


class TestHausdorff:
    @given(st.integers(0, 2 ** 32 - 1))
    @settings(max_examples=60, deadline=None)
    def test_matches_definition(self, seed):
        rng = random.Random(seed)
        X = random_image(rng, 7)
        top = 1 << len(X)
        for _ in range(20):
            a, b = rng.randrange(1, top), rng.randrange(1, top)
            d = hausdorff_distance(X, a, b)
            assert d == definition_hausdorff(X, a, b) == hausdorff_distance(X, b, a)
            assert (d == 0) == (a == b)

    @given(st.integers(0, 2 ** 32 - 1), st.sampled_from(("full", "connected")))
    @settings(max_examples=40, deadline=None)
    def test_bounds_the_hyperspace_distance(self, seed, kind):
        # claim 1: distance in 2^X is d_H; claim 2: distance in K(X) is at least d_H
        X = random_connected_image(random.Random(seed), 6)
        family = enumerate_all_subsets(X) if kind == "full" else enumerate_connected_subsets(X)
        G = as_finite_graph(hyperspace_graph(family))
        for i in range(0, G.n, 3):
            dist = bfs_distances(G, i)
            for j, d in enumerate(dist):
                dh = hausdorff_distance(X, family.masks[i], family.masks[j])
                assert d == dh if kind == "full" else d >= dh

    def test_infinite_across_components(self):
        X = DigitalImage.of([(0,), (1,), (3,)], 1)
        assert hausdorff_distance(X, 0b001, 0b100) is None
        assert hausdorff_distance(X, 0b101, 0b110) == 1
        with pytest.raises(ValueError, match="nonempty"):
            hausdorff_distance(X, 0, 0b1)

    def test_refuses_masks_outside_the_image(self):
        # a negative mask has infinitely many bits; 0b1000 names a fourth point
        X = DigitalImage.of([(0,), (1,), (3,)], 1)
        for a, b in ((0b1, -1), (-1, 0b1), (0b1000, 0b1), (0b1, 0b1111)):
            with pytest.raises(ValueError, match="masks of X's points"):
                hausdorff_distance(X, a, b)
        assert hausdorff_distance(X, 0b111, 0b111) == 0


class TestUnion:
    def test_simple_union(self):
        assert union_of_family([{(1,)}, {(1,), (2,)}]) == {(1,), (2,)}

    def test_whole_family(self):
        X = interval(1, 3)
        K = enumerate_connected_subsets(X)
        assert union_of_family(K.members) == set(X.points)

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            union_of_family([])

    def test_connected_subfamily_has_connected_union(self):
        rng = random.Random(21)
        for _ in range(60):
            X = random_connected_image(rng, 5)
            K = enumerate_connected_subsets(X)
            G = as_finite_graph(hyperspace_graph(K))
            start = rng.randrange(len(K))
            chosen = {start}
            for _ in range(rng.randint(0, len(K))):
                frontier = sorted({j for i in chosen for j in G.neighbors(i)} - chosen)
                if not frontier:
                    break
                chosen.add(rng.choice(frontier))
            W = [K.members[i] for i in sorted(chosen)]
            assert X.is_connected_subset(union_of_family(W))


class TestIntervalTriangleIso:
    def test_degenerate(self):
        f = interval_triangle_iso(2, 2)
        assert len(f.domain.vertices) == 1
        assert is_isomorphism(f)

    def test_three_member_case_exhaustive(self):
        f = interval_triangle_iso(1, 2)
        dom, cod = f.domain, f.codomain
        assert is_isomorphism(f)
        for A, B in itertools.combinations(dom.vertices, 2):
            assert dom.adjacent(A, B) == cod.adjacent(f.table[A], f.table[B])

    def test_ten_member_case(self):
        assert is_isomorphism(interval_triangle_iso(1, 4))

    def test_bad_interval(self):
        with pytest.raises(ValueError):
            interval_triangle_iso(3, 1)


class TestConnectivityLifting:
    def test_iff_on_samples(self):
        rng = random.Random(17)
        for _ in range(120):
            X = random_image(rng, 8)
            G = as_finite_graph(hyperspace_graph(enumerate_connected_subsets(X)))
            assert X.is_connected() == is_connected_graph(G)

    def test_component_correspondence(self):
        X = DigitalImage.of([(0,), (1,), (4,), (5,), (8,)], 1)
        K = enumerate_connected_subsets(X)
        G = as_finite_graph(hyperspace_graph(K))
        graph_comps = {frozenset(c) for c in connected_components(G)}
        by_image_comp = {}
        for i, member in enumerate(K.members):
            comp = min(c for c in X.components() if member <= c)
            by_image_comp.setdefault(comp, set()).add(i)
        assert graph_comps == {frozenset(v) for v in by_image_comp.values()}

    def test_path_to_singleton(self):
        # every member A is reachable from a singleton inside the
        # hyperspace of A itself
        rng = random.Random(31)
        for _ in range(40):
            X = random_image(rng, 6)
            K = enumerate_connected_subsets(X)
            A = rng.choice(K.members)
            KA = enumerate_connected_subsets(X.restrict(A))
            GA = as_finite_graph(hyperspace_graph(KA))
            source = KA.index_of(frozenset((min(A),)))
            assert bfs_distances(GA, source)[KA.index_of(A)] is not None

    def test_disconnection_lifting(self):
        rng = random.Random(13)
        checked = 0
        for _ in range(40):
            X = random_connected_image(rng, 6)
            if len(X) < 3:
                continue
            K = enumerate_connected_subsets(X)
            G = as_finite_graph(hyperspace_graph(K))
            for ymask in range(1, (1 << len(X)) - 1):
                Y = [X.points[i] for i in range(len(X)) if ymask >> i & 1]
                if not disconnects(Y, X):
                    continue
                checked += 1
                keep = [i for i, m in enumerate(K.masks) if not m & ymask]
                assert not is_connected_graph(induced_subgraph(G, keep))
        assert checked > 0


class TestSmallQueries:
    def test_membership_reads_the_member_set(self):
        K = enumerate_connected_subsets(interval(0, 2))
        assert [(0,), (1,)] in K and {(2,)} in K
        assert [(0,), (2,)] not in K and [(5,)] not in K

    def test_lift_dominating_defaults_to_the_full_family(self):
        X = interval(0, 2)
        full = enumerate_all_subsets(X)
        expect = {i for i, m in enumerate(full.members) if (0,) in m}
        assert lift_dominating([(0,)], X) == expect == lift_dominating([(0,)], X, full)

    def test_reversed_triangle_refused(self):
        with pytest.raises(ValueError) as exc:
            triangle_image(2, 1)
        assert str(exc.value) == "empty triangle for a=2 > b=1"


class TestFamilyValidation:
    def test_connected_check_matches_point_set_connectivity(self):
        rng = random.Random(23)
        for _ in range(30):
            X = random_image(rng, 7)
            for m in range(1, 1 << len(X)):
                connected = X.is_connected_subset(X.points_of(m))
                try:
                    SubsetFamily(X, (m,), "connected")
                    accepted = True
                except ValueError:
                    accepted = False
                assert accepted == connected

    def test_disconnected_member_in_connected_document_rejected(self):
        doc = {"base": {"dim": 1, "adjacency": "c1", "points": [[0], [1], [2]]},
               "kind": "connected",
               "members": [[[0]], [[1]], [[0], [2]]]}
        with pytest.raises(ValueError, match="disconnected member"):
            family_from_json(doc)
        doc["kind"] = "custom"
        assert len(family_from_json(doc)) == 3

    def test_invalid_members_rejected(self):
        X = interval(0, 2)
        for masks, kind in (((0,), "custom"), ((1 << 3,), "custom"), ((1, 1), "custom"),
                            ((1, 2), "full"), ((1,), "bogus")):
            with pytest.raises(ValueError):
                SubsetFamily(X, masks, kind)


class TestFamilySerialization:
    def test_round_trip(self):
        X = DigitalImage.of([(0, 0), (0, 1), (1, 1)], 2)
        for fam in (enumerate_all_subsets(X), enumerate_connected_subsets(X)):
            assert family_from_json(family_to_json(fam)) == fam

    def test_custom_subfamily(self):
        X = interval(0, 2)
        fam = enumerate_connected_subsets(X)
        sub = fam.subfamily([{(0,)}, {(0,), (1,)}])
        assert sub.kind == "custom"
        assert family_from_json(family_to_json(sub)) == sub

    def test_non_members_refused(self):
        fam = enumerate_connected_subsets(interval(0, 2))
        gap = {(0,), (2,)}
        with pytest.raises(ValueError,
                           match=re.escape("not a member of the family: [(0,), (2,)]")):
            fam.index_of(gap)
        with pytest.raises(ValueError, match="^subfamily member is not a member of this family$"):
            fam.subfamily([{(0,)}, gap])
        with pytest.raises(ValueError,
                           match="^cannot enumerate a 'custom' family; pass one explicitly$"):
            family_of(interval(0, 2), "custom")

    def test_full_kind_validated(self):
        X = interval(0, 1)
        with pytest.raises(ValueError):
            family_from_json({"base": {"dim": 1, "adjacency": "c1",
                                       "points": [[0], [1]]},
                              "kind": "full",
                              "members": [[[0]]]})
