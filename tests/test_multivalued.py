"""Multivalued layer: the four continuity notions and the induced lift."""

import random

import pytest
from hypothesis import given, settings, strategies as st

from digitop import (BudgetError, DigitalImage, FiniteFunction, MultiFunction, Subdivision,
                     as_multifunction, enumerate_connected_subsets, family_of,
                     generates, has_strong_continuity, has_weak_continuity, induced_map,
                     induced_multifunction_map, interval,
                     is_connectivity_preserving, is_continuous, is_egs_continuous,
                     multifunction_from_json,
                     multifunction_to_json, subdivide)
from digitop.lattice import _bits, adjacent_or_equal
from digitop.multivalued import _find_generator, strong_continuity_counterexample
from digitop.verify import (random_connected_image, random_continuous_function,
                            random_function, random_image, random_multifunction)


@pytest.fixture(scope="module")
def ladder():
    """The two-point multifunction separating weak from strong continuity."""
    X, Y = interval(0, 1), interval(0, 2)
    return MultiFunction.from_table(X, Y, {(0,): {(0,)}, (1,): {(1,), (2,)}})


def pair_scan_adjacent_inputs(F):
    """Every adjacent domain pair x < y, ascending in x, then in y: the pair
    order of the row checks, found by testing all point pairs."""
    pts = F.domain.points
    for i, x in enumerate(pts):
        for y in pts[i + 1:]:
            if F.domain.adjacent(x, y):
                yield x, y


def pair_scan_strong_counterexample(F):
    """``strong_continuity_counterexample`` over ``pair_scan_adjacent_inputs``,
    each value set scanned in codomain (sorted) order, as point indices."""
    u = F.codomain.adjacency
    xi, yi = F.domain.point_index, F.codomain.point_index
    for x, y in pair_scan_adjacent_inputs(F):
        fx, fy = F.table[x], F.table[y]
        for p in sorted(fx):
            if not any(adjacent_or_equal(p, q, u) for q in fy):
                return (xi[x], xi[y], yi[p])
        for q in sorted(fy):
            if not any(adjacent_or_equal(q, p, u) for p in fx):
                return (xi[y], xi[x], yi[q])
    return None


def pair_scan_weak_continuity(F):
    """The point-level weak-continuity check ``has_weak_continuity`` replaced."""
    u = F.codomain.adjacency
    for x, y in pair_scan_adjacent_inputs(F):
        fx, fy = F.table[x], F.table[y]
        if not any(adjacent_or_equal(a, b, u) for a in fx for b in fy):
            return False
    return True


def point_level_connectivity_preserving(F):
    """The point-level check ``is_connectivity_preserving`` replaced: each
    connected member's image as a point set, tested for connectivity."""
    for member in enumerate_connected_subsets(F.domain).members:
        if not F.codomain.is_connected_subset(F.image_of(member)):
            return False
    return True


def mf(X, Y, *value_sets):
    return MultiFunction.from_table(X, Y, dict(zip(X.points, value_sets)))


def recursive_find_generator(F, sub):
    """The recursive generator search ``_find_generator`` replaced; the
    reference its generators must equal, point for point."""
    S = sub.image
    Y = F.codomain
    base_points = F.domain.points
    cell_id = {y: ci for ci, x in enumerate(base_points) for y in sub.cell(x)}
    required = [sum(1 << Y.point_index[v] for v in F.table[x]) for x in base_points]
    remaining = [len(sub.cell(x)) for x in base_points]
    closed_y = Y.closed_neighbor_masks
    order, earlier = S.connectivity_order
    cells = [cell_id[S.points[i]] for i in order]
    assignment = [0] * len(S)
    covered = [0] * len(base_points)

    def backtrack(k):
        if k == len(S):
            return covered == required
        c = cells[k]
        allowed = required[c]
        for t in earlier[k]:
            allowed &= closed_y[assignment[t]]
            if not allowed:
                return False
        uncovered = required[c] & ~covered[c]
        if uncovered.bit_count() == remaining[c]:
            allowed &= uncovered
        elif uncovered.bit_count() > remaining[c]:
            return False
        remaining[c] -= 1
        old = covered[c]
        for yi in _bits(allowed):
            assignment[k] = yi
            covered[c] = old | (1 << yi)
            if backtrack(k + 1):
                return True
        covered[c] = old
        remaining[c] += 1
        return False

    if not backtrack(0):
        return None
    return {S.points[i]: Y.points[assignment[k]] for k, i in enumerate(order)}


class TestValueMasks:
    def test_masks_are_value_sets_in_codomain_order(self):
        rng = random.Random(21)
        for _ in range(50):
            X, Y = random_image(rng, 5), random_image(rng, 6)
            F = random_multifunction(rng, X, Y)
            assert F.masks == tuple(Y.mask_of(F(x)) for x in X.points)

    def test_identity_is_the_spaces_and_masks(self):
        X, Y = interval(0, 1), interval(0, 9)
        F = mf(X, Y, [(6,), (0,), (7,)], [(9,), (8,)])
        G = mf(X, Y, [(0,), (6,), (7,)], [(8,), (9,)])
        assert MultiFunction._fields == ("domain", "codomain", "masks")
        assert F == G and hash(F) == hash(G) and F.masks == G.masks == (0b11000001, 0b1100000000)
        assert F != mf(X, Y, [(0,), (6,), (7,)], [(8,)])
        assert F != MultiFunction._trusted(X, interval(0, 10), F.masks)
        trusted = MultiFunction._trusted(X, Y, F.masks)
        assert trusted == F and hash(trusted) == hash(F)
        assert trusted.pairs == F.pairs == (((0,), frozenset({(0,), (6,), (7,)})),
                                            ((1,), frozenset({(8,), (9,)})))

    def test_singleton_view_equals_the_checked_table(self):
        rng = random.Random(22)
        for _ in range(50):
            f = random_function(rng, random_image(rng, 5), random_image(rng, 6))
            F = as_multifunction(f)
            checked = MultiFunction(f.domain, f.codomain,
                                    tuple((x, frozenset((y,))) for x, y in f.pairs))
            assert F == checked and hash(F) == hash(checked) and F.pairs == checked.pairs

    @pytest.mark.parametrize("pairs, message", [
        ((((0,), [(0,)]),), "multifunction table must be total on the domain"),
        ((((0,), [(0,)]), ((1,), [])), "value set at (1,) is empty"),
        ((((0,), [(0,)]), ((1,), [(5,)])), "value set at (1,) leaves the codomain"),
    ])
    def test_constructor_messages(self, pairs, message):
        with pytest.raises(ValueError) as exc:
            MultiFunction(interval(0, 1), interval(0, 2), pairs)
        assert str(exc.value) == message

    def test_row_checks_match_the_point_level_references(self):
        rng = random.Random(23)
        seen = {"weak": set(), "strong": set(), "cp": set()}
        for i in range(360):
            X = random_image(rng, 5) if i % 2 else random_connected_image(rng, 5)
            Y = random_image(rng, 6) if i % 3 else random_connected_image(rng, 6)
            F = random_multifunction(rng, X, Y, 1 + i % 4)
            weak = has_weak_continuity(F)
            assert weak == pair_scan_weak_continuity(F)
            bad = strong_continuity_counterexample(F)
            assert bad == pair_scan_strong_counterexample(F)
            cp = is_connectivity_preserving(F)
            assert cp == point_level_connectivity_preserving(F)
            seen["weak"].add(weak)
            seen["strong"].add(bad is None)
            seen["cp"].add(cp)
        assert all(outcomes == {True, False} for outcomes in seen.values())


class TestWeakContinuity:
    def test_ladder_weak(self, ladder):
        assert has_weak_continuity(ladder)

    def test_single_valued_continuous(self):
        rng = random.Random(1)
        for _ in range(30):
            X, Y = random_image(rng, 4), random_image(rng, 4)
            f = random_continuous_function(rng, X, Y)
            assert has_weak_continuity(as_multifunction(f))

    def test_gap_fails(self):
        F = mf(interval(0, 1), interval(0, 2), {(0,)}, {(2,)})
        assert not has_weak_continuity(F)


class TestStrongContinuity:
    def test_ladder_not_strong(self, ladder):
        assert not has_strong_continuity(ladder)
        x, y, p = strong_continuity_counterexample(ladder)
        assert ladder.codomain.points[p] == (2,)  # the far value has no partner

    def test_single_valued_continuous(self):
        rng = random.Random(2)
        for _ in range(30):
            X, Y = random_image(rng, 4), random_image(rng, 4)
            f = random_continuous_function(rng, X, Y)
            assert has_strong_continuity(as_multifunction(f))

    def test_closed_neighborhood_map_matches_definition(self):
        X = interval(0, 3)
        F = MultiFunction.from_table(X, X, {
            x: frozenset(X.neighbors(x)) | {x} for x in X.points})
        u = X.adjacency
        expect = True
        for x in X.points:
            for y in X.points:
                if not X.adjacent(x, y):
                    continue
                for p in F(x):
                    if not any(adjacent_or_equal(p, q, u) for q in F(y)):
                        expect = False
        assert has_strong_continuity(F) == expect


    def test_witness_follows_the_pair_scan_order(self):
        rng = random.Random(17)
        outcomes = set()
        for _ in range(300):
            X, Y = random_image(rng, 6), random_image(rng, 4)
            F = random_multifunction(rng, X, Y)
            bad = strong_continuity_counterexample(F)
            assert bad == pair_scan_strong_counterexample(F)
            outcomes.add(bad is None)
        assert outcomes == {True, False}


class TestConnectivityPreserving:
    def test_ladder(self, ladder):
        assert is_connectivity_preserving(ladder)

    def test_disconnected_value_fails(self):
        F = mf(interval(0, 0), interval(0, 2), {(0,), (2,)})
        assert not is_connectivity_preserving(F)

    def test_single_valued_continuous(self):
        rng = random.Random(3)
        for _ in range(30):
            X, Y = random_image(rng, 4), random_image(rng, 4)
            f = random_continuous_function(rng, X, Y)
            assert is_connectivity_preserving(as_multifunction(f))


class TestSubdivision:
    def test_cardinality(self):
        for r in (1, 2, 3):
            X = DigitalImage.of([(0, 0), (1, 0)], 1)
            S = subdivide(X, r)
            assert len(S.image) == len(X) * r ** X.dim

    def test_identity_subdivision(self):
        X = DigitalImage.of([(0, 1), (1, 1)], 1)
        assert subdivide(X, 1).image == X

    def test_cells_partition(self):
        X = interval(0, 2)
        S = subdivide(X, 3)
        cells = [set(S.cell(x)) for x in X.points]
        assert set().union(*cells) == set(S.image.points)
        assert sum(len(c) for c in cells) == len(S.image)

    def test_bad_factor(self):
        with pytest.raises(ValueError):
            subdivide(interval(0, 1), 0)


class TestGeneratorContinuity:
    def test_single_valued_at_r1(self):
        rng = random.Random(4)
        for _ in range(10):
            X, Y = random_image(rng, 3), random_image(rng, 3)
            f = random_continuous_function(rng, X, Y)
            result = is_egs_continuous(as_multifunction(f), 2)
            assert result and result.r == 1

    def test_ladder_witness_at_r2(self, ladder):
        result = is_egs_continuous(ladder, 3)
        assert result and result.r == 2
        assert generates(result.generator, ladder, Subdivision(ladder.domain, 2))

    def test_disconnected_value_never_generated(self):
        F = mf(interval(0, 1), interval(0, 2), {(0,), (2,)}, {(1,)})
        result = is_egs_continuous(F, 3)
        assert not result and result.r is None and result.r_max == 3

    def test_generates_is_exact(self, ladder):
        result = is_egs_continuous(ladder, 2)
        sub = Subdivision(ladder.domain, result.r)
        other = MultiFunction.from_table(
            ladder.domain, ladder.codomain, {(0,): {(0,)}, (1,): {(1,)}})
        assert not generates(result.generator, other, sub)
        # the generator on another subdivision, or toward another codomain
        assert not generates(result.generator, ladder, Subdivision(ladder.domain, 3))
        wider = MultiFunction.from_table(
            ladder.domain, interval(0, 3), {(0,): {(0,)}, (1,): {(1,), (2,)}})
        assert not generates(result.generator, wider, sub)
        # 0, 0, 2, 1 on the subdivision gives exactly the ladder's value sets,
        # but jumps from 0 to 2 between its second and third points
        jump = FiniteFunction._trusted(sub.image, ladder.codomain, (0, 0, 2, 1))
        assert not generates(jump, ladder, sub)

    def test_budget(self):
        # never generable, so the search climbs r until the budget trips
        F = mf(interval(0, 1), interval(0, 2), {(0,), (2,)}, {(1,)})
        with pytest.raises(BudgetError):
            is_egs_continuous(F, 40, budget=16)

    def test_bad_rmax(self, ladder):
        with pytest.raises(ValueError):
            is_egs_continuous(ladder, 0)

    def test_generator_deeper_than_recursion_limit(self):
        # one cell of 1,200 points must sweep all of [0, 1199]: the search
        # assigns one subdivision point per level
        X, Y = interval(0, 0), interval(0, 1199)
        F = mf(X, Y, set(Y.points))
        sub = Subdivision(X, 1200)
        g = _find_generator(F, sub)
        assert g is not None and generates(g, F, sub)

    def test_same_generator_as_recursive_search(self):
        rng = random.Random(12)
        found = 0
        for i in range(300):
            X = random_image(rng, 3) if i % 2 else random_connected_image(rng, 3)
            Y = random_connected_image(rng, 5) if i % 3 else random_image(rng, 5)
            F = random_multifunction(rng, X, Y, 3)
            for r in (1, 2, 3):
                sub = Subdivision(X, r)
                if len(sub.points) > 16:
                    break
                g = _find_generator(F, sub)
                assert (g.table if g else None) == recursive_find_generator(F, sub)
                found += g is not None
        assert found > 100  # both outcomes are exercised


class TestInducedLift:
    def test_strongly_continuous_lifts(self):
        rng = random.Random(5)
        produced = 0
        while produced < 40:
            X, Y = random_image(rng, 4), random_image(rng, 4)
            F = random_multifunction(rng, X, Y)
            if not has_strong_continuity(F):
                continue
            produced += 1
            assert is_continuous(induced_multifunction_map(F, "full"))

    def test_ladder_lift_fails(self, ladder):
        lifted = induced_multifunction_map(ladder, "full")
        assert not is_continuous(lifted)

    def test_single_valued_agrees_with_induced_map(self):
        rng = random.Random(6)
        for _ in range(20):
            X, Y = random_image(rng, 4), random_image(rng, 4)
            f = random_continuous_function(rng, X, Y)
            lifted = induced_multifunction_map(as_multifunction(f), "full")
            direct = induced_map(f, lifted.domain, codomain_family=lifted.codomain)
            assert lifted.pairs == direct.pairs

    @given(st.integers(0, 2 ** 32 - 1), st.sampled_from(("full", "connected")))
    @settings(max_examples=100, deadline=None)
    def test_singleton_multifunction_induces_the_same_map(self, seed, kind):
        rng = random.Random(seed)
        X, Y = random_image(rng, 4), random_image(rng, 4)
        f = random_function(rng, X, Y)
        try:
            direct = induced_map(f, family_of(X, kind), family_of(Y, kind))
        except ValueError as exc:  # some member's image leaves K(Y)
            with pytest.raises(ValueError) as lifted_exc:
                induced_multifunction_map(as_multifunction(f), kind)
            assert str(lifted_exc.value) == str(exc)
            return
        assert induced_multifunction_map(as_multifunction(f), kind).pairs == direct.pairs

    def test_connected_kind_rejects_disconnected_images(self):
        F = mf(interval(0, 0), interval(0, 2), {(0,), (2,)})
        with pytest.raises(ValueError, match="not a member"):
            induced_multifunction_map(F, "connected")

    def test_implication_lattice(self):
        rng = random.Random(7)
        for _ in range(150):
            X, Y = random_image(rng, 5), random_image(rng, 5)
            F = random_multifunction(rng, X, Y)
            if has_strong_continuity(F):
                assert has_weak_continuity(F)
            if is_connectivity_preserving(F):
                assert has_weak_continuity(F)


class TestSerialization:
    def test_round_trip(self, ladder):
        assert multifunction_from_json(multifunction_to_json(ladder)) == ladder

    def test_empty_value_rejected(self):
        doc = multifunction_to_json(
            mf(interval(0, 0), interval(0, 1), {(0,)}))
        doc["pairs"][0][1] = []
        with pytest.raises(ValueError):
            multifunction_from_json(doc)
