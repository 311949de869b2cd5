"""Function layer: continuity, induced maps, isomorphism, retraction."""

import itertools
import random

import pytest
from hypothesis import given, settings, strategies as st

from digitop import (BudgetError, DigitalImage, FiniteFunction, compose,
                     constant_map, enumerate_all_subsets,
                     enumerate_connected_subsets, find_inducing_map,
                     function_from_json, function_to_json, identity_map,
                     induced_map, interval, is_continuous,
                     is_isomorphism, is_retraction)
from digitop.functions import (continuity_counterexample,
                               family_function_from_json,
                               family_function_to_json, pair_from_json)
from digitop.homotopy import (PHI, FunctionGraph, build_function_graph,
                              enumerate_continuous_maps, homotopic)
from digitop.hyperspace import family_of
from digitop.lattice import _as_point, _pairs, image_to_json
from digitop.verify import random_continuous_function, random_function, random_image


def fn(X, Y, *values):
    return FiniteFunction(X, Y, tuple(zip(X.points, values)))


def enumeration_find_inducing_map(F, budget=10 ** 6):
    """The search over all continuous maps that ``find_inducing_map``
    replaced; the reference its answers must equal."""
    dom_family, cod_family = F.domain, F.codomain
    if dom_family.kind not in ("full", "connected") or cod_family.kind not in ("full", "connected"):
        raise ValueError("inducing-map search needs full or connected families")
    X, Y = dom_family.base, cod_family.base
    singleton_value = {}
    for x in X.points:
        img = F.table[frozenset((x,))]
        if len(img) != 1:
            return None
        singleton_value[x] = img
    for f in enumerate_continuous_maps(X, Y, budget=budget):
        if any(frozenset((f.table[x],)) != singleton_value[x] for x in X.points):
            continue
        try:
            candidate = induced_map(f, dom_family, codomain_family=cod_family)
        except ValueError:
            continue
        if candidate.pairs == F.pairs:
            return f
    return None


def random_family_function(rng, X, Y, kind):
    """F on the kind's families over X and Y: induced by a random (often
    discontinuous) map, that with one value changed, or a random table."""
    dom, cod = family_of(X, kind), family_of(Y, kind)
    how = rng.randrange(3)
    if how < 2:
        try:
            F = induced_map(random_function(rng, X, Y), dom, codomain_family=cod)
        except ValueError:  # a disconnected image in a connected family
            how = 2
    if how == 1:
        table = dict(F.pairs)
        table[rng.choice(dom.members)] = rng.choice(cod.members)
        F = FiniteFunction.from_table(dom, cod, table)
    if how == 2:
        F = FiniteFunction.from_table(dom, cod, {m: rng.choice(cod.members)
                                                  for m in dom.members})
    return F


class TestContinuity:
    def test_identity(self):
        assert is_continuous(identity_map(interval(0, 4)))

    def test_remark_pair(self):
        X = interval(0, 2)
        f = fn(X, X, (0,), (1,), (2,))
        g = fn(X, X, (1,), (2,), (2,))
        assert is_continuous(f) and is_continuous(g)

    def test_stretch_discontinuous(self):
        f = fn(interval(0, 1), interval(0, 2), (0,), (2,))
        assert not is_continuous(f)
        assert continuity_counterexample(f) == (0, 1)  # domain indices

    def test_counterexample_is_lowest_index_failing_pair(self, close_on_points,
                                                         other_codomain_maps):
        rng = random.Random(9)
        for _ in range(200):
            X, Y = random_image(rng, 8), random_image(rng, 8)
            f = random_function(rng, X, Y)
            pts = X.points
            failing = [(i, j) for i, j in itertools.combinations(range(len(pts)), 2)
                       if X.adjacent(pts[i], pts[j])
                       and not Y.adjacent_or_equal(f(pts[i]), f(pts[j]))]
            assert continuity_counterexample(f) == (failing[0] if failing else None)
        # family- and function-graph-valued maps against point-level scans
        found = set()
        for _ in range(80):
            for f in other_codomain_maps(rng):
                dom, cod = f.domain, f.codomain
                verts = dom.vertices
                failing = [(i, j) for i, j in itertools.combinations(range(len(verts)), 2)
                           if close_on_points(dom, verts[i], verts[j])
                           and not close_on_points(cod, f(verts[i]), f(verts[j]))]
                assert continuity_counterexample(f) == (failing[0] if failing else None)
                found.add((type(cod).__name__, not failing))
        assert found == {(name, ok) for name in ("SubsetFamily", "FunctionGraph")
                         for ok in (False, True)}

    def test_table_must_be_total(self):
        X = interval(0, 1)
        with pytest.raises(ValueError):
            FiniteFunction(X, X, (((0,), (0,)),))
        with pytest.raises(ValueError):
            FiniteFunction(X, X, (((0,), (0,)), ((1,), (7,))))


class TestTrustedRows:
    def test_trusted_maps_equal_validated_ones(self, other_codomain_maps):
        rng = random.Random(31)
        for _ in range(40):
            X, Y = random_image(rng, 3), random_image(rng, 3)
            kind = rng.choice(("full", "connected"))
            maps = list(enumerate_continuous_maps(X, Y))
            maps += [induced_map(f, family_of(X, kind), family_of(Y, kind)) for f in maps[:3]]
            maps += [identity_map(X), identity_map(family_of(X, kind))]
            maps += other_codomain_maps(rng)
            for f in maps:
                checked = FiniteFunction(f.domain, f.codomain, f.pairs)
                assert checked.pairs == f.pairs and checked.row == f.row
                assert checked == f and hash(checked) == hash(f)
                trusted = FiniteFunction._trusted(f.domain, f.codomain, checked.row)
                assert trusted.pairs == f.pairs and trusted == f and hash(trusted) == hash(f)

    def test_pairs_are_built_on_first_read(self):
        X, Y = interval(0, 2), interval(0, 3)
        maps = list(enumerate_continuous_maps(X, Y))
        maps += homotopic(maps[0], maps[-1]).path
        K = family_of(X, "connected")
        F = induced_map(maps[0], K)
        maps.append(F)
        # a map over a family leaves the family's member frozensets unbuilt
        assert "members" not in K.__dict__ and "members" not in F.codomain.__dict__
        for f in maps:
            assert "pairs" not in f.__dict__
            assert f.pairs == tuple(zip(f.domain.vertices,
                                        (f.codomain.vertices[v] for v in f.row)))
            assert "pairs" in f.__dict__

    def test_identity_maps_leave_adjacency_rows_unbuilt(self):
        # identity_map counts vertices with len(space), so building it does
        # not build a family's or a function graph's adjacency rows
        X = interval(0, 3)
        rows = build_function_graph(X, X, PHI).rows
        for space in (family_of(X, "connected"), family_of(X, "full"),
                      FunctionGraph(X, X, PHI, rows)):
            f = identity_map(space)
            assert "adjacency_rows" not in space.__dict__
            assert len(space) == len(space.vertices)
            assert f.row == tuple(range(len(space.vertices)))

    def test_equal_rows_over_different_codomains_are_unequal(self):
        X = interval(0, 1)
        f, g = fn(X, interval(0, 2), (0,), (1,)), fn(X, interval(5, 7), (5,), (6,))
        assert f.row == g.row == (0, 1)
        assert f != g

    def test_json_round_trip_is_equal(self):
        rng = random.Random(12)
        for _ in range(30):
            X, Y = random_image(rng, 4), random_image(rng, 4)
            f = random_function(rng, X, Y)
            back = function_from_json(function_to_json(f))
            assert back == f and hash(back) == hash(f)


class TestInducedMap:
    def test_constant(self):
        X = interval(0, 2)
        F = induced_map(constant_map(X, X, (1,)), enumerate_all_subsets(X))
        assert all(v == frozenset({(1,)}) for _, v in F.pairs)

    def test_identity_law(self):
        X = DigitalImage.of([(0, 0), (1, 0), (1, 1)], 2)
        for fam in (enumerate_all_subsets(X), enumerate_connected_subsets(X)):
            assert induced_map(identity_map(X), fam).pairs == identity_map(fam).pairs

    def test_compose_refuses_mismatched_spaces(self):
        f, g = identity_map(interval(0, 2)), identity_map(interval(0, 1))
        with pytest.raises(ValueError,
                           match="^composition mismatch: codomain of f is not domain of g$"):
            compose(g, f)

    def test_composition_law(self):
        rng = random.Random(2)
        for _ in range(40):
            X, Y, Z = (random_image(rng, 4) for _ in range(3))
            f = random_continuous_function(rng, X, Y)
            g = random_continuous_function(rng, Y, Z)
            left = induced_map(compose(g, f), enumerate_all_subsets(X))
            right = compose(induced_map(g, enumerate_all_subsets(Y)),
                            induced_map(f, enumerate_all_subsets(X)))
            assert left.pairs == right.pairs

    def test_family_mismatch_rejected(self):
        X, Y = interval(0, 1), interval(0, 2)
        f = fn(X, Y, (0,), (1,))
        with pytest.raises(ValueError):
            induced_map(f, enumerate_all_subsets(Y))

    def test_codomain_family_over_another_image(self):
        # the value masks move onto that family's base, point by point
        X, Y, Z = interval(0, 1), interval(1, 2), interval(0, 3)
        f = fn(X, Y, (1,), (2,))
        F = induced_map(f, enumerate_all_subsets(X), codomain_family=enumerate_all_subsets(Z))
        assert F.pairs == tuple((A, frozenset((a + 1,) for (a,) in A)) for A, _ in F.pairs)
        with pytest.raises(ValueError, match=r"point \(2,\) is not in the image"):
            induced_map(f, enumerate_all_subsets(X), codomain_family=enumerate_all_subsets(X))

    def test_disconnected_image_named(self):
        X, Y = interval(0, 1), interval(0, 2)
        f = fn(X, Y, (0,), (2,))  # discontinuous; {0,1} maps to a gap
        with pytest.raises(ValueError, match="not a member"):
            induced_map(f, enumerate_connected_subsets(X))


class TestFamilyContinuity:
    def test_continuity_iff_exhaustive_small(self):
        cases = [
            (interval(0, 2), interval(0, 1)),
            (DigitalImage.of([(0, 0), (1, 0), (0, 1)], 1),
             DigitalImage.of([(0, 0), (1, 1), (1, 0)], 2)),
        ]
        for X, Y in cases:
            for values in itertools.product(Y.points, repeat=len(X)):
                f = fn(X, Y, *values)
                cont = is_continuous(f)
                full = is_continuous(induced_map(f, enumerate_all_subsets(X)))
                try:
                    conn = is_continuous(
                        induced_map(f, enumerate_connected_subsets(X)))
                except ValueError:
                    conn = False
                assert cont == full == conn

    def test_constant_family_map_continuous(self):
        X = interval(0, 1)
        K = enumerate_connected_subsets(X)
        F = FiniteFunction.from_table(K, K, {m: frozenset(X.points) for m in K.members})
        assert is_continuous(F)


class TestIsomorphism:
    def test_identity(self):
        assert is_isomorphism(identity_map(interval(0, 3)))

    def test_gap_embedding_not_iso(self):
        X = interval(0, 1)
        Y = DigitalImage.of([(0,), (2,)], 1)
        f = fn(X, Y, (0,), (2,))
        assert not is_isomorphism(f)

    def test_non_bijective(self):
        X = interval(0, 1)
        assert not is_isomorphism(constant_map(X, X, (0,)))

    def test_iso_iff_induced_iso(self):
        X = DigitalImage.of([(0, 0), (0, 1), (1, 1)], 2)
        Y = DigitalImage.of([(5, 5), (5, 6), (6, 6)], 2)
        shift = fn(X, Y, (5, 5), (5, 6), (6, 6))
        assert is_isomorphism(shift)
        assert is_isomorphism(induced_map(shift, enumerate_all_subsets(X)))
        assert is_isomorphism(induced_map(shift, enumerate_connected_subsets(X)))


class TestRetraction:
    def test_identity_retraction(self):
        X = interval(0, 2)
        assert is_retraction(identity_map(X), X.points)

    def test_clamp(self):
        X, Y = interval(0, 2), interval(0, 1)
        r = fn(X, Y, (0,), (1,), (1,))
        assert is_retraction(r, Y.points)

    def test_moved_point(self):
        X, Y = interval(0, 2), interval(0, 1)
        r = fn(X, Y, (1,), (0,), (1,))
        assert not is_retraction(r, Y.points)

    def test_empty_target_rejected(self):
        X = interval(0, 1)
        with pytest.raises(ValueError):
            is_retraction(identity_map(X), [])

    def test_lift_fixes_small_members(self):
        X, Y = interval(0, 3), interval(0, 1)
        r = fn(X, Y, (0,), (1,), (1,), (1,))
        assert is_retraction(r, Y.points)
        for build in (enumerate_all_subsets, enumerate_connected_subsets):
            rs = induced_map(r, build(X))
            assert is_continuous(rs)
            for member in rs.domain.members:
                if member <= Y.point_set:
                    assert rs.table[member] == member


class TestFindInducingMap:
    def test_identity_found(self):
        X = interval(0, 2)
        K = enumerate_connected_subsets(X)
        F = induced_map(identity_map(X), K)
        found = find_inducing_map(F)
        assert found is not None and found.pairs == identity_map(X).pairs

    def test_constant_to_whole_absent(self):
        X = interval(0, 1)
        K = enumerate_connected_subsets(X)
        F = FiniteFunction.from_table(K, K, {m: frozenset(X.points) for m in K.members})
        assert find_inducing_map(F) is None

    def test_custom_families_refused(self):
        K = enumerate_connected_subsets(interval(0, 1))
        custom = K.subfamily(K.members)
        for dom, cod in ((custom, K), (K, custom)):
            F = FiniteFunction._trusted(dom, cod, tuple(range(len(K))))
            with pytest.raises(ValueError,
                               match="^inducing-map search needs full or connected families$"):
                find_inducing_map(F)

    def test_roundtrip_of_random_induced(self):
        rng = random.Random(8)
        for _ in range(25):
            X, Y = random_image(rng, 3), random_image(rng, 3)
            g = random_continuous_function(rng, X, Y)
            F = induced_map(g, enumerate_all_subsets(X))
            f = find_inducing_map(F)
            assert f is not None
            assert induced_map(f, enumerate_all_subsets(X)).pairs == F.pairs

    def test_shift_map_beyond_the_enumeration_budget(self):
        # 10^10 tables: the enumeration search refused this with BudgetError.
        X = interval(0, 9)
        shift = FiniteFunction(X, X, tuple((x, (max(x[0] - 1, 0),)) for x in X.points))
        F = induced_map(shift, enumerate_connected_subsets(X))
        with pytest.raises(BudgetError):
            enumeration_find_inducing_map(F)
        found = find_inducing_map(F)
        assert found is not None and found.pairs == shift.pairs

    def test_matches_enumeration_search(self):
        rng = random.Random(23)
        outcomes = set()
        for _ in range(600):
            X, Y = random_image(rng, 4), random_image(rng, 4)
            kind = rng.choice(("full", "connected"))
            F = random_family_function(rng, X, Y, kind)
            expect = enumeration_find_inducing_map(F)
            found = find_inducing_map(F)
            assert (found and found.pairs) == (expect and expect.pairs)
            outcomes.add((kind, expect is None))
        assert len(outcomes) == 4


# a point of a map document: the images' points, points of neither, and
# values that are no point (bool, float, scalar, empty, too long)
MAP_X = DigitalImage.of([(0, 0), (0, 1), (1, 1)], 1)
MAP_Y = DigitalImage.of([(-3, 5), (-2, 6)], 2)
no_points = st.sampled_from([[9, 9], [0, True], [1.0, 1], [0.5, 0], 5, None, "ab", [], [0],
                             [0, 0, 0], (0, 0), (-3, 5), [[0, 0]]])
x_values = st.one_of(st.sampled_from(MAP_X.points).map(list), no_points,
                     st.sampled_from(MAP_Y.points).map(list))
y_values = st.one_of(st.sampled_from(MAP_Y.points).map(list), no_points,
                     st.sampled_from(MAP_X.points).map(list))


def pair_by_pair(domain, codomain, pairs):
    """The map document reader that checks each pair's x and then its y."""
    return FiniteFunction(domain, codomain, tuple((_as_point(x), _as_point(y))
                                                  for x, y in _pairs(pairs, "function")))


class TestSerialization:
    @given(st.lists(st.tuples(x_values, y_values).map(list), max_size=3),
           st.randoms(use_true_random=False))
    @settings(max_examples=400)
    def test_rows_read_from_point_indices_as_pair_by_pair(self, noise, rng):
        # a valid document with some x or y changed, or some pairs dropped,
        # repeated, added or cut short: the reader builds the map the
        # pair-by-pair reader builds, and on a refusal gives its message
        pairs = [[list(x), list(rng.choice(MAP_Y.points))] for x in MAP_X.points]
        for entry in noise:
            k = rng.randrange(len(pairs) + 1)
            action = rng.choice(("x", "y", "y", "insert", "drop", "repeat", "cut"))
            if action in ("x", "y") and k < len(pairs):
                end = action == "y"
                pairs[k] = pairs[k][:end] + entry[end:end + 1] + pairs[k][end + 1:]
            elif action == "cut" and k < len(pairs):
                pairs[k] = pairs[k][:1]
            elif action == "drop" and k < len(pairs):
                del pairs[k]
            elif action == "repeat" and k < len(pairs):
                pairs.insert(k, pairs[k])
            else:
                pairs.insert(k, entry)

        def outcome(read):
            try:
                return read().row
            except ValueError as exc:
                return str(exc)

        doc = {"domain": image_to_json(MAP_X), "codomain": image_to_json(MAP_Y), "pairs": pairs}
        expect = outcome(lambda: pair_by_pair(MAP_X, MAP_Y, pairs))
        assert outcome(lambda: function_from_json(doc)) == expect
        assert outcome(lambda: pair_from_json({"f": doc, "g": doc})[1]) == expect

    def test_function_round_trip(self):
        X = DigitalImage.of([(0, 0), (1, 1)], 2)
        f = fn(X, X, (1, 1), (0, 0))
        assert function_from_json(function_to_json(f)) == f

    def test_family_function_round_trip(self):
        X = interval(0, 1)
        K = enumerate_connected_subsets(X)
        F = induced_map(identity_map(X), K)
        doc = family_function_to_json(F)
        back = family_function_from_json(doc)
        assert back.pairs == F.pairs and back.domain == F.domain

    def test_family_domain_has_no_function_doc(self):
        with pytest.raises(ValueError):
            function_to_json(induced_map(identity_map(interval(0, 1)),
                                         enumerate_all_subsets(interval(0, 1))))
