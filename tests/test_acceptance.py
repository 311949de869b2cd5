"""Acceptance criteria: one test per criterion, each printing a PASS/FAIL line.

Run with ``pytest -s tests/test_acceptance.py`` to see the per-criterion
report.  Every expected value is exact; time limits follow the stated
budgets.
"""

import random
import time

from digitop import (BudgetError, FiniteFunction, MultiFunction, Subdivision,
                     as_finite_graph, build_function_graph, constant_map,
                     diameter, enumerate_all_subsets, enumerate_connected_subsets,
                     find_inducing_map, generates, girth, has_strong_continuity,
                     has_weak_continuity, homotopic, HomotopyTable, hyperspace_graph,
                     identity_map, induced_map, induced_multifunction_map,
                     is_connectivity_preserving, is_connected_graph,
                     is_continuous, is_dominating, is_egs_continuous,
                     is_isomorphism, is_valid_cycle,
                     induced_subgraph, interval, interval_triangle_iso,
                     lift_dominating, longest_cycle, phi_adjacent, radius,
                     verify_homotopy, disconnects)
from digitop.homotopy import PHI, PSI
from digitop.verify import (oracle_homotopic, oracle_longest_cycle,
                            random_connected_image, random_image,
                            random_function, random_multifunction, rotations)


def report(num, name, ok, detail=""):
    line = f"ACCEPTANCE {num:2d} {name}: {'PASS' if ok else 'FAIL'}"
    if detail:
        line += f" ({detail})"
    print(line)
    assert ok, line


def test_01_cardinality():
    t0 = time.perf_counter()
    ok = all(len(enumerate_all_subsets(interval(1, n))) == 2 ** n - 1
             for n in range(1, 13))
    ok = ok and all(len(enumerate_connected_subsets(interval(1, n))) == n * (n + 1) // 2
                    for n in range(1, 9))
    elapsed = time.perf_counter() - t0
    report(1, "hyperspace cardinalities", ok and elapsed < 1.0, f"{elapsed:.3f}s")


def test_02_interval_triangle_isomorphism():
    t0 = time.perf_counter()
    ok = all(is_isomorphism(interval_triangle_iso(1, b)) for b in range(1, 7))
    elapsed = time.perf_counter() - t0
    report(2, "interval-triangle isomorphism", ok and elapsed < 1.0, f"{elapsed:.3f}s")


def test_03_induced_map_iff():
    rng = random.Random(103)
    violations = 0
    for _ in range(500):
        X, Y = random_image(rng, 4), random_image(rng, 4)
        f = random_function(rng, X, Y)
        cont = is_continuous(f)
        full = is_continuous(induced_map(f, enumerate_all_subsets(X)))
        try:
            conn = is_continuous(induced_map(f, enumerate_connected_subsets(X)))
        except ValueError:
            conn = False
        if not (cont == full == conn):
            violations += 1
    report(3, "induced-map continuity iff", violations == 0,
           f"500 samples, {violations} violations")


def test_04_non_induced_family_map():
    t0 = time.perf_counter()
    X = interval(0, 1)
    K = enumerate_connected_subsets(X)
    F = FiniteFunction.from_table(K, K, {m: frozenset(X.points) for m in K.members})
    absent = find_inducing_map(F) is None
    elapsed = time.perf_counter() - t0
    report(4, "constant family map not induced", absent and elapsed < 1.0,
           f"{elapsed:.3f}s")


def test_05_cycle_homotopy_decisions():
    t0 = time.perf_counter()
    budget = 10 ** 6
    rots = rotations(5)
    S5 = rots[0].domain
    ok = True
    try:
        phi = build_function_graph(S5, S5, PHI, budget)
        psi = build_function_graph(S5, S5, PSI, budget)
        for j in range(5):
            for k in range(5):
                path = phi.find_path(rots[j], rots[k])
                if path is None or not verify_homotopy(HomotopyTable(S5, S5, path),
                                                       rots[j], rots[k]):
                    ok = False
                if j != k and psi.find_path(rots[j], rots[k]) is not None:
                    ok = False
        if phi.find_path(identity_map(S5), constant_map(S5, S5, S5.points[0])) is not None:
            ok = False
        detail = f"{len(phi.vertices)} vertices"
    except BudgetError as exc:
        ok, detail = False, f"budget: {exc}"
    elapsed = time.perf_counter() - t0
    report(5, "five-cycle homotopy decisions", ok and elapsed < 60.0,
           f"{detail}, {elapsed:.2f}s")


def test_06_one_step_iff():
    rng = random.Random(106)
    violations = 0
    from digitop import enumerate_continuous_maps

    for _ in range(500):
        X, Y = random_image(rng, 3), random_image(rng, 3)
        maps = enumerate_continuous_maps(X, Y)
        f, g = rng.choice(maps), rng.choice(maps)
        H = HomotopyTable(X, Y, (f, g))
        if verify_homotopy(H, f, g) != (f.pairs == g.pairs or phi_adjacent(f, g)):
            violations += 1
    report(6, "one-step deformation iff", violations == 0,
           f"500 samples, {violations} violations")


def test_07_connectivity_lifting():
    t0 = time.perf_counter()
    rng = random.Random(107)
    iff_violations = 0
    cut_violations = 0
    cuts = 0
    for _ in range(200):
        X = random_image(rng, 7)
        K = enumerate_connected_subsets(X)
        G = as_finite_graph(hyperspace_graph(K))
        if X.is_connected() != is_connected_graph(G):
            iff_violations += 1
        if not X.is_connected() or len(X) < 3:
            continue
        for ymask in range(1, (1 << len(X)) - 1):
            Y = [X.points[i] for i in range(len(X)) if ymask >> i & 1]
            if not disconnects(Y, X):
                continue
            cuts += 1
            keep = [i for i, m in enumerate(K.masks) if not m & ymask]
            if is_connected_graph(induced_subgraph(G, keep)):
                cut_violations += 1
    elapsed = time.perf_counter() - t0
    report(7, "connectivity and disconnection lifting",
           iff_violations == 0 and cut_violations == 0 and elapsed < 120.0,
           f"200 images, {cuts} cuts, {elapsed:.1f}s")


def test_08_multivalued_ladder():
    t0 = time.perf_counter()
    X, Y = interval(0, 1), interval(0, 2)
    F = MultiFunction.from_table(X, Y, {(0,): {(0,)}, (1,): {(1,), (2,)}})
    egs = is_egs_continuous(F, 3)
    ok = (has_weak_continuity(F)
          and not has_strong_continuity(F)
          and is_connectivity_preserving(F)
          and bool(egs) and egs.r == 2
          and generates(egs.generator, F, Subdivision(X, 2))
          and not is_continuous(induced_multifunction_map(F, "full")))
    elapsed = time.perf_counter() - t0
    report(8, "multivalued continuity ladder", ok and elapsed < 1.0, f"{elapsed:.3f}s")


def test_09_strong_lifting():
    rng = random.Random(109)
    produced = 0
    violations = 0
    attempts = 0
    while produced < 200 and attempts < 20000:
        attempts += 1
        X, Y = random_image(rng, 4), random_image(rng, 4)
        F = random_multifunction(rng, X, Y)
        if not has_strong_continuity(F):
            continue
        produced += 1
        if not is_continuous(induced_multifunction_map(F, "full")):
            violations += 1
    report(9, "strongly continuous lifts", produced >= 200 and violations == 0,
           f"{produced} samples, {violations} violations")


def test_10_cycles():
    t0 = time.perf_counter()
    rng = random.Random(110)
    ok = True
    for _ in range(120):
        X = random_image(rng, 6)
        G = as_finite_graph(hyperspace_graph(enumerate_connected_subsets(X)))
        w = girth(G)
        nonisolated = any(X.neighbors(p) for p in X.points)
        if nonisolated != (w is not None and w.length == 3):
            ok = False
    fam = enumerate_all_subsets(interval(1, 4))
    G = as_finite_graph(hyperspace_graph(fam))
    w = longest_cycle(G)
    ok = ok and w is not None and w.length == 15 and is_valid_cycle(G, w.vertices)
    listed = [{1, 2}, {1, 2, 3}, {1, 3}, {1, 4}, {1, 3, 4}, {1, 2, 4},
              {1, 2, 3, 4}, {2, 3, 4}, {2, 3}, {2, 4}, {3, 4}, {4}, {3}, {2}, {1}]
    ok = ok and is_valid_cycle(G, [fam.index_of(frozenset((v,) for v in s))
                                   for s in listed])
    X = interval(0, 2)
    K = enumerate_connected_subsets(X)
    GK = as_finite_graph(hyperspace_graph(K))
    six = [{(0,)}, {(0,), (1,)}, {(0,), (1,), (2,)}, {(1,), (2,)}, {(2,)}, {(1,)}]
    ok = ok and is_valid_cycle(GK, [K.index_of(frozenset(s)) for s in six])
    elapsed = time.perf_counter() - t0
    report(10, "cycle structure of hyperspaces", ok and elapsed < 60.0,
           f"{elapsed:.2f}s")


def test_11_dominating_iff():
    rng = random.Random(111)
    violations = 0
    for _ in range(100):
        X = random_image(rng, 5)
        fam = enumerate_all_subsets(X)
        G = as_finite_graph(hyperspace_graph(fam))
        GX = as_finite_graph(X)
        for dmask in range(1 << len(X)):
            D = [X.points[i] for i in range(len(X)) if dmask >> i & 1]
            low = is_dominating([X.point_index[p] for p in D], GX)
            high = is_dominating(lift_dominating(D, X, family=fam), G)
            if low != high:
                violations += 1
    report(11, "domination lifting iff", violations == 0,
           f"100 images x all subsets, {violations} violations")


def test_12_diameter_bound():
    rng = random.Random(112)
    violations = 0
    # the strict bound degenerates on one-point images; sample over images
    # with at least one adjacency step
    for _ in range(200):
        X = random_connected_image(rng, 7, min_points=2)
        K = enumerate_connected_subsets(X)
        G = as_finite_graph(hyperspace_graph(K))
        if not diameter(G) < 2 * (len(X) + radius(as_finite_graph(X)) - 1):
            violations += 1
    report(12, "hyperspace diameter bound", violations == 0,
           f"200 samples, {violations} violations")


def test_13_oracle_equivalence():
    from digitop.verify import random_graph
    from digitop import enumerate_continuous_maps

    rng = random.Random(113)
    cycle_disagreements = 0
    for _ in range(50):
        G = random_graph(rng, 9)
        w = longest_cycle(G)
        if (w.length if w else None) != oracle_longest_cycle(G):
            cycle_disagreements += 1
    homotopy_disagreements = 0
    for _ in range(50):
        X, Y = random_image(rng, 3), random_image(rng, 3)
        maps = enumerate_continuous_maps(X, Y)
        f, g = rng.choice(maps), rng.choice(maps)
        if bool(homotopic(f, g)) != oracle_homotopic(f, g):
            homotopy_disagreements += 1
    report(13, "search matches independent oracles",
           cycle_disagreements == 0 and homotopy_disagreements == 0,
           f"{cycle_disagreements}+{homotopy_disagreements} disagreements")
