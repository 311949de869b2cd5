"""Randomized verification harness: re-checks the library's theorems.

Each suite draws small random images (boxes in Z^1/Z^2 under c_1/c_2) from
a seeded generator, runs one family of universally quantified claims on
them, and reports one pass/fail line per claim.  Output is deterministic
for a fixed seed: no clocks, no set-iteration order leaks.

The oracles re-decide what the exponential kernels decide, by other
methods and without the code they check, and neither multiplies.
``oracle_longest_cycle`` runs Held and Karp's subset recurrence ("A dynamic
programming approach to sequencing problems", J. SIAM 10(1), 1962) in
O(2^n n) bit steps over masks it builds from ``G.adjacent``; no cycle code
of ``graphmetrics`` runs.  ``oracle_homotopic`` searches the maps of
``enumerate_continuous_maps`` breadth first over their value rows, bucketed
by their value at one point: each map enters the frontier once and tests
only the maps whose value there is close to its own, against one table of
close value pairs from ``Y.adjacent_or_equal``.  The homotopy module's
masks, row kernel and searches are not used.  ``oracle_pairwise_connected``
looks for a path inside the set between every pair of its points with
``X.adjacent``.  ``oracle_connectivity_preserving`` floods the image of
every member of K(X), where the library tests only points and edges.
"""

from __future__ import annotations

import random

from . import graphmetrics as gm
from .functions import (FiniteFunction, compose, constant_map, identity_map,
                        induced_map, interval_triangle_iso, is_continuous, is_isomorphism,
                        is_retraction, find_inducing_map)
from .homotopy import (PHI, PSI, build_function_graph, enumerate_continuous_maps,
                       homotopic, is_contractible, lift_homotopy_to_hyperspace,
                       phi_adjacent, postcompose_map, strongly_homotopic,
                       verify_homotopy, HomotopyTable)
from .hyperspace import (enumerate_all_subsets, enumerate_connected_subsets,
                         hausdorff_distance, hyper_adjacent, hyperspace_graph,
                         lift_dominating, union_of_family)
from .lattice import DigitalImage, _cover, _flood, cycle_image, cycle_points, interval
from .multivalued import (MultiFunction, Subdivision, as_multifunction, generates,
                          has_strong_continuity, has_weak_continuity,
                          induced_multifunction_map, is_connectivity_preserving,
                          is_egs_continuous)
from .value import Value


class CheckResult(Value):
    """One claim's outcome, named ``suite/claim`` by ``run_suites``."""

    name: str
    passed: bool
    details: str

    def __init__(self, name: str, passed: bool, details: str = ""):
        self.__dict__.update(name=name, passed=passed, details=details,
                             _key=(name, passed, details))

    def line(self) -> str:
        tag = "PASS" if self.passed else "FAIL"
        extra = f": {self.details}" if self.details and not self.passed else ""
        return f"{tag} {self.name}{extra}"


def _claim(name: str, found: list, note: str = "") -> CheckResult:
    """The claim that nothing was found; a failure reports the first finding."""
    return CheckResult(name, not found, f"first {found[:1]}" if found else note)


# -- random instance generators ------------------------------------------------

_BOX1 = tuple((i,) for i in range(6))
_BOX2 = tuple((i, j) for i in range(4) for j in range(4))
_BOX_IMAGES = {(1, 1): DigitalImage(1, _BOX1, 1), (2, 1): DigitalImage(2, _BOX2, 1),
               (2, 2): DigitalImage(2, _BOX2, 2)}


def random_image(rng: random.Random, max_points: int = 6) -> DigitalImage:
    dim = rng.choice((1, 2))
    box = _BOX1 if dim == 1 else _BOX2
    k = rng.randint(1, min(max_points, len(box)))
    pts = rng.sample(box, k)
    u = 1 if dim == 1 else rng.choice((1, 2))
    return DigitalImage(dim, tuple(pts), u)


def random_connected_image(rng: random.Random, max_points: int = 6,
                           min_points: int = 1) -> DigitalImage:
    dim = rng.choice((1, 2))
    u = 1 if dim == 1 else rng.choice((1, 2))
    box = _BOX_IMAGES[dim, u]
    k = rng.randint(min_points, max(min_points, min(max_points, len(box))))
    pts = {rng.choice(box.points)}
    while len(pts) < k:
        frontier = sorted({q for p in pts for q in box.neighbors(p)} - pts)
        if not frontier:
            break
        pts.add(rng.choice(frontier))
    return DigitalImage(dim, tuple(sorted(pts)), u)


def random_function(rng: random.Random, X: DigitalImage, Y: DigitalImage) -> FiniteFunction:
    return FiniteFunction(X, Y, tuple((x, rng.choice(Y.points)) for x in X.points))


def random_continuous_function(rng: random.Random, X: DigitalImage,
                               Y: DigitalImage) -> FiniteFunction:
    return rng.choice(enumerate_continuous_maps(X, Y))


def random_multifunction(rng: random.Random, X: DigitalImage, Y: DigitalImage,
                         max_values: int = 3) -> MultiFunction:
    table = {}
    for x in X.points:
        k = rng.randint(1, min(max_values, len(Y)))
        table[x] = frozenset(rng.sample(Y.points, k))
    return MultiFunction.from_table(X, Y, table)


def random_graph(rng: random.Random, max_n: int = 9) -> gm.FiniteGraph:
    n = rng.randint(3, max_n)
    edges = [(i, j) for i in range(n) for j in range(i + 1, n) if rng.random() < 0.4]
    return gm.FiniteGraph.from_edges(n, edges)


def rotations(n: int) -> list[FiniteFunction]:
    img = cycle_image(n)
    pts = cycle_points(n)
    return [FiniteFunction.from_table(img, img, {pts[i]: pts[(i + j) % n] for i in range(n)})
            for j in range(n)]


# -- independent oracles ---------------------------------------------------------


def oracle_longest_cycle(G: gm.FiniteGraph) -> int | None:
    """Longest cycle length by Held and Karp's recurrence over vertex subsets.

    ``ends[S]`` is the mask of the vertices where a path from min(S) that
    covers exactly S can end: v in S ends one when some end of S - {v}
    is adjacent to v.  A cycle on S exists iff |S| >= 3 and ``ends[S]``
    meets min(S)'s neighbours.  O(2^n n) bit steps over masks built from
    ``G.adjacent`` alone; no cycle code of ``graphmetrics`` runs.
    """
    n = G.n
    adj = [sum(1 << j for j in range(n) if j != i and G.adjacent(i, j)) for i in range(n)]
    ends = [0] * (1 << n)
    best = 2
    for S in range(1, 1 << n):
        low = S & -S
        rest = S ^ low
        if not rest:
            ends[S] = low  # the one-vertex path
            continue
        here = 0
        while rest:
            b = rest & -rest
            if ends[S ^ b] & adj[b.bit_length() - 1]:
                here |= b
            rest ^= b
        ends[S] = here
        if here & adj[low.bit_length() - 1] and S.bit_count() > best:
            best = S.bit_count()
    return best if best > 2 else None


def oracle_homotopic(f: FiniteFunction, g: FiniteFunction) -> bool:
    """Step-table search: grow the set of slices reachable from f by tables
    whose two-slice steps satisfy the deformation conditions directly.

    A breadth-first search over the value rows of
    ``enumerate_continuous_maps(X, Y)``: a step from h0 to h1 needs
    h0(x), h1(x) adjacent or equal at every point x, read from one table
    of the close value pairs built with ``Y.adjacent_or_equal``.  The maps
    are bucketed by their value at X's first point.  Each map enters the
    frontier once and tests only the maps in the buckets of the values
    close to its own there, with |X| pair lookups each, so no level tests
    every frontier map against every map.  The step relation reads none of
    the homotopy module's closed-neighbour or allow masks, row kernel or
    searches.
    """
    X, Y = f.domain, f.codomain
    if g.domain != X or g.codomain != Y:
        return False
    points = Y.points
    near = [[b for b, q in enumerate(points) if Y.adjacent_or_equal(p, q)] for p in points]
    close = {(a, b) for a, bs in enumerate(near) for b in bs}
    buckets = [[] for _ in points]
    for h in enumerate_continuous_maps(X, Y):
        buckets[h.row[0]].append(h.row)
    seen = {f.row}
    frontier = [f.row]
    while frontier and g.row not in seen:
        nxt = []
        for h0 in frontier:
            for v in near[h0[0]]:
                for h1 in buckets[v]:
                    if h1 not in seen and close.issuperset(zip(h0, h1)):
                        seen.add(h1)
                        nxt.append(h1)
        frontier = nxt
    return g.row in seen


def oracle_pairwise_connected(pts, X: DigitalImage) -> bool:
    """Connectivity by explicitly finding a path inside A for every pair."""
    from itertools import combinations

    pts = sorted(set(pts))
    inside = set(pts)
    for a, b in combinations(pts, 2):
        stack, seen = [a], {a}
        found = False
        while stack:
            p = stack.pop()
            if p == b:
                found = True
                break
            for q in inside:
                if q not in seen and X.adjacent(p, q):
                    seen.add(q)
                    stack.append(q)
        if not found:
            return False
    return True


def oracle_connectivity_preserving(F: MultiFunction) -> bool:
    """Connectivity preservation by its definition: every member of K(X), as
    ``enumerate_connected_subsets`` lists it, has an image that floods to itself."""
    rows = F.codomain.neighbor_masks
    for member in enumerate_connected_subsets(F.domain).masks:
        image = _cover(F.masks, member)
        if _flood(rows, image & -image, image) != image:
            return False
    return True


# -- suites -----------------------------------------------------------------------


def suite_cardinality(rng, max_points=6, samples=20) -> list[CheckResult]:
    out = []
    bad_n = [n for n in range(1, 13)
             if len(enumerate_all_subsets(interval(1, n))) != 2 ** n - 1]
    bad_images = []
    for _ in range(samples):
        X = random_image(rng, max_points)
        if len(enumerate_all_subsets(X)) != 2 ** len(X) - 1:
            bad_images.append(X)
    ok = not (bad_n or bad_images)
    out.append(CheckResult("full-hyperspace-cardinality", ok,
                           "2^n - 1 on intervals n<=12 and random images" if ok
                           else f"failed for intervals n={bad_n}; images {bad_images[:3]}"))
    bad2 = [n for n in range(1, 9)
            if len(enumerate_connected_subsets(interval(1, n))) != n * (n + 1) // 2]
    out.append(CheckResult("interval-connected-count", not bad2,
                           f"failed for n={bad2}" if bad2 else "n(n+1)/2 for n<=8"))
    ok_iso = all(is_isomorphism(interval_triangle_iso(1, b)) for b in range(1, 7))
    out.append(CheckResult("interval-triangle-isomorphism", ok_iso))
    return out


def suite_induced(rng, max_points=4, samples=200) -> list[CheckResult]:
    out = []
    smaller = max(1, max_points - 1)  # the cap of the claims that draw smaller images
    violations = []
    for _ in range(samples):
        X = random_image(rng, max_points)
        Y = random_image(rng, max_points)
        f = random_function(rng, X, Y)
        cont = is_continuous(f)
        full_ok = is_continuous(induced_map(f, enumerate_all_subsets(X)))
        try:
            conn_ok = is_continuous(induced_map(f, enumerate_connected_subsets(X)))
        except ValueError:
            conn_ok = False  # some connected member has a disconnected image
        if not (cont == full_ok == conn_ok):
            violations.append((f, cont, full_ok, conn_ok))
    out.append(CheckResult("induced-continuity-iff", not violations,
                           f"{len(violations)} violations, first {violations[:1]}"
                           if violations else f"{samples} samples"))

    iso_viol = []
    for _ in range(samples // 4):
        X = random_image(rng, max_points)
        shift = rng.choice(((1,) * X.dim, (0,) * X.dim, (2,) + (0,) * (X.dim - 1)))
        Y = DigitalImage(X.dim, tuple(tuple(c + d for c, d in zip(p, shift))
                                      for p in X.points), X.adjacency)
        f = FiniteFunction(X, Y, tuple((p, tuple(c + d for c, d in zip(p, shift)))
                                       for p in X.points))
        g = random_function(rng, X, Y)
        for cand in (f, g):
            a = is_isomorphism(cand)
            b = is_isomorphism(induced_map(cand, enumerate_all_subsets(X)))
            try:
                c = is_isomorphism(induced_map(cand, enumerate_connected_subsets(X)))
            except ValueError:
                c = False
            if not (a == b == c):
                iso_viol.append((cand, a, b, c))
    out.append(_claim("induced-isomorphism-iff", iso_viol))

    functor_viol = []
    for _ in range(samples // 4):
        X, Y, Z = (random_image(rng, max_points) for _ in range(3))
        f = random_continuous_function(rng, X, Y)
        g = random_continuous_function(rng, Y, Z)
        for kind, build in (("full", enumerate_all_subsets),
                            ("connected", enumerate_connected_subsets)):
            gf_star = induced_map(compose(g, f), build(X))
            star_gf = compose(induced_map(g, build(Y)), induced_map(f, build(X)))
            if gf_star != star_gf:
                functor_viol.append((kind, f, g))
        if induced_map(identity_map(X), enumerate_all_subsets(X)) != \
                identity_map(enumerate_all_subsets(X)):
            functor_viol.append(("identity", X))
    out.append(_claim("induced-functor-laws", functor_viol))

    retr_viol = []
    for _ in range(samples // 4):
        a, c, b = sorted(rng.sample(range(0, 7), 3))
        X, Y = interval(a, b), interval(a, c)
        r = FiniteFunction(X, Y, tuple((p, (min(p[0], c),)) for p in X.points))
        if not is_retraction(r, Y.points):
            retr_viol.append(("not-a-retraction", r))
            continue
        for build in (enumerate_all_subsets, enumerate_connected_subsets):
            rs = induced_map(r, build(X))
            if not is_continuous(rs):
                retr_viol.append(("lift-discontinuous", r))
            fixed = [m for m in rs.domain.members if m <= Y.point_set]
            if any(rs.table[m] != m for m in fixed):
                retr_viol.append(("lift-moves-fixed-member", r))
    out.append(_claim("retraction-lifts-to-hyperspace", retr_viol))

    img_viol = []
    for _ in range(samples // 4):
        X = random_connected_image(rng, max_points)
        Y = random_image(rng, max_points)
        maps = enumerate_continuous_maps(X, Y)
        f = rng.choice(maps)
        partners = [h for h in maps if h != f and phi_adjacent(f, h)]
        if not partners:
            continue
        g = rng.choice(partners)
        for member in enumerate_all_subsets(X).members:
            fa, ga = f.image_of(member), g.image_of(member)
            if fa != ga and not hyper_adjacent(fa, ga, Y):
                img_viol.append((f, g, member))
    out.append(_claim("pointwise-close-maps-have-close-set-images", img_viol))

    K = enumerate_connected_subsets(interval(0, 1))
    F = FiniteFunction.from_table(K, K, {m: frozenset(interval(0, 1).points) for m in K.members})
    absent = find_inducing_map(F) is None
    out.append(CheckResult("constant-family-map-not-induced", absent))
    witnessed = []
    for _ in range(samples // 10):
        X = random_image(rng, smaller)
        Y = random_image(rng, smaller)
        g = random_continuous_function(rng, X, Y)
        F2 = induced_map(g, enumerate_connected_subsets(X))
        f2 = find_inducing_map(F2)
        if f2 is None or induced_map(f2, enumerate_connected_subsets(X)) != F2:
            witnessed.append(g)
    out.append(_claim("induced-map-search-roundtrip", witnessed))
    return out


def suite_homotopy(rng, max_points=3, samples=200) -> list[CheckResult]:
    out = []

    onestep_viol = []
    for _ in range(samples):
        X = random_image(rng, max_points)
        Y = random_image(rng, max_points)
        maps = enumerate_continuous_maps(X, Y)
        f, g = rng.choice(maps), rng.choice(maps)
        H = HomotopyTable(X, Y, (f, g))
        accepted = verify_homotopy(H, f, g)
        expected = f == g or phi_adjacent(f, g)
        if accepted != expected:
            onestep_viol.append((f, g))
    out.append(_claim("one-step-deformation-iff-pointwise-close", onestep_viol,
                      f"{samples} samples"))

    oracle_viol = []
    for _ in range(min(samples, 60)):
        X = random_image(rng, max_points)
        Y = random_image(rng, max_points)
        maps = enumerate_continuous_maps(X, Y)
        f, g = rng.choice(maps), rng.choice(maps)
        decision = homotopic(f, g)
        if bool(decision) != oracle_homotopic(f, g):
            oracle_viol.append((f, g))
        if decision and not verify_homotopy(decision.table(), f, g):
            oracle_viol.append(("bad-witness", f, g))
    out.append(_claim("component-search-matches-table-oracle", oracle_viol))

    edge_viol = []
    for _ in range(samples // 10):
        X = random_image(rng, max_points)
        Y = random_image(rng, max_points)
        phi = build_function_graph(X, Y, PHI)
        psi = build_function_graph(X, Y, PSI)
        if not set(psi.edges) <= set(phi.edges):
            edge_viol.append((X, Y))
    out.append(_claim("cross-edges-within-pointwise-edges", edge_viol))

    rots = rotations(5)
    S5 = rots[0].domain
    ok = True
    details = ""
    for j in range(5):
        for k in range(5):
            d = homotopic(rots[j], rots[k])
            if not d or not verify_homotopy(d.table(), rots[j], rots[k]):
                ok, details = False, f"rotation pair ({j},{k})"
            if j != k and strongly_homotopic(rots[j], rots[k]):
                ok, details = False, f"strongly related rotations ({j},{k})"
    ident = identity_map(S5)
    if homotopic(ident, constant_map(S5, S5, S5.points[0])):
        ok, details = False, "identity deformed to a constant on the 5-cycle"
    comp = build_function_graph(S5, S5, PHI).component_of(ident)
    rot_idx = {build_function_graph(S5, S5, PHI).index_of(r) for r in rots}
    if comp != rot_idx:
        ok, details = False, "identity component is not exactly the rotations"
    out.append(CheckResult("cycle-rotation-homotopy", ok, details))

    contract_viol = []
    for _ in range(samples // 10):
        X = random_connected_image(rng, max_points + 1)
        if is_contractible(X):
            graph = gm.as_finite_graph(build_function_graph(X, X, PHI))
            if not gm.is_connected_graph(graph):
                contract_viol.append(X)
    out.append(_claim("contractible-gives-connected-selfmap-graph", contract_viol))

    lift_viol = []
    for _ in range(samples // 20):
        X = random_connected_image(rng, max_points)
        Y = random_connected_image(rng, max_points)
        maps = enumerate_continuous_maps(X, Y)
        f = rng.choice(maps)
        d = homotopic(f, rng.choice(maps))
        if not d:
            continue
        H = d.table()
        g = H.slices[-1]
        for kind in ("full", "connected"):
            lifted = lift_homotopy_to_hyperspace(H, kind)
            fs = induced_map(f, lifted.domain, codomain_family=lifted.codomain)
            gs = induced_map(g, lifted.domain, codomain_family=lifted.codomain)
            if not verify_homotopy(lifted, fs, gs):
                lift_viol.append((kind, f, g))
        if all(h.row[0] == f.row[0] for h in H.slices):
            lifted = lift_homotopy_to_hyperspace(H, "connected")
            if not verify_homotopy(lifted,
                                   induced_map(f, lifted.domain, codomain_family=lifted.codomain),
                                   induced_map(g, lifted.domain, codomain_family=lifted.codomain),
                                   fixed_point=lifted.domain._mask_index[1]):
                lift_viol.append(("pointed", f, g))
    out.append(_claim("deformation-lifts-to-hyperspace", lift_viol))

    post_viol = []
    for _ in range(samples // 20):
        W = random_connected_image(rng, max_points)
        X = random_image(rng, max_points)
        Y = random_image(rng, max_points)
        f = random_continuous_function(rng, X, Y)
        fstar = postcompose_map(f, W)
        if not is_continuous(fstar):
            post_viol.append(("discontinuous", f))
        Z = random_image(rng, max_points)
        g = random_continuous_function(rng, Y, Z)
        gf_star = postcompose_map(compose(g, f), W)
        star_gf = compose(postcompose_map(g, W), fstar)
        if gf_star != star_gf:
            post_viol.append(("composition", f, g))
    out.append(_claim("postcomposition-continuity-and-functor", post_viol))

    retract_viol = []
    for _ in range(samples // 20):
        a, c, b = sorted(rng.sample(range(0, 6), 3))
        Y, W = interval(a, b), interval(a, c)
        X = random_connected_image(rng, max_points)
        r = FiniteFunction(Y, W, tuple((p, (min(p[0], c),)) for p in Y.points))
        incl = FiniteFunction(W, Y, tuple((p, p) for p in W.points))
        YX = build_function_graph(X, Y, PHI)
        table = {F: compose(incl, compose(r, F)) for F in YX.vertices}
        T = FiniteFunction(YX, YX, tuple(table.items()))
        if not is_continuous(T):
            retract_viol.append(("discontinuous", r, X))
        wmask = Y.mask_of(W.points)
        w_valued = {i for i, row in enumerate(YX.rows) if all(wmask >> v & 1 for v in row)}
        if any(T.row[i] != i for i in w_valued):
            retract_viol.append(("moves-fixed-function", r, X))
        if not w_valued.issuperset(T.row):
            retract_viol.append(("image-escapes", r, X))
    out.append(_claim("retract-lifts-to-function-graph", retract_viol))

    equiv_ok = True
    X, Ypt = interval(0, 2), interval(0, 0)
    f = constant_map(X, Ypt, (0,))
    g = constant_map(Ypt, X, (0,))
    gf = compose(g, f)
    idX = identity_map(X)
    steps = [idX]
    while steps[-1] != gf:
        nxt = {x: (max(y[0] - 1, 0),) for x, y in steps[-1].pairs}
        steps.append(FiniteFunction.from_table(X, X, nxt))
    H1 = HomotopyTable(X, X, tuple(steps))
    H2 = HomotopyTable(Ypt, Ypt, (identity_map(Ypt),))
    if not verify_homotopy(H1, idX, gf) or not verify_homotopy(H2, identity_map(Ypt),
                                                               compose(f, g)):
        equiv_ok = False
    for kind in ("full", "connected"):
        L1 = lift_homotopy_to_hyperspace(H1, kind)
        fs = induced_map(f, L1.domain, codomain_family=lift_homotopy_to_hyperspace(H2, kind).domain)
        gs = induced_map(g, fs.codomain, codomain_family=L1.domain)
        if not verify_homotopy(L1, identity_map(L1.domain), compose(gs, fs)):
            equiv_ok = False
        L2 = lift_homotopy_to_hyperspace(H2, kind)
        if not verify_homotopy(L2, identity_map(L2.domain), compose(fs, gs)):
            equiv_ok = False
    out.append(CheckResult("homotopy-equivalence-lifts-to-hyperspaces", equiv_ok))
    return out


def suite_connectivity(rng, max_points=7, samples=200) -> list[CheckResult]:
    out = []

    iff_viol = []
    corr_viol = []
    for _ in range(samples):
        X = random_image(rng, max_points)
        K = enumerate_connected_subsets(X)
        G = gm.as_finite_graph(hyperspace_graph(K))
        if X.is_connected() != gm.is_connected_graph(G):
            iff_viol.append(X)
        partition_graph = sorted(sorted(c) for c in gm.connected_components(G))
        partition_image = sorted([i for i, m in enumerate(K.masks) if m & c]
                                 for c in map(X.mask_of, X.components()))
        if partition_graph != partition_image:
            corr_viol.append(X)
    out.append(_claim("connectivity-lifting-iff", iff_viol, f"{samples} samples"))
    out.append(_claim("component-correspondence", corr_viol))

    union_viol = []
    path_viol = []
    for _ in range(samples // 4):
        X = random_connected_image(rng, min(max_points, 5))
        K = enumerate_connected_subsets(X)
        G = gm.as_finite_graph(hyperspace_graph(K))
        start = rng.randrange(len(K))
        seen = {start}
        frontier = [start]
        size = rng.randint(1, len(K))
        while frontier and len(seen) < size:
            nxt = sorted({j for i in frontier for j in G.neighbors(i)} - seen)
            if not nxt:
                break
            pick = rng.choice(nxt)
            seen.add(pick)
            frontier.append(pick)
        W = [K.members[i] for i in sorted(seen)]
        U = union_of_family(W)  # the flood and the pairwise-path oracle must agree
        if not (X.is_connected_subset(U) and oracle_pairwise_connected(U, X)):
            union_viol.append((X, W))
        A = rng.choice(K.members)
        KA = enumerate_connected_subsets(X.restrict(A))
        GA = gm.as_finite_graph(hyperspace_graph(KA))
        dist = gm.bfs_distances(GA, KA.index_of(frozenset((min(A),))))
        if dist[KA.index_of(A)] is None:
            path_viol.append((X, A))
    out.append(_claim("union-of-close-connected-subfamily", union_viol))
    out.append(_claim("singleton-reaches-every-member", path_viol))

    cut_viol = []
    checked = 0
    for _ in range(samples // 4):
        X = random_connected_image(rng, max_points)
        if len(X) < 3:
            continue
        K = enumerate_connected_subsets(X)
        G = gm.as_finite_graph(hyperspace_graph(K))
        for ymask in range(1, (1 << len(X)) - 1):
            Y = [X.points[i] for i in range(len(X)) if ymask >> i & 1]
            if not gm.disconnects(Y, X):
                continue
            checked += 1
            keep = [i for i, m in enumerate(K.masks) if not m & ymask]
            sub = gm.induced_subgraph(G, keep)
            if gm.is_connected_graph(sub):
                cut_viol.append((X, Y))
    out.append(_claim("disconnection-lifting", cut_viol, f"{checked} cuts checked"))
    return out


def suite_multivalued(rng, max_points=5, samples=200) -> list[CheckResult]:
    out = []
    smaller = max(1, max_points - 1)  # the cap of the claims that draw smaller images

    X, Y = interval(0, 1), interval(0, 2)
    F = MultiFunction.from_table(X, Y, {(0,): {(0,)}, (1,): {(1,), (2,)}})
    egs = is_egs_continuous(F, 3)
    ladder_ok = (has_weak_continuity(F) and not has_strong_continuity(F)
                 and is_connectivity_preserving(F) and egs.found and egs.r == 2
                 and generates(egs.generator, F, Subdivision(X, 2))
                 and not is_continuous(induced_multifunction_map(F, "full")))
    out.append(CheckResult("weak-not-strong-ladder-example", ladder_ok))

    impl_viol = []
    seen_nonstrong_weak = False
    sample = [F]  # the named example keeps the non-implication witnessed
    sample.extend(random_multifunction(rng, random_image(rng, max_points),
                                       random_image(rng, max_points))
                  for _ in range(samples))
    local_viol = []
    for M in sample:
        weak = has_weak_continuity(M)
        strong = has_strong_continuity(M)
        cp = is_connectivity_preserving(M)
        if cp != oracle_connectivity_preserving(M):
            local_viol.append(M)
        if strong and not weak:
            impl_viol.append(("strong-without-weak", M))
        if cp and not weak:
            impl_viol.append(("cp-without-weak", M))
        if weak and cp and not strong:
            seen_nonstrong_weak = True
    if not seen_nonstrong_weak:
        impl_viol.append(("no weak+cp+non-strong sample found", None))
    out.append(_claim("continuity-implication-lattice", impl_viol, f"{samples} samples"))
    out.append(_claim("connectivity-preserving-iff-local-test", local_viol))

    strong_viol = []
    produced = 0
    attempts = 0
    while produced < samples and attempts < 20 * samples:
        attempts += 1
        A = random_image(rng, smaller)
        B = random_image(rng, smaller)
        if attempts % 2:
            M = as_multifunction(random_continuous_function(rng, A, B))
        else:
            M = random_multifunction(rng, A, B)
            if not has_strong_continuity(M):
                continue
        produced += 1
        if not is_continuous(induced_multifunction_map(M, "full")):
            strong_viol.append(M)
        try:
            lifted = induced_multifunction_map(M, "connected")
        except ValueError:
            lifted = None  # some connected member has a disconnected image
        if lifted is not None and not is_continuous(lifted):
            strong_viol.append(("connected", M))
    out.append(_claim("strong-continuity-lifts", strong_viol, f"{produced} samples"))

    sub_viol = []
    for _ in range(samples // 10):
        A = random_image(rng, smaller)
        r = rng.randint(1, 3)
        if len(A) * r ** A.dim > 64:
            continue
        S = Subdivision(A, r)
        if len(S.image) != len(A) * r ** A.dim:
            sub_viol.append((A, r))
        if r == 1 and S.image.points != tuple(A.points):
            sub_viol.append((A, "identity"))
    out.append(_claim("subdivision-cardinality", sub_viol))
    return out


def suite_cycles(rng, max_points=6, samples=100) -> list[CheckResult]:
    out = []

    iff_viol = []
    for _ in range(samples):
        X = random_image(rng, max_points)
        K = enumerate_connected_subsets(X)
        G = gm.as_finite_graph(hyperspace_graph(K))
        w = gm.girth(G)
        has_nonisolated = any(X.neighbors(p) for p in X.points)
        if has_nonisolated != (w is not None and w.length == 3):
            iff_viol.append(X)
        if not has_nonisolated and w is not None:
            iff_viol.append(("isolated-but-cyclic", X))
    out.append(_claim("three-cycle-iff-nonisolated", iff_viol, f"{samples} samples"))

    six_viol = []
    for _ in range(samples // 2):
        X = random_image(rng, max_points)
        found = None
        for x in X.points:
            nb = sorted(X.neighbors(x))
            for i, u in enumerate(nb):
                for v in nb[i + 1:]:
                    if not X.adjacent(u, v):
                        found = (x, u, v)
                        break
                if found:
                    break
            if found:
                break
        if not found:
            continue
        x, u, v = found
        K = enumerate_connected_subsets(X)
        G = gm.as_finite_graph(hyperspace_graph(K))
        seq = [frozenset(s) for s in
               ({u}, {u, x}, {u, x, v}, {x, v}, {v}, {x})]
        idx = [K.index_of(s) for s in seq]
        if not gm.is_valid_cycle(G, idx):
            six_viol.append((X, found))
        if G.n <= 16:
            w = gm.longest_cycle(G, budget=16)
            if w is None or w.length < 6:
                six_viol.append(("long-cycle-shorter-than-six", X))
    out.append(_claim("six-cycle-from-nonadjacent-neighbors", six_viol))

    fam = enumerate_all_subsets(interval(1, 4))
    G = gm.as_finite_graph(hyperspace_graph(fam))
    w = gm.longest_cycle(G)
    listed = [{1, 2}, {1, 2, 3}, {1, 3}, {1, 4}, {1, 3, 4}, {1, 2, 4},
              {1, 2, 3, 4}, {2, 3, 4}, {2, 3}, {2, 4}, {3, 4}, {4}, {3}, {2}, {1}]
    idx = [fam.index_of(frozenset((v,) for v in s)) for s in listed]
    ok = (w is not None and w.length == 15 and gm.is_valid_cycle(G, w.vertices)
          and gm.is_valid_cycle(G, idx))
    out.append(CheckResult("full-hyperspace-spanning-cycle", ok))

    oracle_viol = []
    for _ in range(min(samples // 4, 30)):
        G = random_graph(rng, 8)
        w = gm.longest_cycle(G)
        expect = oracle_longest_cycle(G)
        got = w.length if w is not None else None
        if got != expect:
            oracle_viol.append((G, got, expect))
        if w is not None and not gm.is_valid_cycle(G, w.vertices):
            oracle_viol.append(("invalid-witness", G))
    out.append(_claim("long-cycle-matches-permutation-oracle", oracle_viol))
    return out


def suite_dominating(rng, max_points=5, samples=100) -> list[CheckResult]:
    out = []
    viol = []
    for _ in range(samples):
        X = random_image(rng, max_points)
        fam = enumerate_all_subsets(X)
        G = gm.as_finite_graph(hyperspace_graph(fam))
        GX = gm.as_finite_graph(X)
        n = len(X)
        for dmask in range(1 << n):
            D = [X.points[i] for i in range(n) if dmask >> i & 1]
            lifted = lift_dominating(D, X, family=fam)
            lo = gm.is_dominating([X.point_index[p] for p in D], GX)
            hi = gm.is_dominating(lifted, G)
            if lo != hi:
                viol.append((X, D))
    out.append(_claim("domination-lifting-iff", viol, f"{samples} images, all subsets"))

    mds_viol = []
    for _ in range(samples // 5):
        G = random_graph(rng, 7)
        best = gm.minimum_dominating_set(G)
        if not gm.is_dominating(best, G):
            mds_viol.append(("not-dominating", G))
        size = min(m.bit_count() for m in range(1, 1 << G.n)
                   if gm.is_dominating([i for i in range(G.n) if m >> i & 1], G))
        if len(best) != size:
            mds_viol.append(("not-minimum", G, len(best), size))
    out.append(_claim("minimum-domination-exactness", mds_viol))
    return out


def suite_diameter(rng, max_points=7, samples=200) -> list[CheckResult]:
    bound_viol, ineq_viol = [], []
    for _ in range(samples):
        # the strict bound degenerates to 0 < 0 on one-point images, so the
        # claim is sampled over images with at least one adjacency step
        X = random_connected_image(rng, max_points, min_points=2)
        GX = gm.as_finite_graph(X)
        K = enumerate_connected_subsets(X)
        G = gm.as_finite_graph(hyperspace_graph(K))
        r = gm.radius(GX)
        d = gm.diameter(G)
        if not d < 2 * (len(X) + r - 1):
            bound_viol.append((X, d, r))
        for H in (GX, G):
            rr, dd = gm.radius(H), gm.diameter(H)
            if not rr <= dd <= 2 * rr:
                ineq_viol.append((X, rr, dd))
    return [_claim("hyperspace-diameter-bound", bound_viol, f"{samples} samples"),
            _claim("radius-diameter-inequalities", ineq_viol)]


def suite_hausdorff(rng, max_points=6, samples=40) -> list[CheckResult]:
    """On connected images: distance in 2^X is the Hausdorff distance d_H,
    distance in K(X) is at least d_H, and each family's eccentricity bounds
    are the BFS eccentricities on 2^X and never exceed them on K(X)."""
    viol = {kind: ([], []) for kind in ("full", "connected")}
    for _ in range(samples):
        X = random_connected_image(rng, max_points)
        for family in (enumerate_all_subsets(X), enumerate_connected_subsets(X)):
            G = gm.as_finite_graph(hyperspace_graph(family))
            dists = [gm.bfs_distances(G, v) for v in range(G.n)]
            eccs = tuple(map(max, dists))
            full = family.kind == "full"
            dist_viol, bound_viol = viol[family.kind]
            for _ in range(20):
                i, j = rng.randrange(G.n), rng.randrange(G.n)
                d, dh = dists[i][j], hausdorff_distance(X, family.masks[i], family.masks[j])
                if (d != dh) if full else (d < dh):
                    dist_viol.append((X, i, j, d, dh))
            lower, upper = family.eccentricity_bounds()
            if full:
                held = lower == upper == eccs
            else:
                held = upper is None and all(lo <= e for lo, e in zip(lower, eccs))
            if not held:
                bound_viol.append((X, family.kind))
    return [_claim(name, found, f"{samples} samples")
            for name, found in (("full-distance-is-hausdorff", viol["full"][0]),
                                ("connected-distance-at-least-hausdorff", viol["connected"][0]),
                                ("full-eccentricity-closed-form", viol["full"][1]),
                                ("connected-eccentricity-lower-bound", viol["connected"][1]))]


SUITES = {
    "cardinality": suite_cardinality,
    "induced": suite_induced,
    "homotopy": suite_homotopy,
    "connectivity": suite_connectivity,
    "multivalued": suite_multivalued,
    "cycles": suite_cycles,
    "dominating": suite_dominating,
    "diameter": suite_diameter,
    "hausdorff": suite_hausdorff,
}


def run_suites(names, seed: int = 0, max_points=None, samples=None) -> list[CheckResult]:
    """Each named suite's claims as ``suite/claim`` results.  A suite draws
    from its own seeded generator; ``max_points`` and ``samples`` override
    the defaults in every suite's signature."""
    sizes = {k: v for k, v in (("max_points", max_points), ("samples", samples)) if v is not None}
    if any(v < 1 for v in sizes.values()):
        raise ValueError("max_points and samples must be positive integers")
    if "all" in names:
        names = list(SUITES)
    results = []
    for name in names:
        if name not in SUITES:
            raise ValueError(f"unknown suite {name!r} (choose from {', '.join(SUITES)})")
        rng = random.Random(f"{seed}:{name}")
        results.extend(CheckResult(f"{name}/{r.name}", r.passed, r.details)
                       for r in SUITES[name](rng, **sizes))
    return results
