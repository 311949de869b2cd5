"""Job templates for the three workloads, each with its independent answer.

A template is one CLI invocation (or one verify suite) plus the documents
it reads and a checker for its output.  The benchmark cycles through a
seed's templates; every run of a template translates its documents by a
fresh offset, so no image is seen twice and digitop's function-graph cache
misses across jobs, as it does in a fresh CLI process.  Answers are
translation-invariant, so each template's oracle runs once.
"""

from __future__ import annotations

import json
import random
import re

import oracle as orc

VERIFY_SUITES = ("cardinality", "induced", "homotopy", "connectivity",
                 "multivalued", "cycles", "dominating", "diameter")
VERIFY_SAMPLES = 20
BAND_TRIES = 2000  # shapes drawn before a band is given up


class Template:
    """One job shape: argv with {doc} placeholders, documents, and a checker.

    ``check(out, rc, docs, off)`` gets the captured stdout, the exit code,
    the translated documents and the offset; it returns None or a reason.
    """

    def __init__(self, kind, argv, docs, check):
        self.kind = kind
        self.argv = argv
        self.docs = docs
        self.check = check


# -- shapes -------------------------------------------------------------------

_STEPS = {1: ((1, 0), (-1, 0), (0, 1), (0, -1)),
          2: ((1, 0), (-1, 0), (0, 1), (0, -1), (1, 1), (1, -1), (-1, 1), (-1, -1))}


def blob(rng, n, u):
    """A connected 2-D image of n points grown by random c_u steps."""
    pts = {(0, 0)}
    while len(pts) < n:
        p = rng.choice(sorted(pts))
        d = rng.choice(_STEPS[u])
        pts.add((p[0] + d[0], p[1] + d[1]))
    return orc.Image(pts, u)


def shape(rng, lo, hi, interval_share=0.2):
    """A 1-D interval or a 2-D c1/c2 blob of lo..hi points."""
    n = rng.randint(lo, hi)
    if rng.random() < interval_share:
        return orc.Image([(i,) for i in range(n)], 1)
    return blob(rng, n, rng.choice((1, 2)))


def banded(rng, make, measure, lo, hi):
    """Draw shapes until measure(shape) lies in [lo, hi]."""
    for _ in range(BAND_TRIES):
        s = make()
        if lo <= measure(s) <= hi:
            return s
    raise RuntimeError(f"no shape with measure in [{lo}, {hi}]")


def connected_count(img):
    """K(X) member count by growing each set from its smallest point.

    Used only to pick shapes of a given size; the answers that outputs are
    checked against come from the power-set scan in ``oracle.Image.members``.
    """
    nbr, count = img.nbr, 0
    for v in range(len(img)):
        above = ~((1 << (v + 1)) - 1)
        stack = [(nbr[v] & above, nbr[v] | (1 << v))]
        while stack:
            ext, seen = stack.pop()
            count += 1
            while ext:
                low = ext & -ext
                ext ^= low
                w = low.bit_length() - 1
                stack.append((ext | (nbr[w] & above & ~seen), seen | nbr[w] | low))
    return count


def scan_work(img):
    """N^2 / 2 + 4E of K(X): the cost scale of building and checking its graph."""
    n = connected_count(img)
    if not 250 <= n <= 400:  # far outside the band: skip the pair scan
        return 0
    G = orc.hyperspace_graph(img, "connected")
    return n * n // 2 + 4 * G.edge_count


def bfs_work(img):
    """N * (N + 2E) of the K(X) graph: the cost scale of all-pairs BFS."""
    G = orc.hyperspace_graph(img, "connected")
    return G.n * (G.n + 2 * G.edge_count)


# -- output parsing -----------------------------------------------------------

_NODE = re.compile(r'^  n(\d+) \[label="(.*)"\];$')
_EDGE = re.compile(r"^  n(\d+) -- n(\d+)( \[style=bold color=red\])?;$")


def parse_dot(text):
    lines = text.splitlines()
    if not lines or lines[0] != "graph G {" or lines[-1] != "}":
        raise ValueError("not a DOT graph")
    labels, edges, bold = {}, [], []
    for line in lines[1:-1]:
        m = _NODE.match(line)
        if m:
            labels[int(m.group(1))] = m.group(2)
            continue
        m = _EDGE.match(line)
        if not m:
            raise ValueError(f"bad DOT line {line!r}")
        e = (int(m.group(1)), int(m.group(2)))
        edges.append(e)
        if m.group(3):
            bold.append(e)
    return labels, edges, bold


def _vertices(G, labels, off):
    """Oracle vertex ids of printed labels, un-translated."""
    return [G.vertex_of[orc.shift_label(orc.parse_label(lab), off)] for lab in labels]


def _dot_problem(G, out, off, cycle_len=None):
    labels, edges, bold = parse_dot(out)
    if sorted(labels) != list(range(G.n)):
        return "DOT node ids are not 0..n-1"
    vid = dict(zip(labels, _vertices(G, [labels[i] for i in labels], off)))
    if len(set(vid.values())) != G.n:
        return "DOT labels are not the vertices"
    got = {tuple(sorted((vid[i], vid[j]))) for i, j in edges}
    if len(edges) != len(got) or got != G.edge_set():
        return "DOT edges differ from the oracle's"
    if cycle_len is not None:
        hot = [(vid[i], vid[j]) for i, j in bold]
        if len(hot) != cycle_len:
            return f"highlight has {len(hot)} edges, expected {cycle_len}"
        if hot and not _edges_form_cycle(hot):
            return "highlight is not one cycle"
    return None


def _edges_form_cycle(edges):
    deg = {}
    for i, j in edges:
        deg[i] = deg.get(i, 0) + 1
        deg[j] = deg.get(j, 0) + 1
    if any(d != 2 for d in deg.values()):
        return False
    nbrs = {}
    for i, j in edges:
        nbrs.setdefault(i, []).append(j)
        nbrs.setdefault(j, []).append(i)
    start = edges[0][0]
    seen, stack = {start}, [start]
    while stack:
        for w in nbrs[stack.pop()]:
            if w not in seen:
                seen.add(w)
                stack.append(w)
    return len(seen) == len(deg)


# -- views -----------------------------------------------------------------------


def _hyperspace(img, kind, fmt):
    G = orc.hyperspace_graph(img, kind)

    def check(out, rc, docs, off):
        if rc != 0:
            return f"exit {rc}"
        if fmt == "text":
            want = f"kind: {kind}\nvertices: {G.n}\nedges: {G.edge_count}\n"
            return None if out == want else "hyperspace counts differ"
        if fmt == "dot":
            return _dot_problem(G, out, off)
        doc = json.loads(out)
        if (doc["kind"], doc["vertices"], doc["edges"]) != (kind, G.n, G.edge_count):
            return "hyperspace counts differ"
        members = {frozenset(orc.shift_label(tuple(p), off) for p in m) for m in doc["members"]}
        if len(doc["members"]) != G.n or members != set(G.labels):
            return "hyperspace members differ"
        return None

    return Template(f"hyperspace/{kind}/{fmt}",
                    ["hyperspace", "--input", "{img}", "--kind", kind, "--format", fmt],
                    {"img": img.doc()}, check)


def _metrics(img, view, fmt):
    G = orc.view_graph(img, view)
    eccs = G.eccentricities()
    rad, diam = min(eccs), max(eccs)

    def check(out, rc, docs, off):
        if rc != 0:
            return f"exit {rc}"
        if fmt == "csv":
            lines = out.splitlines()
            if lines[0] != "vertex,label,degree,eccentricity" or len(lines) != G.n + 1:
                return "CSV shape differs"
            seen = set()
            for line in lines[1:]:
                v, rest = line.split(",", 1)
                label, deg, ecc = rest.rsplit(",", 2)
                w = _vertices(G, [label.strip('"')], off)[0]
                seen.add(w)
                if (int(deg), int(ecc)) != (G.degree(w), eccs[w]):
                    return f"CSV row {v} differs"
            return None if len(seen) == G.n else "CSV vertices repeat"
        doc = json.loads(out)
        if (doc["vertices"], doc["edges"], doc["radius"], doc["diameter"]) != \
                (G.n, G.edge_count, rad, diam):
            return "metrics differ"
        if set(_vertices(G, doc["center"], off)) != {v for v in range(G.n) if eccs[v] == rad}:
            return "center differs"
        if sorted(doc["eccentricity"].values()) != sorted(eccs):
            return "eccentricities differ"
        return None

    return Template(f"metrics/{view}/{fmt}",
                    ["metrics", "--input", "{img}", "--view", view, "--format", fmt],
                    {"img": img.doc()}, check)


def _girth(img, view, fmt):
    G = orc.view_graph(img, view)
    short, longest = G.girth(), G.longest_cycle()

    def cycle_problem(labels, want, off):
        seq = _vertices(G, labels, off)
        if len(seq) != want or not G.is_cycle(seq):
            return f"cycle witness is not a {want}-cycle"
        return None

    def check(out, rc, docs, off):
        if rc != 0:
            return f"exit {rc}"
        if fmt == "text":
            if short == 0:
                return None if out == "acyclic\n" else "expected acyclic"
            lines = out.splitlines()
            if lines[:2] != [f"girth: {short}", f"long cycle: {longest}"]:
                return "cycle lengths differ"
            return cycle_problem(lines[2].split(": ", 1)[1].split(" "), longest, off)
        doc = json.loads(out)
        if short == 0:
            return None if doc == {"girth": None, "long_cycle": None} else "expected acyclic"
        return (cycle_problem(doc["girth"]["vertices"], short, off)
                or cycle_problem(doc["long_cycle"]["vertices"], longest, off))

    return Template(f"girth/{view}/{fmt}",
                    ["girth", "--input", "{img}", "--view", view, "--format", fmt],
                    {"img": img.doc()}, check)


def _dominate(img, view, fmt):
    G = orc.view_graph(img, view)
    k = G.domination_number()

    def check(out, rc, docs, off):
        if rc != 0:
            return f"exit {rc}"
        if fmt == "json":
            doc = json.loads(out)
            size, labels = doc["size"], doc["vertices"]
        else:
            lines = out.splitlines()
            size = int(lines[0].rsplit(": ", 1)[1])
            labels = lines[1].split(": ", 1)[1].split(" ")
        vs = _vertices(G, labels, off)
        if size != k or len(set(vs)) != k:
            return f"dominating set size {size}, expected {k}"
        return None if G.dominates(vs) else "set does not dominate"

    return Template(f"dominate/{view}/{fmt}",
                    ["dominate", "--input", "{img}", "--view", view, "--format", fmt],
                    {"img": img.doc()}, check)


def _export_dot(img, view, highlight):
    G = orc.view_graph(img, view)
    want = G.girth() if highlight == "girth" else G.longest_cycle()

    def check(out, rc, docs, off):
        if rc != 0:
            return f"exit {rc}"
        return _dot_problem(G, out, off, cycle_len=want)

    return Template(f"export-dot/{view}/{highlight}",
                    ["export-dot", "--input", "{img}", "--view", view, "--highlight", highlight],
                    {"img": img.doc()}, check)


def views(seed):
    """120 templates mixing every view verb in four cost strata.

    40 light jobs (image view, small hyperspaces), 36 `hyperspace --format
    json` jobs that hold the median, 24 medium and 20 heavy ones that hold
    the 90th percentile.  Each template's size lies in a narrow band of a
    work measure, so seeds differ in shapes but hardly in load.

    The counts are not a measured traffic mix.  They were set so that each
    percentile falls inside one narrow stratum, since a percentile on the
    boundary of two strata jumps from seed to seed.  Every end-to-end run
    prints the measured time share of each verb and view.
    """
    rng = random.Random(f"views:{seed}")
    out = []

    def conn(lo_n, hi_n, lo, hi, measure=connected_count):
        return banded(rng, lambda: shape(rng, lo_n, hi_n), measure, lo, hi)

    # light
    for fmt in ("json",) * 6 + ("csv",) * 4:
        out.append(_metrics(shape(rng, 6, 13), "image", fmt))
    for fmt in ("json", "text") * 3:
        out.append(_girth(shape(rng, 6, 13), "image", fmt))
    for fmt in ("json", "text") * 2:
        out.append(_dominate(shape(rng, 6, 13), "image", "text"))
        out.append(_export_dot(shape(rng, 6, 13), "image", "long-cycle"))
        out.append(_hyperspace(shape(rng, 4, 4), "full", "dot"))
        out.append(_girth(conn(3, 5, 8, 12), "connected", fmt))
        out.append(_dominate(conn(4, 7, 15, 40), "connected", fmt))
        out.append(_export_dot(conn(4, 7, 15, 40), "connected", "girth"))
    # the median
    for _ in range(36):
        out.append(_hyperspace(conn(6, 10, 40, 60), "connected", "json"))
    # medium
    for _ in range(8):
        out.append(_hyperspace(shape(rng, 7, 7), "full", "text"))
        out.append(_metrics(conn(4, 8, 15_000, 22_000, bfs_work), "connected", "csv"))
    for fmt in ("json", "csv") * 4:
        out.append(_metrics(shape(rng, 5, 5), "full", fmt))
    # heavy
    for _ in range(10):
        out.append(_hyperspace(conn(8, 13, 140_000, 170_000, scan_work), "connected", "text"))
        out.append(_metrics(conn(5, 9, 60_000, 80_000, bfs_work), "connected", "json"))
    return out


# -- checks ------------------------------------------------------------------------


def _contractible(img):
    answer = orc.contractible(img)

    def check(out, rc, docs, off):
        want = f"contractible: {'true' if answer else 'false'}\n"
        if rc != (0 if answer else 1) or out != want:
            return f"exit {rc}, {out!r}; expected {want!r}"
        return None

    return Template("check/contractible", ["check", "contractible", "--input", "{img}"],
                    {"img": img.doc()}, check)


def _function_doc(X, Y, values):
    return {"domain": X.doc(), "codomain": Y.doc(),
            "pairs": [[list(p), list(Y.points[v])] for p, v in zip(X.points, values)]}


def _homotopic(X, Y, f, g, strong):
    name = "strongly-homotopic" if strong else "homotopic"
    related = orc.homotopy_distance(X, Y, f, g, strong) is not None

    def check(out, rc, docs, off):
        doc = json.loads(out)
        if doc["verdict"] is not related or rc != (0 if related else 1):
            return f"verdict {doc['verdict']}, expected {related}"
        if not related:
            return None if doc["witness"] is None else "witness on a false verdict"
        Xt, Yt = orc.image_from_doc(docs["pair"]["f"]["domain"]), \
            orc.image_from_doc(docs["pair"]["f"]["codomain"])
        ft = orc.function_values(Xt, Yt, docs["pair"]["f"]["pairs"])
        gt = orc.function_values(Xt, Yt, docs["pair"]["g"]["pairs"])
        wit = doc["witness"]
        if wit["m"] != len(wit["slices"]) - 1:
            return "witness m does not match its slices"
        slices = [orc.function_values(Xt, Yt, s["pairs"]) for s in wit["slices"]]
        return orc.check_step_table(Xt, Yt, slices, ft, gt, strong)

    pair = {"f": _function_doc(X, Y, f), "g": _function_doc(X, Y, g)}
    return Template(f"check/{name}", ["check", name, "--input", "{pair}", "--format", "json"],
                    {"pair": pair}, check)


def _multi_doc(X, Y, F):
    return {"domain": X.doc(), "codomain": Y.doc(),
            "pairs": [[list(p), [list(Y.points[v]) for v in orc.bits(m)]]
                      for p, m in zip(X.points, F)]}


def _egs(X, Y, F, r_max):
    r_min = next((r for r in range(1, r_max + 1) if orc.has_generator(X, Y, F, r)), None)

    def check(out, rc, docs, off):
        doc = json.loads(out)
        if doc["verdict"] is not (r_min is not None) or rc != (0 if r_min else 1):
            return f"verdict {doc['verdict']}, expected r={r_min}"
        if r_min is None:
            return None if doc["witness"] == {"r_max": r_max} else "bad negative witness"
        if doc["witness"]["r"] != r_min:
            return f"generator at r={doc['witness']['r']}, smallest is {r_min}"
        mf = docs["mf"]
        Xt, Yt = orc.image_from_doc(mf["domain"]), orc.image_from_doc(mf["codomain"])
        Ft = [sum(1 << Yt.index[tuple(v)] for v in vals) for _, vals in
              sorted((tuple(x), vals) for x, vals in mf["pairs"])]
        return orc.check_generator(Xt, Yt, Ft, r_min, doc["witness"]["generator"])

    return Template("check/egs-continuous",
                    ["check", "egs-continuous", "--input", "{mf}", "--r-max", str(r_max),
                     "--format", "json"], {"mf": _multi_doc(X, Y, F)}, check)


def _connectivity_preserving(X, Y, F):
    answer = orc.preserves_connectivity(X, Y, F)

    def check(out, rc, docs, off):
        want = f"connectivity-preserving: {'true' if answer else 'false'}\n"
        if rc != (0 if answer else 1) or out != want:
            return f"{out!r}; expected {want!r}"
        return None

    return Template("check/connectivity-preserving",
                    ["check", "connectivity-preserving", "--input", "{mf}"],
                    {"mf": _multi_doc(X, Y, F)}, check)


def _continuity(X, Y, values):
    answer = orc.continuous(X, Y, values)

    def check(out, rc, docs, off):
        doc = json.loads(out)
        if doc["verdict"] is not answer or rc != (0 if answer else 1):
            return f"verdict {doc['verdict']}, expected {answer}"
        if answer:
            return None if doc["witness"] is None else "witness on a true verdict"
        fd = docs["f"]
        Xt, Yt = orc.image_from_doc(fd["domain"]), orc.image_from_doc(fd["codomain"])
        vals = orc.function_values(Xt, Yt, fd["pairs"])
        i, j = Xt.index[tuple(doc["witness"]["x"])], Xt.index[tuple(doc["witness"]["x_prime"])]
        if not Xt.nbr[i] >> j & 1 or Yt.closed[vals[i]] >> vals[j] & 1:
            return "counterexample pair does not break continuity"
        return None

    return Template("check/continuity", ["check", "continuity", "--input", "{f}", "--format", "json"],
                    {"f": _function_doc(X, Y, values)}, check)


def _family_doc(img, kind, masks):
    return {"base": img.doc(), "kind": kind,
            "members": [[list(p) for p in sorted(img.member_set(m))] for m in masks]}


def _image_mask(values, m):
    out = 0
    for i in orc.bits(m):
        out |= 1 << values[i]
    return out


def _induced_by(X, Y, kind, table):
    """table maps each member mask of X's family to a member mask of Y's."""
    dom, cod = X.members(kind), Y.members(kind)
    found = any(orc.continuous(X, Y, vals) and all(_image_mask(vals, m) == table[m] for m in dom)
                for vals in orc.continuous_maps(X, Y))

    def check(out, rc, docs, off):
        doc = json.loads(out)
        if doc["verdict"] is not found or rc != (0 if found else 1):
            return f"verdict {doc['verdict']}, expected {found}"
        if not found:
            return None if doc["witness"] is None else "witness on a false verdict"
        wit, ff = doc["witness"], docs["ff"]
        Xt = orc.image_from_doc(ff["domain"]["base"])
        Yt = orc.image_from_doc(ff["codomain"]["base"])
        vals = orc.function_values(Xt, Yt, wit["pairs"])
        if not orc.continuous(Xt, Yt, vals):
            return "inducing map is not continuous"
        for a, b in ff["pairs"]:
            if _image_mask(vals, sum(1 << Xt.index[tuple(p)] for p in a)) != \
                    sum(1 << Yt.index[tuple(p)] for p in b):
                return "inducing map does not induce the family map"
        return None

    ff = {"domain": _family_doc(X, kind, dom), "codomain": _family_doc(Y, kind, cod),
          "pairs": [[[list(p) for p in sorted(X.member_set(m))],
                     [list(p) for p in sorted(Y.member_set(table[m]))]] for m in dom]}
    return Template(f"check/induced-by/{kind}",
                    ["check", "induced-by", "--input", "{ff}", "--format", "json"],
                    {"ff": ff}, check)


def probes(X, Y, maps):
    """Tables pointwise close to some continuous map: the size of the space
    a phi-graph construction walks, used to band the homotopy jobs."""
    total = 0
    for h in maps:
        k = 1
        for v in h:
            k *= orc.popcount(Y.closed[v])
        total += k
    return total


def _map_pair(rng, lo, hi, measure=probes):
    """X of 3-5 points, Y of 4-8 points and two continuous maps X -> Y,
    with measure(X, Y, maps) in lo..hi."""
    for _ in range(BAND_TRIES):
        X = shape(rng, 3, 5)
        Y = shape(rng, 4, 8)
        maps = orc.continuous_maps(X, Y, limit=800)
        if len(maps) > 800 or not lo <= measure(X, Y, maps) <= hi:
            continue
        f = rng.choice(maps)
        if rng.random() < 0.5:
            g = rng.choice(maps)
        else:  # a short random walk keeps g near f, so some pairs relate
            g = f
            for _ in range(rng.randint(1, 4)):
                g = rng.choice(orc.step_neighbours(X, Y, g, False))
        return X, Y, f, g
    raise RuntimeError("no map pair in band")


def map_count(X, Y, maps):
    return len(maps)


def _self_probes(img):
    maps = orc.continuous_maps(img, img, limit=1500)
    return probes(img, img, maps) if len(maps) <= 1500 else 10 ** 9


def _random_multi(rng, X, Y, max_values):
    return [sum(1 << v for v in rng.sample(range(len(Y)), rng.randint(1, min(max_values, len(Y)))))
            for _ in range(len(X))]


def checks(seed):
    """200 single-decision check templates, contractible and homotopy first.

    Contractible and homotopy templates come in strata of probe count (see
    ``probes``) or map count, a fixed number per stratum, so seeds differ in
    shapes but hardly in load; 50 light checks of the other kinds follow.
    The strata are sized so that the median and the 90th percentile each
    fall inside one stratum; like the views strata, the counts are set for
    steady percentiles and are not a measured traffic mix.  Every end-to-end
    run prints the measured time share of each check.
    """
    rng = random.Random(f"checks:{seed}")
    out = []
    strata = (("homotopic", probes, 10_000, 25_000, 15),
              ("strongly", probes, 10_000, 25_000, 15),
              ("homotopic", map_count, 240, 280, 40),   # holds the median
              ("contractible", _self_probes, 50_000, 120_000, 20),
              ("strongly", probes, 35_000, 70_000, 20),
              ("contractible", _self_probes, 120_000, 250_000, 40))  # holds p90
    for kind, measure, lo, hi, count in strata:
        for _ in range(count):
            if kind == "contractible":
                out.append(_contractible(banded(rng, lambda: shape(rng, 4, 7), measure, lo, hi)))
            else:
                out.append(_homotopic(*_map_pair(rng, lo, hi, measure), kind == "strongly"))
    for _ in range(15):
        X = orc.Image([(i,) for i in range(rng.randint(2, 3))], 1)
        Y = shape(rng, 2, 4, interval_share=0.5)
        out.append(_egs(X, Y, _random_multi(rng, X, Y, 2), 3))
    for _ in range(10):
        X, Y = shape(rng, 4, 7), shape(rng, 3, 5)
        out.append(_connectivity_preserving(X, Y, _random_multi(rng, X, Y, 2)))
    for _ in range(15):
        X, Y = shape(rng, 6, 10), shape(rng, 4, 8)
        maps = orc.continuous_maps(X, Y, limit=200)
        vals = list(rng.choice(maps))
        if rng.random() < 0.5:
            vals[rng.randrange(len(X))] = rng.randrange(len(Y))
        out.append(_continuity(X, Y, tuple(vals)))
    for kind in ("connected", "full") * 5:
        X, Y = shape(rng, 2, 3), shape(rng, 2, 3)
        vals = rng.choice(orc.continuous_maps(X, Y))
        table = {m: _image_mask(vals, m) for m in X.members(kind)}
        big = [m for m in table if orc.popcount(m) > 1]
        if big and rng.random() < 0.5:
            table[rng.choice(big)] = rng.choice(Y.members(kind))
        out.append(_induced_by(X, Y, kind, table))
    return out


# -- verify -------------------------------------------------------------------------


def verify_kinds():
    """One job per suite at its default size: the mix `digitop verify all` runs."""
    return [Template(f"verify/{name}", None, {}, None) for name in VERIFY_SUITES]


WORKLOADS = {"views": views, "checks": checks, "verify": lambda seed: verify_kinds()}
