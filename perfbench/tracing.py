"""Per-layer tracing from outside the package.

``Tracer.install`` replaces each public name listed in ``LAYERS`` with a
timing wrapper, in every digitop namespace that holds it (``cli`` and
``verify`` import names by value) and, for methods, on the class.  A
wrapper records a span (layer, start, end, parent span, job id) and adds
the span's self time (its duration minus its child spans) to its layer.
A call made while the innermost open span already belongs to the same
layer runs unwrapped, so a layer's calls count its outermost entries.
"""

from __future__ import annotations

import sys
import time

from workloads import VERIFY_SUITES

# layer name -> (module, attribute path) for every wrapped callable.
LAYERS = {
    "lattice.is_connected": [("lattice", "is_connected")],
    "lattice.neighbors": [("lattice", "DigitalImage.neighbors"), ("lattice", "neighbors")],
    "lattice.components": [("lattice", "DigitalImage.components")],
    "lattice.image_from_json": [("lattice", "image_from_json")],
    "hyperspace.enumerate_connected_subsets": [("hyperspace", "enumerate_connected_subsets")],
    "hyperspace.enumerate_all_subsets": [("hyperspace", "enumerate_all_subsets")],
    "hyperspace.family_from_json": [("hyperspace", "family_from_json")],
    "hyperspace.hyperspace_graph": [("hyperspace", "hyperspace_graph")],
    "graphmetrics.FiniteGraph": [("graphmetrics", "FiniteGraph.__init__")],
    "graphmetrics.as_finite_graph": [("graphmetrics", "as_finite_graph")],
    "graphmetrics.bfs_distances": [("graphmetrics", "bfs_distances")],
    "graphmetrics.metrics": [("graphmetrics", n) for n in
                             ("radius", "diameter", "center", "eccentricity")],
    "graphmetrics.girth": [("graphmetrics", "girth")],
    "graphmetrics.longest_cycle": [("graphmetrics", "longest_cycle")],
    "graphmetrics.minimum_dominating_set": [("graphmetrics", "minimum_dominating_set")],
    "graphmetrics.emit": [("graphmetrics", "to_dot"), ("graphmetrics", "metrics_csv")],
    "cli.main": [("cli", "main")],
    "cli.build_parser": [("cli", "build_parser")],
    "homotopy.enumerate_continuous_maps": [("homotopy", "enumerate_continuous_maps")],
    "homotopy.build_function_graph": [("homotopy", "build_function_graph")],
    "homotopy.search": [("homotopy", n) for n in
                        ("homotopic", "strongly_homotopic", "pointed_homotopic",
                         "is_contractible", "FunctionGraph.find_path",
                         "FunctionGraph.component_of")],
    "homotopy.verify_homotopy": [("homotopy", "verify_homotopy")],
    "homotopy.lift_homotopy_to_hyperspace": [("homotopy", "lift_homotopy_to_hyperspace")],
    "homotopy.postcompose_map": [("homotopy", "postcompose_map")],
    "functions.is_continuous": [("functions", "is_continuous"),
                                ("functions", "continuity_counterexample")],
    "functions.FiniteFunction": [("functions", "FiniteFunction.__init__")],
    "functions.induced_map": [("functions", "induced_map")],
    "functions.find_inducing_map": [("functions", "find_inducing_map")],
    "multivalued.is_egs_continuous": [("multivalued", "is_egs_continuous")],
    "multivalued.continuity": [("multivalued", n) for n in
                               ("has_weak_continuity", "has_strong_continuity",
                                "strong_continuity_counterexample",
                                "is_connectivity_preserving")],
    "multivalued.induced_multifunction_map": [("multivalued", "induced_multifunction_map")],
    "multivalued.generates": [("multivalued", "generates")],
    "verify.oracles": [("verify", n) for n in
                       ("oracle_longest_cycle", "oracle_homotopic", "oracle_pairwise_connected")],
}
for _suite in VERIFY_SUITES:
    LAYERS[f"verify.{_suite}"] = [("verify", f"suite_{_suite}")]

MAX_SPANS = 200_000  # spans kept in memory; later ones are only counted

MODULES = ("lattice", "hyperspace", "graphmetrics", "cli", "homotopy",
           "functions", "multivalued", "verify")


class Tracer:
    """Wraps the layers, keeps spans in memory and sums counts and self time."""

    def __init__(self):
        self.calls = {name: 0 for name in LAYERS}
        self.total = {name: 0.0 for name in LAYERS}
        self.self_time = {name: 0.0 for name in LAYERS}
        self.counts = {}          # extra counters: members, edges, maps, ...
        self.spans = []
        self.span_count = 0
        self.job = -1
        self.bfs_sources = set()  # (graph id, source) pairs of the current job
        self._graphs = {}         # keeps those graphs alive, so ids stay unique
        self._stack = []
        self._undo = []
        self._originals = []

    # -- counters fed from results ----------------------------------------

    def _add(self, key, n):
        self.counts[key] = self.counts.get(key, 0) + n

    def _post(self, name, args, result):
        if name == "hyperspace.enumerate_connected_subsets":
            self._add("connected.members", len(result))
        elif name == "hyperspace.enumerate_all_subsets":
            self._add("full.members", len(result))
        elif name == "hyperspace.hyperspace_graph":
            n = len(args[0])
            self._add("hyper.edges", len(result.edges))
            self._add("hyper.pairs", n * (n - 1) // 2)
        elif name == "graphmetrics.bfs_distances":
            graph, source = args[0], args[1]
            self._graphs[id(graph)] = graph
            self.bfs_sources.add((id(graph), source))
        elif name == "homotopy.enumerate_continuous_maps":
            self._add("maps", len(result))
        elif name == "homotopy.build_function_graph":
            self._add("fgraph.edges", len(result.edges))

    # -- wrapping ------------------------------------------------------------

    def wrap(self, name, fn):
        stack, spans, clock = self._stack, self.spans, time.perf_counter
        post = self._post if name in _POSTED else None
        tracer = self

        def wrapper(*args, **kwargs):
            if stack and stack[-1][0] is name:
                return fn(*args, **kwargs)
            frame = [name, 0.0, tracer.span_count]
            tracer.span_count += 1
            stack.append(frame)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                dur = end - start
                tracer.calls[name] += 1
                tracer.total[name] += dur
                tracer.self_time[name] += dur - frame[1]
                parent = -1
                if stack:
                    stack[-1][1] += dur
                    parent = stack[-1][2]
                if len(spans) < MAX_SPANS:
                    spans.append((frame[2], name, start, end, parent, tracer.job))
            if post is not None:
                post(name, args, result)
            return result

        wrapper.__wrapped__ = fn
        wrapper.__name__ = getattr(fn, "__name__", name)
        return wrapper

    def install(self):
        """Patch every layer; return how many references were replaced."""
        for name, targets in LAYERS.items():
            for module, path in targets:
                mod = sys.modules[f"digitop.{module}"]
                if "." in path:
                    cls_name, attr = path.split(".")
                    cls = getattr(mod, cls_name)
                    original = cls.__dict__[attr]
                    setattr(cls, attr, self.wrap(name, original))
                    self._undo.append((cls, attr, original))
                    self._originals.append(original)
                    continue
                original = getattr(mod, path)
                wrapped = self.wrap(name, original)
                self._originals.append(original)
                for holder in _namespaces():
                    for key, value in list(holder.items()):
                        if value is original:
                            holder[key] = wrapped
                            self._undo.append((holder, key, original))
        return len(self._undo)

    def unpatched(self):
        """References to a wrapped original still left in digitop namespaces."""
        originals = {id(o) for o in self._originals}
        return sum(1 for holder in _namespaces() for value in holder.values()
                   if id(value) in originals)

    def uninstall(self):
        for holder, key, original in reversed(self._undo):
            if isinstance(holder, dict):
                holder[key] = original
            else:
                setattr(holder, key, original)
        self._undo.clear()

    # -- results -------------------------------------------------------------

    def metrics(self):
        """The per-layer metrics this tracer can give on its own."""
        c, st, calls = self.counts, self.self_time, self.calls
        out = {}
        for name in LAYERS:
            if name.startswith("verify.") and name != "verify.oracles":
                out[f"{name}.s"] = (self.total[name], "s")
                continue
            out[f"{name}.self_s"] = (st[name], "s")
            out[f"{name}.calls"] = (calls[name], "count")
        conn = c.get("connected.members", 0)
        out["lattice.is_connected.calls_per_member"] = (
            calls["lattice.is_connected"] / conn if conn else 0.0, "ratio")
        out["hyperspace.enumerate_connected_subsets.members"] = (conn, "count")
        out["hyperspace.enumerate_all_subsets.members"] = (c.get("full.members", 0), "count")
        out["hyperspace.hyperspace_graph.edges"] = (c.get("hyper.edges", 0), "count")
        pairs = c.get("hyper.pairs", 0)
        out["hyperspace.edge_yield"] = (c.get("hyper.edges", 0) / pairs if pairs else 0.0, "ratio")
        sources = c.get("bfs.sources", 0) + len(self.bfs_sources)
        out["graphmetrics.bfs_per_source_vertex"] = (
            calls["graphmetrics.bfs_distances"] / sources if sources else 0.0, "ratio")
        out["homotopy.enumerate_continuous_maps.maps"] = (c.get("maps", 0), "count")
        out["homotopy.build_function_graph.edges"] = (c.get("fgraph.edges", 0), "count")
        decisions = calls["homotopy.search"]
        out["homotopy.maps_per_decision"] = (
            c.get("maps", 0) / decisions if decisions else 0.0, "ratio")
        for module in MODULES:
            out[f"{module}.self_s"] = (sum(st[n] for n in LAYERS if n.split(".")[0] == module), "s")
        out["trace.spans"] = (self.span_count, "count")
        return out

    def new_job(self, job):
        """Start job ``job``; BFS sources are told apart within one job."""
        self._add("bfs.sources", len(self.bfs_sources))
        self.bfs_sources.clear()
        self._graphs.clear()
        self.job = job


_POSTED = {"hyperspace.enumerate_connected_subsets", "hyperspace.enumerate_all_subsets",
           "hyperspace.hyperspace_graph", "graphmetrics.bfs_distances",
           "homotopy.enumerate_continuous_maps", "homotopy.build_function_graph"}


def _namespaces():
    """Every dict in the package that can hold a wrapped name by value."""
    out = [vars(m) for name, m in list(sys.modules.items())
           if m is not None and (name == "digitop" or name.startswith("digitop."))]
    verify = sys.modules.get("digitop.verify")
    if verify is not None:
        out.append(verify.SUITES)
    return out
