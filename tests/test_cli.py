"""Command-line front end: verbs, formats, exit codes, determinism."""

import argparse
import contextlib
import copy
import io
import json
import time

import pytest
from hypothesis import given, settings, strategies as st

import digitop.cli
import digitop.graphmetrics
from digitop import (DigitalImage, FiniteFunction, cycle_image, enumerate_connected_subsets,
                     family_from_json, function_from_json, function_to_json,
                     has_weak_continuity, identity_map, image_from_json, image_to_json,
                     induced_map, interval, is_connectivity_preserving, is_retraction,
                     multifunction_from_json)
from digitop.errors import InternalError
from digitop.functions import family_function_to_json
from digitop.hyperspace import family_of
from digitop.cli import _Members, _dumps, main


def write(tmp_path, name, doc):
    path = tmp_path / name
    path.write_text(json.dumps(doc))
    return str(path)


@pytest.fixture
def img4(tmp_path):
    return write(tmp_path, "img.json", image_to_json(interval(1, 4)))


@pytest.fixture
def remark_docs(tmp_path):
    X = {"dim": 1, "adjacency": "c1", "points": [[0], [1], [2]]}
    f = {"domain": X, "codomain": X,
         "pairs": [[[0], [0]], [[1], [1]], [[2], [2]]]}
    g = {"domain": X, "codomain": X,
         "pairs": [[[0], [1]], [[1], [2]], [[2], [2]]]}
    return (write(tmp_path, "f.json", f),
            write(tmp_path, "g.json", g),
            write(tmp_path, "pair.json", {"f": f, "g": g}))


class TestHyperspace:
    def test_connected_counts(self, img4, capsys):
        assert main(["hyperspace", "--input", img4, "--kind", "connected"]) == 0
        out = capsys.readouterr().out
        assert "vertices: 10" in out

    def test_full_counts_json_round_trip(self, img4, capsys):
        assert main(["hyperspace", "--input", img4, "--kind", "full",
                     "--format", "json"]) == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["vertices"] == 15
        base = image_from_json(json.loads(open(img4).read()))
        reload = family_from_json({"base": image_to_json(base),
                                   "kind": "full", "members": doc["members"]})
        assert len(reload) == 15

    def test_dot_output(self, img4, capsys):
        assert main(["hyperspace", "--input", img4, "--format", "dot"]) == 0
        assert capsys.readouterr().out.startswith("graph G {")

    def test_connected_fourteen_point_blob_within_bound(self, tmp_path, capsys):
        # K(X) of this c2 blob has 9,597 members and 34,364,721 edges; a
        # pairwise edge scan took about 19 s on it.
        pts = [[-2, 0], [-2, 1], [-2, 2], [-1, -1], [-1, 0], [-1, 1], [-1, 2],
               [0, -1], [0, 0], [0, 1], [0, 2], [1, 0], [1, 1], [2, 0]]
        doc = write(tmp_path, "blob.json", {"dim": 2, "adjacency": "c2", "points": pts})
        start = time.perf_counter()
        assert main(["hyperspace", "--input", doc, "--kind", "connected"]) == 0
        assert time.perf_counter() - start < 10
        assert capsys.readouterr().out == "kind: connected\nvertices: 9597\nedges: 34364721\n"

    def test_json_and_dot_edge_counts_agree(self, img4, capsys):
        assert main(["hyperspace", "--input", img4, "--format", "json"]) == 0
        edges = json.loads(capsys.readouterr().out)["edges"]
        assert main(["hyperspace", "--input", img4, "--format", "dot"]) == 0
        assert capsys.readouterr().out.count(" -- ") == edges

    def test_budget_exit_code(self, tmp_path, capsys):
        big = write(tmp_path, "big.json",
                    {"dim": 1, "adjacency": "c1", "points": [[i] for i in range(30)]})
        assert main(["hyperspace", "--input", big]) == 3

    def test_parse_error_exit_code(self, tmp_path, capsys):
        bad = tmp_path / "bad.json"
        bad.write_text("{nope")
        assert main(["hyperspace", "--input", str(bad)]) == 2

    def test_schema_error_exit_code(self, tmp_path, capsys):
        bad = write(tmp_path, "schema.json", {"dim": 1, "points": [[0]]})
        assert main(["hyperspace", "--input", bad]) == 2

    def test_wrong_types_exit_code(self, tmp_path, capsys):
        bad = write(tmp_path, "types.json",
                    {"dim": "one", "adjacency": "c1", "points": [[0]]})
        assert main(["hyperspace", "--input", bad]) == 2
        bad2 = write(tmp_path, "types2.json",
                     {"dim": 1, "adjacency": "c1", "points": 3})
        assert main(["hyperspace", "--input", bad2]) == 2

    @pytest.mark.parametrize("doc", [
        {"dim": 1, "adjacency": "c1", "points": [[0], [True]]},
        {"dim": True, "adjacency": "c1", "points": [[0], [1]]},
        {"dim": 1, "adjacency": "c01", "points": [[0], [1]]},
        {"dim": 1, "adjacency": "c+1", "points": [[0], [1]]},
        {"dim": 1, "adjacency": "c 1", "points": [[0], [1]]},
    ], ids=["bool-coordinate", "bool-dim", "leading-zero-selector",
            "signed-selector", "blank-selector"])
    def test_malformed_image_exit_code(self, tmp_path, capsys, doc):
        bad = write(tmp_path, "malformed.json", doc)
        assert main(["hyperspace", "--input", bad]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("error: ") and captured.err.count("\n") == 1


class TestCheck:
    @pytest.mark.parametrize("name, doc", [
        ("continuity", {"domain": {"dim": 1, "adjacency": "c1", "points": [[0], [1]]},
                        "codomain": {"dim": 1, "adjacency": "c1", "points": [[0], [1]]},
                        "pairs": [[[0], [0]], [[True], [1]]]}),
        ("weak-continuity", {"domain": {"dim": 1, "adjacency": "c1", "points": [[0], [1]]},
                             "codomain": {"dim": 1, "adjacency": "c1", "points": [[0], [1]]},
                             "pairs": [[[0], [[0]]], [[1], [[False], [1]]]]}),
    ], ids=["function-pair", "multifunction-value"])
    def test_bool_coordinate_in_map_exit_code(self, tmp_path, capsys, name, doc):
        bad = write(tmp_path, "map.json", doc)
        assert main(["check", name, "--input", bad]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("error: ") and captured.err.count("\n") == 1

    def test_continuity_true(self, remark_docs, capsys):
        _, g, _ = remark_docs
        assert main(["check", "continuity", "--input", g]) == 0
        assert "true" in capsys.readouterr().out

    def test_phi_true_psi_false(self, remark_docs, capsys):
        _, _, pair = remark_docs
        assert main(["check", "phi-adjacent", "--input", pair]) == 0
        capsys.readouterr()
        assert main(["check", "psi-adjacent", "--input", pair,
                     "--format", "json"]) == 1
        doc = json.loads(capsys.readouterr().out)
        assert doc["verdict"] is False
        assert doc["witness"] == {"x0": [0], "x1": [1]}

    def test_homotopic_witness_emitted(self, remark_docs, capsys):
        _, _, pair = remark_docs
        assert main(["check", "homotopic", "--input", pair,
                     "--format", "json"]) == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["verdict"] is True
        assert doc["witness"]["m"] == len(doc["witness"]["slices"]) - 1

    def test_strong_continuity_witness(self, tmp_path, capsys):
        X = {"dim": 1, "adjacency": "c1", "points": [[0], [1]]}
        Y = {"dim": 1, "adjacency": "c1", "points": [[0], [1], [2]]}
        doc = write(tmp_path, "mf.json", {
            "domain": X, "codomain": Y,
            "pairs": [[[0], [[0]]], [[1], [[1], [2]]]]})
        assert main(["check", "strong-continuity", "--input", doc,
                     "--format", "json"]) == 1
        out = json.loads(capsys.readouterr().out)
        assert out["witness"]["unmatched"] == [2]

    def test_strong_continuity_witness_ignores_value_listing_order(self, tmp_path, capsys):
        # F(0) = {0, 6, 7} listed in two orders; 0 and 6 both lack a partner
        # in F(1) = {8, 9}, and the witness is the lower one
        X = {"dim": 1, "adjacency": "c1", "points": [[0], [1]]}
        Y = {"dim": 1, "adjacency": "c1", "points": [[i] for i in range(10)]}
        outputs = []
        for listing in ([[6], [0], [7]], [[0], [6], [7]]):
            doc = write(tmp_path, "mf.json", {
                "domain": X, "codomain": Y,
                "pairs": [[[0], listing], [[1], [[9], [8]]]]})
            assert main(["check", "strong-continuity", "--input", doc,
                         "--format", "json"]) == 1
            outputs.append(capsys.readouterr().out)
        assert outputs[0] == outputs[1]
        assert json.loads(outputs[0])["witness"] == {"x": [0], "y": [1], "unmatched": [0]}

    def test_egs_witness(self, tmp_path, capsys):
        X = {"dim": 1, "adjacency": "c1", "points": [[0], [1]]}
        Y = {"dim": 1, "adjacency": "c1", "points": [[0], [1], [2]]}
        doc = write(tmp_path, "mf.json", {
            "domain": X, "codomain": Y,
            "pairs": [[[0], [[0]]], [[1], [[1], [2]]]]})
        assert main(["check", "egs-continuous", "--input", doc,
                     "--format", "json"]) == 0
        out = json.loads(capsys.readouterr().out)
        assert out["witness"]["r"] == 2

    def test_contractible(self, tmp_path, capsys):
        doc = write(tmp_path, "img.json", image_to_json(interval(0, 2)))
        assert main(["check", "contractible", "--input", doc]) == 0

    def test_contractible_budget_exit_code(self, tmp_path, capsys):
        # #Y^#X = 9^9 tables, but the search charges the 423 rows it generates
        box = {"dim": 2, "adjacency": "c1",
               "points": [[x, y] for x in range(3) for y in range(3)]}
        doc = write(tmp_path, "box.json", box)
        assert main(["check", "contractible", "--input", doc]) == 0
        assert capsys.readouterr().out == "contractible: true\n"
        assert main(["check", "contractible", "--input", doc,
                     "--budget-functions", "100"]) == 3
        err = capsys.readouterr().err
        assert err.count("\n") == 1 and err.startswith("resource limit: ")

    def test_deeply_nested_document_is_a_parse_error(self, tmp_path, capsys):
        deep = tmp_path / "deep.json"
        deep.write_text("[" * 100000 + "]" * 100000)
        assert main(["check", "contractible", "--input", str(deep)]) == 2
        err = capsys.readouterr().err
        assert err.count("\n") == 1 and err.startswith("parse error: ")

    def test_homotopic_discontinuous_exit_code(self, tmp_path, capsys):
        X = {"dim": 1, "adjacency": "c1", "points": [[0], [1], [2]]}
        f = {"domain": X, "codomain": X,
             "pairs": [[[0], [0]], [[1], [2]], [[2], [2]]]}
        g = {"domain": X, "codomain": X,
             "pairs": [[[0], [0]], [[1], [1]], [[2], [2]]]}
        doc = write(tmp_path, "pair.json", {"f": f, "g": g})
        assert main(["check", "homotopic", "--input", doc]) == 2
        err = capsys.readouterr().err
        assert err.count("\n") == 1 and err.startswith("error: ")

    def test_induced_by_absent(self, tmp_path, capsys):
        X = {"dim": 1, "adjacency": "c1", "points": [[0], [1]]}
        fam = {"base": X, "kind": "connected",
               "members": [[[0]], [[1]], [[0], [1]]]}
        whole = [[0], [1]]
        doc = write(tmp_path, "ff.json", {
            "domain": fam, "codomain": fam,
            "pairs": [[[[0]], whole], [[[1]], whole], [whole, whole]]})
        assert main(["check", "induced-by", "--input", doc]) == 1

    def test_induced_by_beyond_the_function_budget(self, tmp_path, capsys):
        # The shift x -> max(x - 1, 0) on [0, 9]_Z has 10^10 candidate
        # tables, over --budget-functions; the singletons alone fix it.
        X = interval(0, 9)
        shift = FiniteFunction(X, X, tuple((x, (max(x[0] - 1, 0),)) for x in X.points))
        F = induced_map(shift, enumerate_connected_subsets(X))
        doc = write(tmp_path, "ff.json", family_function_to_json(F))
        assert main(["check", "induced-by", "--input", doc, "--format", "json"]) == 0
        witness = json.loads(capsys.readouterr().out)["witness"]
        assert witness == function_to_json(shift)


class TestMetricVerbs:
    def test_girth_view_full(self, img4, capsys):
        assert main(["girth", "--input", img4, "--view", "full",
                     "--format", "json"]) == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["girth"]["length"] == 3
        assert doc["long_cycle"]["length"] == 15

    def test_metrics_csv(self, img4, capsys):
        assert main(["metrics", "--input", img4, "--view", "connected",
                     "--format", "csv"]) == 0
        lines = capsys.readouterr().out.strip().splitlines()
        assert lines[0] == "vertex,label,degree,eccentricity"
        assert len(lines) == 11

    def test_metrics_disconnected_exit_code_repeated(self, tmp_path, capsys):
        doc = write(tmp_path, "gap.json", {"dim": 1, "adjacency": "c1",
                                           "points": [[0], [1], [3]]})
        for view in ("image", "connected", "image", "connected"):
            for fmt in ("text", "json", "csv"):
                assert main(["metrics", "--input", doc, "--view", view,
                             "--format", fmt]) == 2
                captured = capsys.readouterr()
                assert captured.out == ""
                assert captured.err == "error: metric is undefined on a disconnected graph\n"

    @pytest.mark.parametrize("image", [
        interval(0, 4), cycle_image(6), cycle_image(8),
        DigitalImage.of([(0, 0), (0, 1), (1, 1), (2, 1), (2, 0), (2, 2)], 1),
    ], ids=["interval5", "cycle6", "cycle8", "c1-tree"])
    @pytest.mark.parametrize("view", ["full", "connected"])
    def test_metrics_eccentricities_equal_per_source_bfs(self, tmp_path, capsys, image, view):
        # the family path seeds the eccentricities: closed form on 2^X, lower bounds on K(X)
        gm = digitop.graphmetrics
        G = gm.as_finite_graph(family_of(image, view))
        expect = [max(gm.bfs_distances(G, v)) for v in range(G.n)]
        doc = write(tmp_path, "img.json", image_to_json(image))
        assert main(["metrics", "--input", doc, "--view", view, "--format", "json"]) == 0
        out = json.loads(capsys.readouterr().out)
        assert [out["eccentricity"][str(v)] for v in range(G.n)] == expect
        assert (out["radius"], out["diameter"]) == (min(expect), max(expect))
        assert main(["metrics", "--input", doc, "--view", view, "--format", "csv"]) == 0
        rows = capsys.readouterr().out.splitlines()[1:]
        assert [int(row.rsplit(",", 1)[1]) for row in rows] == expect

    def test_dominate(self, img4, capsys):
        assert main(["dominate", "--input", img4]) == 0
        assert "size: 2" in capsys.readouterr().out

    def test_functions_view(self, tmp_path, capsys):
        doc = write(tmp_path, "img.json", image_to_json(interval(0, 1)))
        assert main(["metrics", "--input", doc, "--view", "functions",
                     "--flavor", "phi", "--format", "json"]) == 0
        out = json.loads(capsys.readouterr().out)
        assert out["vertices"] == 4

    def test_girth_cycle_longer_than_recursion_limit(self, tmp_path, capsys):
        doc = write(tmp_path, "cycle.json", image_to_json(cycle_image(1200)))
        assert main(["girth", "--input", doc, "--budget-cycle", "2000"]) == 0
        captured = capsys.readouterr()
        assert "long cycle: 1200\n" in captured.out
        assert captured.err == ""

    @pytest.mark.parametrize("flag", ["--budget-hyperspace", "--budget-functions",
                                      "--budget-cycle", "--budget-dominating",
                                      "--budget-subdivision"])
    @pytest.mark.parametrize("value", ["0", "-1"])
    def test_budgets_must_be_positive(self, img4, flag, value, capsys):
        # girth --budget-cycle -1 used to exit 3, as if a resource limit were hit
        verb = {"--budget-dominating": ["dominate"],
                "--budget-subdivision": ["check", "egs-continuous"]}.get(flag, ["girth"])
        with pytest.raises(SystemExit) as exc:
            main(verb + ["--input", img4, flag, value])
        assert exc.value.code == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "positive integer" in captured.err and "Traceback" not in captured.err

    def test_export_dot_highlight(self, img4, capsys):
        assert main(["export-dot", "--input", img4, "--view", "full",
                     "--highlight", "long-cycle"]) == 0
        assert "style=bold" in capsys.readouterr().out


# The printed labels of each view of interval(0, 2), as the graph verbs wrote
# them when the graphs still carried their labels.
LABEL_VIEWS = {
    "image": ["--view", "image"],
    "connected": ["--view", "connected"],
    "full": ["--view", "full"],
    "functions": ["--view", "functions", "--flavor", "phi", "--codomain", "{codomain}"],
}
LABEL_VERBS = {
    "export-dot": ["export-dot"],
    "export-dot-girth": ["export-dot", "--highlight", "girth"],
    "metrics-csv": ["metrics", "--format", "csv"],
    "girth": ["girth"],
    "dominate": ["dominate"],
    "metrics": ["metrics"],
}
LABEL_GOLDEN = {
    ("image", "export-dot"): """\
graph G {
  n0 [label="0"];
  n1 [label="1"];
  n2 [label="2"];
  n0 -- n1;
  n1 -- n2;
}
""",
    ("image", "export-dot-girth"): """\
graph G {
  n0 [label="0"];
  n1 [label="1"];
  n2 [label="2"];
  n0 -- n1;
  n1 -- n2;
}
""",
    ("image", "metrics-csv"): """\
vertex,label,degree,eccentricity
0,"0",1,2
1,"1",2,1
2,"2",1,2
""",
    ("image", "girth"): """\
acyclic
""",
    ("image", "dominate"): """\
minimum dominating set size: 1
members: 1
""",
    ("image", "metrics"): """\
vertices: 3
edges: 2
radius: 1
diameter: 2
center: 1
""",
    ("connected", "export-dot"): """\
graph G {
  n0 [label="{0}"];
  n1 [label="{1}"];
  n2 [label="{0,1}"];
  n3 [label="{2}"];
  n4 [label="{1,2}"];
  n5 [label="{0,1,2}"];
  n0 -- n1;
  n0 -- n2;
  n1 -- n2;
  n1 -- n3;
  n1 -- n4;
  n1 -- n5;
  n2 -- n4;
  n2 -- n5;
  n3 -- n4;
  n4 -- n5;
}
""",
    ("connected", "export-dot-girth"): """\
graph G {
  n0 [label="{0}"];
  n1 [label="{1}"];
  n2 [label="{0,1}"];
  n3 [label="{2}"];
  n4 [label="{1,2}"];
  n5 [label="{0,1,2}"];
  n0 -- n1 [style=bold color=red];
  n0 -- n2 [style=bold color=red];
  n1 -- n2 [style=bold color=red];
  n1 -- n3;
  n1 -- n4;
  n1 -- n5;
  n2 -- n4;
  n2 -- n5;
  n3 -- n4;
  n4 -- n5;
}
""",
    ("connected", "metrics-csv"): """\
vertex,label,degree,eccentricity
0,"{0}",2,2
1,"{1}",5,1
2,"{0,1}",4,2
3,"{2}",2,2
4,"{1,2}",4,2
5,"{0,1,2}",3,2
""",
    ("connected", "girth"): """\
girth: 3
long cycle: 6
long cycle witness: {0} {1} {2} {1,2} {0,1,2} {0,1}
""",
    ("connected", "dominate"): """\
minimum dominating set size: 1
members: {1}
""",
    ("connected", "metrics"): """\
vertices: 6
edges: 10
radius: 1
diameter: 2
center: {1}
""",
    ("full", "export-dot"): """\
graph G {
  n0 [label="{0}"];
  n1 [label="{1}"];
  n2 [label="{0,1}"];
  n3 [label="{2}"];
  n4 [label="{0,2}"];
  n5 [label="{1,2}"];
  n6 [label="{0,1,2}"];
  n0 -- n1;
  n0 -- n2;
  n1 -- n2;
  n1 -- n3;
  n1 -- n4;
  n1 -- n5;
  n1 -- n6;
  n2 -- n4;
  n2 -- n5;
  n2 -- n6;
  n3 -- n5;
  n4 -- n5;
  n4 -- n6;
  n5 -- n6;
}
""",
    ("full", "export-dot-girth"): """\
graph G {
  n0 [label="{0}"];
  n1 [label="{1}"];
  n2 [label="{0,1}"];
  n3 [label="{2}"];
  n4 [label="{0,2}"];
  n5 [label="{1,2}"];
  n6 [label="{0,1,2}"];
  n0 -- n1 [style=bold color=red];
  n0 -- n2 [style=bold color=red];
  n1 -- n2 [style=bold color=red];
  n1 -- n3;
  n1 -- n4;
  n1 -- n5;
  n1 -- n6;
  n2 -- n4;
  n2 -- n5;
  n2 -- n6;
  n3 -- n5;
  n4 -- n5;
  n4 -- n6;
  n5 -- n6;
}
""",
    ("full", "metrics-csv"): """\
vertex,label,degree,eccentricity
0,"{0}",2,2
1,"{1}",6,1
2,"{0,1}",5,2
3,"{2}",2,2
4,"{0,2}",4,2
5,"{1,2}",5,2
6,"{0,1,2}",4,2
""",
    ("full", "girth"): """\
girth: 3
long cycle: 7
long cycle witness: {0} {1} {2} {1,2} {0,2} {0,1,2} {0,1}
""",
    ("full", "dominate"): """\
minimum dominating set size: 1
members: {1}
""",
    ("full", "metrics"): """\
vertices: 7
edges: 14
radius: 1
diameter: 2
center: {1}
""",
    ("functions", "export-dot"): """\
graph G {
  n0 [label="[0>0 1>0 2>0]"];
  n1 [label="[0>0 1>0 2>1]"];
  n2 [label="[0>0 1>1 2>0]"];
  n3 [label="[0>0 1>1 2>1]"];
  n4 [label="[0>1 1>0 2>0]"];
  n5 [label="[0>1 1>0 2>1]"];
  n6 [label="[0>1 1>1 2>0]"];
  n7 [label="[0>1 1>1 2>1]"];
  n0 -- n1;
  n0 -- n2;
  n0 -- n3;
  n0 -- n4;
  n0 -- n5;
  n0 -- n6;
  n0 -- n7;
  n1 -- n2;
  n1 -- n3;
  n1 -- n4;
  n1 -- n5;
  n1 -- n6;
  n1 -- n7;
  n2 -- n3;
  n2 -- n4;
  n2 -- n5;
  n2 -- n6;
  n2 -- n7;
  n3 -- n4;
  n3 -- n5;
  n3 -- n6;
  n3 -- n7;
  n4 -- n5;
  n4 -- n6;
  n4 -- n7;
  n5 -- n6;
  n5 -- n7;
  n6 -- n7;
}
""",
    ("functions", "export-dot-girth"): """\
graph G {
  n0 [label="[0>0 1>0 2>0]"];
  n1 [label="[0>0 1>0 2>1]"];
  n2 [label="[0>0 1>1 2>0]"];
  n3 [label="[0>0 1>1 2>1]"];
  n4 [label="[0>1 1>0 2>0]"];
  n5 [label="[0>1 1>0 2>1]"];
  n6 [label="[0>1 1>1 2>0]"];
  n7 [label="[0>1 1>1 2>1]"];
  n0 -- n1 [style=bold color=red];
  n0 -- n2 [style=bold color=red];
  n0 -- n3;
  n0 -- n4;
  n0 -- n5;
  n0 -- n6;
  n0 -- n7;
  n1 -- n2 [style=bold color=red];
  n1 -- n3;
  n1 -- n4;
  n1 -- n5;
  n1 -- n6;
  n1 -- n7;
  n2 -- n3;
  n2 -- n4;
  n2 -- n5;
  n2 -- n6;
  n2 -- n7;
  n3 -- n4;
  n3 -- n5;
  n3 -- n6;
  n3 -- n7;
  n4 -- n5;
  n4 -- n6;
  n4 -- n7;
  n5 -- n6;
  n5 -- n7;
  n6 -- n7;
}
""",
    ("functions", "metrics-csv"): """\
vertex,label,degree,eccentricity
0,"[0>0 1>0 2>0]",7,1
1,"[0>0 1>0 2>1]",7,1
2,"[0>0 1>1 2>0]",7,1
3,"[0>0 1>1 2>1]",7,1
4,"[0>1 1>0 2>0]",7,1
5,"[0>1 1>0 2>1]",7,1
6,"[0>1 1>1 2>0]",7,1
7,"[0>1 1>1 2>1]",7,1
""",
    ("functions", "girth"): """\
girth: 3
long cycle: 8
long cycle witness: [0>0 1>0 2>0] [0>0 1>0 2>1] [0>0 1>1 2>0] [0>0 1>1 2>1] [0>1 1>0 2>0] [0>1 1>0 2>1] [0>1 1>1 2>0] [0>1 1>1 2>1]
""",
    ("functions", "dominate"): """\
minimum dominating set size: 1
members: [0>0 1>0 2>0]
""",
    ("functions", "metrics"): """\
vertices: 8
edges: 28
radius: 1
diameter: 1
center: [0>0 1>0 2>0] [0>0 1>0 2>1] [0>0 1>1 2>0] [0>0 1>1 2>1] [0>1 1>0 2>0] [0>1 1>0 2>1] [0>1 1>1 2>0] [0>1 1>1 2>1]
""",
}


class TestLabelGolden:
    @pytest.mark.parametrize("view, verb", sorted(LABEL_GOLDEN))
    def test_stdout(self, tmp_path, capsys, view, verb):
        doc = write(tmp_path, "i3.json", image_to_json(interval(0, 2)))
        codomain = write(tmp_path, "i2.json", image_to_json(interval(0, 1)))
        argv = [arg.format(codomain=codomain) for arg in LABEL_VIEWS[view]]
        assert main(LABEL_VERBS[verb] + ["--input", doc] + argv) == 0
        assert capsys.readouterr().out == LABEL_GOLDEN[view, verb]

    def test_hyperspace_dot_labels_members(self, img4, capsys):
        assert main(["hyperspace", "--input", img4, "--kind", "connected", "--format", "dot"]) == 0
        dot = capsys.readouterr().out
        assert main(["export-dot", "--input", img4, "--view", "connected"]) == 0
        assert dot == capsys.readouterr().out
        assert '  n9 [label="{1,2,3,4}"];\n' in dot


# The printed labels of the 2x2 c1 square, whose points print as (x,y): its
# image, its connected family and its maps to the point (3,5), as the graph
# verbs wrote them when they named vertices from their label objects.
SQUARE = {"dim": 2, "adjacency": "c1", "points": [[0, 0], [0, 1], [1, 0], [1, 1]]}
SQUARE_CODOMAIN = {"dim": 2, "adjacency": "c1", "points": [[3, 5]]}
SQUARE_LABEL_GOLDEN = {
    ("image", "export-dot"): """\
graph G {
  n0 [label="(0,0)"];
  n1 [label="(0,1)"];
  n2 [label="(1,0)"];
  n3 [label="(1,1)"];
  n0 -- n1;
  n0 -- n2;
  n1 -- n3;
  n2 -- n3;
}
""",
    ("image", "metrics-csv"): """\
vertex,label,degree,eccentricity
0,"(0,0)",2,2
1,"(0,1)",2,2
2,"(1,0)",2,2
3,"(1,1)",2,2
""",
    ("image", "metrics"): """\
vertices: 4
edges: 4
radius: 2
diameter: 2
center: (0,0) (0,1) (1,0) (1,1)
""",
    ("image", "girth"): """\
girth: 4
long cycle: 4
long cycle witness: (0,0) (0,1) (1,1) (1,0)
""",
    ("image", "dominate"): """\
minimum dominating set size: 2
members: (0,0) (0,1)
""",
    ("connected", "export-dot"): """\
graph G {
  n0 [label="{(0,0)}"];
  n1 [label="{(0,1)}"];
  n2 [label="{(0,0),(0,1)}"];
  n3 [label="{(1,0)}"];
  n4 [label="{(0,0),(1,0)}"];
  n5 [label="{(0,0),(0,1),(1,0)}"];
  n6 [label="{(1,1)}"];
  n7 [label="{(0,1),(1,1)}"];
  n8 [label="{(0,0),(0,1),(1,1)}"];
  n9 [label="{(1,0),(1,1)}"];
  n10 [label="{(0,0),(1,0),(1,1)}"];
  n11 [label="{(0,1),(1,0),(1,1)}"];
  n12 [label="{(0,0),(0,1),(1,0),(1,1)}"];
  n0 -- n1;
  n0 -- n2;
  n0 -- n3;
  n0 -- n4;
  n0 -- n5;
  n1 -- n2;
  n1 -- n6;
  n1 -- n7;
  n1 -- n8;
  n2 -- n4;
  n2 -- n5;
  n2 -- n7;
  n2 -- n8;
  n2 -- n9;
  n2 -- n10;
  n2 -- n11;
  n2 -- n12;
  n3 -- n4;
  n3 -- n6;
  n3 -- n9;
  n3 -- n10;
  n4 -- n5;
  n4 -- n7;
  n4 -- n8;
  n4 -- n9;
  n4 -- n10;
  n4 -- n11;
  n4 -- n12;
  n5 -- n7;
  n5 -- n8;
  n5 -- n9;
  n5 -- n10;
  n5 -- n11;
  n5 -- n12;
  n6 -- n7;
  n6 -- n9;
  n6 -- n11;
  n7 -- n8;
  n7 -- n9;
  n7 -- n10;
  n7 -- n11;
  n7 -- n12;
  n8 -- n9;
  n8 -- n10;
  n8 -- n11;
  n8 -- n12;
  n9 -- n10;
  n9 -- n11;
  n9 -- n12;
  n10 -- n11;
  n10 -- n12;
  n11 -- n12;
}
""",
    ("connected", "metrics-csv"): """\
vertex,label,degree,eccentricity
0,"{(0,0)}",5,2
1,"{(0,1)}",5,2
2,"{(0,0),(0,1)}",10,2
3,"{(1,0)}",5,2
4,"{(0,0),(1,0)}",10,2
5,"{(0,0),(0,1),(1,0)}",9,2
6,"{(1,1)}",5,2
7,"{(0,1),(1,1)}",10,2
8,"{(0,0),(0,1),(1,1)}",9,2
9,"{(1,0),(1,1)}",10,2
10,"{(0,0),(1,0),(1,1)}",9,2
11,"{(0,1),(1,0),(1,1)}",9,2
12,"{(0,0),(0,1),(1,0),(1,1)}",8,2
""",
    ("connected", "metrics"): """\
vertices: 13
edges: 52
radius: 2
diameter: 2
center: {(0,0)} {(0,1)} {(0,0),(0,1)} {(1,0)} {(0,0),(1,0)} {(0,0),(0,1),(1,0)} {(1,1)} {(0,1),(1,1)} {(0,0),(0,1),(1,1)} {(1,0),(1,1)} {(0,0),(1,0),(1,1)} {(0,1),(1,0),(1,1)} {(0,0),(0,1),(1,0),(1,1)}
""",
    ("connected", "girth"): """\
girth: 3
long cycle: 13
long cycle witness: {(0,0)} {(0,1)} {(0,0),(0,1)} {(0,0),(1,0)} {(1,0)} {(1,1)} {(0,1),(1,1)} {(0,0),(0,1),(1,1)} {(1,0),(1,1)} {(0,0),(1,0),(1,1)} {(0,1),(1,0),(1,1)} {(0,0),(0,1),(1,0),(1,1)} {(0,0),(0,1),(1,0)}
""",
    ("connected", "dominate"): """\
minimum dominating set size: 2
members: {(0,0),(0,1)} {(1,0)}
""",
    ("functions", "export-dot"): """\
graph G {
  n0 [label="[(0,0)>(3,5) (0,1)>(3,5) (1,0)>(3,5) (1,1)>(3,5)]"];
}
""",
    ("functions", "metrics-csv"): """\
vertex,label,degree,eccentricity
0,"[(0,0)>(3,5) (0,1)>(3,5) (1,0)>(3,5) (1,1)>(3,5)]",0,0
""",
    ("functions", "metrics"): """\
vertices: 1
edges: 0
radius: 0
diameter: 0
center: [(0,0)>(3,5) (0,1)>(3,5) (1,0)>(3,5) (1,1)>(3,5)]
""",
    ("functions", "girth"): """\
acyclic
""",
    ("functions", "dominate"): """\
minimum dominating set size: 1
members: [(0,0)>(3,5) (0,1)>(3,5) (1,0)>(3,5) (1,1)>(3,5)]
""",
}


LABEL_DOCS = {  # image, functions-view codomain and golden output of each labelled shape
    "interval": (image_to_json(interval(0, 2)), image_to_json(interval(0, 1)), LABEL_GOLDEN),
    "square": (SQUARE, SQUARE_CODOMAIN, SQUARE_LABEL_GOLDEN),
}


class TestNamesOnlyWherePrinted:
    """The graph verbs print their golden labels without building a family's
    members or a function graph's vertices."""

    @pytest.mark.parametrize("shape, view, verb", [
        (shape, *key) for shape in LABEL_DOCS for key in sorted(LABEL_DOCS[shape][2])])
    def test_golden_labels(self, tmp_path, capsys, refuse_labels, shape, view, verb):
        image, codomain, golden = LABEL_DOCS[shape]
        doc, codomain = write(tmp_path, "image.json", image), write(tmp_path, "cod.json", codomain)
        argv = [arg.format(codomain=codomain) for arg in LABEL_VIEWS[view]]
        refuse_labels()
        assert main(LABEL_VERBS[verb] + ["--input", doc] + argv) == 0
        assert capsys.readouterr().out == golden[view, verb]

    @pytest.mark.parametrize("argv", [
        ["hyperspace", "--kind", "connected", "--format", "dot"],
        ["hyperspace", "--kind", "full", "--format", "json"],
        ["hyperspace", "--kind", "full"],
        ["girth", "--view", "connected", "--format", "json"],
        ["dominate", "--view", "full", "--format", "json"],
        ["metrics", "--view", "connected", "--format", "json"],
        ["girth", "--view", "functions", "--codomain", "{codomain}", "--format", "json"],
        ["dominate", "--view", "functions", "--codomain", "{codomain}", "--format", "json"],
        ["metrics", "--view", "functions", "--codomain", "{codomain}", "--format", "json"],
        ["export-dot", "--view", "functions", "--codomain", "{codomain}", "--flavor", "psi",
         "--highlight", "long-cycle"],
    ], ids=" ".join)
    def test_other_formats(self, tmp_path, capsys, refuse_labels, argv):
        doc = write(tmp_path, "square.json", SQUARE)
        codomain = write(tmp_path, "i2.json", image_to_json(interval(0, 1)))
        refuse_labels()
        assert main([arg.format(codomain=codomain) for arg in argv] + ["--input", doc]) == 0
        assert capsys.readouterr().out


# The budget flags each verb reads; every other budget flag is refused.
VERB_BUDGETS = {
    "hyperspace": {"--budget-hyperspace"},
    "check": {"--budget-hyperspace", "--budget-functions", "--budget-subdivision"},
    "girth": {"--budget-hyperspace", "--budget-functions", "--budget-cycle"},
    "dominate": {"--budget-hyperspace", "--budget-functions", "--budget-dominating"},
    "metrics": {"--budget-hyperspace", "--budget-functions"},
    "export-dot": {"--budget-hyperspace", "--budget-functions", "--budget-cycle"},
}
ALL_BUDGETS = {f"--budget-{name}" for name in digitop.cli.BUDGETS}


class TestBudgetFlags:
    def test_each_verb_lists_the_flags_it_reads(self):
        parser = digitop.cli.build_parser()
        verbs = next(a for a in parser._actions if isinstance(a, argparse._SubParsersAction))
        for verb, flags in VERB_BUDGETS.items():
            options = {opt for action in verbs.choices[verb]._actions
                       for opt in action.option_strings if opt.startswith("--budget-")}
            assert options == flags, verb
        assert sum(map(len, VERB_BUDGETS.values())) == 15

    @pytest.mark.parametrize("verb, flag", sorted(
        (verb, flag) for verb, flags in VERB_BUDGETS.items() for flag in ALL_BUDGETS - flags))
    def test_unread_flag_is_a_usage_error(self, img4, verb, flag, capsys):
        argv = [verb] + (["contractible"] if verb == "check" else [])
        with pytest.raises(SystemExit) as exc:
            main(argv + ["--input", img4, flag, "5"])
        assert exc.value.code == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert f"unrecognized arguments: {flag} 5" in captured.err


class TestVerify:
    def test_single_suite_passes(self, capsys):
        assert main(["verify", "--suite", "cardinality", "--seed", "3"]) == 0
        out = capsys.readouterr().out
        assert "PASS cardinality/full-hyperspace-cardinality" in out

    def test_deterministic_for_seed(self, capsys):
        main(["verify", "--suite", "dominating", "--seed", "9",
              "--samples", "10"])
        first = capsys.readouterr().out
        main(["verify", "--suite", "dominating", "--seed", "9",
              "--samples", "10"])
        assert capsys.readouterr().out == first

    @pytest.mark.parametrize("flag, value", [("--samples", "0"), ("--samples", "-3"),
                                             ("--max-points", "-1"), ("--max-points", "0"),
                                             ("--samples", "two")])
    def test_counts_must_be_positive(self, flag, value, capsys):
        # --samples 0 used to run the default count and --samples -3 none at all
        with pytest.raises(SystemExit) as exc:
            main(["verify", "--suite", "cardinality", "induced", flag, value])
        assert exc.value.code == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "positive integer" in captured.err and "Traceback" not in captured.err

    def test_output_file(self, tmp_path):
        target = tmp_path / "report.txt"
        assert main(["verify", "--suite", "cardinality", "--seed", "1",
                     "--output", str(target)]) == 0
        assert "checks passed" in target.read_text()


class TestRepeatedCalls:
    def test_calls_in_one_process_share_no_values(self, img4, tmp_path, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["hyperspace", "--input", img4, "--kind", "bogus"])
        assert exc.value.code == 2
        capsys.readouterr()

        target = tmp_path / "out.json"
        assert main(["hyperspace", "--input", img4, "--format", "json",
                     "--output", str(target)]) == 0
        assert json.loads(target.read_text())["vertices"] == 10
        assert capsys.readouterr().out == ""

        assert main(["hyperspace", "--input", img4]) == 0
        assert capsys.readouterr().out == "kind: connected\nvertices: 10\nedges: 21\n"

        # the search from the identity of [0, 5]_Z generates 66 rows
        doc = write(tmp_path, "img.json", image_to_json(interval(0, 5)))
        assert main(["check", "contractible", "--input", doc,
                     "--budget-functions", "65"]) == 3
        assert capsys.readouterr().err.endswith("but the budget is 65\n")
        assert main(["check", "contractible", "--input", doc,
                     "--budget-functions", "66"]) == 0
        assert capsys.readouterr().out == "contractible: true\n"


class TestInternalError:
    @pytest.fixture
    def egs_doc(self, tmp_path):
        X = {"dim": 1, "adjacency": "c1", "points": [[0], [1]]}
        Y = {"dim": 1, "adjacency": "c1", "points": [[0], [1], [2]]}
        return write(tmp_path, "mf.json", {
            "domain": X, "codomain": Y,
            "pairs": [[[0], [[0]]], [[1], [[1], [2]]]]})

    @pytest.mark.parametrize("module, name, verb", [
        (digitop.cli, "verify_homotopy", "homotopic"),
        (digitop.cli, "generates", "egs-continuous"),
        (digitop.graphmetrics, "is_valid_cycle", "girth"),
        (digitop.graphmetrics, "is_dominating", "dominate"),
    ], ids=["homotopy", "generator", "cycle", "dominating-set"])
    def test_failed_revalidation_exit_code(self, monkeypatch, capsys, img4, remark_docs,
                                           egs_doc, module, name, verb):
        monkeypatch.setattr(module, name, lambda *args, **kwargs: False)
        argv = {"homotopic": ["check", "homotopic", "--input", remark_docs[2]],
                "egs-continuous": ["check", "egs-continuous", "--input", egs_doc],
                "girth": ["girth", "--input", img4, "--view", "full"],
                "dominate": ["dominate", "--input", img4]}[verb]
        assert main(argv) == 4
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("internal error: ") and captured.err.count("\n") == 1

    @pytest.mark.parametrize("highlight", ["girth", "long-cycle"])
    def test_export_dot_revalidates_its_highlight(self, monkeypatch, capsys, img4, highlight):
        # the interval's image graph is a path, so 0, 1, 2 is no cycle of it
        not_a_cycle = digitop.graphmetrics.CycleWitness((0, 1, 2))
        for name in ("girth", "longest_cycle"):
            monkeypatch.setattr(digitop.graphmetrics, name, lambda *args: not_a_cycle)
        assert main(["export-dot", "--input", img4, "--view", "image",
                     "--highlight", highlight]) == 4
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == "internal error: cycle witness failed re-validation\n"

    def test_unwritable_json_value_exit_code(self, monkeypatch, capsys, remark_docs):
        monkeypatch.setattr(digitop.cli, "homotopy_to_json",
                            lambda table: {"m": 1.0, "slices": []})
        assert main(["check", "homotopic", "--input", remark_docs[2], "--format", "json"]) == 4
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == "internal error: cannot write a float as JSON\n"


def _check_layout_cases():
    """(id, check, document, extra argv, exit code): every witness shape, and each verdict."""
    X = {"dim": 1, "adjacency": "c1", "points": [[0], [1], [2]]}

    def on_x(*values):
        return {"domain": X, "codomain": X, "pairs": [[[x], [y]] for x, y in enumerate(values)]}

    ident, shift, jump = on_x(0, 1, 2), on_x(1, 2, 2), on_x(0, 2, 2)
    point = {"dim": 1, "adjacency": "c1", "points": [[0]]}
    gap = {"dim": 1, "adjacency": "c1", "points": [[0], [2]]}
    apart = {"f": {"domain": point, "codomain": gap, "pairs": [[[0], [0]]]},
             "g": {"domain": point, "codomain": gap, "pairs": [[[0], [2]]]}}
    X2 = {"dim": 1, "adjacency": "c1", "points": [[0], [1]]}
    Y3 = {"dim": 1, "adjacency": "c1", "points": [[0], [1], [2]]}
    split = {"domain": X2, "codomain": Y3, "pairs": [[[0], [[0]]], [[1], [[1], [2]]]]}
    single = {"domain": X2, "codomain": Y3, "pairs": [[[0], [[0]]], [[1], [[1]]]]}
    I2 = interval(0, 1)
    induced = family_function_to_json(induced_map(identity_map(I2), enumerate_connected_subsets(I2)))
    fam = {"base": X2, "kind": "connected", "members": [[[0]], [[1]], [[0], [1]]]}
    whole = [[0], [1]]
    not_induced = {"domain": fam, "codomain": fam,
                   "pairs": [[[[0]], whole], [[[1]], whole], [whole, whole]]}
    # retractions of X onto its first two points: one fixes them, one moves 0
    onto = {"domain": X, "codomain": X2, "pairs": [[[0], [0]], [[1], [1]], [[2], [1]]]}
    moves = {"domain": X, "codomain": X2, "pairs": [[[0], [1]], [[1], [1]], [[2], [1]]]}
    # F(1) = {2} is two steps from F(0) = {0}, and {0, 2} is disconnected
    far = {"domain": X2, "codomain": Y3, "pairs": [[[0], [[0]]], [[1], [[2]]]]}
    return [
        ("continuity-false", "continuity", jump, (), 1),
        ("continuity-true", "continuity", ident, (), 0),
        ("phi-true", "phi-adjacent", {"f": ident, "g": shift}, (), 0),
        ("phi-false-point", "phi-adjacent", {"f": ident, "g": on_x(2, 2, 2)}, (), 1),
        ("phi-false-equal", "phi-adjacent", {"f": ident, "g": ident}, (), 1),
        ("psi-true", "psi-adjacent", {"f": on_x(0, 0, 0), "g": on_x(1, 1, 1)}, (), 0),
        ("psi-false-pair", "psi-adjacent", {"f": ident, "g": shift}, (), 1),
        ("psi-false-equal", "psi-adjacent", {"f": ident, "g": ident}, (), 1),
        ("homotopic-true", "homotopic", {"f": ident, "g": shift}, (), 0),
        ("homotopic-false", "homotopic", apart, (), 1),
        ("strongly-homotopic-true", "strongly-homotopic", {"f": ident, "g": shift}, (), 0),
        ("strongly-homotopic-false", "strongly-homotopic", apart, (), 1),
        ("strong-continuity-false", "strong-continuity", split, (), 1),
        ("strong-continuity-true", "strong-continuity", single, (), 0),
        ("egs-true", "egs-continuous", split, (), 0),
        ("egs-false", "egs-continuous", split, ("--r-max", "1"), 1),
        ("induced-by-true", "induced-by", induced, (), 0),
        ("induced-by-false", "induced-by", not_induced, (), 1),
        ("retraction-true", "retraction", onto, (), 0),
        ("retraction-false", "retraction", moves, (), 1),
        ("weak-continuity-true", "weak-continuity", split, (), 0),
        ("weak-continuity-false", "weak-continuity", far, (), 1),
        ("connectivity-preserving-true", "connectivity-preserving", split, (), 0),
        ("connectivity-preserving-false", "connectivity-preserving", far, (), 1),
    ]


CHECK_LAYOUT_CASES = _check_layout_cases()


def _retraction(doc):
    f = function_from_json(doc)
    return is_retraction(f, f.codomain.points)


#: The library call behind each check whose verdict carries no witness.
LIBRARY_VERDICTS = {
    "retraction": _retraction,
    "weak-continuity": lambda doc: has_weak_continuity(multifunction_from_json(doc)),
    "connectivity-preserving":
        lambda doc: is_connectivity_preserving(multifunction_from_json(doc)),
}


class TestCheckVerdicts:
    @pytest.mark.parametrize("name, doc", [
        case[1:3] for case in CHECK_LAYOUT_CASES if case[1] in LIBRARY_VERDICTS],
        ids=[case[0] for case in CHECK_LAYOUT_CASES if case[1] in LIBRARY_VERDICTS])
    def test_verdict_is_the_library_call(self, tmp_path, capsys, name, doc):
        verdict = LIBRARY_VERDICTS[name](doc)
        path = write(tmp_path, "doc.json", doc)
        assert main(["check", name, "--input", path]) == (0 if verdict else 1)
        assert capsys.readouterr().out == f"{name}: {'true' if verdict else 'false'}\n"
        assert main(["check", name, "--input", path, "--format", "json"]) == (0 if verdict else 1)
        out = json.loads(capsys.readouterr().out)
        assert out == {"check": name, "verdict": verdict, "witness": None}

    def test_retraction_target_outside_the_domain(self, tmp_path, capsys):
        X = {"dim": 1, "adjacency": "c1", "points": [[0], [1]]}
        Y = {"dim": 1, "adjacency": "c1", "points": [[0], [5]]}
        doc = write(tmp_path, "r.json", {"domain": X, "codomain": Y,
                                         "pairs": [[[0], [0]], [[1], [5]]]})
        assert main(["check", "retraction", "--input", doc]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == "error: retraction target is not a subset of the domain\n"


class TestJsonLayout:
    """Every --format json document has the bytes of json.dumps(indent=2)."""

    @pytest.mark.parametrize("name, doc, extra, rc", [case[1:] for case in CHECK_LAYOUT_CASES],
                             ids=[case[0] for case in CHECK_LAYOUT_CASES])
    def test_check(self, tmp_path, capsys, name, doc, extra, rc):
        path = write(tmp_path, "doc.json", doc)
        assert main(["check", name, "--input", path, "--format", "json", *extra]) == rc
        out = capsys.readouterr().out
        assert out == json.dumps(json.loads(out), indent=2) + "\n"
        witness = json.loads(out)["witness"]
        # the text form writes the same witness on one line, with json.dumps' defaults
        assert main(["check", name, "--input", path, *extra]) == rc
        lines = capsys.readouterr().out.splitlines()
        if witness is None:
            assert len(lines) == 1
        else:
            assert lines[1].startswith("witness: ")
            rest = lines[1][len("witness: "):]
            assert rest == json.dumps(json.loads(rest)) == json.dumps(witness)

    @pytest.mark.parametrize("argv", [
        ["hyperspace", "--kind", "connected"],
        ["hyperspace", "--kind", "full"],
        ["girth", "--view", "full"],
        ["girth", "--view", "image"],
        ["dominate", "--view", "connected"],
        ["metrics", "--view", "connected"],
        ["metrics", "--view", "functions"],
    ], ids=" ".join)
    @pytest.mark.parametrize("image", [interval(1, 4), DigitalImage.of(
        [(0, 0), (0, 1), (1, 0), (1, 1)], 1)], ids=["interval", "square"])
    def test_views(self, tmp_path, capsys, argv, image):
        path = write(tmp_path, "img.json", image_to_json(image))
        assert main(argv + ["--input", path, "--format", "json"]) == 0
        out = capsys.readouterr().out
        assert out == json.dumps(json.loads(out), indent=2) + "\n"

    def test_acyclic_girth(self, img4, capsys):
        assert main(["girth", "--input", img4, "--format", "json"]) == 0
        assert capsys.readouterr().out == '{\n  "girth": null,\n  "long_cycle": null\n}\n'

    @pytest.mark.parametrize("kind", ["connected", "full"])
    def test_hyperspace_members_list_points_in_order(self, tmp_path, capsys, kind):
        image = DigitalImage.of([(1, 0), (0, 1), (0, 0), (1, 1), (2, 1)], 2)
        path = write(tmp_path, "img.json", image_to_json(image))
        assert main(["hyperspace", "--input", path, "--kind", kind, "--format", "json"]) == 0
        members = json.loads(capsys.readouterr().out)["members"]
        assert members == [[list(p) for p in sorted(m)] for m in family_of(image, kind).members]

    @pytest.mark.parametrize("kind", ["connected", "full"])
    @pytest.mark.parametrize("image, golden", [
        ({"dim": 1, "adjacency": "c1", "points": [[-10]]},
         {"connected": '{"kind": "connected", "vertices": 1, "edges": 0, "members": [[[-10]]]}',
          "full": '{"kind": "full", "vertices": 1, "edges": 0, "members": [[[-10]]]}'}),
        ({"dim": 1, "adjacency": "c1", "points": [[12], [-9], [-10]]},
         {"connected": '{"kind": "connected", "vertices": 4, "edges": 3, "members": '
                       '[[[-10]], [[-9]], [[-10], [-9]], [[12]]]}',
          "full": '{"kind": "full", "vertices": 7, "edges": 6, "members": [[[-10]], [[-9]], '
                  '[[-10], [-9]], [[12]], [[-10], [12]], [[-9], [12]], [[-10], [-9], [12]]]}'}),
        ({"dim": 2, "adjacency": "c1", "points": [[-1, 10], [0, 11], [-1, 11]]},
         {"connected": '{"kind": "connected", "vertices": 6, "edges": 10, "members": '
                       '[[[-1, 10]], [[-1, 11]], [[-1, 10], [-1, 11]], [[0, 11]], '
                       '[[-1, 11], [0, 11]], [[-1, 10], [-1, 11], [0, 11]]]}',
          "full": '{"kind": "full", "vertices": 7, "edges": 14, "members": '
                  '[[[-1, 10]], [[-1, 11]], [[-1, 10], [-1, 11]], [[0, 11]], [[-1, 10], [0, 11]], '
                  '[[-1, 11], [0, 11]], [[-1, 10], [-1, 11], [0, 11]]]}'}),
        ({"dim": 3, "adjacency": "c3", "points": [[-12, 0, 7], [-11, -1, 7]]},
         {"connected": '{"kind": "connected", "vertices": 3, "edges": 3, "members": '
                       '[[[-12, 0, 7]], [[-11, -1, 7]], [[-12, 0, 7], [-11, -1, 7]]]}',
          "full": '{"kind": "full", "vertices": 3, "edges": 3, "members": '
                  '[[[-12, 0, 7]], [[-11, -1, 7]], [[-12, 0, 7], [-11, -1, 7]]]}'}),
    ], ids=["one-point", "1d", "2d", "3d"])
    def test_hyperspace_golden(self, tmp_path, capsys, image, golden, kind):
        # each golden document is the one the nested-list writer printed, in json.dumps' layout
        path = write(tmp_path, "img.json", image)
        assert main(["hyperspace", "--input", path, "--kind", kind, "--format", "json"]) == 0
        assert capsys.readouterr().out == json.dumps(json.loads(golden[kind]), indent=2) + "\n"

    @given(st.data())
    @settings(max_examples=150, deadline=None)
    def test_hyperspace_matches_the_nested_list_document(self, tmp_path_factory, data):
        dim = data.draw(st.integers(1, 3), label="dim")
        points = data.draw(st.lists(st.tuples(*[st.integers(-12, 12)] * dim),
                                    min_size=1, max_size=6, unique=True), label="points")
        image = DigitalImage.of(points, data.draw(st.integers(1, dim), label="u"))
        kind = data.draw(st.sampled_from(["connected", "full"]), label="kind")
        path = tmp_path_factory.getbasetemp() / "hyperspace.json"
        path.write_text(json.dumps(image_to_json(image)))
        out = io.StringIO()
        with contextlib.redirect_stdout(out):
            assert main(["hyperspace", "--input", str(path), "--kind", kind,
                         "--format", "json"]) == 0
        out = out.getvalue()
        assert out == json.dumps(json.loads(out), indent=2) + "\n"
        family = family_of(image, kind)
        assert out == json.dumps({
            "kind": kind,
            "vertices": len(family),
            "edges": family.edge_count,
            "members": [[list(p) for p in sorted(m)] for m in family.members],
        }, indent=2) + "\n"


json_strings = st.text(max_size=6) | st.sampled_from(
    ["", '"', "\\", "\n\t\x00\x1f", "caf\u00e9", "\u2028", "\U0001f600", "a\"b\\c"])
json_ints = (st.sampled_from([0, 1, -1]) | st.integers()
             | st.integers(min_value=-(2 ** 100), max_value=2 ** 100))


class TestDumps:
    @given(st.data())
    @settings(max_examples=400, deadline=None)
    def test_matches_json_dumps_indent_2(self, data):
        # a few tuples, each placed at several depths, some equal to others
        # but for a bool, such as (1, 0) and (True, False)
        pool = data.draw(st.lists(
            st.tuples(st.booleans() | json_ints, st.booleans() | json_ints)
            | st.tuples(json_ints) | st.just(()), max_size=4), label="tuples")
        pool += [(1, 0), (True, False), (0,), (False,)]
        value = data.draw(st.recursive(
            st.none() | st.booleans() | json_ints | json_strings | st.sampled_from(pool),
            lambda inner: (st.lists(inner, max_size=4)
                           | st.lists(inner, max_size=4).map(tuple)
                           | st.dictionaries(json_strings, inner, max_size=4)),
            max_leaves=24), label="value")
        assert _dumps(value) == json.dumps(value, indent=2)

    @given(st.data())
    @settings(max_examples=200, deadline=None)
    def test_members_match_their_nested_lists(self, data):
        points = data.draw(st.lists(st.tuples(json_ints) | st.tuples(json_ints, json_ints),
                                    min_size=1, max_size=5), label="points")
        masks = data.draw(st.lists(st.integers(1, 2 ** len(points) - 1), unique=True),
                          label="masks")
        value = _Members(tuple(points), tuple(sorted(masks)))
        nested = [[p for i, p in enumerate(points) if m >> i & 1] for m in sorted(masks)]
        for _ in range(data.draw(st.integers(0, 3), label="depth")):
            value, nested = {"members": [value]}, {"members": [nested]}
        assert _dumps(value) == json.dumps(nested, indent=2)

    @pytest.mark.parametrize("value", [
        1.5, {1, 2}, b"x", {1: "a"}, {"a": [None, {True: 0}]}, [0, 1, 2.0],
        [(1,), (1.0,)], ((0, 1), frozenset()), {"members": _Members(((0,), (1.5,)), (1, 3))},
    ], ids=["float", "set", "bytes", "int-key", "nested-bool-key", "float-among-ints",
            "float-tuple-equal-to-an-int-tuple", "frozenset-in-tuple", "float-point-of-a-member"])
    def test_other_types_raise_internal_error(self, value):
        with pytest.raises(InternalError):
            _dumps(value)


def _field_paths(doc, prefix=()):
    """The path of every object field in a JSON document, at any depth."""
    if isinstance(doc, dict):
        for key, value in doc.items():
            yield prefix + (key,)
            yield from _field_paths(value, prefix + (key,))
    elif isinstance(doc, list):
        for i, value in enumerate(doc):
            yield from _field_paths(value, prefix + (i,))


def _fuzz_jobs():
    """(verb argv, a valid document, its field paths) for every verb that reads a document."""
    X = {"dim": 1, "adjacency": "c1", "points": [[0], [1], [2]]}
    f = {"domain": X, "codomain": X, "pairs": [[[0], [0]], [[1], [1]], [[2], [2]]]}
    g = {"domain": X, "codomain": X, "pairs": [[[0], [1]], [[1], [2]], [[2], [2]]]}
    mf = {"domain": X, "codomain": X, "pairs": [[[0], [[0]]], [[1], [[1], [2]]], [[2], [[2]]]]}
    I2 = interval(0, 1)
    ff = family_function_to_json(induced_map(identity_map(I2), enumerate_connected_subsets(I2)))
    jobs = [(["hyperspace", "--kind", kind], X) for kind in ("full", "connected")]
    jobs += [(["check", name], f) for name in ("continuity", "isomorphism", "retraction")]
    jobs += [(["check", name], {"f": f, "g": g})
             for name in ("phi-adjacent", "psi-adjacent", "homotopic", "strongly-homotopic")]
    jobs.append((["check", "contractible"], X))
    jobs += [(["check", name], mf) for name in ("weak-continuity", "strong-continuity",
                                                "connectivity-preserving", "egs-continuous")]
    jobs.append((["check", "induced-by"], ff))
    jobs += [([verb, "--view", view], X) for verb in ("girth", "dominate", "metrics", "export-dot")
             for view in ("image", "connected", "functions")]
    return [(argv, doc, list(_field_paths(doc))) for argv, doc in jobs]


FUZZ_JOBS = _fuzz_jobs()
_VIEW_BUDGETS = ["--budget-hyperspace", "6", "--budget-functions", "2000"]
SMALL_BUDGETS = {  # verb -> small values of the budget flags it takes
    "hyperspace": ["--budget-hyperspace", "6"],
    "check": _VIEW_BUDGETS + ["--budget-subdivision", "16"],
    "girth": _VIEW_BUDGETS + ["--budget-cycle", "12"],
    "dominate": _VIEW_BUDGETS + ["--budget-dominating", "16"],
    "metrics": _VIEW_BUDGETS,
    "export-dot": _VIEW_BUDGETS + ["--budget-cycle", "12"],
}
json_values = st.recursive(
    st.none() | st.booleans() | st.integers(-2, 3) | st.integers()
    | st.floats(allow_nan=False, allow_infinity=False) | st.text(max_size=3),
    lambda inner: st.lists(inner, max_size=4) | st.dictionaries(st.text(max_size=3), inner,
                                                                 max_size=3),
    max_leaves=8)


class TestDocumentFuzz:
    @given(st.data())
    @settings(max_examples=300, deadline=None)
    def test_one_replaced_field_is_refused_cleanly(self, tmp_path_factory, data):
        argv, doc, paths = data.draw(st.sampled_from(FUZZ_JOBS), label="job")
        path = data.draw(st.sampled_from(paths), label="field")
        doc = copy.deepcopy(doc)
        holder = doc
        for step in path[:-1]:
            holder = holder[step]
        holder[path[-1]] = data.draw(json_values, label="value")
        target = tmp_path_factory.getbasetemp() / "fuzzed.json"
        target.write_text(json.dumps(doc))
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            rc = main(argv + ["--input", str(target)] + SMALL_BUDGETS[argv[0]])
        assert rc in (0, 1, 2, 3)
        message = err.getvalue()
        assert message == "" or (message.count("\n") == 1 and message.endswith("\n"))
        if rc == 2:
            assert message.startswith(("error:", "parse error:"))
