"""Command-line front end: verbs, formats, exit codes, determinism."""

import argparse
import contextlib
import copy
import io
import json
import sys
import time
from types import SimpleNamespace

import pytest
from hypothesis import given, settings, strategies as st

import digitop.cli
import digitop.graphmetrics
from digitop import (DigitalImage, FiniteFunction, cycle_image, enumerate_connected_subsets,
                     family_from_json, find_inducing_map, function_from_json, function_to_json,
                     has_weak_continuity, homotopic, homotopy_from_json, homotopy_to_json,
                     identity_map, image_from_json, image_to_json, induced_map, interval,
                     is_connectivity_preserving, is_egs_continuous, is_retraction,
                     multifunction_from_json, strongly_homotopic)
from digitop.errors import InternalError
from digitop.functions import (continuity_counterexample, family_function_from_json,
                               family_function_to_json, pair_from_json)
from digitop.homotopy import phi_counterexample, psi_counterexample
from digitop.hyperspace import family_of
from digitop.multivalued import strong_continuity_counterexample
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

    def test_point_that_is_not_an_array_exit_code(self, tmp_path, capsys):
        bad = write(tmp_path, "scalar.json", {"dim": 1, "adjacency": "c1", "points": [[0], 5]})
        assert main(["hyperspace", "--input", bad]) == 2
        assert capsys.readouterr() == ("", "error: not a lattice point: 5\n")


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

    @pytest.mark.parametrize("name, kind, pairs, message", [
        ("continuity", "function", 5, "pairs must be an array, got 5"),
        ("continuity", "function", [[[0], [0]], 5], "pair 5 is not a two-item array"),
        ("continuity", "function", [[[0], [0]], [[1], [1], [0]]],
         "pair [[1], [1], [0]] is not a two-item array"),
        ("induced-by", "family function", {"a": 1}, "pairs must be an array, got {'a': 1}"),
        ("induced-by", "family function", [[[[0]]]], "pair [[[0]]] is not a two-item array"),
        ("weak-continuity", "multifunction", "ab", "pairs must be an array, got 'ab'"),
        ("weak-continuity", "multifunction", [[[0], [[0]]], [1]],
         "pair [1] is not a two-item array"),
    ], ids=["function-scalar", "function-scalar-pair", "function-long-pair",
            "family-object", "family-short-pair", "multifunction-string",
            "multifunction-short-pair"])
    def test_malformed_pairs_exit_code(self, tmp_path, capsys, name, kind, pairs, message):
        X = {"dim": 1, "adjacency": "c1", "points": [[0], [1]]}
        space = ({"base": X, "kind": "connected", "members": [[[0]], [[1]], [[0], [1]]]}
                 if kind == "family function" else X)
        bad = write(tmp_path, "map.json", {"domain": space, "codomain": space, "pairs": pairs})
        assert main(["check", name, "--input", bad]) == 2
        assert capsys.readouterr() == ("", f"error: {kind} document's {message}\n")

    X2 = {"dim": 1, "adjacency": "c1", "points": [[0], [1]]}
    K2 = {"base": X2, "kind": "connected", "members": [[[0]], [[1]], [[0], [1]]]}
    K2_PAIRS = [[[[0]], [[0]]], [[[1]], [[1]]], [[[0], [1]], [[0], [1]]]]

    @pytest.mark.parametrize("name, doc, message", [
        ("induced-by", {"domain": K2, "codomain": K2,
                        "pairs": [[5, [[0]]]] + K2_PAIRS[1:]},
         "family function document's member 5 is not an array of points"),
        ("induced-by", {"domain": K2, "codomain": K2,
                        "pairs": K2_PAIRS[:2] + [[[[0], [1]], "ab"]]},
         "family function document's member 'ab' is not an array of points"),
        ("induced-by", {"domain": dict(K2, members=5), "codomain": K2, "pairs": K2_PAIRS},
         "family document's members must be an array, got 5"),
        ("induced-by", {"domain": K2, "codomain": dict(K2, members=[[[0]], 5]),
                        "pairs": K2_PAIRS},
         "family document's member 5 is not an array of points"),
        ("induced-by", {"domain": dict(K2, members=[[[0]], [5]]), "codomain": K2,
                        "pairs": K2_PAIRS},
         "not a lattice point: 5"),
        ("weak-continuity", {"domain": X2, "codomain": X2, "pairs": [[[0], 5], [[1], [[1]]]]},
         "multifunction document's value set 5 is not an array of points"),
        ("weak-continuity", {"domain": X2, "codomain": X2,
                             "pairs": [[[0], [[0]]], [[1], None]]},
         "multifunction document's value set None is not an array of points"),
    ], ids=["family-map-member", "family-map-string-member", "family-members-scalar",
            "family-member-scalar", "family-point-scalar", "multifunction-value-set",
            "multifunction-null-value-set"])
    def test_malformed_nested_arrays_exit_code(self, tmp_path, capsys, name, doc, message):
        # one level below pairs, an entry that is no array of points is named,
        # not Python's "'int' object is not iterable"
        bad = write(tmp_path, "map.json", doc)
        assert main(["check", name, "--input", bad]) == 2
        assert capsys.readouterr() == ("", f"error: {message}\n")

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

    @pytest.mark.parametrize("split, rc", [(False, 0), (True, 1)], ids=["constant", "split"])
    def test_connectivity_preserving_past_the_hyperspace_budget(self, tmp_path, capsys,
                                                                 split, rc):
        # a 5x6 c2 box has 30 points, too many to enumerate K(X) under the
        # default budget; the split map sends the columns i >= 3 two steps away
        box = [[i, j] for i in range(5) for j in range(6)]
        doc = write(tmp_path, "mf.json", {
            "domain": {"dim": 2, "adjacency": "c2", "points": box},
            "codomain": {"dim": 1, "adjacency": "c1", "points": [[0], [1], [2]]},
            "pairs": [[p, [[2 if split and p[0] >= 3 else 0]]] for p in box]})
        assert main(["check", "connectivity-preserving", "--input", doc]) == rc
        verdict = "false" if split else "true"
        assert capsys.readouterr() == (f"connectivity-preserving: {verdict}\n", "")

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

    @pytest.mark.parametrize("data", [
        b'{"dim": 1, "adjacency": "c1", "points": [[0], [1]]}',
        b'{"dim": 1,\r\n "adjacency": "c1",\r\n "points": [[0], [1]]}\r\n',
        b'{"dim": 1,\r "adjacency": "c1",\r\r "points": [[0], [1]]}\r',
        b'{"dim": 1,\r\n "adjacency": "c1",\r "points": [[0], [1]],\n}',
        b'{"dim": 1,\r\n\r\n "adjacency": "c1"\r "points": [[0]]}',
        b'{"dim": 1,\r\n "adjacency": "c\xc3\xa9",\r\n "points": [[0], [1]]',
        b'\xef\xbb\xbf{"dim": 1, "adjacency": "c1", "points": [[0]]}',
        b'{"dim": 1, "adjacency": "c1", "points": [[0]]}\xff',
        b'{"dim": 1,\r\n "adjacency": "\xe2\x82", "points": [[0]]}',
        b'{"dim": 1, "adjacency": "c1", "points": [[0]], "x": "\xed\xa0\x80"}',
        b'{"dim": 1, "adjacency": "c1", "points": [[0]]}\xc3',
        b'"\r"', b'', b'\r\n', b'\x00', b'[1, 2\r\n', b'{"a": "\r\n\r"}',
    ], ids=["plain", "crlf", "cr", "mixed-trailing-comma", "cr-missing-comma",
            "crlf-truncated", "bom", "invalid-start-byte", "truncated-in-string",
            "surrogate", "truncated-at-end", "cr-string", "empty", "crlf-only", "nul",
            "crlf-unclosed", "control-characters"])
    def test_documents_read_as_text_mode_reads_them(self, tmp_path, data):
        # bytes decoded once as strict UTF-8 with CR and CRLF made LF: the
        # same value, or the same error at the same line and column, as
        # json.load on the file opened in text mode
        path = tmp_path / "doc.json"
        path.write_bytes(data)

        def outcome(load):
            try:
                return "ok", load()
            except ValueError as exc:
                return type(exc).__name__, str(exc)

        def text_mode():
            with open(path, "r", encoding="utf-8") as fh:
                return json.load(fh)

        assert outcome(lambda: digitop.cli._load(str(path))) == outcome(text_mode)

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
    "check": {"--budget-functions", "--budget-subdivision"},
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
        assert sum(map(len, VERB_BUDGETS.values())) == 14

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
        # the homotopy witness holds a float the writer refuses
        monkeypatch.setattr(digitop.cli, "_run_check",
                            lambda *args: (True, {"m": 1, "slices": [1.0]}))
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


def _library_witness(name, doc, extra):
    """Check ``name``'s witness on ``doc``, built from the library's own calls:
    maps as ``function_to_json`` and homotopies as ``homotopy_to_json`` give
    them, and every other witness from the counterexample's points."""
    if name == "continuity":
        f = function_from_json(doc)
        pair, xs = continuity_counterexample(f), f.domain.points
        return None if pair is None else {"x": xs[pair[0]], "x_prime": xs[pair[1]]}
    if name in ("phi-adjacent", "psi-adjacent"):
        f, g = pair_from_json(doc)
        xs = f.domain.points
        if name == "phi-adjacent":
            x = phi_counterexample(f, g)
            bad = None if x is None else {"x": xs[x]}
        else:
            pair = psi_counterexample(f, g)
            bad = None if pair is None else {"x0": xs[pair[0]], "x1": xs[pair[1]]}
        return bad if bad is not None or f != g else {"equal": True}
    if name in ("homotopic", "strongly-homotopic"):
        table = (homotopic if name == "homotopic" else strongly_homotopic)(*pair_from_json(doc))
        return None if table is None else homotopy_to_json(table)
    if name == "strong-continuity":
        F = multifunction_from_json(doc)
        bad, xs = strong_continuity_counterexample(F), F.domain.points
        return None if bad is None else {
            "x": xs[bad[0]], "y": xs[bad[1]], "unmatched": F.codomain.points[bad[2]]}
    if name == "egs-continuous":
        r_max = int(extra[1]) if extra else 4
        result = is_egs_continuous(multifunction_from_json(doc), r_max)
        if result is None:
            return {"r_max": r_max}
        return {"r": result.r, "generator": function_to_json(result.generator)}
    if name == "induced-by":
        f = find_inducing_map(family_function_from_json(doc))
        return None if f is None else function_to_json(f)
    return None


class TestWitnessDocuments:
    """Each witness has the bytes of the library's document for it."""

    @pytest.mark.parametrize("name, doc, extra, rc", [case[1:] for case in CHECK_LAYOUT_CASES],
                             ids=[case[0] for case in CHECK_LAYOUT_CASES])
    def test_check(self, tmp_path, capsys, name, doc, extra, rc):
        witness = _library_witness(name, doc, extra)
        path = write(tmp_path, "doc.json", doc)
        assert main(["check", name, "--input", path, "--format", "json", *extra]) == rc
        assert capsys.readouterr().out == json.dumps(
            {"check": name, "verdict": rc == 0, "witness": witness}, indent=2) + "\n"
        assert main(["check", name, "--input", path, *extra]) == rc
        lines = capsys.readouterr().out.splitlines()
        assert lines[1:] == ([] if witness is None else [f"witness: {json.dumps(witness)}"])

    @pytest.mark.parametrize("name", ["homotopic", "strongly-homotopic"])
    def test_homotopy_over_signed_2d_images(self, tmp_path, capsys, name):
        # m = 3 over a c2 domain and a c1 codomain, both with negative coordinates
        X = DigitalImage.of([(-1, -2), (0, -1), (0, -2)], 2)
        Y = DigitalImage.of([(-3, 5), (-2, 5), (-1, 5), (-1, 4)], 1)
        f = FiniteFunction._trusted(X, Y, (0, 0, 0))
        g = FiniteFunction._trusted(X, Y, (2, 2, 2))  # (-1, 4), three steps away
        doc = {"f": function_to_json(f), "g": function_to_json(g)}
        witness = _library_witness(name, doc, ())
        assert witness["m"] == 3
        path = write(tmp_path, "pair.json", doc)
        assert main(["check", name, "--input", path, "--format", "json"]) == 0
        assert capsys.readouterr().out == json.dumps(
            {"check": name, "verdict": True, "witness": witness}, indent=2) + "\n"


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

    @given(st.data())
    @settings(max_examples=200, deadline=None)
    def test_maps_match_their_documents(self, data):
        def image():
            dim = data.draw(st.integers(1, 3), label="dim")
            points = data.draw(st.lists(st.tuples(*[st.integers(-12, 12)] * dim),
                                        min_size=1, max_size=5, unique=True), label="points")
            return DigitalImage.of(points, data.draw(st.integers(1, dim), label="u"))

        # images shared between maps, and an equal image that is another object
        images = [image() for _ in range(data.draw(st.integers(1, 3), label="images"))]
        images.append(DigitalImage.of(images[0].points, images[0].adjacency))
        maps = []
        for _ in range(data.draw(st.integers(1, 4), label="maps")):
            X, Y = (data.draw(st.sampled_from(images), label=side) for side in ("X", "Y"))
            row = data.draw(st.lists(st.integers(0, len(Y) - 1),
                                     min_size=len(X), max_size=len(X)), label="row")
            maps.append(FiniteFunction._trusted(X, Y, tuple(row)))
        # the first map again, one level shallower than the list
        value = {"first": maps[0], "maps": maps}
        document = {"first": function_to_json(maps[0]),
                    "maps": [function_to_json(f) for f in maps]}
        if data.draw(st.booleans(), label="bare"):
            value, document = value["first"], document["first"]
        for _ in range(data.draw(st.integers(0, 3), label="depth")):
            value, document = {"slices": [value]}, {"slices": [document]}
        assert _dumps(value) == json.dumps(document, indent=2)

    @pytest.mark.parametrize("value", [
        1.5, {1, 2}, b"x", {1: "a"}, {"a": [None, {True: 0}]}, [0, 1, 2.0],
        [(1,), (1.0,)], ((0, 1), frozenset()), {"members": _Members(((0,), (1.5,)), (1, 3))},
    ], ids=["float", "set", "bytes", "int-key", "nested-bool-key", "float-among-ints",
            "float-tuple-equal-to-an-int-tuple", "frozenset-in-tuple", "float-point-of-a-member"])
    def test_other_types_raise_internal_error(self, value):
        with pytest.raises(InternalError):
            _dumps(value)


class TestIntFields:
    """Objects whose values are all ints take the writer's int path."""

    @pytest.mark.parametrize("value", [
        {"0": -3, "1": 2 ** 70, "é": 0}, {"a": 1, "b": True},
        {"ecc": {str(i): i % 5 for i in range(300)}},
    ], ids=["big-and-escaped", "bool-among-ints", "per-vertex"])
    def test_matches_json_dumps_indent_2(self, value):
        assert _dumps(value) == json.dumps(value, indent=2)

    def test_int_key_raises_internal_error(self):
        with pytest.raises(InternalError, match="cannot write a int key as JSON"):
            _dumps({"a": 1, 2: 3})


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
    "check": ["--budget-functions", "2000", "--budget-subdivision", "16"],
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


# Python's own TypeError and AttributeError texts: a refusal that reads like
# one of these leaked from the library instead of naming the document's fault.
PYTHON_MESSAGES = ("object is not iterable", "not subscriptable", "unhashable type",
                   "has no len()", "object has no attribute")


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
            assert not any(leak in message for leak in PYTHON_MESSAGES), message


def _nested_documents():
    """One valid document per kind whose nested entries the table replaces:
    the check that reads it, or "homotopy", which no verb reads."""
    X = {"dim": 1, "adjacency": "c1", "points": [[0], [1]]}
    fam = {"base": X, "kind": "connected", "members": [[[0]], [[1]], [[0], [1]]]}
    f = {"domain": X, "codomain": X, "pairs": [[[0], [0]], [[1], [1]]]}
    return {"induced-by": {"domain": fam, "codomain": fam,
                           "pairs": [[m, m] for m in fam["members"]]},
            "weak-continuity": {"domain": X, "codomain": X,
                                "pairs": [[[0], [[0]]], [[1], [[1]]]]},
            "continuity": f, "homotopy": {"m": 0, "slices": [f]}}


# Each nested entry ``lattice._pairs``, ``_point_list`` and ``_array`` (and
# the homotopy's ``m`` check) read, replaced by null, a scalar and an entry
# of the wrong shape: (kind, path, value, message).  Fuzzing every field of
# every document reaches a given entry too rarely to stand in for these.
NESTED_REFUSALS = [
    (kind, path, value, message.format(value=repr(value)))
    for kind, path, message, values in [
        ("induced-by", ("domain", "members", 1),
         "family document's member {value} is not an array of points", (None, 5, {})),
        ("induced-by", ("pairs", 1, 0),
         "family function document's member {value} is not an array of points", (None, 5, {})),
        ("weak-continuity", ("pairs", 1, 1),
         "multifunction document's value set {value} is not an array of points", (None, 5, {})),
        ("continuity", ("pairs", 1),
         "function document's pair {value} is not a two-item array", (None, 5, [[0]])),
        ("homotopy", ("slices",),
         "homotopy document's slices must be an array, got {value}", (None, 5, {})),
        ("homotopy", ("m",),
         "homotopy document's m must be an integer, got {value}", (None, True, [0])),
    ]
    for value in values
]


class TestNestedRefusals:
    @pytest.mark.parametrize("kind, path, value, message", NESTED_REFUSALS,
                             ids=[f"{kind}-{'.'.join(map(str, path))}-{json.dumps(value)}"
                                  for kind, path, value, _ in NESTED_REFUSALS])
    def test_exit_2_with_the_message_naming_the_entry(self, tmp_path, capsys, kind, path,
                                                      value, message):
        doc = _nested_documents()[kind]
        holder = doc
        for step in path[:-1]:
            holder = holder[step]
        holder[path[-1]] = value
        if kind == "homotopy":  # no verb reads a homotopy document
            with pytest.raises(ValueError) as exc:
                homotopy_from_json(doc)
            assert str(exc.value) == message
            return
        assert main(["check", kind, "--input", write(tmp_path, "doc.json", doc)]) == 2
        assert capsys.readouterr() == ("", f"error: {message}\n")


# Well-formed command lines of each verb but verify, which ``cli._read``
# reads from the verb's option table without argparse.
READ_ARGV = [
    ["hyperspace", "--input", "x.json"],
    ["hyperspace", "--input", ""],
    ["hyperspace", "--input", "check"],
    ["hyperspace", "--input", "x.json", "--kind", "full", "--kind", "connected"],
    ["check", "egs-continuous", "--input", "x.json", "--r-max", "2", "--budget-subdivision", "9",
     "--format", "json"],
    ["check", "--input", "x.json", "homotopic", "--budget-functions", "300"],
    ["check", "--input", "x.json", "--format", "json", "contractible"],
    ["check", "contractible", "--input", "x.json", "--budget-functions", "\u0663"],
    ["check", "--input", "metrics", "homotopic", "--output", "girth"],
    ["girth", "--input", "x.json", "--view", "connected", "--budget-cycle", "12"],
    ["dominate", "--input", "x.json", "--view", "full", "--budget-dominating", "9"],
    ["metrics", "--input", "x.json", "--view", "functions", "--codomain", "y.json",
     "--flavor", "psi", "--format", "csv"],
    ["export-dot", "--input", "x.json", "--highlight", "girth", "--input", "z.json"],
]
# One command line per verb as the benchmark's jobs write them.
BENCH_ARGV = [
    ["hyperspace", "--input", "/w/img.json", "--kind", "connected", "--format", "json"],
    ["check", "homotopic", "--input", "/w/pair.json", "--format", "json"],
    ["girth", "--input", "/w/img.json", "--view", "connected", "--format", "json"],
    ["dominate", "--input", "/w/img.json", "--view", "full", "--format", "json"],
    ["metrics", "--input", "/w/img.json", "--view", "connected", "--format", "csv"],
    ["export-dot", "--input", "/w/img.json", "--view", "image", "--highlight", "long-cycle"],
]

# Command lines on which ``main`` must parse as the top parser does: every
# help, usage and error path of the top parser and of the verbs, the edges
# the reader hands on to argparse, and the command lines it reads.  No
# document is read, so the paths need not exist.
PARSE_ARGV = READ_ARGV + [
    [], ["-h"], ["--help"],
    ["nosuch"], ["hyp", "--input", "x.json"],
    ["hyperspace", "-h"], ["check", "homotopic", "--input", "x.json", "--help"],
    ["metrics", "--view", "connected", "-h", "--input", "x.json"],
    ["verify", "--seed", "1", "--he"],
    ["hyperspace"], ["check", "homotopic"], ["check"], ["verify", "--suite"],
    ["hyperspace", "--input", "x.json", "--bogus", "1"],
    ["girth", "--bogus", "--input", "x.json"],
    ["hyperspace", "--input", "x.json", "extra"],
    ["check", "homotopic", "contractible", "--input", "x.json"],
    ["hyperspace", "hyperspace", "--input", "x.json"],
    ["hyperspace", "--inp", "x.json", "--k", "full"],
    ["girth", "--input", "x.json", "--budget", "5"], ["metrics", "--input", "x.json", "--f", "csv"],
    ["hyperspace", "--input", "x.json", "--kind", "bogus"],
    ["check", "nosuch", "--input", "x.json"],
    ["metrics", "--input", "x.json", "--format", "dot"],
    ["hyperspace", "--input", "x.json", "--budget-hyperspace", "0"],
    ["girth", "--input", "x.json", "--budget-cycle", "-1"],
    ["dominate", "--input", "x.json", "--budget-dominating", "two"],
    ["verify", "--samples", "0"], ["verify", "--seed", "x"],
    ["check", "egs-continuous", "--input", "x.json", "--r-max", "1.5"],
    ["hyperspace", "--", "--input", "x.json"],
    ["check", "--input", "x.json", "--", "homotopic"],
    ["verify", "--suite", "cardinality", "--", "induced"],
    ["--input", "x.json", "hyperspace"], ["-h", "hyperspace"], ["--bogus", "hyperspace"],
    ["--", "hyperspace", "--input", "x.json"],
    ["hyperspace", "--input=x.json", "--kind", "full", "--format", "dot", "--output", "o.dot",
     "--budget-hyperspace", "6"],
    ["verify"],
    ["verify", "--suite", "hausdorff", "homotopy", "--seed", "-3", "--max-points", "5",
     "--samples", "7", "--output", "v.txt"],
    # handed on by the reader: values that start with "-", a bad value
    # before or after a good one, an empty value that fails its type, an
    # option of another verb
    ["check", "egs-continuous", "--input", "x.json", "--r-max", "-1"],
    ["hyperspace", "--input", "-x.json"],
    ["girth", "--input", "x.json", "--budget-cycle", ""],
    ["hyperspace", "--input", "x.json", "--kind", "full", "--kind", "bogus"],
    ["hyperspace", "--input", "x.json", "--kind", "bogus", "--kind", "full"],
    ["hyperspace", "--input", "x.json", "--view", "full"],
    ["check", "", "--input", "x.json"],
    # verify's --suite takes one or more values: never read from a table
    ["verify", "--suite", "homotopy", "--seed", "3"],
]
PARSE_ARGV += [[verb] + (["contractible"] if verb == "check" else []) + ["--input", "x.json",
                                                                         flag, "5"]
               for verb, flags in VERB_BUDGETS.items() for flag in sorted(ALL_BUDGETS - flags)]
PARSE_ARGV += [["verify", flag, "5"] for flag in sorted(ALL_BUDGETS)]


def parse_outcome(parse, argv):
    """The exit code, stdout, stderr and namespace fields of one parse."""
    out, err = io.StringIO(), io.StringIO()
    code = fields = None
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            fields = vars(parse(argv))
        except SystemExit as exc:
            code = exc.code
    return code, out.getvalue(), err.getvalue(), fields


ARGV_TOKENS = (sorted(VERB_BUDGETS) + ["verify", "hyp", "homotopic", "contractible", "-h",
                                       "--help", "--", "--input", "--inp", "--input=x.json",
                                       "--kind", "--format", "--view", "--suite", "--seed",
                                       "--bogus", "x.json", "full", "json", "all", "0", "5",
                                       "-1", "-5", "", "\u0663", "--r-max",
                                       "--budget-functions"] + sorted(ALL_BUDGETS))


class TestParse:
    """``main`` reads a well-formed command line from the verb's option
    table and hands every other one to argparse, and every outcome is that
    of the running interpreter's ``build_parser().parse_args``."""

    @pytest.mark.parametrize("argv", PARSE_ARGV, ids=" ".join)
    def test_matches_the_top_parser(self, argv):
        want = parse_outcome(digitop.cli.build_parser().parse_args, argv)
        assert parse_outcome(digitop.cli._parse, argv) == want

    @given(st.lists(st.sampled_from(ARGV_TOKENS), max_size=7))
    @settings(max_examples=300, deadline=None)
    def test_token_sequences_match_the_top_parser(self, argv):
        want = parse_outcome(digitop.cli.build_parser().parse_args, argv)
        assert parse_outcome(digitop.cli._parse, argv) == want

    def test_well_formed_command_lines_are_read_without_argparse(self, monkeypatch):
        want = [vars(digitop.cli.build_parser().parse_args(argv))
                for argv in READ_ARGV + BENCH_ARGV]
        digitop.cli._shared_parser()  # built before argparse is refused

        def refuse(*args, **kwargs):
            raise AssertionError("argparse parsed a well-formed command line")

        monkeypatch.setattr(argparse.ArgumentParser, "parse_args", refuse)
        monkeypatch.setattr(argparse.ArgumentParser, "parse_known_args", refuse)
        assert [vars(digitop.cli._parse(argv)) for argv in READ_ARGV + BENCH_ARGV] == want
        assert {argv[0] for argv in READ_ARGV} == set(VERB_BUDGETS)

    @pytest.mark.parametrize("argv, rc, usage", [
        (["nosuch"], 2, "usage: digitop [-h]"),
        (["hyperspace", "--input", "line4.json", "--bogus", "1"], 2, "usage: digitop [-h]"),
        (["hyperspace"], 2, "usage: digitop hyperspace"),
    ])
    def test_main_reads_sys_argv(self, monkeypatch, capsys, argv, rc, usage):
        monkeypatch.setattr(sys, "argv", ["digitop"] + argv)
        with pytest.raises(SystemExit) as exc:
            main()
        assert exc.value.code == rc
        captured = capsys.readouterr()
        assert captured.out == "" and captured.err.startswith(usage)


@st.composite
def c1_trees(draw, max_points=8):
    """A c1 image whose graph is a tree, grown from the origin one leaf at a time."""
    points = [(0, 0)]
    for _ in range(draw(st.integers(0, max_points - 1))):
        x, y = draw(st.sampled_from(points))
        dx, dy = draw(st.sampled_from([(1, 0), (-1, 0), (0, 1), (0, -1)]))
        q = (x + dx, y + dy)
        if q not in points and sum(abs(q[0] - a) + abs(q[1] - b) == 1 for a, b in points) == 1:
            points.append(q)
    return DigitalImage.of(points, 1)


@st.composite
def member_families(draw):
    """(points, point names, family with ``masks``): K(X) of a path or a tree,
    where a member less its highest point need not be a member, or ascending
    masks of up to 24 bits over made-up points."""
    source = draw(st.sampled_from(["path", "tree", "masks"]))
    if source != "masks":
        lo = draw(st.integers(-5, 5))
        image = interval(lo, lo + draw(st.integers(0, 7))) if source == "path" else draw(c1_trees())
        return image.points, digitop.cli._point_names(image), family_of(image, "connected")
    n = draw(st.integers(1, 24))
    points = tuple((i, -i) if i % 2 else (i,) for i in range(n))
    masks = draw(st.lists(st.integers(1, 2 ** n - 1), unique=True, max_size=40))
    return points, [f"p{i}" for i in range(n)], SimpleNamespace(masks=tuple(sorted(masks)))


class TestMemberTexts:
    """Member texts come from their prefixes and match the texts joined point by point."""

    @given(member_families(), st.integers(0, 2))
    @settings(max_examples=200, deadline=None)
    def test_prefix_texts_match_the_nested_lists(self, family, depth):
        points, _, family = family
        value = _Members(points, family.masks)
        nested = [[p for i, p in enumerate(points) if m >> i & 1] for m in family.masks]
        for _ in range(depth):
            value, nested = {"members": [value]}, {"members": [nested]}
        assert _dumps(value) == json.dumps(nested, indent=2)

    @given(member_families(), st.data())
    @settings(max_examples=200, deadline=None)
    def test_member_names_match_their_joined_names(self, family, data):
        _, names, family = family
        name = digitop.cli._member_names(family, names)
        # names are asked in any order, and again, as DOT labels and centers ask them
        order = data.draw(st.permutations(range(len(family.masks))), label="order")
        for i in order + order[:3]:
            m = family.masks[i]
            assert name(i) == "{" + ",".join(s for p, s in enumerate(names) if m >> p & 1) + "}"

    def test_members_wider_than_the_recursion_limit(self):
        points = tuple((i,) for i in range(1100))
        full = (1 << 1100) - 1
        masks = (full ^ 1 << 500, full)
        nested = [[p for p in points if p != (500,)], list(points)]
        assert _dumps(_Members(points, masks)) == json.dumps(nested, indent=2)
        names = [str(i) for i in range(1100)]
        name = digitop.cli._member_names(SimpleNamespace(masks=masks[::-1]), names)
        assert name(0) == "{" + ",".join(names) + "}"


class TestPairDocuments:
    """A pair whose g reads f's image documents is built over f's images."""

    X = {"dim": 1, "adjacency": "c1", "points": [[0], [1], [2]]}
    X_REORDERED = {"dim": 1, "adjacency": "c1", "points": [[2], [0], [1]]}
    F = {"domain": X, "codomain": X, "pairs": [[[0], [0]], [[1], [1]], [[2], [2]]]}

    def test_shared_image_documents_give_one_set_of_images(self):
        g = {"domain": copy.deepcopy(self.X), "codomain": copy.deepcopy(self.X),
             "pairs": [[[0], [1]], [[1], [2]], [[2], [2]]]}
        f, g = pair_from_json({"f": self.F, "g": g})
        assert g.domain is f.domain and g.codomain is f.codomain
        assert g.row == (1, 2, 2)

    def test_other_image_documents_are_read(self):
        g = {"domain": self.X, "codomain": self.X_REORDERED,
             "pairs": [[[0], [1]], [[1], [2]], [[2], [2]]]}
        f, g = pair_from_json({"f": self.F, "g": g})
        assert g.codomain is not f.codomain and g.codomain == f.codomain
        assert g.row == (1, 2, 2)

    # (change to a map document, message): each message is the one the
    # per-point readers gave before rows were read from the point indices
    MALFORMED = [
        ({"pairs": None}, "function document is missing 'pairs'"),
        ({"pairs": [[[0], [5]], [[1], [1]], [[2], [2]]]}, "value (5,) at (0,) is outside the codomain"),
        ({"pairs": [[[0], [0]], [[1], [1]]]}, "function table must be total on the domain"),
        ({"pairs": [[[0], [0.0]], [[1], [1]], [[2], [2]]]}, "not a lattice point: [0.0]"),
        # equal to f's documents under ==, but not as JSON values
        ({"domain": dict(X, dim=True)}, "dim must be an integer, got True"),
        ({"domain": dict(X, points=[[0], [True], [2]])}, "not a lattice point: (True,)"),
        ({"codomain": dict(X, points=[[0.0], [1], [2]])}, "not a lattice point: (0.0,)"),
        # points in the pairs: bool, float and non-array, x before y within a
        # pair, and an earlier pair's y before a later pair's x
        ({"pairs": [[[0], [0]], [[True], [1]], [[2], [2]]]}, "not a lattice point: [True]"),
        ({"pairs": [[[0], [0]], [[1], [False]], [[2], [2]]]}, "not a lattice point: [False]"),
        ({"pairs": [[[0], [0]], [[1.0], [1]], [[2], [2]]]}, "not a lattice point: [1.0]"),
        ({"pairs": [[5, [0]], [[1], [1]], [[2], [2]]]}, "not a lattice point: 5"),
        ({"pairs": [[[0], None], [[1], [1]], [[2], [2]]]}, "not a lattice point: None"),
        ({"pairs": [[[0], "0"], [[1], [1]], [[2], [2]]]}, "not a lattice point: '0'"),
        ({"pairs": [[[], [0]], [[1], [1]], [[2], [2]]]}, "not a lattice point: []"),
        ({"pairs": [[[0.5], [True]], [[1], [1]], [[2], [2]]]}, "not a lattice point: [0.5]"),
        ({"pairs": [[[0], [1.5]], [[True], [1]], [[2], [2]]]}, "not a lattice point: [1.5]"),
        # missing, duplicate and foreign points in the pairs
        ({"pairs": [[[0], [0]], [[2], [2]], [[0], [0]]]}, "function table must be total on the domain"),
        ({"pairs": [[[0], [0]], [[0], [1]], [[1], [1]], [[2], [2]]]},
         "function table must be total on the domain"),
        ({"pairs": [[[0], [0]], [[7], [1]], [[2], [2]]]}, "function table must be total on the domain"),
        ({"pairs": [[[0, 0], [0]], [[1], [1]], [[2], [2]]]},
         "function table must be total on the domain"),
        ({"pairs": [[[0], [0, 0]], [[1], [1]], [[2], [2]]]},
         "value (0, 0) at (0,) is outside the codomain"),
        ({"pairs": [[[0], [0]], [[1], [-1]], [[2], [9]]]}, "value (-1,) at (1,) is outside the codomain"),
        # image documents: duplicate, non-array, mis-sized and bool points
        ({"domain": dict(X, points=[[0], [0], [2]])}, "duplicate point (0,)"),
        ({"codomain": dict(X, points=[[0], 5, [2]])}, "not a lattice point: 5"),
        ({"domain": dict(X, points=[[0], [1, 1], [2]])}, "point (1, 1) has dimension 2, expected 1"),
        ({"codomain": dict(X, points=[[0], [1], [False]])}, "not a lattice point: (False,)"),
        ({"domain": dict(X, points=[[0.5], [1], [True]])}, "not a lattice point: (0.5,)"),
        ({"domain": dict(X, points={"0": [0]})}, "points must be an array of point arrays"),
    ]
    MALFORMED_IDS = [
        "missing-key", "outside-the-codomain", "not-total", "float-value", "bool-dim",
        "bool-coordinate", "float-coordinate", "bool-x", "bool-y", "float-x", "scalar-x",
        "null-y", "string-y", "empty-x", "x-before-y", "pair-order", "duplicate-pair",
        "duplicate-x", "foreign-x", "long-x", "long-y", "foreign-ys", "duplicate-point",
        "scalar-point", "long-point", "bool-point", "float-and-bool-points", "points-object"]

    @pytest.mark.parametrize("images", ["shared", "distinct"])
    @pytest.mark.parametrize("change, message", MALFORMED, ids=MALFORMED_IDS)
    def test_malformed_g_is_refused(self, tmp_path, capsys, images, change, message):
        # exit 2 with the message of each document read on its own
        g = {"domain": self.X, "codomain": self.X if images == "shared" else self.X_REORDERED,
             "pairs": self.F["pairs"]}
        g = {k: v for k, v in {**g, **change}.items() if v is not None}
        path = write(tmp_path, "pair.json", {"f": self.F, "g": g})
        for name in ("phi-adjacent", "homotopic"):
            assert main(["check", name, "--input", path]) == 2
            assert capsys.readouterr() == ("", f"error: {message}\n")

    @pytest.mark.parametrize("change, message", MALFORMED, ids=MALFORMED_IDS)
    def test_malformed_f_is_refused(self, tmp_path, capsys, change, message):
        # the same messages from f, and from the map document alone
        f = {k: v for k, v in {**self.F, **change}.items() if v is not None}
        path = write(tmp_path, "pair.json", {"f": f, "g": self.F})
        assert main(["check", "homotopic", "--input", path]) == 2
        assert capsys.readouterr() == ("", f"error: {message}\n")
        path = write(tmp_path, "map.json", f)
        assert main(["check", "continuity", "--input", path]) == 2
        assert capsys.readouterr() == ("", f"error: {message}\n")
