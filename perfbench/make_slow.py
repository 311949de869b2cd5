"""Compute the stored answers of the known-slow jobs and write slow.json.

    python3 perfbench/make_slow.py

Runs once, offline, with the benchmark's own oracle code; it takes a few
minutes (the 14-point blob's edge count is a 46 M pair scan).  The
5x5 box's K(X) has millions of members, so its answer is beyond a pair
scan and is left unknown.
"""

from __future__ import annotations

import json
import random
from pathlib import Path

import oracle as orc
from workloads import blob

HERE = Path(__file__).resolve().parent


def cycle8():
    k = 3
    top = [(i, 1) for i in range(1, k + 1)]
    bottom = [(i, -1) for i in range(k, 0, -1)]
    return orc.Image([(0, 0)] + top + [(k + 1, 0)] + bottom, 2)


def box(w, h, u):
    return orc.Image([(x, y) for x in range(w) for y in range(h)], u)


def contractible_case(name, img, known, extra=()):
    answer = orc.contractible(img)
    return {"name": name, "known": known, "doc": img.doc(),
            "argv": ["check", "contractible", "--input", "{doc}", *extra],
            "expect": f"contractible: {'true' if answer else 'false'}\n",
            "expect_rc": 0 if answer else 1}


def main():
    checks = [
        contractible_case("contractible cycle_image(8), budget 2*10^7", cycle8(),
                          "10.9 s at the seed; not contractible",
                          ("--budget-functions", "20000000")),
        contractible_case("contractible 3x3 c1 box", box(3, 3, 1),
                          "refused by the function budget at the seed; contractible"),
        contractible_case("contractible 2x3 c2 box", box(2, 3, 2),
                          "26-35 s at the seed; it folds, so contractible"),
    ]
    blob14 = blob(random.Random("slow-blob-14:0"), 14, 2)
    graph = orc.hyperspace_graph(blob14, "connected")
    big = box(5, 5, 2)
    views = [
        {"name": "hyperspace connected 14-point c2 blob", "known": "about 19 s at the seed",
         "doc": blob14.doc(), "argv": ["hyperspace", "--input", "{doc}", "--kind", "connected"],
         "expect": f"kind: connected\nvertices: {graph.n}\nedges: {graph.edge_count}\n",
         "expect_rc": 0},
        {"name": "hyperspace connected 5x5 c2 box, budget 30",
         "known": "more than 9 min at the seed; edge count unknown, so never validated",
         "doc": big.doc(),
         "argv": ["hyperspace", "--input", "{doc}", "--kind", "connected",
                  "--budget-hyperspace", "30"],
         "expect": None, "expect_rc": 0},
    ]
    (HERE / "slow.json").write_text(json.dumps({"checks": checks, "views": views,
                                                "verify": []}, indent=1) + "\n")


if __name__ == "__main__":
    main()
