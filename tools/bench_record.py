"""Record a parent-versus-change benchmark comparison in BENCH_<pr>.json.

    python3 tools/bench_record.py --pr N --seed S [--parent REV] [--change REV]

Each side is the committed tree of its revision (``--parent``, default
HEAD~1, and ``--change``, default HEAD), exported with ``git archive`` into
a temporary directory that is removed afterwards, so a side runs exactly
the files the benchmark would check out.  The two revisions must hold the
same ``perfbench/`` and BENCHMARK.json, or the recorder stops before any
run.  For every workload the unchanged ``perfbench/run.py --workload W
--seed S --seconds T --trace 0``, with T the benchmark's ``run_seconds``,
runs ten times on each side, in alternating pairs: parent first in even
pairs, change first in odd ones.  From each run the recorder keeps the
result line's metrics, the ``# key: value`` lines (the raw metrics and the
machine-slowdown factors) and the first-16 output digest, and it compares
the per-job (rc, digest) of the jobs both sides ran.

Per workload and metric the file holds each side's runs, median and
quartiles, and the pairs the change won.  A metric is ``unresolved`` when
either side's interquartile range exceeds its bound from BENCHMARK.json
times its median, unless every change run is better than every parent
run.  Standard library only.
"""

from __future__ import annotations

import argparse
import io
import json
import os
import platform
import re
import statistics
import subprocess
import sys
import tarfile
import tempfile
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SIDES = ("parent", "change")
PAIRS = 10
# direction of the raw lines run.py prints; the slowdown factors have none
RAW_BETTER = {"raw_jobs_per_s": "higher", "raw_job_p50_ms": "lower", "raw_job_p90_ms": "lower",
              "raw_setup_s": "lower", "fail_ratio": "lower"}


def git(*args: str) -> str:
    return subprocess.run(["git", "-C", str(ROOT), *args], check=True, capture_output=True,
                          text=True).stdout.strip()


def export(rev: str, dest: Path) -> None:
    tar = subprocess.run(["git", "-C", str(ROOT), "archive", rev], check=True,
                         capture_output=True).stdout
    with tarfile.open(fileobj=io.BytesIO(tar)) as archive:
        # the filter argument exists from 3.10.12 and 3.11.4 on
        if hasattr(tarfile, "data_filter"):
            archive.extractall(dest, filter="data")
        else:
            archive.extractall(dest)


def run_once(tree: Path, workload: str, seed: int, seconds: float) -> dict:
    """One run.py run: its metrics, raw lines, digest and per-job (rc, digest)."""
    done = subprocess.run([sys.executable, "perfbench/run.py", "--workload", workload,
                           "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"],
                          cwd=tree, capture_output=True, text=True, check=True)
    lines = done.stdout.strip().splitlines()
    result = json.loads(lines[-1])
    run = {"correct": result["correct"], "failed": result["failed"],
           "attempted": result["attempted"],
           "metrics": {k: v["value"] for k, v in result["metrics"].items()}}
    for line in lines[:-1]:
        digest = re.search(r"first-16 output digest (\w+)", line)
        if digest:
            run["digest"] = digest.group(1)
        raw = re.fullmatch(r"# (\w+): (-?[\d.]+)", line)
        if raw:
            run["metrics"][raw.group(1)] = float(raw.group(2))
    jobs = json.loads((tree / ".perfbench" / "out" / f"{workload}-jobs-trace0.json").read_text())
    run["jobs"] = [(r["rc"], r["digest"]) for r in jobs["jobs"]]
    return run


def spread(values: list[float]) -> dict:
    q1, _, q3 = statistics.quantiles(values, n=4) if len(values) > 1 else values * 3
    return {"median": statistics.median(values), "q1": q1, "q3": q3, "runs": values}


def summarize(runs: dict, bounds: dict) -> dict:
    """Per metric: both sides' spreads, the pairs the change won, unresolved."""
    out = {}
    for name in runs["parent"][0]["metrics"]:
        better, bound = bounds.get(name, (RAW_BETTER.get(name), None))
        side = {s: spread([r["metrics"][name] for r in runs[s]]) for s in SIDES}
        entry = dict(side)
        if better is not None:
            sign = 1 if better == "higher" else -1
            entry["better"] = better
            entry["change_won"] = sum(sign * (c - p) > 0 for p, c in
                                      zip(side["parent"]["runs"], side["change"]["runs"]))
        if bound is not None:
            parent, change = side["parent"]["runs"], side["change"]["runs"]
            separated = (min(change) > max(parent) if better == "higher"
                         else max(change) < min(parent))
            entry["bound"] = bound
            entry["unresolved"] = not separated and any(
                s["q3"] - s["q1"] > bound * s["median"] for s in side.values())
        out[name] = entry
    return out


def compare_jobs(runs: dict) -> dict:
    """(rc, digest) of every job both sides ran in the same pair."""
    compared = differing = 0
    for p, c in zip(runs["parent"], runs["change"]):
        common = min(len(p["jobs"]), len(c["jobs"]))
        compared += common
        differing += sum(a != b for a, b in zip(p["jobs"][:common], c["jobs"][:common]))
    return {"compared": compared, "differing": differing}


def main(argv=None) -> None:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--pr", required=True, help="the number in the output name BENCH_<pr>.json")
    p.add_argument("--parent", default="HEAD~1")
    p.add_argument("--change", default="HEAD")
    p.add_argument("--seed", type=int, default=0)
    args = p.parse_args(argv)
    commits = {"parent": git("rev-parse", args.parent), "change": git("rev-parse", args.change)}
    harness = subprocess.run(["git", "-C", str(ROOT), "diff", "--quiet", commits["parent"],
                              commits["change"], "--", "perfbench", "BENCHMARK.json"])
    if harness.returncode != 0:
        sys.exit("perfbench/ or BENCHMARK.json differs between the two revisions")
    with tempfile.TemporaryDirectory(prefix="bench-record-") as tmp:
        trees = {s: Path(tmp) / s for s in SIDES}
        for s in SIDES:
            export(commits[s], trees[s])
        spec = json.loads((trees["change"] / "BENCHMARK.json").read_text())
        bounds = {m["name"]: (m["better"], m["bound"]) for m in spec["end_to_end"]}
        seconds = spec["run_seconds"]
        report = {"parent": commits["parent"], "change": commits["change"],
                  "python": platform.python_version(),
                  "cpus": os.cpu_count(), "seed": args.seed, "seconds": seconds,
                  "pairs": PAIRS, "workloads": {}}
        for w in [workload["name"] for workload in spec["workloads"]]:
            runs = {s: [] for s in SIDES}
            for i in range(PAIRS):
                for s in (SIDES if i % 2 == 0 else SIDES[::-1]):
                    start = time.perf_counter()
                    runs[s].append(run_once(trees[s], w, args.seed, seconds))
                    print(f"{w} pair {i} {s}: {time.perf_counter() - start:.0f} s", file=sys.stderr)
            report["workloads"][w] = {
                "correct": {s: [r["correct"] for r in runs[s]] for s in SIDES},
                "failed": {s: [r["failed"] for r in runs[s]] for s in SIDES},
                "digests": {s: sorted({r.get("digest") for r in runs[s]}) for s in SIDES},
                "jobs": compare_jobs(runs),
                "metrics": summarize(runs, bounds)}
    out = ROOT / f"BENCH_{args.pr}.json"
    out.write_text(json.dumps(report, indent=2) + "\n")
    print(f"wrote {out}", file=sys.stderr)


if __name__ == "__main__":
    main()
