"""digitop benchmark: the `views`, `checks` and `verify` workloads.

Run from the repository root:

    python3 perfbench/run.py --workload views --seed 1 --seconds 20 --trace 0
    python3 perfbench/run.py --report --seed 1 --seconds 20

One run is one fresh process and one closed-loop client without threads:
each job starts when the previous one has returned.  Jobs are `digitop`
CLI verbs run in-process through `digitop.cli.main(argv)` with stdout
captured (`views`, `checks`), or `digitop.verify.run_suites([suite])`
calls (`verify`).  Inputs come from `--seed` through the benchmark's own
`random.Random`; every output is checked against an answer computed by
`oracle.py`, and the run prints one JSON line last.

`--trace 0` measures the end-to-end metrics for `--seconds` seconds.  The
jobs run in a child process that holds digitop and the job documents but
no oracle, so its peak RSS is the program's; this process checks the
outputs afterwards.  On the shared 2-vCPU machine the bounds were set on,
speed moved by up to a half within a minute, so between jobs the child
times a fixed pure-Python loop (outside the measured time), and times
and rates are scaled to the loop's reference speed, REFERENCE_MS: a time
is multiplied, and a rate divided, by REFERENCE_MS over the run's median
loop time.  The unscaled values are printed above the result line.

`--trace 1` runs one fixed job list three times: untraced to warm up,
untraced again, and with every layer in `tracing.py` wrapped; it reports
per-layer counts and self times, the tracing overhead and self-checks.
`--report` runs each workload both ways in child processes and prints
every metric with its unit.

Known-slow cases (`slow.json`) run after the measured jobs, each once with
a 2 s limit; they are reported apart and kept out of the measured
`attempted`/`failed`, because the measured workloads contain no job that
fails at the seed.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import json
import os
import random
import resource
import shutil
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = ROOT / ".perfbench"
sys.path.insert(0, str(HERE))

import tracing  # noqa: E402
import workloads  # noqa: E402

JOB_LIMIT_S = 10.0
REFERENCE_LOOP = 20_000
# The median, over ten 20 s runs on the 2-vCPU machine the bounds were set
# on, of each run's median reference loop time (1.29-1.82 ms per run).
REFERENCE_MS = 1.5
REFERENCE_EVERY_S = 0.2
SLOW_LIMIT_S = 2.0
SETUP_REPEATS = 21
VERIFY_TRACE_JOBS = 64  # eight rounds of the eight suites

E2E_UNITS = {"jobs_per_s": "1/s", "job_p50_ms": "ms", "job_p90_ms": "ms",
             "peak_rss_mb": "MB", "setup_s": "s"}


class JobTimeout(Exception):
    """Raised in the main thread when a job outlives its time limit."""


def _on_alarm(signum, frame):
    raise JobTimeout()


def load_digitop():
    """Import digitop from this checkout's src/, never from anywhere else."""
    if not (SRC / "digitop" / "cli.py").is_file():
        sys.exit(f"perfbench: no digitop sources under {SRC}")
    sys.path.insert(0, str(SRC))
    import digitop.cli
    import digitop.verify  # noqa: F401

    if Path(digitop.cli.__file__).resolve().parent != (SRC / "digitop").resolve():
        sys.exit("perfbench: imported digitop from outside this checkout")


def reference_sample():
    """One timing, in ms, of a fixed pure-Python loop: how fast the machine runs now."""
    start = time.perf_counter()
    total = 0
    for i in range(REFERENCE_LOOP):
        total += i * i % 7
    return (time.perf_counter() - start) * 1000


def measure_setup(samples):
    """Median time for a fresh interpreter to import digitop.cli and build its
    parser; a reference sample before each start goes to ``samples``."""
    code = ("import sys, time; sys.path.insert(0, sys.argv[1]); t = time.perf_counter(); "
            "import digitop.cli; digitop.cli.build_parser(); "
            "print(repr(time.perf_counter() - t))")
    times = []
    for _ in range(SETUP_REPEATS):
        samples.append(reference_sample())
        done = subprocess.run([sys.executable, "-I", "-c", code, str(SRC)],
                              capture_output=True, text=True, timeout=60, check=True)
        times.append(float(done.stdout.strip()))
    return statistics.median(times)


class Bench:
    """The job stream of one workload and seed, and its execution."""

    def __init__(self, workload, seed, workdir, templates):
        self.cli, self.verify = sys.modules["digitop.cli"], sys.modules["digitop.verify"]
        self.bfg = sys.modules["digitop.homotopy"].build_function_graph
        self.workload = workload
        self.seed = seed
        self.workdir = workdir
        self.templates = templates
        self._orders = {}

    def template_index(self, j):
        n = len(self.templates)
        cycle = j // n
        if cycle not in self._orders:
            order = list(range(n))
            random.Random(f"{self.workload}:{self.seed}:{cycle}").shuffle(order)
            self._orders[cycle] = order
        return self._orders[cycle][j % n]

    def job_docs(self, j):
        """Job j's template, its documents translated to fresh coordinates, and the offset."""
        tpl = self.templates[self.template_index(j)]
        off = (7 * (j + 1), 11 * (j + 1), 13 * (j + 1))
        return tpl, {name: workloads.orc.shift(doc, off) for name, doc in tpl.docs.items()}, off

    def prepare(self, j):
        """Job j's template and argv, with its documents written to the work directory."""
        tpl, docs, _ = self.job_docs(j)
        for name, doc in docs.items():
            (self.workdir / f"{name}.json").write_text(json.dumps(doc))
        argv = [str(self.workdir / f"{arg[1:-1]}.json") if arg.startswith("{") else arg
                for arg in tpl.argv or ()]
        return tpl, argv

    def execute(self, tpl, argv, j, limit=JOB_LIMIT_S):
        """Run one job; returns (seconds, exit code, stdout, error)."""
        out, err = io.StringIO(), io.StringIO()
        rc, error = None, None
        start = time.perf_counter()
        try:
            signal.setitimer(signal.ITIMER_REAL, limit)
            try:
                if tpl.argv is None:
                    results = self.verify.run_suites(
                        [tpl.kind.split("/")[1]], seed=self.verify_seed(j),
                        samples=workloads.VERIFY_SAMPLES)
                    out.write("".join(r.line() + "\n" for r in results))
                    rc = 0
                else:
                    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                        rc = self.cli.main(argv)
            finally:
                signal.setitimer(signal.ITIMER_REAL, 0)
        except JobTimeout:
            error = f"time limit {limit:g} s"
        except Exception as exc:  # any library failure is a failed job
            error = f"{type(exc).__name__}: {exc}"
        return time.perf_counter() - start, rc, out.getvalue(), error or err.getvalue().strip()

    def verify_seed(self, j):
        return self.seed * 100_003 + j

    @staticmethod
    def judge(tpl, rc, out, error, docs, off):
        """None when the output matches its oracle, else the reason."""
        if rc is None:
            return error
        if tpl.check is None:  # verify: every claim must pass
            bad = [line for line in out.splitlines() if not line.startswith("PASS")]
            return None if out and not bad else f"verify: {bad[:1]}"
        try:
            problem = tpl.check(out, rc, docs, off)
        except (ValueError, KeyError, TypeError, IndexError) as exc:
            problem = f"unreadable output ({type(exc).__name__}: {exc})"
        if problem and error:
            problem += f" [{error}]"
        return problem

    def record(self, j, took, rc, out, error, hit):
        """Job j's result, checked against its template's oracle."""
        tpl, docs, off = self.job_docs(j)
        problem = self.judge(tpl, rc, out, error, docs, off)
        return {"job": j, "template": self.template_index(j), "kind": tpl.kind,
                "ms": took * 1000, "rc": rc, "ok": problem is None, "problem": problem,
                "cache_hit": hit, "digest": hashlib.sha256(out.encode()).hexdigest()[:16]}

    def hits(self):
        return self.bfg.cache_info().hits

    def run_jobs(self, handle, count=None, seconds=None, tracer=None, samples=None):
        """Jobs 0.. until count jobs or seconds of busy time; returns (jobs, busy time).

        ``handle(j, seconds, rc, out, error, cache_hit)`` takes each job's
        result.  It and the reference samples (into ``samples``, at most
        every REFERENCE_EVERY_S) do not count as busy time.
        """
        idle = 0.0
        start = last_sample = time.perf_counter()
        j = 0
        while ((count is None or j < count)
               and (seconds is None or time.perf_counter() - start - idle < seconds)):
            tpl, argv = self.prepare(j)
            if tracer is not None:
                tracer.new_job(j)
            before = self.hits()
            took, rc, out, error = self.execute(tpl, argv, j)
            hit = self.hits() > before
            t = time.perf_counter()
            handle(j, took, rc, out, error, hit)
            if samples is not None and t - last_sample >= REFERENCE_EVERY_S:
                samples.append(reference_sample())
                last_sample = time.perf_counter()
            idle += time.perf_counter() - t
            j += 1
        return j, time.perf_counter() - start - idle


# -- known-slow cases -------------------------------------------------------------


def run_slow(bench):
    """Each known-slow job once, under SLOW_LIMIT_S; returns outcome records."""
    cases = json.loads((HERE / "slow.json").read_text())[bench.workload]
    out = []
    for case in cases:
        path = bench.workdir / "slow.json"
        path.write_text(json.dumps(case["doc"]))
        argv = [str(path) if a == "{doc}" else a for a in case["argv"]]
        tpl = workloads.Template(case["name"], argv, {}, None)
        took, rc, text, error = bench.execute(tpl, argv, 0, limit=SLOW_LIMIT_S)
        if rc is None:
            outcome = "over_limit" if error.startswith("time limit") else "error"
        elif rc == 3:
            outcome = "refused"
        elif case["expect"] is None:
            outcome = "unvalidated"
        else:
            outcome = "ok" if (rc, text) == (case["expect_rc"], case["expect"]) else "wrong"
        out.append({"name": case["name"], "outcome": outcome, "ms": took * 1000,
                    "known": case["known"]})
    return out


def slow_failures(slow):
    return sum(1 for s in slow if s["outcome"] != "ok")


def slow_wrong(slow):
    """A known-slow job that answered wrongly or crashed is a correctness failure."""
    return [s for s in slow if s["outcome"] in ("wrong", "error")]


# -- the two kinds of run -----------------------------------------------------------


def end_to_end(bench, seconds):
    """Set-up timing, then the jobs in a child process (``serve``), then the checks.

    The child holds only digitop and the job documents, so its peak RSS is
    the program's and not that of the oracles, which stay in this process.
    """
    setup_samples = []
    setup = measure_setup(setup_samples)
    plan = bench.workdir / "plan.json"
    plan.write_text(json.dumps({
        "workload": bench.workload, "seed": bench.seed, "seconds": seconds,
        "templates": [{"kind": t.kind, "argv": t.argv, "docs": t.docs} for t in bench.templates]}))
    subprocess.run([sys.executable, str(Path(__file__).resolve()), "--serve", str(plan)],
                   check=True, timeout=seconds + 2 * JOB_LIMIT_S + 60)
    served = json.loads((bench.workdir / "served.json").read_text())
    with open(bench.workdir / "results.jsonl") as results:
        records = [bench.record(*json.loads(line)) for line in results]
    slow = served["slow"]
    good = sum(r["ok"] for r in records)
    failed = len(records) - good
    wall = served["wall_s"]
    speed = statistics.median(served["samples"]) / REFERENCE_MS
    setup_speed = statistics.median(setup_samples) / REFERENCE_MS
    raw = [r["ms"] for r in records]
    raw_p50 = statistics.median(raw)
    raw_p90 = statistics.quantiles(raw, n=10)[8] if len(raw) > 1 else raw[0]
    metrics = {
        "jobs_per_s": good / wall * speed,
        "job_p50_ms": raw_p50 / speed,
        "job_p90_ms": raw_p90 / speed,
        "peak_rss_mb": served["rss_mb"],
        "setup_s": setup / setup_speed,
    }
    total_ms = sum(raw)
    share = {}
    for r in records:
        group = "/".join(r["kind"].split("/")[:2])
        share[group] = share.get(group, 0.0) + r["ms"] / total_ms
    summary = {
        "jobs": len(records), "wall_s": wall,
        "machine_slowdown": speed, "setup_machine_slowdown": setup_speed,
        "raw_jobs_per_s": good / wall, "raw_job_p50_ms": raw_p50, "raw_job_p90_ms": raw_p90,
        "raw_setup_s": setup,
        "fail_ratio": (failed + slow_failures(slow)) / (len(records) + len(slow)),
        "cache_job_hit_share": sum(r["cache_hit"] for r in records) / len(records),
        "time_share": dict(sorted(share.items(), key=lambda kv: -kv[1])),
        "slow": slow, "failures": [r for r in records if not r["ok"]][:5],
    }
    return records, metrics, summary, failed == 0 and not slow_wrong(slow)


def serve(plan_path):
    """The measured process of an end-to-end run.

    Runs the plan's jobs for its seconds, writing each raw result to
    results.jsonl as it comes, then the known-slow jobs; its peak RSS, the
    reference samples and the busy time go to served.json.
    """
    plan = json.loads(Path(plan_path).read_text())
    load_digitop()
    signal.signal(signal.SIGALRM, _on_alarm)
    workdir = Path(plan_path).parent
    templates = [workloads.Template(t["kind"], t["argv"], t["docs"], None)
                 for t in plan["templates"]]
    bench = Bench(plan["workload"], plan["seed"], workdir, templates)
    samples = []
    with open(workdir / "results.jsonl", "w") as results:
        def write(*result):
            results.write(json.dumps(result) + "\n")

        jobs, wall = bench.run_jobs(write, seconds=plan["seconds"], samples=samples)
    rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    (workdir / "served.json").write_text(json.dumps(
        {"jobs": jobs, "wall_s": wall, "samples": samples, "rss_mb": rss_mb,
         "slow": run_slow(bench)}))


def clear_caches():
    """Drop digitop's memo caches so a replay starts as cold as the first pass."""
    homotopy = sys.modules["digitop.homotopy"]
    for fn in (homotopy.build_function_graph, getattr(homotopy, "_family_cached", None)):
        if fn is not None and hasattr(fn, "cache_clear"):
            fn.cache_clear()


def traced(bench):
    count = VERIFY_TRACE_JOBS if bench.workload == "verify" else len(bench.templates)
    # The first pass warms the allocator and the interpreter; the second is
    # the untraced reference that the traced third pass is compared with.
    bench.run_jobs(lambda *result: None, count=count)
    clear_caches()
    plain, records = [], []
    _, plain_wall = bench.run_jobs(lambda *result: plain.append(bench.record(*result)),
                                   count=count)
    clear_caches()
    tracer = tracing.Tracer()
    tracer.install()
    unpatched = tracer.unpatched()
    info0 = bench.bfg.cache_info()
    try:
        _, wall = bench.run_jobs(lambda *result: records.append(bench.record(*result)),
                                 count=count, tracer=tracer)
    finally:
        tracer.uninstall()
    tracer.new_job(-1)
    info1 = bench.bfg.cache_info()
    slow = run_slow(bench)
    hits, misses = info1.hits - info0.hits, info1.misses - info0.misses
    m = tracer.metrics()
    m["homotopy.build_function_graph.cache_hits"] = (hits, "count")
    m["homotopy.build_function_graph.cache_misses"] = (misses, "count")
    m["homotopy.build_function_graph.cache_hit_ratio"] = (
        hits / (hits + misses) if hits + misses else 0.0, "ratio")
    m["homotopy.build_function_graph.job_hit_share"] = (
        sum(r["cache_hit"] for r in records) / len(records), "ratio")
    m["trace.overhead_ratio"] = (wall / plain_wall, "ratio")
    failed = sum(not r["ok"] for r in records)
    m["jobs.fail_ratio"] = ((failed + slow_failures(slow)) / (len(records) + len(slow)), "ratio")
    m["slow.failed"] = (slow_failures(slow), "count")
    mismatched = [r["job"] for r, p in zip(records, plain)
                  if (r["rc"], r["digest"]) != (p["rc"], p["digest"])]
    wrapper_calls = tracer.calls["homotopy.build_function_graph"]
    problems = []
    if unpatched:
        problems.append(f"{unpatched} references left unwrapped")
    if wrapper_calls != hits + misses:
        problems.append(f"build_function_graph wrapper saw {wrapper_calls} calls, "
                        f"cache_info {hits + misses}")
    if mismatched:
        problems.append(f"traced outputs differ on jobs {mismatched[:5]}")
    m["trace.selfcheck_failures"] = (len(problems), "count")
    summary = {"jobs": len(records), "wall_s": wall, "untraced_wall_s": plain_wall,
               "selfcheck": problems, "slow": slow,
               "failures": [r for r in records if not r["ok"]][:5]}
    write_out(f"{bench.workload}-spans.json",
              {"fields": ["id", "layer", "start", "end", "parent", "job"],
               "spans": tracer.spans, "dropped": tracer.span_count - len(tracer.spans)})
    ok = failed == 0 and not problems and not slow_wrong(slow)
    return records, m, summary, ok


def write_out(name, doc):
    out = WORK / "out"
    out.mkdir(parents=True, exist_ok=True)
    (out / name).write_text(json.dumps(doc))


def run_one(args):
    load_digitop()
    signal.signal(signal.SIGALRM, _on_alarm)
    workdir = WORK / f"run-{os.getpid()}"
    workdir.mkdir(parents=True, exist_ok=True)
    try:
        bench = Bench(args.workload, args.seed, workdir,
                      workloads.WORKLOADS[args.workload](args.seed))
        if args.trace:
            records, metrics, summary, ok = traced(bench)
            shown = {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()}
        else:
            records, metrics, summary, ok = end_to_end(bench, args.seconds)
            shown = {k: {"value": v, "unit": E2E_UNITS[k]} for k, v in metrics.items()}
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    write_out(f"{args.workload}-jobs-trace{args.trace}.json",
              {"seed": args.seed, "summary": summary, "jobs": records})
    digest = hashlib.sha256("".join(r["digest"] for r in records[:16]).encode()).hexdigest()
    print(f"# {args.workload} seed {args.seed} trace {args.trace}: {summary['jobs']} jobs "
          f"in {summary['wall_s']:.2f} s, first-16 output digest {digest[:16]}")
    for key in ("machine_slowdown", "setup_machine_slowdown", "raw_jobs_per_s", "raw_job_p50_ms",
                "raw_job_p90_ms", "raw_setup_s", "fail_ratio", "cache_job_hit_share",
                "untraced_wall_s"):
        if key in summary:
            print(f"# {key}: {summary[key]:.4f}")
    for group, share in summary.get("time_share", {}).items():
        print(f"# time share {group}: {share:.3f}")
    for s in summary["slow"]:
        print(f"# known-slow {s['name']}: {s['outcome']} after {s['ms']:.0f} ms ({s['known']})")
    for problem in summary.get("selfcheck", []):
        print(f"# trace self-check failed: {problem}")
    for r in summary["failures"]:
        print(f"# FAILED job {r['job']} {r['kind']}: {r['problem']}")
    failed = sum(not r["ok"] for r in records)
    print(json.dumps({"correct": ok, "attempted": len(records), "failed": failed,
                      "metrics": shown}))


# -- one command for every metric ------------------------------------------------------


def report(args):
    layers = json.loads((HERE / "layers.json").read_text())
    results = {}
    for workload in workloads.WORKLOADS:
        for trace_flag in (0, 1):
            cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", workload,
                   "--seed", str(args.seed), "--seconds", str(args.seconds),
                   "--trace", str(trace_flag)]
            done = subprocess.run(cmd, capture_output=True, text=True, timeout=600)
            lines = done.stdout.splitlines()
            for line in lines[:-1]:
                print(line)
            if done.returncode != 0 or not lines:
                sys.exit(f"{workload} trace {trace_flag} failed:\n{done.stderr}")
            results[workload, trace_flag] = json.loads(lines[-1])
    names = list(workloads.WORKLOADS)
    print("\nend-to-end (trace 0)")
    print(f"{'metric':34s} {'unit':6s} " + " ".join(f"{w:>12s}" for w in names))
    for metric, unit in E2E_UNITS.items():
        vals = [results[w, 0]["metrics"][metric]["value"] for w in names]
        print(f"{metric:34s} {unit:6s} " + " ".join(f"{v:12.4f}" for v in vals))
    print(f"{'correct':34s} {'':6s} " + " ".join(f"{str(results[w, 0]['correct']):>12s}"
                                                for w in names))
    print("\nper layer (trace 1); 'moves' is the end-to-end metric each should move, on which workloads")
    print(f"{'metric':52s} {'unit':6s} " + " ".join(f"{w:>12s}" for w in names) + "  moves")
    for metric in results[names[0], 1]["metrics"]:
        unit = results[names[0], 1]["metrics"][metric]["unit"]
        vals = [results[w, 1]["metrics"][metric]["value"] for w in names]
        hint = layers.get(metric) or layers.get(metric.rsplit(".", 1)[0] + ".self_s", "")
        print(f"{metric:52s} {unit:6s} " + " ".join(f"{v:12.4g}" for v in vals) + f"  {hint}")


def main(argv=None):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", choices=sorted(workloads.WORKLOADS))
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--seconds", type=float, default=20)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--report", action="store_true",
                   help="run every workload untraced and traced and print all metrics")
    p.add_argument("--serve", metavar="PLAN", help=argparse.SUPPRESS)
    args = p.parse_args(argv)
    if args.serve:
        serve(args.serve)
    elif args.report:
        report(args)
    elif args.workload:
        run_one(args)
    else:
        p.error("give --workload or --report")


if __name__ == "__main__":
    main()
