"""schramsey benchmark: seeded CLI workloads in a closed loop.

    python3 bench/run.py --workload sets|chains|witness --seed N \
        --seconds S --trace 0|1

Run from the root of a source checkout (the package is taken from
./src; nothing is installed).  One client sends one CLI job at a time
and waits for it to finish; each job runs in a fresh interpreter, as a
CLI user's job does, so module-level caches start cold.  Jobs come from
`jobs.generate(workload, seed)`; the program sees only their argv and
family files.  Every answer is checked by `check.Checker` after the
timed loop.

--trace 0 runs whole rounds of jobs until S seconds have passed and at
least MIN_JOBS jobs have run, and reports the end-to-end metrics.
--trace 1 runs the first TRACE_ROUNDS rounds of the same sequence
twice, untraced and traced (alternating which goes first), and reports
per-layer metrics from the spans of the traced runs (see tracer.py);
per-layer counts and times are sums over those jobs.

Prints one `name value unit` line per metric, writes the full result to
.bench_out/<workload>-seed<N>-trace<T>.json (with git sha, Python
version, nproc and seed), and ends with one JSON line:
{"correct", "attempted", "failed", "metrics"}.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import threading
import time
from dataclasses import dataclass

HERE = os.path.dirname(os.path.abspath(__file__))
SRC = os.path.join("src", "schramsey", "cli.py")
JOB_TIMEOUT_S = 30.0
RUN_LIMIT_S = 100.0  # no job starts later, so a run ends well within 180 s
TRACE_ROUNDS = 2
PREGENERATE = 600  # jobs drawn before the clock starts
MIN_JOBS = 100

LAYERS = ("cli", "ordinal", "schreier", "words", "wxi", "families", "cbindex", "verify")
SEARCHES = ("ramsey_schreier_search", "ramsey_pair_sweep", "carlson_witness_search", "subspace_search",
            "hales_jewett_M", "nw_fixture_check")
REDUCTIONS = ("reduce_seq", "reduce_word", "finite_reductions", "reduced_words")


@dataclass
class Result:
    job: object
    wall_s: float
    setup_s: float | None
    rss_mb: float
    cpu_s: float
    returncode: int
    out_path: str
    spans_path: str | None


def run_job(job, workdir: str, index: int, traced: bool) -> Result:
    """Spawn one CLI job and wait for it; time spawn to exit."""
    import jobs

    jobs.materialize(job)
    out_path = os.path.join(workdir, f"out-{index}-{int(traced)}.json")
    err_path = os.path.join(workdir, f"err-{index}-{int(traced)}.txt")
    env = dict(os.environ, PYTHONPATH=os.path.abspath("src"))
    env.pop("BENCH_SPANS", None)
    spans_path = None
    if traced:
        spans_path = os.path.join(workdir, f"spans-{index}.json")
        env.update(BENCH_SPANS=spans_path, BENCH_JOB=str(index))
    with open(out_path, "wb") as out, open(err_path, "wb") as err:
        t0 = time.monotonic()
        proc = subprocess.Popen([sys.executable, os.path.join(HERE, "child.py"), *job.argv],
                                stdout=out, stderr=err, env=env)
        timer = threading.Timer(JOB_TIMEOUT_S, proc.kill)
        timer.start()
        try:
            _pid, status, usage = os.wait4(proc.pid, 0)
        except BaseException:
            proc.kill()
            proc.wait()
            raise
        finally:
            timer.cancel()
        t1 = time.monotonic()
    proc.returncode = os.waitstatus_to_exitcode(status)
    with open(err_path, "rb") as fh:
        first = fh.readline().split()
    os.remove(err_path)
    setup = float(first[1]) - t0 if len(first) == 2 and first[0] == b"bench-import-done" else None
    return Result(job, t1 - t0, setup, usage.ru_maxrss / 1024.0, usage.ru_utime + usage.ru_stime,
                  proc.returncode, out_path, spans_path)


def _report(result: Result):
    with open(result.out_path, "rb") as fh:
        data = fh.read()
    os.remove(result.out_path)
    try:
        rep = json.loads(data)
    except ValueError:
        return None
    return rep if isinstance(rep, dict) else None


def _git_sha() -> str | None:
    """HEAD of ./.git when the checkout is a git work tree."""
    try:
        with open(os.path.join(".git", "HEAD")) as fh:
            head = fh.read().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        ref_path = os.path.join(".git", ref)
        if os.path.exists(ref_path):
            with open(ref_path) as fh:
                return fh.read().strip()
        with open(os.path.join(".git", "packed-refs")) as fh:
            for line in fh:
                if line.rstrip().endswith(" " + ref):
                    return line.split()[0]
    except OSError:
        pass
    return None


class WorkCounts:
    """Deterministic work counts summed from the job reports."""

    def __init__(self):
        self.c = dict.fromkeys(("schreier.members", "wxi.members", "verify.visited", "verify.expected",
                                "verify.colorings", "families.universe", "cbindex.survivors"), 0)

    def add(self, kind: str, rep: dict) -> None:
        c = self.c
        if kind == "schreier enumerate":
            c["schreier.members"] += rep["count"]
        elif kind == "wxi enumerate":
            c["wxi.members"] += rep["count"]
        elif kind == "family dichotomy":
            c["families.universe"] += rep["universe_size"]
        elif kind == "cbindex" and rep.get("profile") is not None:
            c["cbindex.survivors"] += sum(rep["profile"])
        elif kind in ("verify ramsey", "verify carlson") and rep.get("expected") is not None:
            c["verify.visited"] += rep["visited"]
            c["verify.expected"] += rep["expected"]
        elif kind == "verify pair-sweep":
            c["verify.visited"] += rep["visited"]
            c["verify.expected"] += rep["colorings"]
            c["verify.colorings"] += rep["colorings"]
        elif kind == "verify hj":
            c["verify.colorings"] += sum(rep["colorings_checked"].values())

    def metrics(self) -> dict:
        c = dict(self.c)
        expected = c.pop("verify.expected")
        c["verify.visited_ratio"] = c["verify.visited"] / expected if expected else 0.0
        return c


def check_results(results, checker, work: WorkCounts | None = None):
    """Check every answer; returns the reasons of the failed ones."""
    failures = []
    for i, r in enumerate(results):
        rep = _report(r)
        why = checker.check(r.job, r.returncode, rep)
        if why is None:
            if work is not None:
                work.add(r.job.kind, rep)
        else:
            failures.append({"index": i, "traced": r.spans_path is not None, "argv": r.job.argv,
                             "returncode": r.returncode, "why": why})
    return failures


def end_to_end(results, failures, wall: float) -> dict:
    walls = sorted(r.wall_s for r in results)
    setups = [r.setup_s for r in results if r.setup_s is not None]
    checked = len(results) - len(failures)
    return {
        "setup_s": (statistics.median(setups) if setups else 0.0, "s"),
        "job_s.p50": (statistics.median(walls), "s"),
        "job_s.p90": (statistics.quantiles(walls, n=10)[8] if len(walls) > 1 else walls[0], "s"),
        "jobs_per_s": (checked / wall, "1/s"),
        "peak_rss_mb": (max(r.rss_mb for r in results), "MB"),
        "checked_frac": (checked / len(results), "1"),
    }


def per_layer(pairs, work: WorkCounts, absent: set) -> dict:
    import tracer

    calls = dict.fromkeys(LAYERS, 0)
    self_s = dict.fromkeys(LAYERS, 0.0)
    match_calls = match_miss = reduce_calls = 0
    search_s = check_s = job_s = 0.0
    for _plain, traced in pairs:
        with open(traced.spans_path) as fh:
            spans = json.load(fh)
        os.remove(traced.spans_path)
        absent.update(spans["absent"])
        names = spans["names"]
        own = tracer.self_times(spans)
        for i, nid in enumerate(spans["name"]):
            name = names[nid]
            layer = tracer.layer_of(name)
            dur = spans["end"][i] - spans["start"][i]
            if spans["parent"][i] < 0:
                job_s += dur
            if layer not in calls:  # the benchmark's root span
                continue
            calls[layer] += 1
            self_s[layer] += own[i]
            short = name.split(".", 1)[1]
            if name == "wxi.match_reduction":
                match_calls += 1
                match_miss += spans["raised"][i]
            elif layer == "words" and short in REDUCTIONS:
                reduce_calls += 1
            elif layer == "verify" and short in SEARCHES:
                search_s += dur
            elif name == "verify.check_witness":
                check_s += dur
    m = {}
    for layer in LAYERS:
        m[f"{layer}.calls"] = (calls[layer], "count")
        m[f"{layer}.self_s"] = (self_s[layer], "s")
        m[f"{layer}.share"] = (self_s[layer] / job_s if job_s else 0.0, "1")
    m["wxi.match_reduction.calls"] = (match_calls, "count")
    m["wxi.match_reduction.miss_ratio"] = (match_miss / match_calls if match_calls else 0.0, "1")
    m["words.reduce.calls"] = (reduce_calls, "count")
    m["verify.search_s"] = (search_s, "s")
    m["verify.check_s"] = (check_s, "s")
    for name, value in work.metrics().items():
        m[name] = (value, "1" if name.endswith("ratio") else "count")
    m["trace.job_s"] = (job_s, "s")
    m["trace.overhead_s"] = (sum(t.wall_s - p.wall_s for p, t in pairs), "s")
    m["trace.jobs"] = (len(pairs), "count")
    return m


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=10.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    if not os.path.exists(SRC):
        print(f"error: {SRC} not found; run from the root of a schramsey checkout", file=sys.stderr)
        return 2
    sys.path[:0] = [HERE, os.path.abspath("src")]
    import jobs
    from check import Checker

    if args.workload not in jobs.WORKLOADS:
        print(f"error: unknown workload {args.workload!r}", file=sys.stderr)
        return 2
    workdir = os.path.join(".bench_work", f"{args.workload}-{args.seed}-{args.trace}-{os.getpid()}")
    os.makedirs(workdir)
    try:
        gen = jobs.generate(args.workload, args.seed, workdir)
        checker = Checker()
        work = WorkCounts()
        absent: set = set()
        if args.trace == 0:
            # whole rounds only, so that every run has the same job mix, and
            # at least MIN_JOBS, so that p90 has ten samples beyond it
            round_len = len(jobs.ROUNDS[args.workload])
            queue = [next(gen) for _ in range(PREGENERATE)]
            results = []
            t0 = time.monotonic()
            while True:
                elapsed = time.monotonic() - t0
                n = len(results)
                if elapsed >= RUN_LIMIT_S or (elapsed >= args.seconds and n % round_len == 0 and n >= MIN_JOBS):
                    break
                job = queue[n] if n < len(queue) else next(gen)
                results.append(run_job(job, workdir, n, traced=False))
            wall = time.monotonic() - t0
            t_check = time.monotonic()
            failures = check_results(results, checker)
            print(f"ran {len(results)} jobs in {wall:.1f} s, checked them in {time.monotonic() - t_check:.1f} s",
                  file=sys.stderr)
            metrics = end_to_end(results, failures, wall)
            attempted = len(results)
            ran = results
        else:
            todo = [next(gen) for _ in range(TRACE_ROUNDS * len(jobs.ROUNDS[args.workload]))]
            pairs = []
            t0 = time.monotonic()
            for i, job in enumerate(todo):
                if time.monotonic() - t0 > RUN_LIMIT_S:
                    break
                first, second = (False, True) if i % 2 == 0 else (True, False)
                a = run_job(job, workdir, i, first)
                b = run_job(job, workdir, i, second)
                pairs.append((a, b) if not first else (b, a))
            plain = [p for p, _t in pairs]
            traced = [t for _p, t in pairs]
            failures = check_results(plain, checker) + check_results(traced, checker, work)
            metrics = per_layer(pairs, work, absent)
            attempted = 2 * len(pairs)
            ran = plain + traced
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        try:
            os.rmdir(".bench_work")
        except OSError:
            pass

    for name, (value, unit) in metrics.items():
        print(f"{name} {value:.6g} {unit}")
    for f in failures[:10]:
        print(f"FAILED job {f['index']} (exit {f['returncode']}): {f['why']}: {' '.join(f['argv'])}",
              file=sys.stderr)
    if absent:
        print(f"absent from the program (metrics read 0): {', '.join(sorted(absent))}", file=sys.stderr)
    result = {
        "correct": not failures,
        "attempted": attempted,
        "failed": len(failures),
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }
    record = dict(
        result, workload=args.workload, seed=args.seed, seconds=args.seconds, trace=args.trace,
        git_sha=_git_sha(), python=platform.python_version(), nproc=len(os.sched_getaffinity(0)),
        failures=failures, absent=sorted(absent),
        jobs=[{"argv": r.job.argv, "traced": r.spans_path is not None, "returncode": r.returncode,
               "wall_s": r.wall_s, "setup_s": r.setup_s, "cpu_s": r.cpu_s, "rss_mb": r.rss_mb} for r in ran],
    )
    os.makedirs(".bench_out", exist_ok=True)
    with open(os.path.join(".bench_out", f"{args.workload}-seed{args.seed}-trace{args.trace}.json"), "w") as fh:
        json.dump(record, fh, indent=1)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
