"""Tests of the benchmark itself (not of schramsey).

    python3 -m unittest discover -s bench/tests
"""

import contextlib
import io
import json
import os
import subprocess
import sys
import tempfile
import unittest

ROOT = os.path.dirname(os.path.dirname(os.path.dirname(os.path.abspath(__file__))))
BENCH = os.path.join(ROOT, "bench")
SRC = os.path.join(ROOT, "src")
sys.path[:0] = [BENCH, SRC]

import check  # noqa: E402
import jobs  # noqa: E402
import tracer  # noqa: E402
from schramsey import cli  # noqa: E402


def run_cli(argv):
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = cli.main(argv)
    return code, json.loads(out.getvalue())


def first_jobs(workload, seed, workdir, n):
    gen = jobs.generate(workload, seed, workdir)
    return [next(gen) for _ in range(n)]


class GeneratorTest(unittest.TestCase):
    def test_same_seed_same_jobs_and_files(self):
        for workload in jobs.WORKLOADS:
            n = 2 * len(jobs.ROUNDS[workload])
            with tempfile.TemporaryDirectory() as d:
                a = first_jobs(workload, 7, d, n)
                b = first_jobs(workload, 7, d, n)
                c = first_jobs(workload, 8, d, n)
            self.assertEqual([j.argv for j in a], [j.argv for j in b], workload)
            self.assertEqual([j.files for j in a], [j.files for j in b], workload)
            self.assertNotEqual([j.key() for j in a], [j.key() for j in c], workload)

    def test_every_round_has_the_same_mix(self):
        with tempfile.TemporaryDirectory() as d:
            for workload, slots in jobs.ROUNDS.items():
                js = first_jobs(workload, 3, d, 2 * len(slots))
                first = sorted(j.kind for j in js[: len(slots)])
                second = sorted(j.kind for j in js[len(slots):])
                self.assertEqual(first, second, workload)


class CheckerTest(unittest.TestCase):
    def judge(self, kind, argv, code, rep):
        return check.Checker().check(jobs.Job(kind, argv), code, rep)

    def test_enumeration_dropped_member_rejected(self):
        for xi in ("w^2", "w+3", "w^(w+1)*2+4", "7"):
            for rule in ("fixed", "succ"):
                argv = ["--rule", rule, "schreier", "enumerate", "--xi", xi, "--max-n", "13"]
                code, rep = run_cli(argv)
                self.assertIsNone(self.judge("schreier enumerate", argv, code, rep), (xi, rule))
                if rep["count"] < 2:
                    continue
                bad = dict(rep, members=rep["members"][:-1], count=rep["count"] - 1)
                self.assertIsNotNone(self.judge("schreier enumerate", argv, code, bad), (xi, rule))
                swapped = [m[:-1] + [m[-1] + 1] if m[-1] < 13 else m for m in rep["members"]]
                bad = dict(rep, members=sorted(swapped))
                if bad["members"] != rep["members"]:
                    self.assertIsNotNone(self.judge("schreier enumerate", argv, code, bad), (xi, rule))

    def test_flipped_member_rejected(self):
        for s in ("{2,3,4}", "{3,4,5}", "{1,5,9}"):
            argv = ["schreier", "mem", "--xi", "w", "--set", s]
            code, rep = run_cli(argv)
            self.assertIsNone(self.judge("schreier mem", argv, code, rep))
            flipped = dict(rep, member=not rep["member"])
            self.assertIsNotNone(self.judge("schreier mem", argv, 1 - code, flipped))

    def test_witness_with_wrong_colour_rejected(self):
        argv = ["verify", "ramsey", "--xi", "2", "--max-n", "6", "--coloring", "min_mod:2", "--target", "3"]
        code, rep = run_cli(argv)
        self.assertTrue(rep["found"])
        self.assertIsNone(self.judge("verify ramsey", argv, code, rep))
        bad = json.loads(json.dumps(rep))
        member, colour = bad["witness"]["certificate"][0]
        bad["witness"]["certificate"][0] = [member, 3 - colour]
        self.assertIsNotNone(self.judge("verify ramsey", argv, code, bad))

    def test_transfer_checked_against_counting(self):
        argv = ["schreier", "transfer", "--xi", "w^2+w", "-n", "3"]
        code, rep = run_cli(argv)
        self.assertIsNone(self.judge("schreier transfer", argv, code, rep))
        bad = dict(rep, transfer_index="w*2")
        self.assertIsNotNone(self.judge("schreier transfer", argv, code, bad))

    def test_answers_must_repeat(self):
        argv = ["schreier", "mem", "--xi", "3", "--set", "{1,2,3}"]
        code, rep = run_cli(argv)
        c = check.Checker()
        job = jobs.Job("schreier mem", argv)
        self.assertIsNone(c.check(job, code, rep))
        self.assertIsNotNone(c.check(job, code, dict(rep, member="yes")))

    def test_extra_report_keys_ignored(self):
        argv = ["verify", "pair-sweep", "--max-n", "5", "--target", "3"]
        code, rep = run_cli(argv)
        self.assertIsNone(self.judge("verify pair-sweep", argv, code, dict(rep, work={"nodes": 1})))


class SelfTimeTest(unittest.TestCase):
    def test_synthetic_span_tree(self):
        # root [0,10] > a [1,6] > b [2,4];  root > c [7,9]
        spans = {
            "name": [0, 1, 2, 3],
            "parent": [-1, 0, 1, 0],
            "start": [0.0, 1.0, 2.0, 7.0],
            "end": [10.0, 6.0, 4.0, 9.0],
        }
        own = tracer.self_times(spans)
        self.assertEqual(own, [3.0, 3.0, 2.0, 2.0])
        self.assertEqual(sum(own), 10.0)


class TracerTest(unittest.TestCase):
    def test_traced_child_records_cross_module_spans(self):
        with tempfile.TemporaryDirectory() as d:
            path = os.path.join(d, "spans.json")
            env = dict(os.environ, PYTHONPATH=SRC, BENCH_SPANS=path)
            proc = subprocess.run(
                [sys.executable, os.path.join(BENCH, "child.py"), "verify", "hj", "--xi", "0", "--mmax", "2"],
                capture_output=True, env=env, timeout=120)
            self.assertEqual(proc.returncode, 0, proc.stderr)
            self.assertTrue(proc.stderr.startswith(b"bench-import-done "))
            with open(path) as fh:
                spans = json.load(fh)
        names = [spans["names"][n] for n in spans["name"]]
        self.assertEqual(names[:2], ["bench.job", "cli.main"])
        self.assertIn("verify.hales_jewett_M", names)
        self.assertEqual(spans["absent"], [])
        # a span is recorded only where the layer changes
        for i, p in enumerate(spans["parent"]):
            if p >= 0:
                self.assertNotEqual(tracer.layer_of(names[i]), tracer.layer_of(names[p]))
        own = tracer.self_times(spans)
        root = spans["end"][0] - spans["start"][0]
        self.assertAlmostEqual(sum(own), root, places=9)

    def test_missing_names_reported_absent(self):
        script = (
            "import tracer; tracer.NAMED['wxi'] = ('match_reduction', 'renamed_away');"
            "t = tracer.Tracer(); t.install('schramsey'); print(','.join(t.absent))"
        )
        env = dict(os.environ, PYTHONPATH=os.pathsep.join([SRC, BENCH]))
        proc = subprocess.run([sys.executable, "-c", script], capture_output=True, env=env, timeout=120)
        self.assertEqual(proc.returncode, 0, proc.stderr)
        self.assertEqual(proc.stdout.decode().strip(), "wxi.renamed_away")


if __name__ == "__main__":
    unittest.main()
