#!/usr/bin/env python3
"""Self-tests of the repo benchmark, on tiny data.

Run from the repository root:

    python3 rdfbench/tests/selftest.py

Checks that
  - every workload prints every end-to-end metric of BENCHMARK.json (plain
    run) and every per-layer metric (traced run), with error_rate 0;
  - a corrupted reference digest makes the answer check report failures,
    and so does a corrupted pinned-sample digest under churn;
  - the churn writer inserts and removes inside the window, and background
    compactions run under the readers;
  - equal seeds replay equal request sequences, and other seeds do not.
Pass --debug-build to also check that an unoptimised build refuses to time
(this builds the library a second time).
"""

import json
import os
import subprocess
import sys
import tempfile
import unittest

HERE = os.path.dirname(os.path.abspath(__file__))
BENCH = os.path.dirname(HERE)
ROOT = os.path.dirname(BENCH)
RUN = os.path.join(BENCH, "run.py")
WORKLOADS = ("lubm-analyst", "sp2b-serve", "sp2b-churn")


def spec():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        return json.load(f)


def run(workload, seed=1, trace=0, extra=(), env=None, seconds=1):
    cmd = [sys.executable, RUN, "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace), "--tiny"]
    cmd += list(extra)
    p = subprocess.run(cmd, capture_output=True, text=True, cwd=ROOT,
                       env=env, timeout=600)
    return p


def result(p):
    assert p.returncode == 0, p.stderr[-3000:]
    lines = p.stdout.strip().split("\n")
    return lines, json.loads(lines[-1])


def request_hashes(lines):
    return [l for l in lines if l.startswith('{"request_hash"')]


class SelfTest(unittest.TestCase):

    def test_plain_run_prints_every_end_to_end_metric(self):
        names = [m["name"] for m in spec()["end_to_end"]]
        for w in WORKLOADS:
            with self.subTest(workload=w):
                _, r = result(run(w))
                self.assertEqual(sorted(r), ["attempted", "correct", "failed",
                                             "metrics"])
                self.assertEqual(list(r["metrics"]), names)
                self.assertTrue(r["correct"])
                self.assertEqual(r["failed"], 0)
                self.assertGreater(r["attempted"], 0)
                for m in spec()["end_to_end"]:
                    self.assertEqual(r["metrics"][m["name"]]["unit"], m["unit"])
                    self.assertGreater(r["metrics"][m["name"]]["value"], 0)

    def test_traced_run_prints_every_per_layer_metric(self):
        names = [m["name"] for m in spec()["per_layer"]]
        for w in WORKLOADS:
            with self.subTest(workload=w):
                _, r = result(run(w, trace=1))
                self.assertEqual(list(r["metrics"]), names)
                self.assertEqual(r["metrics"]["error_rate"]["value"], 0)
                self.assertEqual(r["failed"], 0)
                self.assertGreater(r["metrics"]["trace.coverage"]["value"], 0.5)

    def test_corrupted_reference_is_caught(self):
        # Key 0 is Q1 on LUBM and the most popular citation lookup on
        # sp2b-serve; on sp2b-churn it is the first pinned sample, whose
        # cache-off recheck against its own pin must then fail.
        for w in WORKLOADS:
            for trace in (0, 1):
                with self.subTest(workload=w, trace=trace):
                    _, r = result(run(w, trace=trace,
                                      extra=["--corrupt-digest", "0"]))
                    self.assertFalse(r["correct"])
                    self.assertGreater(r["failed"], 0)
                    if trace:
                        self.assertGreater(
                            r["metrics"]["error_rate"]["value"], 0)

    def test_churn_writes_and_compacts_in_the_window(self):
        # 8 s: each of the 10 slices holds a whole insert-then-remove cycle.
        _, r = result(run("sp2b-churn", trace=1, seconds=8))
        m = {k: v["value"] for k, v in r["metrics"].items()}
        self.assertEqual(r["failed"], 0)
        self.assertGreater(m["storage.insert_us"], 0)
        self.assertGreater(m["storage.remove_us"], 0)
        self.assertGreater(m["storage.compactions"], 0)
        self.assertGreater(m["storage.runs"], 0)
        self.assertGreater(m["view_cache.invalidations"], 0)

    def test_equal_seeds_replay_equal_requests(self):
        for w in ("lubm-analyst", "sp2b-churn"):
            with self.subTest(workload=w):
                a, _ = result(run(w, seed=5))
                b, _ = result(run(w, seed=5, trace=1))
                c, _ = result(run(w, seed=6))
                self.assertEqual(request_hashes(a), request_hashes(b))
                self.assertEqual(len(request_hashes(a)), 1)
                self.assertNotEqual(request_hashes(a), request_hashes(c))

    @unittest.skipUnless("--debug-build" in sys.argv[1:] or
                         os.environ.get("RDFBENCH_DEBUG_BUILD"),
                         "pass --debug-build")
    def test_unoptimised_build_refuses_to_time(self):
        with tempfile.TemporaryDirectory(dir=ROOT) as tmp:
            out = os.path.join(tmp, "debug")
            subprocess.run(["cmake", "-S", BENCH, "-B", out,
                            "-DCMAKE_BUILD_TYPE=Debug"], check=True,
                           capture_output=True)
            subprocess.run(["cmake", "--build", out, "--target", "rdfbench",
                            "-j", "4"], check=True, capture_output=True)
            p = subprocess.run([os.path.join(out, "rdfbench"), "--workload",
                                "sp2b-serve", "--seed", "1", "--seconds", "1",
                                "--trace", "0", "--tiny"],
                               capture_output=True, text=True)
            self.assertNotEqual(p.returncode, 0)
            self.assertNotIn('"correct"', p.stdout)


if __name__ == "__main__":
    argv = [a for a in sys.argv if a != "--debug-build"]
    if len(argv) != len(sys.argv):
        os.environ["RDFBENCH_DEBUG_BUILD"] = "1"
    unittest.main(argv=argv)
