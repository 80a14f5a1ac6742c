"""The benchmark's own tests. Run from the repository root:

    python3 -m unittest mrmbbench/test_mrmbbench.py

They build the mrmbbench binary (like run.py) and run short passes of every workload.
"""

import json
import os
import shutil
import subprocess
import sys
import unittest

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
RUN = [sys.executable, os.path.join("mrmbbench", "run.py")]
WORKLOADS = ("text-lz4-disk", "skew-sum-combine")


def run(workload, trace, seconds=2, extra=(), cwd=ROOT, env=None):
    proc = subprocess.run(
        RUN + ["--workload", workload, "--seed", "7", "--seconds",
               str(seconds), "--trace", str(trace)] + list(extra),
        cwd=cwd, env=env, capture_output=True, text=True, timeout=600)
    return proc


def result(proc):
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.strip().splitlines()[-1])


def full_record(workload, trace):
    path = os.path.join(ROOT, ".bench_build", "results",
                        "result-%s-seed7-trace%d.json" % (workload, trace))
    with open(path) as f:
        return json.load(f)


class BenchmarkTest(unittest.TestCase):

    @classmethod
    def setUpClass(cls):
        with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
            cls.spec = json.load(f)
        cls.traced = {w: result(run(w, 1)) for w in WORKLOADS}

    def test_end_to_end_metrics_match_spec(self):
        out = result(run("text-lz4-disk", 0, seconds=1))
        self.assertTrue(out["correct"])
        self.assertEqual(out["failed"], 0)
        want = {m["name"]: m["unit"] for m in self.spec["end_to_end"]}
        got = {k: v["unit"] for k, v in out["metrics"].items()}
        self.assertEqual(got, want)
        for name, metric in out["metrics"].items():
            self.assertGreater(metric["value"], 0, name)
        host = full_record("text-lz4-disk", 0)["host"]
        for key in ("cpu_model", "nproc", "compiler", "build_type",
                    "git_commit", "source_digest"):
            self.assertIn(key, host)

    def test_per_layer_metrics_match_spec(self):
        want = {m["name"]: m["unit"] for m in self.spec["per_layer"]}
        for workload, out in self.traced.items():
            self.assertTrue(out["correct"], workload)
            got = {k: v["unit"] for k, v in out["metrics"].items()}
            self.assertEqual(got, want, workload)

    def test_wrong_fingerprint_counts_as_failure(self):
        out = result(run("text-lz4-disk", 0, seconds=1,
                         extra=["--expect", "0badf00d"]))
        self.assertFalse(out["correct"])
        # Every functional job fails the check; the sim runs still pass.
        self.assertGreater(out["failed"], 0)
        self.assertLess(out["failed"], out["attempted"])
        failures = full_record("text-lz4-disk", 0)["failures"]
        self.assertIn("differs from the oracle", failures[0])

    def test_each_workload_exercises_only_its_layers(self):
        m = {w: {k: v["value"] for k, v in out["metrics"].items()}
             for w, out in self.traced.items()}
        for w in WORKLOADS:
            on = w == "text-lz4-disk"
            self.assertEqual(m[w]["io.block_codec.calls"] > 0, on, w)
            self.assertEqual(m[w]["io.spill_store.bytes_written"] > 0, on, w)
            on = w == "skew-sum-combine"
            self.assertEqual(m[w]["net.rpcs"] > 0, on, w)
            self.assertEqual(m[w]["net.fetch_s"] > 0, on, w)
            self.assertEqual(m[w]["rpc.frames"] > 0, on, w)
            self.assertEqual(m[w]["mapred.combiner.in_records"] > 0, on, w)
            self.assertEqual(m[w]["mapred.node_combiner.streams"] > 0, on, w)
            self.assertGreater(m[w]["io.record_gen.bytes"], 0, w)
            self.assertGreater(m[w]["mapred.map.records"], 0, w)

    def test_shares_show_each_workloads_layer(self):
        shares = {w: full_record(w, 1)["shares"] for w in WORKLOADS}
        disk = shares["text-lz4-disk"]
        io = disk["io.block_codec"] + disk["io.spill_store"]
        self.assertGreater(io, 0.5)
        self.assertIn(max(disk, key=disk.get),
                      ("io.block_codec", "io.spill_store"))
        self.assertEqual(disk["net.fetch"], 0)
        skew = shares["skew-sum-combine"]
        self.assertGreater(skew["net.fetch"], 0)
        self.assertGreater(skew["mapred.combiner"], 0.1)
        self.assertEqual(skew["io.block_codec"] + skew["io.spill_store"], 0)

    def test_fails_without_the_repository(self):
        bare = os.path.join(ROOT, ".bench_build", "test-bare")
        shutil.rmtree(bare, ignore_errors=True)
        os.makedirs(bare)
        shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), bare)
        shutil.copytree(os.path.join(ROOT, "mrmbbench"),
                        os.path.join(bare, "mrmbbench"),
                        ignore=shutil.ignore_patterns("__pycache__"))
        env = dict(os.environ, CARGO_TARGET_DIR=".bench_build")
        proc = run("text-lz4-disk", 0, cwd=bare, env=env)
        shutil.rmtree(bare, ignore_errors=True)
        self.assertNotEqual(proc.returncode, 0)
        self.assertNotIn('"metrics"', proc.stdout)


if __name__ == "__main__":
    unittest.main()
