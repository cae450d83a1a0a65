#!/usr/bin/env python3
"""Self-tests of the benchmark: tiny geometries, so the whole file runs in
well under a minute once the binary is built.

    python3 perfbench/test_perfbench.py
"""

import json
import os
import re
import subprocess
import unittest

import run

BENCHMARK_JSON = os.path.join(run.ROOT, "BENCHMARK.json")
WORKLOADS = ["hub-tcp-1k", "hub-2c-256b", "owner-file-rw"]


def perfbench(workload, trace="0", fault="none"):
    """Runs a one-second tiny-geometry run; returns (exit code, stdout)."""
    command = [BINARY, "--workload", workload, "--seed", "7", "--seconds",
               "1", "--trace", trace, "--tiny", "--fault", fault,
               "--tmpdir", run.scratch_env()["TMPDIR"]]
    done = subprocess.run(command, capture_output=True, text=True,
                          timeout=120)
    return done.returncode, done.stdout


def result(stdout):
    return json.loads(stdout.strip().splitlines()[-1])


def declared(kind):
    with open(BENCHMARK_JSON) as f:
        spec = json.load(f)
    return {m["name"]: m["unit"] for m in spec[kind]}


def setUpModule():
    global BINARY
    BINARY = run.build()


class MetricsTest(unittest.TestCase):

    def check_run(self, workload, trace, kind):
        code, stdout = perfbench(workload, trace)
        self.assertEqual(code, 0, stdout)
        out = result(stdout)
        self.assertTrue(out["correct"])
        self.assertEqual(out["failed"], 0)
        self.assertGreater(out["attempted"], 0)
        printed = {name: m["unit"] for name, m in out["metrics"].items()}
        self.assertEqual(printed, declared(kind))
        for name, unit in printed.items():
            self.assertRegex(stdout, r"\n  %s +\S+ %s\n" %
                             (re.escape(name), re.escape(unit)))
        return out, stdout

    def test_plain_run_prints_every_end_to_end_metric(self):
        for workload in WORKLOADS:
            with self.subTest(workload=workload):
                out, stdout = self.check_run(workload, "0", "end_to_end")
                self.assertGreater(out["metrics"]["throughput_ops"]["value"],
                                   0)
                # Printed, but not a JSON metric: it reads 0 when correct.
                self.assertRegex(stdout, r"\n  error_rate +0\.0000 ratio\n")
                # The medians leave out stolen chunks, never more than
                # two thirds of them.
                chunks = re.search(r"over (\d+) chunks .*medians over the "
                                   r"(\d+) chunks", stdout)
                self.assertIsNotNone(chunks, stdout)
                total, kept = int(chunks.group(1)), int(chunks.group(2))
                self.assertGreaterEqual(3 * kept, total)
                self.assertLessEqual(kept, total)

    def test_traced_run_prints_every_layer_metric(self):
        for workload in WORKLOADS:
            with self.subTest(workload=workload):
                out, _ = self.check_run(workload, "1", "per_layer")
                metrics = out["metrics"]
                latency = metrics["traced_latency_us"]["value"]
                self.assertLess(abs(metrics["unattributed_us"]["value"]),
                                0.05 * latency)
                self.assertGreater(metrics["hardware.crypto_us"]["value"], 0)


class FaultTest(unittest.TestCase):
    """Faults on owner-file-rw come from a Disk under the provider's
    StorageServer; on hubs, from a read on a shard device's disk."""

    def test_ciphertext_bit_flip_fails_the_run(self):
        code, stdout = perfbench("owner-file-rw", fault="bitflip")
        self.assertNotEqual(code, 0)
        out = result(stdout)
        self.assertFalse(out["correct"])
        self.assertGreater(out["failed"], 0)
        rate = float(re.search(r"error_rate (\S+)", stdout).group(1))
        self.assertGreater(rate, 0)

    def test_extra_disk_read_trips_the_footprint_check(self):
        for workload, trace in [("owner-file-rw", "0"), ("hub-tcp-1k", "1")]:
            with self.subTest(workload=workload):
                code, stdout = perfbench(workload, trace, "extra-read")
                self.assertNotEqual(code, 0)
                self.assertGreater(result(stdout)["failed"], 0)
                violations = int(re.search(r"footprint violations (\d+)",
                                           stdout).group(1))
                self.assertGreater(violations, 0)


if __name__ == "__main__":
    unittest.main()
