#!/usr/bin/env python3
"""Determinism self-check of the repo benchmark.

    python3 perfbench/tests/test_determinism.py [workload ...]

For each workload (default: all), two runs on one seed must print
byte-identical protocol counts: the `counts` line, the deterministic
end-to-end metrics (bytes_per_query, rounds_per_query, storage_ratio) and
every per-layer count of the traced run (core.*, store.evals, store.bytes,
endpoint.calls, endpoint.bytes_*, shard.* counts). A different seed must
produce different inputs and different counts. Runs use --seconds 1, the
shortest script the benchmark allows.
"""
import functools
import json
import os
import subprocess
import sys
import unittest

RUN = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
                   "run.py")
WORKLOADS = ["lookup-verified", "batch-tcp", "churn-sharded"]

# Metrics whose values are counts of protocol work: they must repeat exactly.
E2E_COUNTS = ["bytes_per_query", "rounds_per_query", "storage_ratio"]
LAYER_COUNTS = [
    "core.share_derivations", "core.client_evals", "core.reconstructions",
    "core.zero_candidates", "core.fetch_rounds", "core.polys_fetched",
    "core.consts_fetched", "core.trusted_fallbacks", "core.visited_frac",
    "core.server_failovers", "store.evals", "store.bytes", "endpoint.calls",
    "endpoint.bytes_up", "endpoint.bytes_down", "shard.shards_walked",
    "shard.rounds_sum", "shard.evals_skew",
]


def run(workload, seed, trace, repeat=0):
    """One benchmark run; `repeat` distinguishes deliberate reruns."""
    done = subprocess.run(
        [sys.executable, RUN, "--workload", workload, "--seed", str(seed),
         "--seconds", "1", "--trace", str(trace)],
        capture_output=True, text=True, timeout=900)
    if done.returncode != 0:
        raise AssertionError("%s seed %d trace %d exited %d:\n%s" % (
            workload, seed, trace, done.returncode, done.stderr[-3000:]))
    lines = done.stdout.splitlines()
    result = json.loads(lines[-1])
    digest = next(l for l in lines if l.startswith("inputs:")).split()[-1]
    counts = [l for l in lines if l.startswith("counts ")]
    return {"result": result, "digest": digest, "counts": counts}


cached = functools.lru_cache(maxsize=None)(run)


def values(result, names):
    return {n: result["metrics"][n]["value"] for n in names}


class Determinism(unittest.TestCase):
    workloads = WORKLOADS

    def test_same_seed_same_counts(self):
        for w in self.workloads:
            with self.subTest(workload=w):
                a, b = cached(w, 7, 0), run(w, 7, 0, repeat=1)
                self.assertEqual(a["digest"], b["digest"])
                self.assertEqual(a["counts"], b["counts"])
                self.assertEqual(values(a["result"], E2E_COUNTS),
                                 values(b["result"], E2E_COUNTS))
                ta, tb = run(w, 7, 1), run(w, 7, 1, repeat=1)
                self.assertEqual(values(ta["result"], LAYER_COUNTS),
                                 values(tb["result"], LAYER_COUNTS))
                # The traced run's untraced pass replays the same script.
                self.assertEqual(ta["counts"][0].replace("untraced", ""),
                                 a["counts"][0].replace("untraced", ""))

    def test_other_seed_other_inputs(self):
        for w in self.workloads:
            with self.subTest(workload=w):
                a, c = cached(w, 7, 0), run(w, 8, 0)
                self.assertNotEqual(a["digest"], c["digest"])
                self.assertNotEqual(a["counts"], c["counts"])


if __name__ == "__main__":
    picked = [a for a in sys.argv[1:] if not a.startswith("-")]
    if picked:
        Determinism.workloads = picked
        sys.argv = [sys.argv[0]] + [a for a in sys.argv[1:] if a.startswith("-")]
    unittest.main()
