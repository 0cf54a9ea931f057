#!/usr/bin/env python3
"""Self-test of the benchmark: short runs of every workload on tiny inputs.

Checks that
  * an untraced run prints every end-to-end metric of BENCHMARK.json, with
    its unit, and passes the oracle;
  * a traced run prints every per-layer metric, with its unit;
  * the oracle rejects a deliberately corrupted outcome (one certain tuple
    dropped, or one witness edge removed): the run reports correct=false
    and failed > 0, so the check is not vacuous.

Usage (from the repository root):  python3 perfbench/selftest.py
Exits 0 when every check passes.
"""

import json
import os
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
RESULT_KEYS = {"correct", "attempted", "failed", "metrics"}
# Every workload the harness runs, including egd-large, which is not in
# BENCHMARK.json (see README.md), with the corruption its outputs can
# show: corpus-batch and egd-large are query-free (witnesses only);
# served-certain carries certain answers.
CORRUPTIONS = {
    "corpus-batch": "witness",
    "served-certain": "answer",
    "egd-large": "witness",
}


def run(workload, trace, extra=()):
    cmd = [sys.executable, os.path.join(ROOT, "perfbench", "run.py"),
           "--workload", workload, "--seed", "1", "--seconds", "1",
           "--trace", str(trace), "--tiny"] + list(extra)
    done = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE,
                          stderr=subprocess.DEVNULL, text=True, timeout=180)
    lines = done.stdout.strip().splitlines()
    if done.returncode != 0 or not lines:
        return None, done.stdout
    return json.loads(lines[-1]), done.stdout


def check_metrics(result, expected, what):
    problems = []
    if set(result) != RESULT_KEYS:
        problems.append("%s: result keys %s" % (what, sorted(result)))
        return problems
    metrics = result["metrics"]
    for spec in expected:
        got = metrics.get(spec["name"])
        if got is None:
            problems.append("%s: missing %s" % (what, spec["name"]))
        elif got.get("unit") != spec["unit"]:
            problems.append("%s: %s has unit %r, expected %r" %
                            (what, spec["name"], got.get("unit"),
                             spec["unit"]))
    extra = set(metrics) - {spec["name"] for spec in expected}
    if extra:
        problems.append("%s: unexpected metrics %s" % (what, sorted(extra)))
    return problems


def main():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        bench = json.load(f)
    problems = ["%s: not self-tested" % w["name"] for w in bench["workloads"]
                if w["name"] not in CORRUPTIONS]
    for workload in CORRUPTIONS:
        result, out = run(workload, 0)
        if result is None:
            problems.append("%s: untraced run failed:\n%s" % (workload, out))
            continue
        problems += check_metrics(result, bench["end_to_end"],
                                  workload + " untraced")
        if not result["correct"] or result["failed"] != 0:
            problems.append("%s: clean run failed the oracle:\n%s" %
                            (workload, out))

        result, out = run(workload, 1)
        if result is None:
            problems.append("%s: traced run failed:\n%s" % (workload, out))
        else:
            problems += check_metrics(result, bench["per_layer"],
                                      workload + " traced")

        corruption = CORRUPTIONS[workload]
        result, out = run(workload, 0, ["--corrupt", corruption])
        if result is None:
            problems.append("%s: corrupted run failed:\n%s" % (workload, out))
        elif result["correct"] or result["failed"] == 0:
            problems.append("%s: oracle accepted a dropped %s:\n%s" %
                            (workload, corruption, out))
        else:
            print("%s: oracle rejected the dropped %s (failed %d of %d)" %
                  (workload, corruption, result["failed"],
                   result["attempted"]))
    for problem in problems:
        print("FAIL " + problem)
    print("selftest: %s" % ("FAILED" if problems else "ok"))
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
