"""Self-test of the benchmark on tiny versions of its workloads.

    python3 bench/selftest.py

Checks that:
  * every workload, untraced and traced, emits exactly the end-to-end and
    per-layer metrics BENCHMARK.json names, with every operation correct;
  * a corrupted golden digest, in a temporary copy of the corpus, makes
    the failed-operation ratio nonzero and the exit code nonzero;
  * a directory holding only BENCHMARK.json and bench/ makes the command
    fail without printing a result.
Temporary files go under bench/out/.  Exit code 0 means every check passed.
"""
from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
TMP = os.path.join(HERE, "out", "selftest")
CORRUPTED_OP = "extract/A1/1"


def bench(*args, root=ROOT):
    cmd = [sys.executable, os.path.join(root, "bench", "run.py"), "--size", "tiny",
           "--seed", "7", "--seconds", "0", *args]
    proc = subprocess.run(cmd, cwd=root, capture_output=True, text=True, timeout=170)
    lines = proc.stdout.strip().splitlines()
    try:
        result = json.loads(lines[-1]) if lines else None
    except json.JSONDecodeError:
        result = None
    return proc, result


def main():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        spec = json.load(fh)
    wanted = {0: sorted(m["name"] for m in spec["end_to_end"]),
              1: sorted(m["name"] for m in spec["per_layer"])}
    problems = []

    for workload in (w["name"] for w in spec["workloads"]):
        for trace in (0, 1):
            proc, result = bench("--workload", workload, "--trace", str(trace))
            tag = f"{workload} --trace {trace}"
            print(f"{tag}: exit {proc.returncode}, result {json.dumps(result)[:120]}")
            if proc.returncode != 0 or result is None:
                problems.append(f"{tag}: exit {proc.returncode}\n{proc.stderr[-1000:]}")
                continue
            got = sorted(result["metrics"])
            if got != wanted[trace]:
                problems.append(f"{tag}: metrics differ: missing "
                                f"{sorted(set(wanted[trace]) - set(got))}, extra "
                                f"{sorted(set(got) - set(wanted[trace]))}")
            if not result["correct"] or result["failed"] or result["attempted"] < 1:
                problems.append(f"{tag}: {result['failed']} of {result['attempted']} failed")

    shutil.rmtree(TMP, ignore_errors=True)
    os.makedirs(TMP)
    with open(os.path.join(HERE, "golden.json")) as fh:
        golden = json.load(fh)
    golden[CORRUPTED_OP]["digest"] = "0" * 64
    corrupted = os.path.join(TMP, "golden.json")
    with open(corrupted, "w") as fh:
        json.dump(golden, fh)
    proc, result = bench("--workload", "extract", "--golden", corrupted)
    if proc.returncode == 0 or result is None or not result["failed"] \
            or "ops_failed_ratio 0 " in proc.stdout:
        problems.append(f"corrupted digest was not caught: exit {proc.returncode}, "
                        f"result {result}")
    print(f"corrupted digest: exit {proc.returncode}, "
          f"failed {result and result['failed']} of {result and result['attempted']}")

    bare = os.path.join(TMP, "bare")
    shutil.copytree(HERE, os.path.join(bare, "bench"),
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), bare)
    proc, result = bench("--workload", "certify", root=bare)
    if proc.returncode == 0 or result is not None:
        problems.append(f"bare directory: exit {proc.returncode}, result {result}")
    print(f"bare directory: exit {proc.returncode}, result printed: {result is not None}")
    shutil.rmtree(TMP, ignore_errors=True)

    for p in problems:
        print("PROBLEM:", p)
    print("selftest", "FAILED" if problems else "passed")
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
