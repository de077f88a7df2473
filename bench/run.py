"""fusionring benchmark: one command for the extract, certify and checks workloads.

    python3 bench/run.py --workload extract --seed 1 --seconds 45 --trace 0
    python3 bench/run.py --workload all            # every workload, one after another
    python3 bench/run.py --workload certify --record    # rewrite its golden digests

Every repetition runs in a fresh child interpreter (bench/child.py), one
child at a time, with PYTHONHASHSEED fixed, because fusionring's caches are
process-global.  The child calls the package's public Python API from
``src/`` of this checkout.

With ``--trace 0`` the command measures the end-to-end metrics: set-up time
as the median over several fresh interpreters, then whole repetitions of
the workload until ``--seconds`` are used (at least one), reporting
medians.  With ``--trace 1`` it runs one untraced and one traced repetition
and reports the per-layer metrics (see bench/tracer.py).

Each operation's output is checked: against its golden digest and verdict
(bench/golden.json), or against the answer known by construction for the
seeded membership queries.  The last line of standard output is one JSON
object with the keys correct, attempted, failed and metrics.  The exit code
is 0 when every operation was correct, 1 when some were not, and 2 when the
benchmark could not run (for instance without ``src/``), in which case no
result is printed.
"""
from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ("extract", "certify", "checks")
GOLDEN = os.path.join(HERE, "golden.json")
OUT_DIR = os.path.join(HERE, "out")
SETUP_SAMPLES = 9          # fresh interpreters timed for setup_s, besides the runs
DEADLINE_S = 170           # the whole command ends within this many seconds
CHILD_ENV = {"PYTHONHASHSEED": "0"}

LAYERS = ("rootdata", "repring", "fusion", "twisted", "intlinalg", "resolution", "groebner")

# Per-layer metrics: (traced name, statistic).  Statistics come from the
# tracer's aggregate [calls, self_s, incl_s, flagged]; a *_ratio is
# flagged / calls, with the flag each target records in bench/tracer.py.
PER_LAYER = (
    ("rootdata.full_weights", ("calls", "self_s", "hit_ratio")),
    ("rootdata.shifted_dominant_reduce", ("calls", "self_s")),
    ("repring.tensor_product", ("calls", "self_s")),
    ("repring.to_polynomial", ("calls", "self_s")),
    ("fusion.fold_weight", ("calls", "self_s", "wall_ratio")),
    ("fusion.fusion_table", ("self_s",)),
    ("fusion.verlinde_numeric_check", ("self_s",)),
    ("twisted.regularize_affine", ("calls", "self_s", "wall_ratio")),
    ("twisted.find_module_basis", ("calls", "self_s")),
    ("intlinalg.ZEchelon.insert", ("calls", "self_s", "dependent_ratio")),
    ("intlinalg.ZEchelon.reduce", ("calls", "self_s")),
    ("intlinalg.ZEchelon.absorb_unit", ("calls",)),
    ("resolution.extract_presentation", ("self_s",)),
    ("resolution.verify_presentation", ("self_s",)),
    ("resolution.d_squared_check", ("self_s",)),
    ("resolution.cokernel_vs_oracle", ("self_s",)),
    ("groebner.quotient_codimension", ("calls", "incl_s")),
    ("groebner.buchberger", ("self_s",)),
    ("groebner.normal_form", ("calls", "self_s", "zero_ratio")),
    ("groebner.FieldPoly.leading", ("calls", "self_s")),
)
UNITS = {"calls": "count", "self_s": "s", "incl_s": "s"}


class BenchError(Exception):
    """The benchmark could not run; no result is printed."""


# -- children -----------------------------------------------------------------

def child(workload, size, seed, mode, deadline, trace_path=None):
    cmd = [sys.executable, "-s", os.path.join(HERE, "child.py"), ROOT, workload, size,
           str(seed), mode]
    if trace_path:
        cmd.append(trace_path)
    env = {k: v for k, v in os.environ.items() if not k.startswith("PYTHON")}
    env.update(CHILD_ENV)
    left = deadline - time.monotonic()
    if left <= 0:
        raise BenchError(f"out of time before a {mode} child of {workload}")
    try:
        proc = subprocess.run(cmd, env=env, cwd=ROOT, capture_output=True, text=True,
                              timeout=left)
    except subprocess.TimeoutExpired:
        raise BenchError(f"{mode} child of {workload} ran past the deadline") from None
    if proc.returncode != 0:
        raise BenchError(f"{mode} child of {workload} exited {proc.returncode}:\n"
                         + proc.stderr[-2000:])
    return json.loads(proc.stdout.strip().splitlines()[-1])


def judge(op, golden):
    """True when an operation's output is correct."""
    if op["error"] is not None:
        return False
    if op["expect"] is not None:
        return op["verdict"] == op["expect"]
    return golden.get(op["id"]) == {"verdict": op["verdict"], "digest": op["digest"]}


# -- metrics -----------------------------------------------------------------

def end_to_end(workload, args, deadline):
    """Set-up samples, then whole repetitions until args.seconds are used."""
    child(workload, args.size, args.seed, "setup", deadline)   # writes byte-code caches
    setups = [child(workload, args.size, args.seed, "setup", deadline)["setup_s"]
              for _ in range(SETUP_SAMPLES)]
    runs = []
    start = time.monotonic()
    while True:
        t = time.monotonic()
        runs.append(child(workload, args.size, args.seed, "run", deadline))
        took = time.monotonic() - t
        if time.monotonic() - start + took > args.seconds:
            break
    setups += [r["setup_s"] for r in runs]
    metrics = {
        "wall_s": (statistics.median(r["wall_s"] for r in runs), "s"),
        "setup_s": (statistics.median(setups), "s"),
        "peak_rss_mb": (statistics.median(r["peak_rss_mb"] for r in runs), "MB"),
    }
    return metrics, runs, {"setup_samples": setups,
                           "wall_samples": [r["wall_s"] for r in runs],
                           "cpu_samples": [r["cpu_s"] for r in runs]}


def per_layer(workload, args, deadline):
    """One untraced and one traced repetition; metrics from the traced one."""
    plain = child(workload, args.size, args.seed, "run", deadline)
    os.makedirs(OUT_DIR, exist_ok=True)
    trace_path = os.path.join(OUT_DIR, f"trace-{workload}-seed{args.seed}.json")
    traced = child(workload, args.size, args.seed, "trace", deadline, trace_path)
    metrics = layer_metrics(traced["totals"])
    metrics["trace.overhead_s"] = (traced["wall_s"] - plain["wall_s"], "s")
    return metrics, [plain, traced], {"trace_file": os.path.relpath(trace_path, ROOT),
                                      "totals": traced["totals"]}


def layer_metrics(totals):
    metrics = {}
    for name, stats in PER_LAYER:
        calls, self_s, incl_s, flagged = totals.get(name, (0, 0.0, 0.0, 0))
        values = {"calls": calls, "self_s": self_s, "incl_s": incl_s}
        for stat in stats:
            if stat.endswith("_ratio"):
                metrics[f"{name}.{stat}"] = (flagged / calls if calls else 0.0, "ratio")
            else:
                metrics[f"{name}.{stat}"] = (values[stat], UNITS[stat])
    for layer in LAYERS:
        metrics[f"{layer}.self_s"] = (sum((v[1] for k, v in totals.items()
                                           if k.startswith(layer + ".")), 0.0), "s")
    return metrics


# -- stamps and output --------------------------------------------------------

def git_commit():
    """HEAD of the checkout, read from .git without running git."""
    try:
        with open(os.path.join(ROOT, ".git", "HEAD")) as fh:
            head = fh.read().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        path = os.path.join(ROOT, ".git", ref)
        if os.path.exists(path):
            with open(path) as fh:
                return fh.read().strip()
        with open(os.path.join(ROOT, ".git", "packed-refs")) as fh:
            for line in fh:
                if line.rstrip().endswith(" " + ref):
                    return line.split()[0]
    except OSError:
        pass
    return "unknown"


def stamp(args):
    return {"python": platform.python_version(), "nproc": len(os.sched_getaffinity(0)),
            "commit": git_commit(), "loadavg": os.getloadavg(),
            "seed": args.seed, "seconds": args.seconds, "trace": args.trace,
            "size": args.size}


def measure(workload, args, golden, deadline):
    started = stamp(args)
    take = per_layer if args.trace else end_to_end
    metrics, runs, detail = take(workload, args, deadline)
    failed_ops = [op["id"] for r in runs for op in r["ops"] if not judge(op, golden)]
    return {"workload": workload, "stamp": started,
            "attempted": sum(len(r["ops"]) for r in runs), "failed": len(failed_ops),
            "failed_ops": sorted(set(failed_ops)), "reps": len(runs),
            "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
            **detail}


def summary(record):
    m = record["metrics"]
    ratio = record["failed"] / record["attempted"]
    shown = " | ".join(f"{k} {m[k]['value']:.6g} {m[k]['unit']}"
                       for k in ("wall_s", "setup_s", "peak_rss_mb") if k in m)
    return (f"{record['workload']}: {shown + ' | ' if shown else ''}"
            f"ops_failed_ratio {ratio:.6g} ratio ({record['failed']}/{record['attempted']}"
            f" ops, {record['reps']} reps)")


def record_golden(workloads, golden_path):
    """Rewrite the golden digests of the given workloads at every size."""
    golden = load_golden(golden_path)
    deadline = time.monotonic() + 3600
    for workload in workloads:
        for size in ("tiny", "full"):
            run = child(workload, size, 0, "run", deadline)
            for op in run["ops"]:
                if op["expect"] is not None:
                    continue
                if op["error"] is not None or op["verdict"] in ("fail", "False"):
                    raise BenchError(f"refusing to record a failing {op['id']}: "
                                     f"{op['error'] or op['verdict']}")
                golden[op["id"]] = {"verdict": op["verdict"], "digest": op["digest"]}
            print(f"recorded {workload} ({size}): {len(run['ops'])} operations")
    with open(golden_path, "w") as fh:
        json.dump(dict(sorted(golden.items())), fh, indent=1)
        fh.write("\n")


def load_golden(path):
    try:
        with open(path) as fh:
            return json.load(fh)
    except FileNotFoundError:
        return {}


def main(argv=None):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", default="all", choices=WORKLOADS + ("all",))
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--seconds", type=float, default=45)
    p.add_argument("--trace", type=int, default=0, choices=(0, 1))
    p.add_argument("--size", default="full", choices=("full", "tiny"))
    p.add_argument("--golden", default=GOLDEN, help="golden digests to check against")
    p.add_argument("--record", action="store_true",
                   help="record golden digests instead of measuring")
    args = p.parse_args(argv)
    workloads = WORKLOADS if args.workload == "all" else (args.workload,)
    try:
        if args.record:
            record_golden(workloads, args.golden)
            return 0
        if not os.path.isfile(os.path.join(ROOT, "src", "fusionring", "__init__.py")):
            raise BenchError(f"no fusionring sources under {ROOT}/src")
        golden = load_golden(args.golden)
        deadline = time.monotonic() + DEADLINE_S * len(workloads)
        records = []
        for workload in workloads:
            record = measure(workload, args, golden, deadline)
            records.append(record)
            os.makedirs(OUT_DIR, exist_ok=True)
            name = f"{workload}-seed{args.seed}-trace{args.trace}.json"
            with open(os.path.join(OUT_DIR, name), "w") as fh:
                json.dump(record, fh, indent=1)
    except BenchError as exc:
        print(f"bench: {exc}", file=sys.stderr)
        return 2
    for record in records:
        print(json.dumps({"stamp": record["stamp"]}))
        print(summary(record))
        for op_id in record["failed_ops"]:
            print(f"FAILED {record['workload']} {op_id}", file=sys.stderr)
    prefix = len(records) > 1
    metrics = {(f"{r['workload']}.{k}" if prefix else k): v
               for r in records for k, v in r["metrics"].items()}
    attempted = sum(r["attempted"] for r in records)
    failed = sum(r["failed"] for r in records)
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0 if failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
