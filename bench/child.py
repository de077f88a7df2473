"""One repetition of a workload in a fresh interpreter.

    python3 bench/child.py ROOT WORKLOAD SIZE SEED MODE

MODE is ``setup`` (import and build the root systems, nothing else), ``run``
(also run every operation) or ``trace`` (run with the tracer installed and
write the trace to the file named by a sixth argument).  The last line of
standard output is one JSON object.  fusionring is imported from ROOT/src
and nowhere else.
"""
import sys
import time


def main():
    root, workload, size, seed, mode = sys.argv[1:6]
    sys.path[:0] = [root + "/src", root + "/bench"]
    from workloads import ROOT_SYSTEMS   # stdlib only; loaded before the set-up clock starts

    start = time.perf_counter()
    import fusionring as api
    for name in ROOT_SYSTEMS[workload]:
        api.build_root_system(name)
    setup_s = time.perf_counter() - start

    import json
    import os
    import resource
    if not os.path.realpath(api.__file__).startswith(os.path.realpath(root + "/src") + os.sep):
        raise SystemExit(f"fusionring was imported from {api.__file__}, not {root}/src")
    out = {"setup_s": setup_s}
    if mode != "setup":
        trace_path = sys.argv[6] if mode == "trace" else None
        out.update(run(api, workload, size, int(seed), trace_path))
    out["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    print(json.dumps(out))


def run(api, workload, size, seed, trace_path):
    import json
    from contextlib import nullcontext
    from workloads import digest, operations

    tracer = None
    if trace_path:
        from tracer import Tracer
        tracer = Tracer()
        tracer.install()
    results = []
    wall_s = cpu_s = 0.0
    for op in operations(api, workload, size, seed):
        error = None
        with tracer.operation(op.id) if tracer else nullcontext():
            start, cpu = time.perf_counter(), time.process_time()
            try:
                value = op.run()
            except Exception as exc:   # counted as a failed operation
                value, error = None, f"{type(exc).__name__}: {exc}"
            took = time.perf_counter() - start
            cpu_s += time.process_time() - cpu
        wall_s += took
        entry = {"id": op.id, "seconds": took, "verdict": None, "digest": None,
                 "error": error, "expect": op.expect}
        if error is None:
            verdict, payload = op.judge(value)
            entry["verdict"] = verdict
            if payload is not None:
                entry["digest"] = digest(payload)
        results.append(entry)
    # cpu_s is kept for diagnosis only: wall_s minus cpu_s is time the child
    # was ready but not running, such as steal on a shared host
    out = {"wall_s": wall_s, "cpu_s": cpu_s, "ops": results}
    if tracer:
        tracer.uninstall()
        out["totals"] = tracer.totals()
        with open(trace_path, "w") as fh:
            json.dump(tracer.to_json_dict(), fh)
    return out


if __name__ == "__main__":
    main()
