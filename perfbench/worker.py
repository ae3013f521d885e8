"""One round of one workload, in a fresh single-threaded process.

    python3 perfbench/worker.py --workload NAME --seed N --t0 NS [--trace] [--setup-only]

`--t0` is the CLOCK_MONOTONIC reading (ns) taken by the parent just
before it started this process, so `setup_s` covers interpreter start,
`import spanalg` and the workload's set-up. The round prints one JSON
line: the set-up time and, unless `--setup-only`, the timed work's wall
and CPU time, peak RSS, operation counts, the report digest and the
problems its checks found. With `--trace` it adds the per-layer metrics.
"""

import argparse
import hashlib
import json
import os
import resource
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
SRC = os.path.join(os.path.dirname(HERE), "src")


def main():
    p = argparse.ArgumentParser()
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--t0", type=int, required=True)
    p.add_argument("--trace", action="store_true")
    p.add_argument("--setup-only", action="store_true")
    args = p.parse_args()

    sys.path[:0] = [SRC, HERE]
    import spanalg
    if os.path.dirname(os.path.abspath(spanalg.__file__)) != os.path.join(SRC, "spanalg"):
        sys.exit(f"imported spanalg from {spanalg.__file__}, not from {SRC}")
    tracer = None
    if args.trace:
        import tracing
        tracer = tracing.Tracer()
        tracing.install(tracer)
    from workloads import WORKLOADS

    wl = WORKLOADS[args.workload]
    state = wl.setup(args.seed)
    out = {"setup_s": (time.monotonic_ns() - args.t0) / 1e9}
    if not args.setup_only:
        c0, w0 = time.process_time(), time.perf_counter()
        raw = wl.run(state)
        out["wall_s"] = time.perf_counter() - w0
        out["cpu_s"] = time.process_time() - c0
        out["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
        if tracer is not None:
            out["layers"] = tracing.layer_metrics(tracer)
            out["traced"] = dict(sorted(tracer.stats.items()))
        report = wl.report(state, raw)
        out["ops"], out["failed"] = wl.ops(raw)
        out["digest"] = hashlib.sha256(report.encode()).hexdigest()
        out["problems"] = wl.check(state, raw, report)
    print(json.dumps(out, sort_keys=True))


if __name__ == "__main__":
    main()
