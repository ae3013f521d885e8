"""Time-to-verdict benchmark for spanalg.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source checkout. Every round is a fresh
single-threaded `perfbench/worker.py` process, and rounds run one after
another. The last line of standard output is one JSON object with
`correct`, `attempted`, `failed` and `metrics`.

--trace 0: whole timed rounds, each after a set-up-only round, while
the next is expected to end within S seconds. Prints the medians of
wall_s, cpu_s, setup_s and peak_rss_mb.

--trace 1: one untraced round, then traced rounds while the next is
expected to end within S seconds. Prints the per-layer metrics of perfbench/tracing.py (counts from
the first traced round, times as medians) and trace.overhead_s, the
traced wall time minus the untraced one.

Every round's outputs are checked against perfbench/oracle.py, and every
round's report must be byte-identical to the first. Rounds are also
written to perfbench/results/.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
# the keys of workloads.WORKLOADS, listed here because run.py must not import spanalg
WORKLOADS = ("laws-keyed", "keyless", "maps", "repair")
RUN_LIMIT_S = 165     # a run measures at most this long, whatever --seconds says


class RoundFailed(Exception):
    pass


def run_round(workload, seed, deadline, *flags):
    t0 = time.monotonic_ns()
    cmd = [sys.executable, os.path.join(HERE, "worker.py"), "--workload", workload,
           "--seed", str(seed), "--t0", str(t0), *flags]
    env = dict(os.environ, PYTHONHASHSEED="0")
    try:
        proc = subprocess.run(cmd, cwd=ROOT, env=env, capture_output=True, text=True,
                              timeout=max(deadline - time.monotonic(), 1))
    except subprocess.TimeoutExpired:
        raise RoundFailed(f"{workload} round timed out")
    if proc.returncode != 0:
        raise RoundFailed(f"{workload} round exited {proc.returncode}:\n{proc.stderr}")
    return json.loads(proc.stdout.splitlines()[-1])


def repeat(step, seconds, start):
    """Call step() while the next call is expected to end within `seconds`
    of `start`, judged by the median duration so far; at least once."""
    durations = []
    while True:
        t = time.monotonic()
        step()
        durations.append(time.monotonic() - t)
        if time.monotonic() - start + statistics.median(durations) > seconds:
            return


def check_rounds(rounds):
    problems = [p for r in rounds for p in r["problems"]]
    if len({r["digest"] for r in rounds}) != 1:
        problems.append("report bytes differ between rounds")
    return problems


def untraced(workload, seed, seconds):
    start = time.monotonic()
    deadline = start + RUN_LIMIT_S
    # the first process compiles the bytecode cache; it is not counted
    run_round(workload, seed, deadline, "--setup-only")
    probes, rounds = [], []

    def step():
        # a set-up-only process before each round spreads the set-up
        # samples over the run
        probes.append(run_round(workload, seed, deadline, "--setup-only"))
        rounds.append(run_round(workload, seed, deadline))

    repeat(step, min(seconds, RUN_LIMIT_S), start)
    med = lambda key: statistics.median(r[key] for r in rounds)
    metrics = {
        "wall_s": (med("wall_s"), "s"),
        "cpu_s": (med("cpu_s"), "s"),
        "setup_s": (statistics.median(r["setup_s"] for r in probes + rounds), "s"),
        "peak_rss_mb": (med("peak_rss_mb"), "MB"),
    }
    return rounds, probes, metrics


def traced(workload, seed, seconds):
    start = time.monotonic()
    deadline = start + RUN_LIMIT_S
    plain = run_round(workload, seed, deadline)
    rounds = []
    repeat(lambda: rounds.append(run_round(workload, seed, deadline, "--trace")),
           min(seconds, RUN_LIMIT_S), start)
    layers = [r["layers"] for r in rounds]
    metrics = {}
    for name, value in layers[0].items():
        if isinstance(value, int):
            metrics[name] = (value, "count")
        elif name.endswith("hit_ratio"):
            metrics[name] = (value, "ratio")
        else:
            metrics[name] = (statistics.median(l[name] for l in layers), "s")
    overhead = statistics.median(r["wall_s"] for r in rounds) - plain["wall_s"]
    metrics["trace.overhead_s"] = (overhead, "s")
    counts = [{k: v for k, v in l.items() if isinstance(v, int)} for l in layers]
    if any(c != counts[0] for c in counts):
        rounds[0]["problems"].append("traced counts differ between rounds")
    return [plain] + rounds, [], metrics


def main():
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=WORKLOADS)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args()
    if not os.path.isfile(os.path.join(ROOT, "src", "spanalg", "__init__.py")):
        print(f"no spanalg sources under {ROOT}/src: run from a source checkout",
              file=sys.stderr)
        return 2

    measure = traced if args.trace else untraced
    try:
        rounds, probes, metrics = measure(args.workload, args.seed, args.seconds)
    except RoundFailed as exc:
        print(exc, file=sys.stderr)
        return 1
    problems = check_rounds(rounds)
    for r in rounds:
        print(f"round wall_s={r['wall_s']:.4f} cpu_s={r['cpu_s']:.4f} "
              f"setup_s={r['setup_s']:.4f} peak_rss_mb={r['peak_rss_mb']:.1f} "
              f"ops={r['ops']} digest={r['digest'][:16]}")
    for problem in problems[:20]:
        print(f"problem: {problem}")
    result = {
        "correct": not problems,
        "attempted": sum(r["ops"] for r in rounds),
        "failed": sum(r["failed"] for r in rounds),
        "metrics": {name: {"value": v, "unit": unit} for name, (v, unit) in metrics.items()},
    }
    results = os.path.join(HERE, "results")
    os.makedirs(results, exist_ok=True)
    path = os.path.join(results, f"{args.workload}-seed{args.seed}-trace{args.trace}.json")
    with open(path, "w") as fh:
        json.dump({"args": vars(args), "rounds": rounds, "setup_probes": probes,
                   "result": result}, fh, indent=1, sort_keys=True)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
