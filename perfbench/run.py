"""The klein-lattice benchmark.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --workload all --seed N --seconds S --trace 0

Runs from the root of a checkout; the library is imported from ``src``
without installing it.  Each workload runs in fresh child processes (see
worker.py), single-threaded, one closed-loop client.  ``--trace 0`` prints
the end-to-end metrics; ``--trace 1`` prints the per-layer metrics of a
traced pass and the tracing overhead.  The last line of standard output is
one JSON object: {"correct", "attempted", "failed", "metrics"}.
"""

import argparse
import glob
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)

from tracer import LAYER_METRICS  # noqa: E402
from workloads import WORKLOADS, child_env  # noqa: E402

SETUP_REPEATS = 5  # set-up is timed in this many fresh processes; the median counts
RUN_LIMIT_S = 170  # a run of one workload must end within 180 s

END_TO_END = [
    ("tasks_per_s", "tasks/s"),
    ("task_ms.p50", "ms"),
    ("task_ms.p90", "ms"),
    ("ok_rate", "fraction"),
    ("setup_s", "s"),
    ("peak_rss_mb", "MiB"),
]


def worker(work, workload, seed, seconds, mode, deadline):
    out = os.path.join(work, f"{workload}-{mode}-{len(os.listdir(work))}.json")
    cmd = [sys.executable, os.path.join(HERE, "worker.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--mode", mode, "--out", out]
    if mode == "trace":
        traces = os.path.join(ROOT, ".perfbench", "traces")
        os.makedirs(traces, exist_ok=True)
        cmd += ["--trace-dir", traces]
    # own process group, so that a timeout also ends the CLI children
    proc = subprocess.Popen(cmd, cwd=ROOT, env=child_env(), start_new_session=True)
    try:
        code = proc.wait(timeout=max(1.0, deadline - time.monotonic()))
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.wait()
        raise RuntimeError(f"{workload} {mode} worker ran out of time") from None
    if code != 0:
        raise RuntimeError(f"{workload} {mode} worker exited {code}")
    with open(out, encoding="utf-8") as fh:
        return json.load(fh)


def run_workload(work, name, seed, seconds, trace):
    deadline = time.monotonic() + RUN_LIMIT_S
    if trace:
        res = worker(work, name, seed, seconds, "trace", deadline)
        metrics = {}
        absent = []
        for metric, unit in LAYER_METRICS:
            value = res["layers"][metric]
            if value is None:
                absent.append(metric)
                value = 0
            metrics[metric] = {"value": value, "unit": unit}
            print(f"{name:17s} {metric:50s} {value:14.6g} {unit}")
        print(f"{name:17s} absent: {', '.join(absent) if absent else 'none'}")
        print(f"{name:17s} tracing overhead {res['layers']['trace.overhead']:.1%} "
              f"(untraced {res['plain_s']:.3f} s, traced {res['traced_s']:.3f} s, "
              f"{res['attempted']} tasks, {res['spans']} spans in {os.path.relpath(res['spans_file'], ROOT)})")
        print(f"{name:17s} digest {res['digest']} over {res['attempted']} tasks")
        return res, metrics
    setups = [worker(work, name, seed, seconds, "setup", deadline)
              for _ in range(SETUP_REPEATS - 1)]
    res = worker(work, name, seed, seconds, "run", deadline)
    setups.append({"setup_s": res["setup_s"], "measured_setup_s": res["measured"]["setup_s"]})
    res["setup_s"] = statistics.median(r["setup_s"] for r in setups)
    res["measured"]["setup_s"] = statistics.median(r["measured_setup_s"] for r in setups)
    metrics = {m: {"value": res[m], "unit": u} for m, u in END_TO_END}
    for m, u in END_TO_END:
        measured = res["measured"].get(m)
        note = f"  (measured {measured:.6g})" if measured else ""
        print(f"{name:17s} {m:12s} {res[m]:12.6g} {u}{note}")
    print(f"{name:17s} error_rate   {res['error_rate']:12.6g} fraction "
          f"({res['failed']} failed, {res['known_defects']} known defects)")
    print(f"{name:17s} samples {res['samples']} ({res['beyond_p90']} beyond p90), "
          f"{res['decks']} decks in {res['busy_s']:.2f} s, kernel mean {res['kernel_ms']:.3f} ms; "
          f"setup runs {', '.join(f'{x:.3f}' for x in sorted(r['setup_s'] for r in setups))} s")
    print(f"{name:17s} digest {res['digest']} over the first {res['digest_tasks']} tasks")
    for f in res["failures"]:
        print(f"{name:17s} FAILED {f}")
    return res, metrics


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS) + ["all"])
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=int, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()
    if not os.path.isfile(os.path.join(ROOT, "src", "klein_lattice", "__init__.py")):
        print("perfbench: no src/klein_lattice in this checkout", file=sys.stderr)
        return 2
    if glob.glob(os.path.join(ROOT, "src", "**", "__pycache__"), recursive=True):
        print("perfbench: warning: bytecode under src/ lets imports skip compiling, "
              "so setup_s and cli_batch read low", file=sys.stderr)
    os.environ["PERFBENCH_ROOT"] = ROOT
    work = os.path.join(ROOT, ".perfbench", f"work-{os.getpid()}")
    os.makedirs(work)
    try:
        attempted = failed = 0
        if args.workload == "all":
            # one workload after another; metric names get the workload as prefix
            metrics = {}
            for name in sorted(WORKLOADS):
                res, part = run_workload(work, name, args.seed, args.seconds, args.trace)
                metrics.update({f"{name}.{m}": v for m, v in part.items()})
                attempted += res["attempted"]
                failed += res["failed"]
        else:
            res, metrics = run_workload(work, args.workload, args.seed, args.seconds, args.trace)
            attempted, failed = res["attempted"], res["failed"]
    finally:
        shutil.rmtree(work, ignore_errors=True)
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
