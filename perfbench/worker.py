"""One workload process: set-up, the timed closed loop, checks, digest.

Started by run.py in a fresh interpreter whose environment makes every
import of the library compile from source.  Writes one JSON result file.

    python3 perfbench/worker.py --workload NAME --seed N --seconds S \
        --mode setup|run|trace --out FILE
"""

import argparse
import hashlib
import json
import math
import os
import random
import resource
import statistics
import sys
import time

from calibrate import Calibrator
from workloads import WORKLOADS

MIN_TASKS = 100  # so that at least ten samples lie beyond p90
SETUP_SAMPLES = 20  # kernel samples before and after a timed set-up


def deck_rng(workload, seed, index):
    return random.Random(f"{workload}:{seed}:deck{index}")


def timed_setup(workload, seed):
    """Set-up time, measured and at reference speed (see calibrate.py)."""
    cal = Calibrator()
    cal.sample(SETUP_SAMPLES)
    t0 = time.perf_counter()
    # the first import of klein_lattice happens inside setup()
    workload.setup(random.Random(f"{workload.name}:{seed}:setup"))
    setup_s = time.perf_counter() - t0
    cal.sample(SETUP_SAMPLES)
    return setup_s, setup_s * cal.scale()


def run_tasks(workload, tasks, tracer=None, first_id=0, cal=None):
    """Closed loop, one client: each task starts when the previous ended.
    With a calibrator, kernel samples run between tasks, outside their
    times."""
    results = []
    for i, task in enumerate(tasks, first_id):
        if tracer is not None:
            tracer.start_task(i)
        t0 = time.perf_counter()
        try:
            out, err = workload.run(task), None
        except Exception as exc:  # an unexpected raise is a failed task
            out, err = None, f"{type(exc).__name__}: {exc}"
        dt = time.perf_counter() - t0
        results.append((dt, out, err))
        if cal is not None:
            cal.after()
    return results


def judge(workload, tasks, results):
    """Check every output outside the timed section.  Returns the status
    of each task ('ok', 'known_defect' or 'failed') and the failures."""
    statuses, failures = [], []
    known = getattr(workload, "known_defect", None)
    for task, (_, out, err) in zip(tasks, results):
        reason = err
        if err is None:
            try:
                reason = workload.check(task, out)
            except Exception as exc:  # a malformed output can break a check
                reason = f"the check raised {type(exc).__name__}: {exc}"
        if reason is None:
            statuses.append("ok")
        elif err is None and known is not None and known(task, out):
            statuses.append("known_defect")
        else:
            statuses.append("failed")
            failures.append(f"{task.get('kind')}: {reason}")
    return statuses, failures


def digest(workload, tasks, results, count):
    h = hashlib.sha256()
    for task, (_, out, err) in zip(tasks[:count], results[:count]):
        item = {"error": err} if err is not None else workload.canon(task, out)
        h.update(json.dumps(item, sort_keys=True, separators=(",", ":")).encode())
        h.update(b"\n")
    return h.hexdigest()


def peak_rss_mb(children):
    who = resource.RUSAGE_CHILDREN if children else resource.RUSAGE_SELF
    return resource.getrusage(who).ru_maxrss / 1024.0  # Linux reports KiB


def mode_run(workload, seed, seconds):
    """Whole decks until the decks (tasks and kernel samples) have taken
    `seconds` and at least MIN_TASKS tasks have run.  Task times are
    reported at reference speed, scaled by the kernel samples around each."""
    raw_setup_s, setup_s = timed_setup(workload, seed)
    cal = Calibrator()
    tasks, results, deck_s = [], [], []
    while sum(deck_s) < seconds or len(tasks) < MIN_TASKS:
        deck = workload.deck(deck_rng(workload.name, seed, len(deck_s)), len(deck_s))
        t0 = time.perf_counter()
        results.extend(run_tasks(workload, deck, cal=cal))
        deck_s.append(time.perf_counter() - t0)
        tasks.extend(deck)
    statuses, failures = judge(workload, tasks, results)
    raw = [r[0] for r in results]
    times = cal.scaled(raw)
    deciles = statistics.quantiles(times, n=10, method="inclusive")
    ok = statuses.count("ok")
    per_deck = len(tasks) // len(deck_s)
    # the first decks that every run completes, so digests compare across runs
    digest_count = per_deck * math.ceil(MIN_TASKS / per_deck)
    return {
        "setup_s": setup_s,
        "tasks_per_s": ok / sum(times),
        "task_ms.p50": statistics.median(times) * 1000,
        "task_ms.p90": deciles[8] * 1000,
        "measured": {
            "setup_s": raw_setup_s,
            "tasks_per_s": ok / sum(raw),
            "task_ms.p50": statistics.median(raw) * 1000,
            "task_ms.p90": statistics.quantiles(raw, n=10, method="inclusive")[8] * 1000,
        },
        "kernel_ms": cal.mean_s() * 1000,
        "error_rate": (len(tasks) - ok) / len(tasks),
        "ok_rate": ok / len(tasks),
        "peak_rss_mb": peak_rss_mb(workload.name == "cli_batch"),
        "attempted": len(tasks),
        "failed": statuses.count("failed"),
        "known_defects": statuses.count("known_defect"),
        "failures": failures[:20],
        "samples": len(times),
        "beyond_p90": sum(t > deciles[8] for t in times),
        "decks": len(deck_s),
        "busy_s": sum(deck_s),
        "digest": digest(workload, tasks, results, digest_count),
        "digest_tasks": digest_count,
    }


def mode_trace(workload, seed, trace_dir):
    """Run a fixed list of decks untraced and traced.  The layer numbers
    come from the traced runs; the ratio of the two total times is the
    tracing overhead."""
    import tracer as tracing

    timed_setup(workload, seed)
    tasks = []
    for i in range(workload.trace_decks):
        tasks.extend(workload.deck(deck_rng(workload.name, seed, i), i))
    tr = tracing.Tracer()
    cli = workload.name == "cli_batch"
    # each task runs untraced and traced back to back, in alternating order,
    # so that the machine's drift cancels out of the overhead
    plain_s = traced_s = 0.0
    traced = []
    for i, task in enumerate(tasks):
        for on in ((False, True) if i % 2 == 0 else (True, False)):
            if on:
                tr.install()
            if cli:
                workload.set_tracing(trace_dir if on else None)
            try:
                (dt, out, err), = run_tasks(workload, [task], tr if on else None, i)
            finally:
                tr.uninstall()
            if on:
                traced_s += dt
                traced.append((dt, out, err))
            else:
                plain_s += dt
    statuses, failures = judge(workload, tasks, traced)
    export = tr.export()
    spans = tr.span_records()
    extra = {"trace.overhead": traced_s / plain_s - 1.0, "cli.spawn_s": 0.0,
             "cli.import_s": 0.0, "cli.main_s": 0.0, "cli.failed.traceback": 0,
             "cli.failed.accepted_malformed": 0}
    if cli:
        extra.update(workload.traced_metrics(tasks, traced, export, spans))
    spans_file = os.path.join(trace_dir, f"{workload.name}-seed{seed}.spans.jsonl")
    with open(spans_file, "w", encoding="utf-8") as fh:
        for s in spans:
            fh.write(json.dumps(s) + "\n")
    return {
        "layers": tracing.layer_metrics(export, extra),
        "attempted": len(tasks),
        "failed": statuses.count("failed"),
        "known_defects": statuses.count("known_defect"),
        "failures": failures[:20],
        "plain_s": plain_s,
        "traced_s": traced_s,
        "spans": len(spans),
        "spans_file": spans_file,
        "digest": digest(workload, tasks, traced, len(tasks)),
    }


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--mode", choices=("setup", "run", "trace"), required=True)
    ap.add_argument("--out", required=True)
    ap.add_argument("--trace-dir")
    args = ap.parse_args()
    workload = WORKLOADS[args.workload]()
    if args.mode == "setup":
        raw_setup_s, setup_s = timed_setup(workload, args.seed)
        result = {"setup_s": setup_s, "measured_setup_s": raw_setup_s}
    elif args.mode == "run":
        result = mode_run(workload, args.seed, args.seconds)
    else:
        result = mode_trace(workload, args.seed, args.trace_dir)
    with open(args.out, "w", encoding="utf-8") as fh:
        json.dump(result, fh)
    return 0


if __name__ == "__main__":
    sys.exit(main())
