"""Benchmark worker: one fresh process that imports deltalab and runs tasks.

    python3 bench/worker.py --root DIR --workload W --mode setup|timed|traced
                            [--seed N] [--seconds S] [--checked K] [--rounds R]
                            [--spans FILE]

The worker prints ``ready`` once its imports and one warm-up task of each
kind are done; the parent times set-up from spawn to that line.  Modes:

- setup: exit after ``ready``;
- timed: closed loop with one client, each task issued when the previous
  returns, until --seconds have passed and the first --checked tasks have
  run; each output is checked as soon as its task returns, outside the
  task's latency, and one JSON line reports latencies, the verdicts of the
  first --checked tasks and of the rest, and peak memory;
- traced: the ten documented CLI invocations plus --rounds rounds of the
  workload, run once plain and once with the tracing wrappers; reports
  per-layer self times and work counts, and writes the spans to --spans.
"""

from __future__ import annotations

import argparse
import itertools
import json
import os
import resource
import statistics
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

from checks import new_record, tally  # noqa: E402


def _timed(run, task) -> tuple[int, object]:
    """Run one task; returns (latency in ns, output or the exception)."""
    t0 = time.perf_counter_ns()
    try:
        out = run(task)
    except Exception as exc:  # a failed task is a result, not a crash
        out = exc
    return time.perf_counter_ns() - t0, out


def closed_loop(rounds, run, seconds: float, checked: int) -> tuple[list[int], dict, dict]:
    """Issue each task when the previous one returns, round after round,
    until ``seconds`` have passed and at least the first ``checked`` tasks
    have run.  ``run(task)`` returns (latency in ns, output or exception);
    each output is checked as soon as its task returns, outside the task's
    latency, so no output outlives its task.

    Returns the latencies, the record of verdicts of the first ``checked``
    tasks (the checked sample, the same tasks for a seed whatever the
    speed of the host) and the record of the tasks after them."""
    lat, sample, later = [], new_record(), new_record()
    deadline = time.perf_counter_ns() + int(seconds * 1e9)
    for i, task in enumerate(itertools.chain.from_iterable(rounds)):
        dt, out = run(task)
        lat.append(dt)
        tally(task, out, sample if i < checked else later)
        if i + 1 >= checked and time.perf_counter_ns() >= deadline:
            break
    return lat, sample, later


def main() -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--root", required=True)
    ap.add_argument("--workload", required=True)
    ap.add_argument("--mode", choices=("setup", "timed", "traced"), required=True)
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=1.0)
    ap.add_argument("--checked", type=int, default=0)
    ap.add_argument("--rounds", type=int, default=1)
    ap.add_argument("--spans", default=None)
    args = ap.parse_args()

    sys.path.insert(0, os.path.join(args.root, "src"))
    import deltalab
    import deltalab.cli  # noqa: F401  (the CLI's import cost is part of set-up)

    import tasks
    import workloads

    src = os.path.realpath(os.path.join(args.root, "src"))
    if not os.path.realpath(deltalab.__file__).startswith(src + os.sep):
        print(f"deltalab imported from {deltalab.__file__}, not {src}", file=sys.stderr)
        return 1

    warm = workloads.warmup(args.workload)
    if args.mode == "traced" and args.workload != "cli":
        warm += workloads.census()
    for task in warm:
        tasks.run(task)
    print("ready", flush=True)
    if args.mode == "setup":
        return 0

    report: dict = {}
    if args.mode == "timed":
        lat, sample, later = closed_loop(workloads.rounds(args.workload, args.seed),
                                         lambda task: _timed(tasks.run, task), args.seconds,
                                         args.checked)
        report.update(latencies_ns=lat, sample=sample, later=later,
                      peak_rss_kb=resource.getrusage(resource.RUSAGE_SELF).ru_maxrss)
    else:
        import tracing

        batch = workloads.census() + workloads.prefix(args.workload, args.seed, args.rounds)
        # Each task runs plain and then traced, back to back, so a slow
        # spell of the host lands on both sides of the overhead ratio.
        tracer = tracing.Tracer()
        plain, traced = [], []
        for i, task in enumerate(batch):
            plain.append(_timed(tasks.run, task))
            tracer.task = i
            restore = tracing.install(tracer)
            try:
                traced.append(_timed(tasks.run, task))
            finally:
                restore()
        plain_lat = [dt for dt, _ in plain]
        traced_lat = [dt for dt, _ in traced]
        record = new_record()
        for task, (_, out) in zip(batch + batch, plain + traced):
            tally(task, out, record)
        if args.spans:
            tracer.write(args.spans)
        layers = tracing.layer_metrics(tracer)
        layers["trace.overhead_frac"] = sum(traced_lat) / sum(plain_lat) - 1.0
        cli_ns = [t for t, task in zip(plain_lat, batch) if task["kind"] == "cli"]
        layers["cli.main_ms"] = statistics.median(cli_ns) / 1e6
        report.update(tasks=len(batch), layers=layers, **record, spans=len(tracer.spans))
    print(json.dumps(report), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
