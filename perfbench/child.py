"""One measured run of one workload, in a fresh interpreter.

``run.py`` starts this script once per job process, because peak RSS
(``ru_maxrss``) only ever grows within a process and because set-up time
includes importing ``repro``.  Modes:

* ``job`` — timed set-up, ``--warmup`` untimed jobs, then timed jobs
  until ``time.monotonic()`` reaches ``--timed-until`` (at least one;
  the end-to-end samples);
* ``traced`` — the same with every layer wrapped by ``spans.SpanTracer``.

Every job's result is checked against the first job's; a mismatch
counts as a failed job.

Host times are reported twice: as measured (``*_wall_s``) and scaled to
the reference host speed (``setup_s``, ``job_s``).  The host's
single-thread speed drifts by up to 1.8x over tens of seconds, so each
timed span is bracketed by ``calibrate()``, a fixed pure-Python loop
that uses nothing from ``repro``; the span's wall time is multiplied by
``CAL_REF_S`` over the mean of its two calibrations.  A change to the
program moves the scaled time as it moves the wall time; a slow spell of
the host moves both the span and its calibrations and cancels out.  The
pr-mp job runs mostly in its forked worker, whose core's speed the
calibrations do not see; its ``job_s`` is the wall time.

The result is written as JSON to ``--out``; nothing is printed.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import os
import resource
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, os.path.join(os.getcwd(), "src"))
sys.path.insert(0, HERE)

# calibrate() on the reference host (2-vCPU Xeon VM, Python 3.11) at its
# fastest; scaled times are seconds at that speed.
CAL_REF_S = 0.0035


def calibrate() -> float:
    """Seconds one fixed pure-Python round takes at the host's current
    speed: the median of nine rounds, about 50 ms in all."""
    rounds = []
    for _ in range(9):
        start = time.perf_counter()
        counts: dict[int, int] = {}
        total = 0
        for i in range(20_000):
            key = i & 1023
            counts[key] = counts.get(key, 0) + i
            total += i * i % 7
        rounds.append(time.perf_counter() - start)
    rounds.sort()
    return rounds[4]


def main() -> None:
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--mode", choices=("job", "traced"),
                        required=True)
    parser.add_argument("--out", required=True)
    # Inherited by forked mp workers: run.py finds strays by it.
    parser.add_argument("--token", required=True)
    parser.add_argument("--warmup", type=int, default=0)
    parser.add_argument("--timed-until", type=float, default=0.0)
    parser.add_argument("--harness-sizes", action="store_true")
    args = parser.parse_args()

    setup_cal = calibrate()
    start = time.perf_counter()
    import workloads  # imports repro: the first part of set-up
    import_s = time.perf_counter() - start

    spec = (workloads.HARNESS_WORKLOADS if args.harness_sizes
            else workloads.WORKLOADS)[args.workload]
    tracer = None
    if args.mode == "traced":
        from spans import SpanTracer
        tracer = SpanTracer()
        tracer.install()

    inputs = spec.generate(args.seed)
    config = spec.config()
    out: dict = {}

    runs = (args.warmup, args.timed_until)
    if args.workload == "sql-suite":
        _run_sql(workloads, inputs, config, tracer, out, runs)
    else:
        _run_app(workloads, spec, inputs, config, tracer, out, runs)

    if tracer is not None:
        tracer.remove()
        out["spans"] = {name: [s.calls, s.total_ns, s.self_ns, s.units]
                        for name, s in tracer.stats.items()}
        out["target_calls"] = tracer.target_calls
    out["setup_wall_s"] = import_s + out.pop("build_s")
    setup_cal = (setup_cal + out.pop("build_cal_s")) / 2
    out["setup_s"] = out["setup_wall_s"] * CAL_REF_S / setup_cal
    out["job_s"] = [wall * CAL_REF_S / cal if spec.scaled_job else wall
                    for wall, cal in zip(out["job_wall_s"], out["job_cal_s"])]
    with open(args.out, "w", encoding="utf-8") as handle:
        json.dump(out, handle)


def _timed(tracer, name: str):
    return tracer.span(name) if tracer is not None \
        else contextlib.nullcontext()


def _time_jobs(out: dict, tracer, runs: tuple[int, float], job) -> None:
    """Run ``job(index)`` for the warm-up jobs, then time jobs until the
    monotonic clock reaches *until* (at least one).  Each timed job is
    bracketed by calibrations, shared between neighbours."""
    warmup, until = runs
    out["job_wall_s"] = []
    out["job_cal_s"] = []
    index = 0
    while index < warmup or not out["job_wall_s"] \
            or time.monotonic() < until:
        if index == warmup:
            before = calibrate()
        start = time.perf_counter()
        with _timed(tracer, "job"):
            job(index)
        took = time.perf_counter() - start
        if index == 0:
            # Set-up plus one job: later jobs may grow it by reusing
            # freed memory unevenly, and their number varies.
            out["peak_rss_mb"] = (resource.getrusage(resource.RUSAGE_SELF)
                                  .ru_maxrss / 1024.0)
        if index >= warmup:
            after = calibrate()
            out["job_wall_s"].append(took)
            out["job_cal_s"].append((before + after) / 2)
            before = after
        index += 1
    out["jobs_run"] = index


def _run_app(workloads, spec, inputs, config, tracer, out, runs) -> None:
    from repro.spark import DecaContext  # already imported by workloads
    start = time.perf_counter()
    with _timed(tracer, "setup"):
        ctx = DecaContext(config)
    out["build_s"] = time.perf_counter() - start
    out["build_cal_s"] = calibrate()
    ctx.finish()
    out["failed"] = 0

    def job(index: int) -> None:
        run = spec.run(inputs, config)
        summary = workloads.summarize(spec.name, run.result)
        if index > 0:
            out["failed"] += summary != out["summary"]
            return
        out["summary"] = summary
        metrics = run.metrics
        out["sim"] = {"s": metrics.wall_ms / 1000.0,
                      "gc_s": metrics.gc_pause_ms / 1000.0,
                      "cache_mb": run.cached_bytes / workloads.MB}
        if tracer is not None:
            out["state"] = _app_state(run)

    _time_jobs(out, tracer, runs, job)


def _app_state(run) -> dict:
    """Work counters the program keeps itself (read after the job)."""
    metrics = run.metrics
    ctx = run.ctx
    tasks = [task for job in metrics.jobs for stage in job.stages
             for task in stage.tasks]
    backend = metrics.backend
    arena: dict[str, int] = {}
    for executor in ctx.executors:
        snapshot = getattr(executor.arena, "snapshot", None)
        if snapshot is not None:
            for key, value in snapshot().items():
                arena[key] = arena.get(key, 0) + value
    mp_tasks = int(backend.get("mp_tasks", 0))
    return {
        "scheduler.stages": sum(len(job.stages) for job in metrics.jobs),
        "scheduler.tasks": len(tasks),
        "shuffle.spills": sum(1 for event in ctx.tracer.events
                              if event.name == "shuffle:spill"),
        "tier.bytes_out": int(metrics.tier.get("bytes_moved_out", 0)),
        "tier.bytes_in": int(metrics.tier.get("bytes_moved_in", 0)),
        "serializer.swap_copy_bytes": sum(
            executor.serializer.swap_copy_bytes_total
            for executor in ctx.executors),
        "exec.mp_stages": int(backend.get("mp_stages", 0)),
        "exec.mp_tasks": mp_tasks,
        "exec.segments_created": int(backend.get("segments_created", 0)),
        "exec.bytes_shared": int(backend.get("bytes_shared", 0)),
        "exec.bytes_pickled": int(backend.get("bytes_pickled", 0)),
        "exec.worker_deaths": int(backend.get("worker_deaths", 0)),
        "exec.task_success_ratio": (
            sum(1 for task in tasks if task.status == "success")
            / len(tasks) if mp_tasks and tasks else 0.0),
        "arena": arena,
    }


def _run_sql(workloads, tables, config, tracer, out, runs) -> None:
    start = time.perf_counter()
    with _timed(tracer, "setup"):
        engine = workloads.build_engine(tables, config)
    out["build_s"] = time.perf_counter() - start
    out["build_cal_s"] = calibrate()
    try:
        first: dict[str, list] = {}
        latencies: dict[str, list[float]] = {name: []
                                             for name, _ in workloads.SQL_SUITE}
        failed = 0
        sim_ms = gc_ms = 0.0
        warmup = runs[0]

        def job(index: int) -> None:
            nonlocal failed, sim_ms, gc_ms
            timed = index >= warmup
            for passes in range(workloads.SQL_PASSES):
                for name, text in workloads.SQL_SUITE:
                    began = time.perf_counter()
                    result = engine.sql(text)
                    if timed:
                        latencies[name].append(time.perf_counter() - began)
                    if index == 0 and passes == 0:
                        first[name] = result.rows
                        sim_ms += result.wall_ms
                        gc_ms += result.gc_pause_ms
                    elif result.rows != first[name]:
                        failed += 1

        _time_jobs(out, tracer, runs, job)
        out["failed"] = failed
        out["latencies"] = latencies
        out["summary"] = workloads.summarize("sql-suite", first)
        out["sim"] = {"s": sim_ms / 1000.0, "gc_s": gc_ms / 1000.0,
                      "cache_mb": engine.cached_bytes / workloads.MB}
        if tracer is not None:
            tier = engine.tier_stats or {}
            out["state"] = {
                "tier.bytes_out": int(tier.get("bytes_moved_out", 0)),
                "tier.bytes_in": int(tier.get("bytes_moved_in", 0)),
                "serializer.swap_copy_bytes": engine.swap_copy_bytes,
                "arena": engine.arena.snapshot(),
            }
    finally:
        engine.close()


if __name__ == "__main__":
    main()
