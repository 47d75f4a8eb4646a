"""Host-clock benchmark of the Deca reproduction: five seeded workloads.

BENCHMARK.json lists four of them; lr-objects (LR in Spark mode, the
paper's futile-full-GC regime) runs on request or with ``--workload all``,
and is kept out of the gated set to keep the gated runs short.

Run from the root of a checkout::

    python3 perfbench/run.py --workload wc-shuffle --seed 1 --seconds 25 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 25 --trace 0
    python3 perfbench/run.py --selfcheck --seed 1

Each job process is a fresh interpreter (``child.py``): set-up time
includes importing ``repro`` and peak RSS is per process.  ``--trace 0``
starts three job processes one after another; each times its set-up,
runs one untimed warm-up job and then times jobs until its third of
``--seconds`` has passed.  The end-to-end metrics are medians over the
run: set-up and peak RSS over its processes, job time over all its
timed jobs.  Set-up and job times are scaled to the reference host
speed by calibrations measured next to them (see ``child.py``); the
wall times and the host's slowdown are printed too.  ``--trace 1`` runs
one untraced and one traced single-job process per round and reports
the per-layer metrics, the liveness and bypass checks, and the tracing
overhead.  Inputs are made
in the parent too, to compute the plain-Python reference every result
is checked against; that is the load generator's cost and is in no
metric.  After every child the existing ``scripts/check_mp_leaks.py``
and a process scan check that no shared-memory segment, cold-tier file
or worker was left behind; a leak fails the sample.

Human-readable lines go first; the last line of standard output is one
JSON object: ``correct``, ``attempted``, ``failed`` and ``metrics``.
The exit status is non-zero when any sample failed.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)
from child import CAL_REF_S  # noqa: E402

ROOT = os.getcwd()
TMP_ROOT = os.path.join(ROOT, ".perfbench_tmp")
LEAK_SCRIPT = os.path.join(ROOT, "scripts", "check_mp_leaks.py")
# Every child is killed at this many seconds after its workload's run
# began, keeping one run under the 180 s ceiling.
RUN_DEADLINE_S = 170.0
# No new job process starts once the run is this old.
RUN_BUDGET_S = 110.0
# Job processes of an end-to-end run.  Each times its set-up once, runs
# WARMUP_JOBS untimed jobs, then times jobs until its share of --seconds
# has passed.
JOB_PROCESSES = 3
WARMUP_JOBS = 1
WORKLOAD_NAMES = ("wc-shuffle", "lr-objects", "lr-swap", "pr-mp",
                  "sql-suite")


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", default="all",
                        choices=(*WORKLOAD_NAMES, "all"))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=25.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--selfcheck", action="store_true",
                        help="check that counters repeat exactly on one "
                             "seed and move with another (sim workloads), "
                             "and that the harness sizes reproduce the "
                             "figures")
    args = parser.parse_args()

    if not os.path.isfile(os.path.join(ROOT, "src", "repro",
                                       "__init__.py")) \
            or not os.path.isfile(LEAK_SCRIPT):
        print("perfbench: run from the root of a repro checkout "
              "(src/repro and scripts/check_mp_leaks.py not found)",
              file=sys.stderr)
        return 2
    sys.path.insert(0, os.path.join(ROOT, "src"))
    os.makedirs(TMP_ROOT, exist_ok=True)
    tmp = os.path.join(TMP_ROOT, str(os.getpid()))
    os.makedirs(tmp, exist_ok=True)
    bench = Bench(tmp, _manifest())
    try:
        if args.selfcheck:
            return bench.selfcheck(args.seed)
        names = WORKLOAD_NAMES if args.workload == "all" \
            else (args.workload,)
        results = [bench.run_workload(name, args.seed, args.seconds,
                                      args.trace == 1)
                   for name in names]
    finally:
        shutil.rmtree(tmp, ignore_errors=True)
    return _report(results, args.trace == 1)


def _manifest() -> dict:
    with open(os.path.join(HERE, "manifest.json"), encoding="utf-8") as fh:
        return json.load(fh)


class Sample:
    """One child's outcome."""

    def __init__(self, mode: str, data: dict | None, error: str | None,
                 attempted: int) -> None:
        self.mode = mode
        self.data = data or {}
        self.error = error
        self.attempted = attempted
        self.failed = attempted if error else int(self.data.get("failed", 0))


class Bench:
    def __init__(self, tmp: str, manifest: dict) -> None:
        self.tmp = tmp
        self.manifest = manifest
        self.env = {key: value for key, value in os.environ.items()
                    if not key.startswith("REPRO_")
                    and key not in ("PYTHONPATH", "TMPDIR")}
        # Tier files and mp manifests land inside the checkout; fixed
        # hashing keeps exact counters exact across processes.
        self.env.update(TMPDIR=tmp, PYTHONHASHSEED="0")
        self._count = 0

    # -- children ---------------------------------------------------------------
    def child(self, workload: str, seed: int, mode: str,
              reference: dict | None, timeout: float,
              warmup: int = 0, timed_until: float = 0.0,
              harness_sizes: bool = False) -> Sample:
        self._count += 1
        token = f"perfbench-{os.getpid()}-{self._count}"
        out_path = os.path.join(self.tmp, f"{token}.json")
        cmd = [sys.executable, os.path.join(HERE, "child.py"),
               "--workload", workload, "--seed", str(seed),
               "--mode", mode, "--out", out_path, "--token", token,
               "--warmup", str(warmup), "--timed-until", repr(timed_until)]
        if harness_sizes:
            cmd.append("--harness-sizes")
        # Every job is checked, the warm-up ones too; a process that
        # failed counts one job.
        per_job = 1
        if workload == "sql-suite":
            import workloads
            per_job = workloads.SQL_PASSES * len(workloads.SQL_SUITE)
        error = None
        data = None
        proc = subprocess.Popen(cmd, cwd=ROOT, env=self.env,
                                stdout=subprocess.DEVNULL,
                                stderr=subprocess.PIPE, text=True,
                                start_new_session=True)
        try:
            _, stderr = proc.communicate(timeout=max(1.0, timeout))
        except subprocess.TimeoutExpired:
            os.killpg(proc.pid, signal.SIGKILL)
            _, stderr = proc.communicate()
            error = f"timed out after {timeout:.0f} s"
        if error is None and proc.returncode != 0:
            tail = stderr.strip().splitlines()[-1:] or ["no output"]
            error = f"exit {proc.returncode}: {tail[0]}"
        if error is None:
            with open(out_path, encoding="utf-8") as handle:
                data = json.load(handle)
            os.remove(out_path)
        leaks = self.leaks(token)
        if leaks and error is None:
            error = "leak: " + "; ".join(leaks)
        if error is None and reference is not None:
            error = self.verify(workload, seed, data, reference)
        if error:
            print(f"  FAILED {workload} {mode} seed={seed}: {error}",
                  file=sys.stderr)
        jobs = data["jobs_run"] if data else 1
        return Sample(mode, data, error, jobs * per_job)

    def leaks(self, token: str) -> list[str]:
        """Leftover segments, tier files or workers of one child."""
        found: list[str] = []
        strays = _processes_with(token)
        if strays:
            found.append(f"{len(strays)} stray worker(s)")
            for pid in strays:
                try:
                    os.kill(pid, signal.SIGKILL)
                except ProcessLookupError:
                    pass
            deadline = time.monotonic() + 10.0
            while _processes_with(token) and time.monotonic() < deadline:
                time.sleep(0.05)
        check = subprocess.run([sys.executable, LEAK_SCRIPT], cwd=ROOT,
                               env=self.env, capture_output=True,
                               text=True, timeout=60)
        if check.returncode != 0:
            found.append(" ".join(check.stdout.split())[:300])
        return found

    def verify(self, workload: str, seed: int, data: dict,
               reference: dict) -> str | None:
        import oracle
        problems = oracle.mismatches(reference, data["summary"])
        if problems:
            return "wrong result: " + "; ".join(problems[:3])
        if data.get("failed"):
            return (f"{data['failed']} jobs or queries disagreed with the "
                    "first")
        # The result digest must be identical across every run of a seed
        # in this checkout with these benchmark sources.
        import workloads
        digest = workloads.digest(data["summary"])
        path = os.path.join(TMP_ROOT, f"digest-{workload}-{seed}-"
                                      f"{_sources_key()}")
        try:
            with open(path, encoding="utf-8") as handle:
                known = handle.read().strip()
        except FileNotFoundError:
            with open(path, "w", encoding="utf-8") as handle:
                handle.write(digest)
            known = digest
        if known != digest:
            return f"result digest {digest} differs from earlier {known}"
        return None

    # -- one workload -------------------------------------------------------------
    def reference(self, workload: str, seed: int) -> dict:
        """The oracle's summary for one seed, cached in the checkout under
        a hash of the benchmark's sources."""
        import oracle
        import workloads
        workloads.check_sql_text()
        path = os.path.join(TMP_ROOT, f"ref-{workload}-{seed}-"
                                      f"{_sources_key()}.json")
        try:
            with open(path, encoding="utf-8") as handle:
                return json.load(handle)
        except FileNotFoundError:
            pass
        inputs = workloads.WORKLOADS[workload].generate(seed)
        reference = oracle.reference(workload, inputs)
        with open(path, "w", encoding="utf-8") as handle:
            json.dump(reference, handle)
        return reference

    def run_workload(self, workload: str, seed: int, seconds: float,
                     traced: bool) -> dict:
        started = time.monotonic()

        def left() -> float:
            return RUN_DEADLINE_S - (time.monotonic() - started)

        reference = self.reference(workload, seed)
        samples: list[Sample] = []
        measure_start = time.monotonic()
        if traced:
            longest = 0.0
            while True:
                began = time.monotonic()
                samples.append(self.child(workload, seed, "job", reference,
                                          left()))
                samples.append(self.child(workload, seed, "traced",
                                          reference, left()))
                longest = max(longest, time.monotonic() - began)
                if time.monotonic() - measure_start >= seconds \
                        or time.monotonic() - started + longest \
                        > RUN_BUDGET_S:
                    break
        else:
            for index in range(JOB_PROCESSES):
                until = measure_start + seconds * (index + 1) / JOB_PROCESSES
                samples.append(self.child(workload, seed, "job", reference,
                                          left(), WARMUP_JOBS, until))
                if time.monotonic() - started > RUN_BUDGET_S:
                    break
        result = {"workload": workload, "seed": seed, "samples": samples}
        if traced:
            result["layers"], result["checks"] = self.layers(workload,
                                                             samples)
            if result["checks"]:
                # A failed check fails the traced sample it was read from.
                failing = next(s for s in samples if s.mode == "traced")
                failing.failed = failing.attempted
        else:
            result["metrics"] = _end_to_end(workload, samples)
        return result

    # -- per-layer report -----------------------------------------------------------
    def layers(self, workload: str, samples: list[Sample]
               ) -> tuple[dict, list[str]]:
        good = [s for s in samples if not s.error]
        traced = [s.data for s in good if s.mode == "traced"]
        plain = [s.data for s in good if s.mode == "job"]
        if not traced or not plain:
            return {}, ["no successful traced/untraced pair"]
        per_child = [_layer_metrics(t) for t in traced]
        layers = per_child[0]
        for name in layers:
            if name.endswith(("_s", "_ms")):
                layers[name] = statistics.median(m[name] for m in per_child)
        # Spans are wall times, so the overhead is too.
        traced_job = _median(_job_times(traced, "job_wall_s"))
        plain_job = _median(_job_times(plain, "job_wall_s"))
        layers["trace.job_s"] = traced_job
        layers["trace.untraced_job_s"] = plain_job
        layers["trace.overhead_s"] = traced_job - plain_job
        checks = self.checks(workload, traced)
        declared = set(_layer_units())
        if set(layers) != declared:
            checks.append("per-layer metrics differ from BENCHMARK.json: "
                          f"{sorted(set(layers) ^ declared)}")
        return layers, checks

    def checks(self, workload: str, traced: list[dict]) -> list[str]:
        """Wrapper liveness, predicted zeros and exact repeats."""
        problems: list[str] = []
        first = traced[0]
        for target, serves in self.manifest["liveness"].items():
            if workload in serves and not first["target_calls"].get(target):
                problems.append(f"dead wrapper: {target} recorded no call")
        layers = _layer_metrics(first)
        for prefix, workloads_ in self.manifest["zero_on"].items():
            if workload not in workloads_:
                continue
            for name, value in layers.items():
                if name.startswith(prefix) and value != 0:
                    problems.append(f"predicted zero {name} = {value}")
        if workload != "pr-mp":
            exact = _exact(first)
            for other in traced[1:]:
                if _exact(other) != exact:
                    problems.append("exact counters differ between two "
                                    "traced runs of one seed")
        return problems

    # -- exactness self-check ---------------------------------------------------------
    def selfcheck(self, seed: int) -> int:
        """Two traced runs on *seed* agree exactly; another seed differs;
        at the harness sizes and seed 0 the sim numbers equal the
        figures'."""
        bad = 0
        for workload in WORKLOAD_NAMES:
            if workload == "pr-mp":
                continue
            runs = [self.child(workload, s, "traced", None, RUN_DEADLINE_S)
                    for s in (seed, seed, seed + 1)]
            if any(r.error for r in runs):
                print(f"{workload}: a traced run failed")
                bad += 1
                continue
            same = _exact(runs[0].data) == _exact(runs[1].data)
            moved = {key for key, value in _exact(runs[0].data).items()
                     if _exact(runs[2].data).get(key) != value}
            ok = same and bool(moved)
            bad += not ok
            print(f"{workload}: repeat {'identical' if same else 'DIFFERS'}"
                  f"; seed {seed + 1} moves {len(moved)} exact values "
                  f"({', '.join(sorted(moved)[:6])})")
        import workloads
        for workload, expected in workloads.FIGURES.items():
            run = self.child(workload, 0, "job", None, RUN_DEADLINE_S,
                             harness_sizes=True)
            sim = {key: round(value, 5)
                   for key, value in run.data.get("sim", {}).items()}
            ok = not run.error and all(sim.get(key) == value
                                       for key, value in expected.items())
            bad += not ok
            print(f"{workload} at the harness sizes, seed 0: sim {sim} "
                  f"{'matches' if ok else 'DIFFERS FROM'} the figures "
                  f"{expected}")
        print(json.dumps({"selfcheck": "ok" if not bad else "failed"}))
        return 1 if bad else 0


def _sources_key() -> str:
    """Hash of the sources that decide inputs and results."""
    sources = hashlib.sha256()
    for name in ("workloads.py", "oracle.py"):
        with open(os.path.join(HERE, name), "rb") as handle:
            sources.update(handle.read())
    return sources.hexdigest()[:12]


def _processes_with(token: str) -> list[int]:
    """Live processes whose command line carries *token*."""
    pids = []
    needle = token.encode()
    for entry in os.listdir("/proc"):
        if not entry.isdigit():
            continue
        try:
            with open(f"/proc/{entry}/cmdline", "rb") as handle:
                if needle in handle.read():
                    pids.append(int(entry))
        except OSError:
            continue
    return pids


# -- metric assembly ----------------------------------------------------------

def _median(values: list[float]) -> float:
    return statistics.median(values) if values else 0.0


def _job_times(datas: list[dict], key: str = "job_s") -> list[float]:
    return [value for data in datas for value in data[key]]


def _end_to_end(workload: str, samples: list[Sample]) -> dict:
    import workloads
    jobs = [s.data for s in samples if not s.error]
    times = _job_times(jobs)
    records = workloads.WORKLOADS[workload].records
    metrics = {
        "setup_s": (_median([d["setup_s"] for d in jobs]), "s"),
        "job_s": (_median(times), "s"),
        "peak_rss_mb": (_median([d["peak_rss_mb"] for d in jobs]), "MB"),
    }
    # records_per_s is job_s restated; it is printed, not gated twice.
    printed = {"records_per_s": (_median([records / t for t in times]),
                                 "records/s"),
               "wall_setup_s": (_median([d["setup_wall_s"] for d in jobs]),
                                "s"),
               "wall_job_s": (_median(_job_times(jobs, "job_wall_s")), "s"),
               "host_slowdown": (_median([cal / CAL_REF_S for d in jobs
                                          for cal in d["job_cal_s"]]),
                                 "x")}
    if workload == "sql-suite":
        queries = workloads.SQL_PASSES * len(workloads.SQL_SUITE)
        latencies = sorted(1000.0 * value for d in jobs
                           for values in d["latencies"].values()
                           for value in values)
        printed["queries_per_s"] = (_median([queries / t for t in times]),
                                    "queries/s")
        if latencies:
            deciles = statistics.quantiles(latencies, n=10)
            printed["query_p50_ms"] = (statistics.median(latencies), "ms")
            printed["query_p90_ms"] = (deciles[8], "ms")
            printed["query_samples"] = (len(latencies), "count")
    if jobs:
        sim = jobs[0]["sim"]
        clock = "s" if workload != "pr-mp" else "s(host-derived)"
        printed["sim_s"] = (sim["s"], f"sim-{clock}")
        printed["sim_gc_s"] = (sim["gc_s"], "sim-s")
        printed["sim_cache_mb"] = (sim["cache_mb"], "sim-MB")
    attempted = sum(s.attempted for s in samples)
    failed = sum(s.failed for s in samples)
    printed["failed_frac"] = (failed / attempted if attempted else 1.0,
                            "ratio")
    printed["job_processes"] = (len(jobs), "count")
    printed["job_samples"] = (len(times), "count")
    return {"reported": metrics, "printed": printed}


def _span(spans: dict, *names: str) -> tuple[int, float, float, int]:
    calls = total = own = units = 0
    for name in names:
        c, t, s, u = spans.get(name, (0, 0, 0, 0))
        calls += c
        total += t
        own += s
        units += u
    return calls, total / 1e9, own / 1e9, units


def _layer_metrics(data: dict) -> dict:
    """Every per-layer metric of one traced child (see BENCHMARK.json)."""
    spans = data["spans"]
    state = data["state"]
    arena = state.get("arena", {})
    out: dict[str, float] = {}
    calls, total, own, _ = _span(spans, "core.plan")
    out.update({"core.plan_calls": calls, "core.plan_s": total,
                "core.self_s": own})
    calls, _, own, _ = _span(spans, "measure")
    out.update({"measure.calls": calls, "measure.self_s": own})
    calls, _, own, _ = _span(spans, "heap.alloc")
    out.update({"heap.alloc_calls": calls, "heap.alloc_self_s": own})
    calls, _, own, _ = _span(spans, "heap.gc")
    out.update({"heap.gc_calls": calls, "heap.gc_self_s": own})
    calls, _, own, _ = _span(spans, "executor.charge")
    out.update({"executor.charge_calls": calls,
                "executor.charge_self_s": own})
    calls, total, own, _ = _span(spans, "scheduler.run_job")
    out.update({"scheduler.jobs": calls,
                "scheduler.stages": state.get("scheduler.stages", 0),
                "scheduler.tasks": state.get("scheduler.tasks", 0),
                "scheduler.run_job_s": total, "scheduler.self_s": own})
    records_in = _span(spans, "shuffle.write")[3]
    records_out = _span(spans, "shuffle.register")[3]
    out.update({
        "shuffle.write_s": _span(spans, "shuffle.write")[1],
        "shuffle.flush_s": _span(spans, "shuffle.flush")[1],
        "shuffle.read_s": _span(spans, "shuffle.read")[1],
        "shuffle.records": records_in,
        "shuffle.records_out": records_out,
        "shuffle.spills": state.get("shuffle.spills", 0),
        "shuffle.combine_ratio": (records_in / records_out
                                  if records_out else 0.0),
        "shuffle.self_s": _span(spans, "shuffle.write", "shuffle.flush",
                                "shuffle.read", "shuffle.register")[2],
    })
    puts, put_s, _, _ = _span(spans, "cache.put")
    reads, read_s, _, _ = _span(spans, "cache.read")
    swap_outs = _span(spans, "cache.swap_out")[0]
    swap_ins = _span(spans, "cache.swap_in")[0]
    out.update({
        "cache.put_calls": puts, "cache.put_s": put_s,
        "cache.read_calls": reads, "cache.read_s": read_s,
        "cache.swap_out_calls": swap_outs, "cache.swap_in_calls": swap_ins,
        "cache.swap_s": _span(spans, "cache.swap_out", "cache.swap_in")[1],
        "cache.hit_ratio": reads / (reads + puts) if reads + puts else 0.0,
        "cache.self_s": _span(spans, "cache.put", "cache.read",
                              "cache.swap_out", "cache.swap_in")[2],
    })
    out.update({
        "layout.pack_calls": _span(spans, "layout.pack")[0],
        "layout.unpack_calls": _span(spans, "layout.unpack")[0],
        "layout.codec_self_s": _span(spans, "layout.pack",
                                     "layout.unpack")[2],
        "layout.column_emit_s": _span(spans, "layout.column_emit")[1],
    })
    out.update({
        "page.groups": _span(spans, "page.new_group")[0],
        "page.bytes_appended": _span(spans, "page.reserve",
                                     "page.append_run")[3],
        "page.self_s": _span(spans, "page.new_group", "page.reserve",
                             "page.append_run")[2],
        "arena.acquire_calls": _span(spans, "arena.acquire")[0],
        "arena.self_s": _span(spans, "arena.acquire")[2],
        "arena.acquired_bytes": arena.get("acquired_bytes", 0),
        "arena.storage_acquired_bytes": arena.get("storage_acquired_bytes",
                                                  0),
        "arena.evict_events": arena.get("evict_events", 0),
        "arena.spill_events": arena.get("spill_events", 0),
    })
    out.update({
        "tier.swap_out_calls": _span(spans, "tier.swap_out")[0],
        "tier.swap_in_calls": _span(spans, "tier.swap_in")[0],
        "tier.read_calls": _span(spans, "tier.read")[0],
        "tier.bytes_out": state.get("tier.bytes_out", 0),
        "tier.bytes_in": state.get("tier.bytes_in", 0),
        "tier.self_s": _span(spans, "tier.swap_out", "tier.swap_in",
                             "tier.read")[2],
        "serializer.swap_copy_bytes": state.get(
            "serializer.swap_copy_bytes", 0),
    })
    calls, total, own, _ = _span(spans, "exec.stage")
    out.update({"exec.stage_s": total, "exec.self_s": own})
    for name in ("mp_stages", "mp_tasks", "segments_created",
                 "bytes_shared", "bytes_pickled", "worker_deaths",
                 "task_success_ratio"):
        out[f"exec.{name}"] = state.get(f"exec.{name}", 0)
    latencies = data.get("latencies", {})
    out.update({
        "sql.cache_table_s": _span(spans, "sql.cache_table")[1],
        "sql.parse_s": _span(spans, "sql.parse")[1],
        "sql.run_s": _span(spans, "sql.run")[1],
        "sql.self_s": _span(spans, "sql.cache_table", "sql.parse",
                            "sql.run")[2],
    })
    for kind in ("scan", "filter", "groupby", "topk"):
        out[f"sql.{kind}_ms"] = 1000.0 * _median(latencies.get(kind, []))
    calls, _, own, _ = _span(spans, "tracer.emit")
    out.update({"tracer.events": calls, "tracer.emit_self_s": own})
    out["other.self_s"] = _span(spans, "setup", "job")[2]
    sim = data["sim"]
    out.update({"sim.s": sim["s"], "sim.gc_s": sim["gc_s"],
                "sim.cache_mb": sim["cache_mb"]})
    return out


def _exact(data: dict) -> dict:
    """The values that must repeat exactly on one seed: every count, byte
    total and simulated-clock value (host times excluded), plus the
    result digest."""
    import workloads
    layers = _layer_metrics(data)
    exact = {name: value for name, value in layers.items()
             if not name.endswith(("_s", "_ms")) or name.startswith("sim.")}
    exact["result.digest"] = workloads.digest(data["summary"])
    return exact


# -- output ---------------------------------------------------------------------

def _report(results: list[dict], traced: bool) -> int:
    attempted = sum(s.attempted for r in results for s in r["samples"])
    failed = sum(s.failed for r in results for s in r["samples"])
    single = len(results) == 1
    metrics: dict[str, dict] = {}
    units = _layer_units()
    for result in results:
        prefix = "" if single else f"{result['workload']}."
        print(f"== {result['workload']} (seed {result['seed']}, "
              f"{len(result['samples'])} samples)")
        if traced:
            for check in result.get("checks", []):
                print(f"  CHECK FAILED: {check}")
            for name, value in result["layers"].items():
                unit = units.get(name, "?")
                print(f"  {name:32s} {value:>16.6g} {unit}")
                metrics[prefix + name] = {"value": value, "unit": unit}
            continue
        shown = {**result["metrics"]["reported"],
                 **result["metrics"]["printed"]}
        for name, (value, unit) in shown.items():
            print(f"  {name:16s} {value:>16.6g} {unit}")
        for name, (value, unit) in result["metrics"]["reported"].items():
            metrics[prefix + name] = {"value": value, "unit": unit}
    # A failed check has already failed the traced sample it came from.
    correct = failed == 0
    print(json.dumps({"correct": correct, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0 if correct else 1


def _layer_units() -> dict[str, str]:
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        spec = json.load(fh)
    return {m["name"]: m["unit"] for m in spec["per_layer"]}


if __name__ == "__main__":
    sys.exit(main())
