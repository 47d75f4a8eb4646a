"""The five benchmark workloads: seeded inputs, configs and jobs.

Every workload drives the program only through public entry points
(``repro.apps.*.run_*``, ``repro.bench.harness.lr_config`` /
``graph_config``, ``DecaContext`` and ``SqlEngine``).  Inputs come from
the public generators in ``repro.data``; the benchmark seed is *added*
to each generator's default seed.  The timed workloads are smaller than
the paper-figure harness points (``BENCH_SIZES``); the same workloads at
the harness sizes (``HARNESS_WORKLOADS``) reproduce the figures' sim
numbers at ``--seed 0``, which ``run.py --selfcheck`` checks.

Importing this module imports ``repro``; the child process times that
import itself before it imports this module.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass
from typing import Any, Callable

from repro.apps.logistic_regression import run_logistic_regression
from repro.apps.pagerank import run_pagerank
from repro.apps.sql_queries import suite_queries
from repro.apps.wordcount import run_wordcount
from repro.bench.harness import (
    GRAPH_SCALES,
    LR_HEAP_MB,
    LR_PARTITIONS,
    WC_HEAP_MB,
    WC_SIZES,
    graph_config,
    lr_config,
    lr_records_for,
)
from repro.config import MB, DecaConfig, ExecutionMode
from repro.data import (
    labeled_points,
    power_law_graph,
    random_words,
    rankings_table,
    uservisits_table,
)
from repro.sql import SqlEngine
from repro.sql.schema import RANKINGS_SCHEMA, USERVISITS_SCHEMA

# Default seeds of the repro.data generators (seed 0 reproduces them).
WORDS_SEED = 13
POINTS_SEED = 29
GRAPH_SEED = 41
RANKINGS_SEED = 59
USERVISITS_SEED = 61

LR_ITERATIONS = 5
LR_DIMENSIONS = 10
PR_ITERATIONS = 3
PR_PARTITIONS = 8
SQL_RANKINGS = 40_000
SQL_USERVISITS = 80_000
# One child's query stream: closed loop, one client, this many passes
# over the four-query suite.
SQL_PASSES = 5

# The suite as SQL text (parsed per query, so the parser is on the
# path); each statement parses to the matching ``suite_queries`` entry.
SQL_SUITE: tuple[tuple[str, str], ...] = (
    ("scan", "SELECT pageURL, pageRank, avgDuration FROM rankings"),
    ("filter", "SELECT pageURL, pageRank FROM rankings "
               "WHERE pageRank > 100"),
    ("groupby", "SELECT SUBSTR(sourceIP, 1, 5), SUM(adRevenue) "
                "FROM uservisits GROUP BY SUBSTR(sourceIP, 1, 5)"),
    ("topk", "SELECT pageURL, pageRank FROM rankings "
             "WHERE avgDuration > 10 ORDER BY pageRank DESC LIMIT 10"),
)
# Rows each suite query reads (rankings for three, uservisits for one).
SQL_ROWS_PER_PASS = 3 * SQL_RANKINGS + SQL_USERVISITS


def wc_config() -> DecaConfig:
    # The harness's run_wc_point defaults, pinned to the sim backend.
    return DecaConfig(
        mode=ExecutionMode.DECA, heap_bytes=WC_HEAP_MB * MB,
        num_executors=2, tasks_per_executor=2, page_bytes=256 * 1024,
        storage_fraction=0.2, shuffle_fraction=0.8,
        execution_backend="sim", cold_tier="heap", sanitize=False)


def sql_config() -> DecaConfig:
    return DecaConfig(execution_backend="sim", cold_tier="heap",
                      sanitize=False)


@dataclass(frozen=True)
class Workload:
    name: str
    # Input records one job processes (the records_per_s numerator).
    records: int
    config: Callable[[], DecaConfig]
    generate: Callable[[int], Any]
    # (inputs, config) -> AppRun; None for sql-suite, which the child
    # drives through SqlEngine (build_engine, then SQL_SUITE).
    run: Callable[[Any, DecaConfig], Any] | None
    # Whether job_s is scaled by the child's calibrations (see child.py).
    # Not for pr-mp: its job runs mostly in the forked worker, on a core
    # whose speed the driver's calibrations do not see.
    scaled_job: bool = True


@dataclass(frozen=True)
class Sizes:
    """Input sizes of the app workloads."""

    wc_words: int
    wc_keys: int
    # The LR heap; lr_records_for keeps each label's cache-to-budget
    # ratio at any heap.
    lr_heap_mb: float
    graph: str


# The timed sizes: a job takes a second or less, so a run holds a dozen
# or more timed jobs.  Each keeps its harness point's regime: WC at the
# 150GB/100M point's three words per key; LR at the harness's
# cache-to-budget ratios on a quarter of its heap; PageRank on the
# Pokec graph.
BENCH_SIZES = Sizes(wc_words=15_000, wc_keys=5_000, lr_heap_mb=1,
                    graph="Pokec")
# The harness points of the paper figures (Fig. 8b 150GB/100M, Fig. 9,
# Fig. 10 WB).  ``run.py --selfcheck`` runs them at seed 0 and compares
# their sim numbers with FIGURES.
HARNESS_SIZES = Sizes(*WC_SIZES[("150GB", "100M")], lr_heap_mb=LR_HEAP_MB,
                      graph="WB")
FIGURES: dict[str, dict[str, float]] = {
    "wc-shuffle": {"s": 0.11621},
    "lr-objects": {"s": 0.64910, "gc_s": 0.51223},
    "lr-swap": {"s": 0.36641},
}


# -- input generation (the load generator's cost, never timed) -------------

def gen_sql(seed: int) -> tuple[list, list]:
    return (rankings_table(SQL_RANKINGS, seed=RANKINGS_SEED + seed),
            uservisits_table(SQL_USERVISITS, seed=USERVISITS_SEED + seed))


# -- jobs ----------------------------------------------------------------

def run_wc(words, config):
    return run_wordcount(words, config, num_partitions=4)


def run_lr(points, config):
    return run_logistic_regression(points, config, iterations=LR_ITERATIONS,
                                   num_partitions=LR_PARTITIONS)


def run_pr(edges, config):
    return run_pagerank(edges, config, iterations=PR_ITERATIONS,
                        num_partitions=PR_PARTITIONS)


def workloads_for(sizes: Sizes) -> dict[str, Workload]:
    heap_mb = sizes.lr_heap_mb
    graph = GRAPH_SCALES[sizes.graph]

    def lr(name: str, label: str, mode: ExecutionMode,
           cold_tier: str) -> Workload:
        points = lr_records_for(label, heap_mb)
        return Workload(
            name, points,
            lambda: lr_config(mode, heap_mb, execution_backend="sim",
                              cold_tier=cold_tier, sanitize=False),
            lambda seed: labeled_points(points, LR_DIMENSIONS,
                                        seed=POINTS_SEED + seed),
            run_lr)

    return {
        "wc-shuffle": Workload(
            "wc-shuffle", sizes.wc_words, wc_config,
            lambda seed: random_words(sizes.wc_words, sizes.wc_keys,
                                      seed=WORDS_SEED + seed),
            run_wc),
        "lr-objects": lr("lr-objects", "80GB", ExecutionMode.SPARK, "heap"),
        "lr-swap": lr("lr-swap", "200GB", ExecutionMode.DECA, "mmap"),
        "pr-mp": Workload(
            "pr-mp", graph.edges,
            # One worker: two would contend with the driver and each
            # other for the two cores, and their job times swing most.
            lambda: graph_config(ExecutionMode.DECA, execution_backend="mp",
                                 mp_workers=1, cold_tier="heap",
                                 sanitize=False),
            lambda seed: power_law_graph(graph.vertices, graph.edges,
                                         seed=GRAPH_SEED + seed),
            run_pr, scaled_job=False),
        "sql-suite": Workload(
            "sql-suite", SQL_PASSES * SQL_ROWS_PER_PASS, sql_config, gen_sql,
            None),
    }


WORKLOADS = workloads_for(BENCH_SIZES)
HARNESS_WORKLOADS = workloads_for(HARNESS_SIZES)


def build_engine(tables: tuple[list, list], config: DecaConfig
                 ) -> SqlEngine:
    """sql-suite set-up: an engine with both relations cached."""
    rankings, uservisits = tables
    engine = SqlEngine(config)
    engine.register_table("rankings", RANKINGS_SCHEMA, rankings)
    engine.register_table("uservisits", USERVISITS_SCHEMA, uservisits)
    engine.cache_table("rankings")
    engine.cache_table("uservisits")
    return engine


def check_sql_text() -> None:
    """The SQL text of the stream must mean exactly the suite queries."""
    from repro.sql import parse
    expected = dict(suite_queries())
    for name, text in SQL_SUITE:
        if parse(text) != expected[name]:
            raise AssertionError(f"SQL text for {name!r} drifted from "
                                 "repro.apps.sql_queries.suite_queries")


# -- result summaries (what the oracle compares) ---------------------------

def digest(payload: Any) -> str:
    """Stable digest of a JSON-able payload (floats by their repr)."""
    text = json.dumps(payload, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(text.encode()).hexdigest()[:16]


def summarize(workload: str, result: Any) -> dict:
    """The comparable form of one job's result.

    Exact results travel as digests; float results travel whole so the
    oracle can compare them within its tolerance.
    """
    if workload == "wc-shuffle":
        return {"counts": digest(sorted(result.items()))}
    if workload in ("lr-objects", "lr-swap"):
        return {"weights": list(result)}
    if workload == "pr-mp":
        return {"ranks": sorted([int(k), float(v)]
                                for k, v in result.items())}
    if workload == "sql-suite":
        return {
            "scan": digest([list(r) for r in result["scan"]]),
            "filter": digest([list(r) for r in result["filter"]]),
            "topk": digest([list(r) for r in result["topk"]]),
            "groupby": [[k, v] for k, v in result["groupby"]],
        }
    raise KeyError(workload)
