"""Independent plain-Python references for every workload's result.

Each reference is computed from the same seeded inputs the program
receives, with none of the program's code paths: a ``Counter`` for
WordCount, a direct gradient-descent / PageRank iteration, and row-wise
scan / filter / group-by-sum / top-k for the SQL suite.  Float results
are compared within ``REL_TOL``: the program sums partial results per
partition, so its additions run in another order than the reference's.
"""

from __future__ import annotations

import math
from collections import Counter, defaultdict
from typing import Any

from workloads import (
    LR_ITERATIONS,
    PR_ITERATIONS,
    digest,
)

REL_TOL = 1e-9
ABS_TOL = 1e-12


def reference(workload: str, inputs: Any) -> dict:
    """The summary (see ``workloads.summarize``) a correct run returns."""
    if workload == "wc-shuffle":
        return {"counts": digest(sorted(Counter(inputs).items()))}
    if workload in ("lr-objects", "lr-swap"):
        return {"weights": _logistic_regression(inputs, LR_ITERATIONS)}
    if workload == "pr-mp":
        ranks = _pagerank(inputs, PR_ITERATIONS)
        return {"ranks": sorted([k, v] for k, v in ranks.items())}
    if workload == "sql-suite":
        return _sql_suite(*inputs)
    raise KeyError(workload)


def _logistic_regression(points, iterations: int) -> list[float]:
    dimensions = len(points[0][1])
    # The app's deterministic initial hyperplane.
    weights = [2.0 * ((i * 2654435761 % 97) / 97.0) - 1.0
               for i in range(dimensions)]
    count = float(len(points))
    for _ in range(iterations):
        total = [0.0] * dimensions
        for label, features in points:
            margin = 0.0
            for w, x in zip(weights, features):
                margin += w * x
            margin = max(-30.0, min(30.0, -label * margin))
            factor = (1.0 / (1.0 + math.exp(margin)) - 1.0) * label
            for i, x in enumerate(features):
                total[i] += x * factor
        weights = [w - g / count for w, g in zip(weights, total)]
    return weights


def _pagerank(edges, iterations: int, damping: float = 0.85
              ) -> dict[int, float]:
    neighbors: dict[int, list[int]] = defaultdict(list)
    for src, dst in edges:
        neighbors[src].append(dst)
    ranks = {vertex: 1.0 for vertex in neighbors}
    for _ in range(iterations):
        sums: dict[int, float] = defaultdict(float)
        for vertex, rank in ranks.items():
            targets = neighbors.get(vertex)
            if not targets:
                continue
            share = rank / len(targets)
            for target in targets:
                sums[target] += share
        ranks = {vertex: (1.0 - damping) + damping * total
                 for vertex, total in sums.items()}
    return ranks


def _sql_suite(rankings, uservisits) -> dict:
    scan = [[url, rank, duration] for url, rank, duration in rankings]
    filtered = [[url, rank] for url, rank, _ in rankings if rank > 100]
    eligible = [[url, rank] for url, rank, duration in rankings
                if duration > 10]
    # Python's sort is stable with reverse=True too: ties keep row order.
    topk = sorted(eligible, key=lambda row: row[1], reverse=True)[:10]
    sums: dict[str, float] = defaultdict(float)
    for row in uservisits:
        sums[row[0][:5]] += row[3]
    return {
        "scan": digest(scan),
        "filter": digest(filtered),
        "topk": digest(topk),
        "groupby": sorted([k, v] for k, v in sums.items()),
    }


def mismatches(expected: dict, actual: dict) -> list[str]:
    """Human-readable differences between two summaries (empty = equal)."""
    problems: list[str] = []
    for key in sorted(set(expected) | set(actual)):
        if key not in actual or key not in expected:
            problems.append(f"{key}: missing")
            continue
        want, got = expected[key], actual[key]
        if isinstance(want, str):
            if want != got:
                problems.append(f"{key}: digest {got} != reference {want}")
            continue
        problems.extend(_compare_floats(key, want, got))
    return problems


def _compare_floats(key: str, want: list, got: list) -> list[str]:
    if len(want) != len(got):
        return [f"{key}: {len(got)} values, reference has {len(want)}"]
    for w, g in zip(want, got):
        w_key, w_val = (w if isinstance(w, list) else (None, w))
        g_key, g_val = (g if isinstance(g, list) else (None, g))
        if w_key != g_key:
            return [f"{key}: key {g_key!r} != reference {w_key!r}"]
        if not math.isclose(w_val, g_val, rel_tol=REL_TOL,
                            abs_tol=ABS_TOL):
            return [f"{key}[{w_key}]: {g_val!r} != reference {w_val!r}"]
    return []
