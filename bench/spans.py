"""Span tracing at the layer boundaries of twotier, installed from outside.

The tracer replaces module attributes -- the names each caller looks up at
call time -- with wrappers that record one span per call:
``(boundary, start, end, parent span, operation, count)``.  Nothing under
``src/`` changes, and ``uninstall`` puts the original functions back.
Spans stay in memory until ``dump`` writes them out.
"""

from __future__ import annotations

import functools
import gzip
import json
import statistics
import time
from collections import defaultdict

# (attribute path under the twotier package, layer the span is charged to).
# Each path is a binding some caller resolves at call time: run_experiment
# finds build_weights, solve_local_search, estimate_pivot_probabilities,
# fairness_deviation and shapley_shubik in experiments; the inverse solvers
# find canonicalize and shapley_shubik in inverse; enumerate_game_classes
# finds canonicalize in games; _block_ideals finds sample_median_shock in
# simulation and calls the Distribution methods; the benchmark itself calls
# power, games.enumerate_game_classes and inverse.solve_exhaustive.
BOUNDARIES = (
    ("experiments.run_experiment", "experiments.run_experiment"),
    ("experiments.build_weights", "experiments.build_weights"),
    ("experiments.fairness_deviation", "experiments.fairness_deviation"),
    ("experiments.estimate_pivot_probabilities", "simulation.pivot"),
    ("experiments.solve_local_search", "inverse.search"),
    ("experiments.shapley_shubik", "power.shapley_shubik"),
    ("inverse.solve_exhaustive", "inverse.exhaustive"),
    ("inverse.shapley_shubik", "power.shapley_shubik"),
    ("inverse.canonicalize", "games.canonicalize"),
    ("games.canonicalize", "games.canonicalize"),
    ("games.enumerate_game_classes", "games.enumerate"),
    ("power.shapley_shubik", "power.shapley_shubik"),
    ("power.banzhaf", "power.banzhaf"),
    ("simulation.sample_median_shock", "simulation.median_sampling"),
    ("simulation.Distribution.ppf", "simulation.ppf"),
    ("simulation.Distribution.sample", "simulation.shock_sampling"),
)

def _new_class(tracer, signature) -> int:
    """1 when a canonicalize call returns a class not yet seen in its operation."""
    key = (tracer.op, signature)
    if key in tracer.seen:
        return 0
    tracer.seen.add(key)
    return 1


def _replications(tracer, estimate) -> int:
    return estimate.replications


def _players(tracer, index) -> int:
    return len(index)


# per-layer count recorded in the span's last field
COUNTERS = {
    "games.canonicalize": _new_class,
    "simulation.pivot": _replications,
    "power.shapley_shubik": _players,
    "power.banzhaf": _players,
}

# power calls are also charged to a size class by the players of their game,
# so that a change to the shared DP shows on each path of certify-small: its
# tiny games, its 51-player games (int64 DP) and its 70-player games
# (object-dtype DP).  Other sizes (the 28 of eu28) have no class of their own.
POWER_LAYERS = ("power.shapley_shubik", "power.banzhaf")
LARGE_SIZES = {51: "int64_51", 70: "object_70"}
SIZE_CLASSES = ("tiny", *LARGE_SIZES.values())


def _size_class(layer: str, count: int) -> str | None:
    if layer not in POWER_LAYERS:
        return None
    size = "tiny" if count <= 8 else LARGE_SIZES.get(count)
    return f"{layer}.{size}" if size else None


class Tracer:
    def __init__(self):
        self.spans: list[tuple | None] = []
        self.ops: list[str] = []
        self.op = -1
        self.seen: set = set()
        self.stack = [-1]
        self._installed: list[tuple[object, str, object]] = []

    def install(self, package) -> None:
        for index, (path, layer) in enumerate(BOUNDARIES):
            *owner_path, attr = path.split(".")
            owner = package
            for part in owner_path:
                owner = getattr(owner, part)
            original = getattr(owner, attr)
            self._installed.append((owner, attr, original))
            setattr(owner, attr, self._wrap(index, original, COUNTERS.get(layer)))

    def uninstall(self) -> None:
        while self._installed:
            owner, attr, original = self._installed.pop()
            setattr(owner, attr, original)

    def _wrap(self, index, func, counter):
        spans, stack, clock = self.spans, self.stack, time.perf_counter

        # spans are stored as tuples of numbers, which the garbage collector
        # stops tracking; hundreds of thousands of lists would make every
        # collection slower as the trace grows
        @functools.wraps(func)
        def traced(*args, **kwargs):
            slot, parent, op = len(spans), stack[-1], self.op
            spans.append(None)
            stack.append(slot)
            start = clock()
            try:
                result = func(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                spans[slot] = (index, start, end, parent, op, 0)
            if counter is not None:
                spans[slot] = (index, start, end, parent, op, counter(self, result))
            return result

        return traced

    def begin_op(self, name: str) -> None:
        self.ops.append(name)
        self.op = len(self.ops) - 1

    def end_op(self) -> None:
        self.op = -1

    def dump(self, path, manifest: dict) -> None:
        payload = {
            "manifest": manifest,
            "boundaries": [list(b) for b in BOUNDARIES],
            "ops": self.ops,
            "fields": ["boundary", "start", "end", "parent", "op", "count"],
            "spans": self.spans,
        }
        with gzip.open(path, "wt", encoding="utf-8", compresslevel=1) as handle:
            json.dump(payload, handle, separators=(",", ":"))


class RoundStats:
    """Per-layer calls, self time and counts over the spans of one round.

    A span's self time is its duration minus the durations of its direct
    children, so every second of traced time is charged to exactly one layer
    (and a power call's also to its size class).
    """

    def __init__(self, tracer: Tracer, lo: int, hi: int):
        spans, ops = tracer.spans, tracer.ops
        self.calls = defaultdict(int)
        self.self_s = defaultdict(float)
        self.counts = defaultdict(int)
        self.boundary_calls = defaultdict(int)
        self.under_solve = defaultdict(int)  # shapley_shubik calls per build_weights op
        root: dict[int, int] = {}
        for i in range(lo, hi):
            boundary, start, end, parent, op, count = spans[i]
            path, layer = BOUNDARIES[boundary]
            duration = end - start
            self.calls[layer] += 1
            self.boundary_calls[path] += 1
            self.self_s[layer] += duration
            self.counts[layer] += count
            size_class = _size_class(layer, count)
            if size_class:
                self.calls[size_class] += 1
                self.self_s[size_class] += duration
            if parent >= 0:
                parent_layer = BOUNDARIES[spans[parent][0]][1]
                self.self_s[parent_layer] -= duration
                parent_class = _size_class(parent_layer, spans[parent][5])
                if parent_class:
                    self.self_s[parent_class] -= duration
                root[i] = root[parent]
            else:
                root[i] = i
            top = BOUNDARIES[spans[root[i]][0]][1]
            if layer == "power.shapley_shubik" and top == "experiments.build_weights" and op >= 0:
                self.under_solve[ops[op]] += 1


def _median(values):
    return statistics.median(values) if values else 0.0


def _per(value, count, scale):
    return value / count * scale if count else 0.0


# per-layer metric name -> unit; reported on every workload, 0 where the
# layer does no work
PER_LAYER_UNITS = {
    "power.shapley_shubik.calls": "count",
    "power.shapley_shubik.self_s": "s",
    "power.shapley_shubik.ms_per_call": "ms",
    "power.shapley_shubik.tiny.calls": "count",
    "power.shapley_shubik.tiny.self_s": "s",
    "power.shapley_shubik.tiny.ms_per_call": "ms",
    "power.shapley_shubik.int64_51.calls": "count",
    "power.shapley_shubik.int64_51.self_s": "s",
    "power.shapley_shubik.int64_51.ms_per_call": "ms",
    "power.shapley_shubik.object_70.calls": "count",
    "power.shapley_shubik.object_70.self_s": "s",
    "power.shapley_shubik.object_70.ms_per_call": "ms",
    "power.banzhaf.calls": "count",
    "power.banzhaf.self_s": "s",
    "power.banzhaf.int64_51.self_s": "s",
    "power.banzhaf.object_70.self_s": "s",
    "inverse.evals_per_solve.q37_50": "count",
    "inverse.evals_per_solve.q1_2": "count",
    "inverse.search.self_s": "s",
    "inverse.weight_sum.q37_50": "weight",
    "inverse.weight_sum.q1_2": "weight",
    "inverse.distance_l1.q37_50": "l1",
    "inverse.distance_l1.q1_2": "l1",
    "inverse.exhaustive.vectors_scanned": "count",
    "inverse.exhaustive.self_s": "s",
    "games.canonicalize.calls": "count",
    "games.canonicalize.self_s": "s",
    "games.canonicalize.us_per_call": "us",
    "games.canonicalize.useful_ratio": "ratio",
    "games.enumerate.self_s": "s",
    "simulation.replications": "count",
    "simulation.median_sampling.self_s": "s",
    "simulation.ppf.self_s": "s",
    "simulation.shock_sampling.self_s": "s",
    "simulation.pivot.self_s": "s",
    "simulation.median_sampling.ns_per_replication": "ns",
    "simulation.pivot.ns_per_replication": "ns",
    "experiments.run_experiment.self_s": "s",
    "experiments.build_weights.self_s": "s",
    "experiments.fairness_deviation.self_s": "s",
    "trace_overhead_ratio": "ratio",
}


def exact_counts(stats: RoundStats) -> dict:
    """Counts that must repeat exactly between rounds and between runs."""
    canon = stats.calls["games.canonicalize"]
    return {
        "power.shapley_shubik.calls": stats.calls["power.shapley_shubik"],
        **{
            f"power.shapley_shubik.{size}.calls": stats.calls[f"power.shapley_shubik.{size}"]
            for size in SIZE_CLASSES
        },
        "power.banzhaf.calls": stats.calls["power.banzhaf"],
        "inverse.evals_per_solve.q37_50": stats.under_solve["design.q37_50"],
        "inverse.evals_per_solve.q1_2": stats.under_solve["design.q1_2"],
        "games.canonicalize.calls": canon,
        "games.canonicalize.useful_ratio": _per(stats.counts["games.canonicalize"], canon, 1.0),
        "simulation.replications": stats.counts["simulation.pivot"],
    }


def per_layer_metrics(stats: list[RoundStats], facts: dict, overhead: float) -> dict:
    """Per-layer metrics: exact counts from the first traced round (they are
    checked to repeat), times as the median over traced rounds."""
    values = exact_counts(stats[0])

    def self_s(layer):
        return _median([s.self_s[layer] for s in stats])

    ssi_calls = values["power.shapley_shubik.calls"]
    canon_calls = values["games.canonicalize.calls"]
    replications = values["simulation.replications"]
    for size in SIZE_CLASSES:
        layer = f"power.shapley_shubik.{size}"
        values[f"{layer}.self_s"] = self_s(layer)
        values[f"{layer}.ms_per_call"] = _per(self_s(layer), values[f"{layer}.calls"], 1e3)
    values.update(
        {
            "power.shapley_shubik.self_s": self_s("power.shapley_shubik"),
            "power.shapley_shubik.ms_per_call": _per(self_s("power.shapley_shubik"), ssi_calls, 1e3),
            "power.banzhaf.self_s": self_s("power.banzhaf"),
            "power.banzhaf.int64_51.self_s": self_s("power.banzhaf.int64_51"),
            "power.banzhaf.object_70.self_s": self_s("power.banzhaf.object_70"),
            "inverse.search.self_s": self_s("inverse.search"),
            "inverse.weight_sum.q37_50": facts.get("weight_sum.q37_50", 0),
            "inverse.weight_sum.q1_2": facts.get("weight_sum.q1_2", 0),
            "inverse.distance_l1.q37_50": facts.get("distance_l1.q37_50", 0.0),
            "inverse.distance_l1.q1_2": facts.get("distance_l1.q1_2", 0.0),
            "inverse.exhaustive.vectors_scanned": facts.get("exhaustive.vectors_scanned", 0),
            "inverse.exhaustive.self_s": self_s("inverse.exhaustive"),
            "games.canonicalize.self_s": self_s("games.canonicalize"),
            "games.canonicalize.us_per_call": _per(self_s("games.canonicalize"), canon_calls, 1e6),
            "games.enumerate.self_s": self_s("games.enumerate"),
            "simulation.median_sampling.self_s": self_s("simulation.median_sampling"),
            "simulation.ppf.self_s": self_s("simulation.ppf"),
            "simulation.shock_sampling.self_s": self_s("simulation.shock_sampling"),
            "simulation.pivot.self_s": self_s("simulation.pivot"),
            "simulation.median_sampling.ns_per_replication": _per(
                self_s("simulation.median_sampling"), replications, 1e9
            ),
            "simulation.pivot.ns_per_replication": _per(self_s("simulation.pivot"), replications, 1e9),
            "experiments.run_experiment.self_s": self_s("experiments.run_experiment"),
            "experiments.build_weights.self_s": self_s("experiments.build_weights"),
            "experiments.fairness_deviation.self_s": self_s("experiments.fairness_deviation"),
            "trace_overhead_ratio": overhead,
        }
    )
    return {name: values[name] for name in PER_LAYER_UNITS}
