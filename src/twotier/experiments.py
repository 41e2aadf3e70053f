"""Experiment orchestration: federation files, weight rules, and the
fair-representation sweep comparing weight allocations across cohesion
levels, with CSV output for plotting."""

from __future__ import annotations

import csv
import math
import os
from dataclasses import dataclass, field
from fractions import Fraction
from pathlib import Path
from typing import Sequence

import numpy as np

from .games import WeightedVotingGame, exact_quota
from .inverse import SOLVER_METHODS, InverseProblemSpec, largest_remainder, solve, solve_local_search
from .power import shapley_shubik
from .simulation import (
    FederationSpec,
    PreferenceModel,
    estimate_pivot_probabilities,
    fairness_deviation,
)

__all__ = [
    "WEIGHT_RULES",
    "InverseSolverOptions",
    "ExperimentConfig",
    "ExperimentRow",
    "load_federation",
    "write_federation",
    "build_weights",
    "run_experiment",
]

WEIGHT_RULES = ("proportional", "square_root", "shapley_inverse")


def load_federation(path) -> FederationSpec:
    """Read a federation from CSV with header ``name,population``.

    Preserves file order; rejects malformed rows, non-positive populations,
    duplicate names, and empty files, naming the offending row.
    """
    names: list[str] = []
    populations: list[int] = []
    with open(path, newline="", encoding="utf-8") as handle:
        reader = csv.reader(handle)
        header = next(reader, None)
        if header is None or [cell.strip().lower() for cell in header] != ["name", "population"]:
            raise ValueError(f"{path}: expected header 'name,population', got {header}")
        for line_no, row in enumerate(reader, start=2):
            if not row or all(not cell.strip() for cell in row):
                continue
            if len(row) != 2:
                raise ValueError(f"{path} row {line_no}: expected 2 fields, got {len(row)}")
            name = row[0].strip()
            if not name:
                raise ValueError(f"{path} row {line_no}: empty constituency name")
            try:
                population = int(row[1].strip())
            except ValueError:
                raise ValueError(f"{path} row {line_no}: population {row[1]!r} is not an integer") from None
            if population < 1:
                raise ValueError(f"{path} row {line_no}: population must be positive, got {population}")
            if name in names:
                raise ValueError(f"{path} row {line_no}: duplicate constituency name {name!r}")
            names.append(name)
            populations.append(population)
    if not names:
        raise ValueError(f"{path}: no constituencies")
    return FederationSpec(tuple(names), tuple(populations))


def write_federation(fed: FederationSpec, path) -> None:
    with open(path, "w", newline="", encoding="utf-8") as handle:
        writer = csv.writer(handle)
        writer.writerow(["name", "population"])
        for name, population in zip(fed.names, fed.populations):
            writer.writerow([name, population])


@dataclass(frozen=True)
class InverseSolverOptions:
    """Parameters for the shapley_inverse weight rule."""

    weight_sum_bound: int = 100
    restarts: int = 25
    max_steps: int = 500
    seed: int = 0
    method: str = "auto"  # auto | exhaustive | local

    def __post_init__(self) -> None:
        if self.method not in SOLVER_METHODS:
            raise ValueError(f"unknown solver method {self.method!r}")


def build_weights(
    fed: FederationSpec,
    rule: str,
    quota: Fraction | str | int,
    weight_total: int = 1000,
    solver: InverseSolverOptions | None = None,
) -> WeightedVotingGame:
    """Construct a voting game for a federation under a weight rule.

    proportional: populations rounded to integers summing to weight_total.
    square_root: the same applied to the square roots of the populations.
    shapley_inverse: weights from the inverse solver so the game's exact
    power vector approximates the population shares (L1 norm).
    """
    quota = exact_quota(quota)
    if rule == "proportional":
        return WeightedVotingGame(tuple(largest_remainder(fed.populations, weight_total)), quota)
    if rule == "square_root":
        roots = [math.sqrt(p) for p in fed.populations]
        return WeightedVotingGame(tuple(largest_remainder(roots, weight_total)), quota)
    if rule == "shapley_inverse":
        solver = solver or InverseSolverOptions()
        spec = InverseProblemSpec(
            target=fed.shares(),
            quota_ratio=quota,
            norm="l1",
            weight_sum_bound=solver.weight_sum_bound,
            restarts=solver.restarts,
            max_steps=solver.max_steps,
            seed=solver.seed,
        )
        return solve(spec, solver.method, local_search=solve_local_search).game
    raise ValueError(f"unknown weight rule {rule!r}; supported: {WEIGHT_RULES}")


@dataclass(frozen=True)
class ExperimentConfig:
    """Full description of a fair-representation sweep."""

    federation_path: str
    quota_ratio: Fraction
    t_grid: tuple[float, ...]
    replications: int
    seed: int
    rules: tuple[str, ...] = ("proportional", "shapley_inverse")
    weight_total: int = 1000
    solver: InverseSolverOptions = field(default=InverseSolverOptions())
    output_path: str = "results.csv"

    def __post_init__(self) -> None:
        object.__setattr__(self, "quota_ratio", exact_quota(self.quota_ratio))
        grid = tuple(float(t) for t in self.t_grid)
        if not grid:
            raise ValueError("t_grid must be non-empty")
        if not all(math.isfinite(t) and t >= 0 for t in grid):
            raise ValueError(f"t_grid values must be finite and non-negative, got {grid}")
        if any(b <= a for a, b in zip(grid, grid[1:])):
            raise ValueError("t_grid must be strictly increasing")
        object.__setattr__(self, "t_grid", grid)
        if self.replications < 1:
            raise ValueError("replications must be positive")
        rules = tuple(self.rules)
        if not rules:
            raise ValueError("at least one weight rule required")
        for rule in rules:
            if rule not in WEIGHT_RULES:
                raise ValueError(f"unknown weight rule {rule!r}; supported: {WEIGHT_RULES}")
        object.__setattr__(self, "rules", rules)

    @classmethod
    def from_file(cls, path) -> "ExperimentConfig":
        """Parse a ``key = value`` config file (# starts a comment).

        Keys: federation, quota, t_grid, replications, seed, rules,
        weight_total, solver_bound, solver_restarts, solver_max_steps,
        solver_method, output.
        """
        raw = _parse_key_values(path)
        required = ("federation", "quota", "t_grid", "replications", "seed")
        for key in required:
            if key not in raw:
                raise ValueError(f"{path}: missing required config key {key!r}")
        solver = InverseSolverOptions(
            weight_sum_bound=int(raw.get("solver_bound", 100)),
            restarts=int(raw.get("solver_restarts", 25)),
            max_steps=int(raw.get("solver_max_steps", 500)),
            seed=int(raw.get("solver_seed", raw["seed"])),
            method=raw.get("solver_method", "auto"),
        )
        rules = tuple(
            part.strip() for part in raw.get("rules", "proportional,shapley_inverse").split(",") if part.strip()
        )
        return cls(
            federation_path=raw["federation"],
            quota_ratio=Fraction(raw["quota"]),
            t_grid=tuple(float(part) for part in raw["t_grid"].split(",")),
            replications=int(raw["replications"]),
            seed=int(raw["seed"]),
            rules=rules,
            weight_total=int(raw.get("weight_total", 1000)),
            solver=solver,
            output_path=raw.get("output", "results.csv"),
        )


def _parse_key_values(path) -> dict[str, str]:
    values: dict[str, str] = {}
    with open(path, encoding="utf-8") as handle:
        for line_no, line in enumerate(handle, start=1):
            text = line.split("#", 1)[0].strip()
            if not text:
                continue
            key, sep, value = text.partition("=")
            if not sep:
                raise ValueError(f"{path} line {line_no}: expected 'key = value', got {line.rstrip()!r}")
            values[key.strip()] = value.strip()
    return values


@dataclass(frozen=True)
class ExperimentRow:
    t: float
    rule: str
    deviation: float
    std_err_proxy: float
    replications: int
    seed: int


def _row_seed(base_seed: int, t_index: int, rule_index: int) -> int:
    state = np.random.SeedSequence((base_seed, t_index, rule_index)).generate_state(1)
    return int(state[0])


def games_path_for(output_path) -> Path:
    out = Path(output_path)
    return out.with_name(out.stem + ".games.txt")


def run_experiment(config: ExperimentConfig) -> list[ExperimentRow]:
    """Run the sweep and write two files: the results CSV (one row per
    (t, rule) in deterministic order) and a companion listing of the games
    used with their exact power vectors.  Partial files are removed if any
    stage fails.  Reruns with an identical config are byte identical.
    """
    fed = load_federation(config.federation_path)
    out_path = Path(config.output_path)
    companion = games_path_for(out_path)
    try:
        games: dict[str, WeightedVotingGame] = {}
        for rule in config.rules:
            games[rule] = build_weights(fed, rule, config.quota_ratio, config.weight_total, config.solver)

        rows: list[ExperimentRow] = []
        for t_index, t_value in enumerate(config.t_grid):
            model = PreferenceModel(cohesion=t_value)
            for rule_index, rule in enumerate(config.rules):
                seed = _row_seed(config.seed, t_index, rule_index)
                estimate = estimate_pivot_probabilities(
                    fed, games[rule], model, config.replications, seed
                )
                rows.append(
                    ExperimentRow(
                        t=t_value,
                        rule=rule,
                        deviation=fairness_deviation(estimate, fed),
                        std_err_proxy=float(np.sum(estimate.std_err)),
                        replications=config.replications,
                        seed=seed,
                    )
                )

        with open(out_path, "w", newline="", encoding="utf-8") as handle:
            writer = csv.writer(handle)
            writer.writerow(["t", "rule", "deviation", "std_err_proxy", "replications", "seed"])
            for row in rows:
                writer.writerow(
                    [repr(row.t), row.rule, repr(row.deviation), repr(row.std_err_proxy), row.replications, row.seed]
                )
        with open(companion, "w", encoding="utf-8") as handle:
            for rule in config.rules:
                ssi = shapley_shubik(games[rule])
                handle.write(f"{rule}\t{games[rule].to_text()}\t{' '.join(str(v) for v in ssi)}\n")
    except BaseException:
        for path in (out_path, companion):
            try:
                os.unlink(path)
            except FileNotFoundError:
                pass
        raise
    return rows
