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
from typing import Any, Mapping, Sequence

import numpy as np

from .games import WeightedVotingGame, exact_quota
from .inverse import (
    SOLVER_METHODS,
    InverseProblemSpec,
    _check_integer,
    _check_search_parameters,
    largest_remainder,
    solve,
    solve_local_search,
)
from .power import shapley_shubik
from .simulation import (
    FederationSpec,
    PreferenceModel,
    _threaded,
    estimate_pivot_probabilities,
    fairness_deviation,
)

__all__ = [
    "WEIGHT_RULES",
    "InverseSolverOptions",
    "ExperimentConfig",
    "ExperimentRow",
    "load_federation",
    "parse_key_values",
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
    with open(path, newline="", encoding="utf-8-sig") as handle:
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


@dataclass(frozen=True)
class InverseSolverOptions:
    """Parameters for the shapley_inverse weight rule."""

    weight_sum_bound: int = 100
    restarts: int = 25
    max_steps: int = 500
    seed: int = 0
    method: str = "auto"  # auto | exhaustive | local

    def __post_init__(self) -> None:
        _check_search_parameters(self)
        if self.method not in SOLVER_METHODS:
            raise ValueError(f"unknown solver method {self.method!r}")


def build_weights(
    fed: FederationSpec,
    rule: str,
    quota: Fraction | str | int,
    weight_total: int = 1000,
    solver: InverseSolverOptions = InverseSolverOptions(),
) -> WeightedVotingGame:
    """Construct a voting game for a federation under a weight rule.

    proportional: populations rounded to integers summing to weight_total.
    square_root: the same applied to the square roots of the populations.
    shapley_inverse: weights from the inverse solver so the game's exact
    power vector approximates the population shares (L1 norm).
    """
    quota = exact_quota(quota)
    if not isinstance(solver, InverseSolverOptions):
        raise TypeError(f"solver must be an InverseSolverOptions, got {solver!r}")
    if rule == "proportional":
        return WeightedVotingGame(tuple(largest_remainder(fed.populations, weight_total)), quota)
    if rule == "square_root":
        roots = [math.sqrt(p) for p in fed.populations]
        return WeightedVotingGame(tuple(largest_remainder(roots, weight_total)), quota)
    if rule == "shapley_inverse":
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
        if not isinstance(self.solver, InverseSolverOptions):
            raise TypeError(f"solver must be an InverseSolverOptions, got {self.solver!r}")
        for name in ("t_grid", "rules"):
            if isinstance(getattr(self, name), str):
                raise ValueError(f"{name} must be a sequence, not the string {getattr(self, name)!r}")
        if any(isinstance(t, (bool, np.bool_)) for t in self.t_grid):
            raise ValueError(f"t_grid values must be numbers, not bools, got {self.t_grid}")
        grid = tuple(float(t) for t in self.t_grid)
        if not grid:
            raise ValueError("t_grid must be non-empty")
        if not all(math.isfinite(t) and t >= 0 for t in grid):
            raise ValueError(f"t_grid values must be finite and non-negative, got {grid}")
        if any(b <= a for a, b in zip(grid, grid[1:])):
            raise ValueError("t_grid must be strictly increasing")
        object.__setattr__(self, "t_grid", grid)
        for name, minimum in (("replications", 1), ("seed", 0), ("weight_total", 1)):
            _check_integer(self, name, minimum)
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

        Required keys: federation, quota, t_grid, replications, seed.
        Optional keys: rules, weight_total, solver_bound, solver_restarts,
        solver_max_steps, solver_seed (defaults to seed), solver_method,
        output.  Any other key is an error.
        """
        fields = {"federation": "federation_path", "quota": "quota_ratio", "t_grid": "t_grid",
                  "replications": "replications", "seed": "seed", "rules": "rules", "weight_total": "weight_total",
                  "output": "output_path"}
        solver_fields = {"solver_bound": "weight_sum_bound", "solver_restarts": "restarts",
                         "solver_max_steps": "max_steps", "solver_seed": "seed", "solver_method": "method"}
        integer = dict.fromkeys(("replications", "seed", "weight_total", "solver_bound", "solver_restarts",
                                 "solver_max_steps", "solver_seed"), int)
        raw = parse_key_values(
            path,
            required=("federation", "quota", "t_grid", "replications", "seed"),
            optional=("rules", "weight_total", "output", *solver_fields),
            convert={**integer, "quota": Fraction, "t_grid": lambda text: tuple(map(float, text.split(","))),
                     "rules": lambda text: tuple(part.strip() for part in text.split(",") if part.strip())},
        )
        solver = {"seed": raw["seed"], **{solver_fields[key]: v for key, v in raw.items() if key in solver_fields}}
        return cls(**{fields[key]: v for key, v in raw.items() if key in fields}, solver=InverseSolverOptions(**solver))


def parse_key_values(path, required: Sequence[str], optional: Sequence[str] = (), convert: Mapping = {}) -> dict:
    """Read ``key = value`` lines; ``#`` starts a comment.  Every key in
    ``required`` must appear, no key outside ``required`` and ``optional``
    may, and no key may appear twice.  A value whose key is in ``convert``
    is passed through its function; one that fails to convert is an error
    naming the file, the line and the key."""
    values: dict[str, Any] = {}
    with open(path, encoding="utf-8-sig") as handle:
        for line_no, line in enumerate(handle, start=1):
            text = line.split("#", 1)[0].strip()
            if not text:
                continue
            key, sep, value = text.partition("=")
            if not sep:
                raise ValueError(f"{path} line {line_no}: expected 'key = value', got {line.rstrip()!r}")
            key, value = key.strip(), value.strip()
            if key not in required and key not in optional:
                raise ValueError(f"{path} line {line_no}: unknown config key {key!r}")
            if key in values:
                raise ValueError(f"{path} line {line_no}: repeated config key {key!r}")
            try:
                values[key] = convert[key](value) if key in convert else value
            except (ValueError, ZeroDivisionError) as exc:
                raise ValueError(f"{path} line {line_no}: config key {key!r}: {exc}") from None
    for key in required:
        if key not in values:
            raise ValueError(f"{path}: missing required config key {key!r}")
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
    used with their exact power vectors.  Rows run side by side on one
    pool (``simulation._threaded``), each with its blocks on its thread.
    Partial files are removed if any stage fails.  Reruns with an
    identical config are byte identical, whatever the CPU count.
    """
    fed = load_federation(config.federation_path)
    out_path = Path(config.output_path)
    companion = games_path_for(out_path)
    try:
        games: dict[str, WeightedVotingGame] = {}
        for rule in config.rules:
            games[rule] = build_weights(fed, rule, config.quota_ratio, config.weight_total, config.solver)

        def run_row(t_index: int, t_value: float, rule_index: int, rule: str) -> ExperimentRow:
            seed = _row_seed(config.seed, t_index, rule_index)
            model = PreferenceModel(cohesion=t_value)
            estimate = estimate_pivot_probabilities(fed, games[rule], model, config.replications, seed)
            return ExperimentRow(
                t=t_value,
                rule=rule,
                deviation=fairness_deviation(estimate, fed),
                std_err_proxy=float(np.sum(estimate.std_err)),
                replications=config.replications,
                seed=seed,
            )

        cells = [(ti, t, ri, rule) for ti, t in enumerate(config.t_grid) for ri, rule in enumerate(config.rules)]
        rows = _threaded(run_row, cells)

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
