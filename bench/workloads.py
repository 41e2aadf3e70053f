"""The three benchmark workloads.

Each workload is a closed loop: one caller makes one call into the public
twotier API after another, on one thread.  ``setup`` builds the inputs from
the workload seed; ``run`` makes one round of calls and checks every output
through ``Round.op`` and ``Round.check``, and returns the round's facts
(exact results that must repeat between rounds and runs).  Calls go through
module attributes (``tw.power.shapley_shubik``) so the tracer sees them.
"""

from __future__ import annotations

import csv
import hashlib
import math
from fractions import Fraction
from pathlib import Path

import numpy as np

EU28 = Path("data") / "eu28.csv"


def _digest(values) -> str:
    return hashlib.sha256(repr(tuple(values)).encode()).hexdigest()


def _exact_l1(ssi, target) -> Fraction:
    return sum((abs(Fraction(v) - t) for v, t in zip(ssi, target)), Fraction(0))


class DesignEU28:
    """Inverse solve on eu28 at bound 500 for q = 37/50 and q = 1/2.

    One restart (criterion 10 uses three) keeps a round at 9-18 s on a
    shared 2-CPU Xeon.  With one restart the search runs only from the
    proportional start, so the solver seed (the workload seed) does not
    change its path.
    """

    name = "design-eu28"
    active = (
        "experiments.build_weights",
        "experiments.solve_local_search",
        "inverse.shapley_shubik",
    )
    quotas = (("q37_50", Fraction(37, 50)), ("q1_2", Fraction(1, 2)))

    def __init__(self, root: Path, seed: int):
        self.root = root
        self.settings = {
            "federation": str(EU28),
            "quotas": [str(q) for _, q in self.quotas],
            "weight_sum_bound": 500,
            "method": "local",
            "restarts": 1,
            "max_steps": 400,
            "solver_seed": seed,
        }

    def setup(self, tw):
        s = self.settings
        fed = tw.experiments.load_federation(self.root / EU28)
        solver = tw.experiments.InverseSolverOptions(
            weight_sum_bound=s["weight_sum_bound"],
            restarts=s["restarts"],
            max_steps=s["max_steps"],
            seed=s["solver_seed"],
            method=s["method"],
        )
        return fed, solver

    def run(self, tw, state, rnd) -> dict:
        fed, solver = state
        target = fed.shares()
        facts = {}
        for label, quota in self.quotas:
            with rnd.op(f"design.{label}"):
                game = tw.experiments.build_weights(fed, "shapley_inverse", quota, solver=solver)
            with rnd.op(f"design.check.{label}"):
                weights = game.weights
                rnd.check(
                    len(weights) == fed.num_constituencies
                    and all(isinstance(w, int) and w >= 0 for w in weights)
                    and sum(weights) > 0
                    and game.quota_ratio == quota,
                    f"{label}: invalid game {game.to_text()}",
                )
                ssi = tw.power.shapley_shubik(game)
                rnd.check(sum(ssi) == 1, f"{label}: exact index sums to {sum(ssi)}")
                reported = tw.inverse.distance(ssi, target, "l1")
                exact = _exact_l1(ssi, target)
                rnd.check(
                    abs(reported - float(exact)) <= 1e-12,
                    f"{label}: reported distance {reported} != exact {float(exact)}",
                )
                facts[f"weights.{label}"] = _digest(weights)
                facts[f"weight_sum.{label}"] = sum(weights)
                facts[f"distance_l1.{label}"] = reported
        return facts


class SweepEU28:
    """Fairness sweep on eu28 with the two closed-form weight rules.

    81,920 replications are two whole 32,768-replication blocks and one
    half block; t = 0 skips the shock matrix, the other t values draw it.
    """

    name = "sweep-eu28"
    active = (
        "experiments.run_experiment",
        "experiments.build_weights",
        "experiments.estimate_pivot_probabilities",
        "experiments.fairness_deviation",
        "experiments.shapley_shubik",
        "simulation.sample_median_shock",
        "simulation.Distribution.ppf",
        "simulation.Distribution.sample",
    )

    def __init__(self, root: Path, seed: int, out_dir: Path):
        self.root = root
        self.out_dir = out_dir
        self.settings = {
            "federation": str(EU28),
            "quota": "37/50",
            "rules": ["proportional", "square_root"],
            "t_grid": [0.0, 1.0, 5.0, 20.0],
            "replications": 2 * 32_768 + 16_384,
            "base_seed": seed,
            "weight_total": 1000,
        }

    def setup(self, tw):
        s = self.settings
        return tw.experiments.ExperimentConfig(
            federation_path=str(self.root / EU28),
            quota_ratio=Fraction(s["quota"]),
            t_grid=tuple(s["t_grid"]),
            replications=s["replications"],
            seed=s["base_seed"],
            rules=tuple(s["rules"]),
            weight_total=s["weight_total"],
            output_path=str(self.out_dir / f"sweep-seed{s['base_seed']}.csv"),
        )

    def run(self, tw, config, rnd) -> dict:
        facts = {}
        with rnd.op("sweep.run_experiment"):
            rows = tw.experiments.run_experiment(config)
        with rnd.op("sweep.check"):
            csv_path = Path(config.output_path)
            companion = tw.experiments.games_path_for(csv_path)
            csv_bytes = csv_path.read_bytes()
            games_bytes = companion.read_bytes()
            facts["csv_sha256"] = hashlib.sha256(csv_bytes).hexdigest()
            facts["games_sha256"] = hashlib.sha256(games_bytes).hexdigest()
            facts["replications"] = len(rows) * config.replications

            expected = [(t, rule) for t in config.t_grid for rule in config.rules]
            records = list(csv.DictReader(csv_bytes.decode("utf-8").splitlines()))
            rnd.check(
                [(float(r["t"]), r["rule"]) for r in records] == expected
                and [(row.t, row.rule) for row in rows] == expected,
                "sweep: rows are not one per (t, rule) in grid order",
            )
            rnd.check(
                all(
                    math.isfinite(float(r["deviation"]))
                    and math.isfinite(float(r["std_err_proxy"]))
                    and int(r["replications"]) == config.replications
                    for r in records
                ),
                "sweep: non-finite or inconsistent row",
            )
            lines = games_bytes.decode("utf-8").splitlines()
            rnd.check(
                [line.split("\t")[0] for line in lines] == list(config.rules),
                "sweep: companion does not list one game per rule",
            )
            for line in lines:
                rule, _, values = line.split("\t")
                total = sum(Fraction(v) for v in values.split())
                rnd.check(total == 1, f"sweep: companion index of {rule} sums to {total}")
        return facts


class CertifySmall:
    """Certified small-game answers plus the DP on 51- and 70-player games.

    Weights of the generated games are drawn from the workload seed: 51
    players with weights 3..19 (an Electoral-College-sized game on the int64
    path) and 70 players with weights 1..29 (past C(m, m/2) >= 2^62, so the
    DP runs on Python-object arrays).  The exhaustive bound of 50 and the
    game counts keep a round at about 3 s, so a 36-s run holds about
    twelve rounds and its mean round time is steady.
    """

    name = "certify-small"
    active = (
        "inverse.solve_exhaustive",
        "inverse.canonicalize",
        "inverse.shapley_shubik",
        "games.canonicalize",
        "games.enumerate_game_classes",
        "power.shapley_shubik",
        "power.banzhaf",
    )
    fixtures = (
        ((42, 25, 24, 9), (Fraction(1, 2), Fraction(1, 6), Fraction(1, 6), Fraction(1, 6))),
        ((40, 25, 25, 10), (Fraction(5, 12), Fraction(1, 4), Fraction(1, 4), Fraction(1, 12))),
    )

    def __init__(self, seed: int):
        self.settings = {
            "exhaustive_target": [0.49, 0.33, 0.09, 0.09],
            "exhaustive_bound": 50,
            "quota": "1/2",
            "classes": [[4, 8], [5, 8], [6, 6]],
            "large_games": [[51, 3, 19, 8], [70, 1, 29, 4]],
            "games_seed": seed,
        }

    def setup(self, tw):
        s = self.settings
        quota = Fraction(s["quota"])
        rng = np.random.default_rng(s["games_seed"])
        large = [
            tw.games.WeightedVotingGame(tuple(int(w) for w in rng.integers(low, high + 1, m)), quota)
            for m, low, high, count in s["large_games"]
            for _ in range(count)
        ]
        spec = tw.inverse.InverseProblemSpec(
            target=tuple(s["exhaustive_target"]),
            quota_ratio=quota,
            weight_sum_bound=s["exhaustive_bound"],
        )
        return quota, spec, large

    def run(self, tw, state, rnd) -> dict:
        quota, spec, large = state
        games, power = tw.games, tw.power
        facts = {}
        for weights, expected in self.fixtures:
            with rnd.op("certify.fixture"):
                ssi = power.shapley_shubik(games.WeightedVotingGame(weights, quota))
                rnd.check(ssi == expected, f"fixture {weights}: {ssi}")

        reps = {}
        for m, bound in self.settings["classes"]:
            with rnd.op(f"certify.enumerate.{m}"):
                reps[m] = games.enumerate_game_classes(m, quota, bound).representatives()
                facts[f"classes.{m}"] = len(reps[m])
            for rep in reps.get(m, ()):
                with rnd.op(f"certify.oracle.{m}"):
                    game = games.WeightedVotingGame(rep, quota)
                    rnd.check(
                        power.shapley_shubik(game) == power.shapley_permutation_oracle(game),
                        f"DP differs from oracle on {rep}",
                    )

        with rnd.op("certify.classes.4"):
            rnd.check(len(reps[4]) == 9, f"4 players: {len(reps[4])} classes, not 9")

        with rnd.op("certify.exhaustive"):
            solution = tw.inverse.solve_exhaustive(spec)
        with rnd.op("certify.exhaustive.check"):
            # targets are sorted descending, so each representative (sorted
            # descending) is already aligned to them
            best = min(
                _exact_l1(power.shapley_shubik(games.WeightedVotingGame(rep, quota)), spec.target)
                for rep in reps[4]
            )
            found = _exact_l1(solution.ssi, spec.target)
            rnd.check(
                found == best and abs(solution.distance - float(best)) <= 1e-12,
                f"exhaustive distance {solution.distance} != class minimum {float(best)}",
            )
            facts["exhaustive.vectors_scanned"] = solution.steps
            facts["exhaustive.weights"] = list(solution.game.weights)

        index_digests = []
        for game in large:
            with rnd.op(f"certify.large.{game.num_players}"):
                ssi = power.shapley_shubik(game)
                bz = power.banzhaf(game)
                rnd.check(sum(ssi) == 1, f"{game.num_players} players: index sums to {sum(ssi)}")
                rnd.check(all(0 <= v <= 1 for v in bz), f"{game.num_players} players: Banzhaf outside [0, 1]")
                by_weight = {}
                for w, a, b in zip(game.weights, ssi, bz):
                    by_weight.setdefault(w, set()).add((a, b))
                rnd.check(
                    all(len(v) == 1 for v in by_weight.values()),
                    f"{game.num_players} players: equal weights got unequal power",
                )
                index_digests.append(_digest(ssi + bz))
        facts["large.indices"] = _digest(index_digests)
        return facts


def make(name: str, root: Path, seed: int, out_dir: Path):
    if name == DesignEU28.name:
        return DesignEU28(root, seed)
    if name == SweepEU28.name:
        return SweepEU28(root, seed, out_dir)
    return CertifySmall(seed)


NAMES = (DesignEU28.name, SweepEU28.name, CertifySmall.name)
