"""Command-line interface.

Subcommands: ``power`` (exact indices of a game), ``inverse`` (solve the
inverse power problem for a target vector), ``enumerate`` (distinct game
classes on a weight grid), ``simulate`` (pivot probabilities for one
configuration), ``experiment`` (full fair-representation sweep to CSV).
Games are written as ``q_num/q_den; w1,w2,...,wm``.
"""

from __future__ import annotations

import argparse
import sys
from fractions import Fraction

from .experiments import (
    ExperimentConfig,
    InverseSolverOptions,
    build_weights,
    load_federation,
    parse_key_values,
    run_experiment,
)
from .games import ResourceLimitError, WeightedVotingGame, enumerate_game_classes
from .inverse import SOLVER_METHODS, InverseProblemSpec, solve
from .power import banzhaf, shapley_permutation_oracle, shapley_shubik
from .simulation import PreferenceModel, estimate_pivot_probabilities, fairness_deviation


def _fmt(value: Fraction) -> str:
    return f"{str(value):>10}  ({float(value):.6f})"


def _cmd_power(args) -> int:
    game = WeightedVotingGame.from_text(args.game)
    values = shapley_permutation_oracle(game) if args.oracle else shapley_shubik(game)
    print(f"game: {game.to_text()}")
    print(f"{'player':>6} {'weight':>7}  {'shapley_shubik':>24}")
    for i, value in enumerate(values):
        print(f"{i + 1:>6} {game.weights[i]:>7}  {_fmt(value)}")
    if args.banzhaf:
        print(f"{'player':>6} {'weight':>7}  {'banzhaf (raw)':>24}")
        for i, value in enumerate(banzhaf(game)):
            print(f"{i + 1:>6} {game.weights[i]:>7}  {_fmt(value)}")
    return 0


def _cmd_inverse(args) -> int:
    if args.federation:
        fed = load_federation(args.federation)
        target = fed.shares()
    elif args.target:
        target = tuple(args.target.split(","))
    else:
        raise ValueError("give a target vector or --federation CSV")
    fields = InverseProblemSpec.__dataclass_fields__.keys() - {"target"}
    options = {name: value for name, value in vars(args).items() if name in fields}  # the flags given
    spec = InverseProblemSpec(target=target, **options)
    solution = solve(spec, args.method)
    print(f"game: {solution.game.to_text()}")
    print(f"method: {solution.method}  certified: {solution.optimality_certified}")
    print(f"steps: {solution.steps}  evaluations: {solution.evaluations}")
    print(f"distance ({spec.norm}): {solution.distance:.6f}")
    print(f"{'player':>6} {'target':>10} {'achieved':>10}  {'exact':>10}")
    for i, (t, s) in enumerate(zip(spec.target, solution.ssi)):
        print(f"{i + 1:>6} {float(t):>10.6f} {float(s):>10.6f}  {str(s):>10}")
    return 0


def _cmd_enumerate(args) -> int:
    enumeration = enumerate_game_classes(args.players, args.quota, args.bound)
    print(
        f"{enumeration.count} structurally distinct games with {args.players} players, "
        f"quota {enumeration.quota_ratio}, weights up to {args.bound}"
    )
    for idx, cls in enumerate(enumeration.classes, start=1):
        line = f"{idx:>3}. weights {cls.representative}  minimal winning {cls.signature.minimal_winning}"
        if args.ssi:
            game = WeightedVotingGame(cls.representative, enumeration.quota_ratio)
            line += "  ssi (" + ", ".join(str(v) for v in shapley_shubik(game)) + ")"
        print(line)
    return 0


def _cmd_simulate(args) -> int:
    convert = {"t": float, "replications": int, "seed": int}
    raw = parse_key_values(args.config, required=("federation", "game", *convert), convert=convert)
    fed = load_federation(raw["federation"])
    game = WeightedVotingGame.from_text(raw["game"])
    model = PreferenceModel(cohesion=raw["t"])
    estimate = estimate_pivot_probabilities(fed, game, model, raw["replications"], raw["seed"])
    print(f"game: {game.to_text()}")
    print(f"t: {raw['t']}  replications: {estimate.replications}  seed: {estimate.seed}")
    print(f"{'constituency':>16} {'population':>12} {'pivot_prob':>11} {'std_err':>9}")
    for name, population, p, se in zip(fed.names, fed.populations, estimate.pi_hat, estimate.std_err):
        print(f"{name:>16} {population:>12} {p:>11.5f} {se:>9.5f}")
    print(f"fairness deviation: {fairness_deviation(estimate, fed):.6f}")
    return 0


def _cmd_experiment(args) -> int:
    config = ExperimentConfig.from_file(args.config)
    rows = run_experiment(config)
    for row in rows:
        print(
            f"t={row.t:<6g} rule={row.rule:<16} deviation={row.deviation:.6f} "
            f"noise_proxy={row.std_err_proxy:.6f}"
        )
    print(f"wrote {config.output_path}")
    return 0


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="twotier", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    p_power = sub.add_parser("power", help="exact power indices of a game")
    p_power.add_argument("game", help="game record, e.g. '1/2; 42,25,24,9'")
    p_power.add_argument("--banzhaf", action="store_true", help="also print the raw Banzhaf measure")
    p_power.add_argument("--oracle", action="store_true", help="use the m! permutation oracle")
    p_power.set_defaults(func=_cmd_power)

    # a flag without a default of its own is absent from args when left out,
    # so the InverseProblemSpec field it sets keeps the spec's default
    p_inv = sub.add_parser(
        "inverse", help="find a game approximating a target power vector", argument_default=argparse.SUPPRESS
    )
    p_inv.add_argument("target", nargs="?", default=None, help="comma-separated shares, e.g. '0.42,0.25,0.24,0.09'")
    p_inv.add_argument("--federation", default=None, help="take the target from a federation CSV instead")
    p_inv.add_argument("--quota", dest="quota_ratio", metavar="QUOTA",
                       help=f"relative quota as an exact fraction (default {InverseProblemSpec.quota_ratio})")
    p_inv.add_argument("--norm", choices=("l1", "l2", "linf"))
    p_inv.add_argument("--bound", dest="weight_sum_bound", metavar="BOUND", type=int,
                       help=f"weight sum bound (default {InverseProblemSpec.weight_sum_bound})")
    p_inv.add_argument("--method", default="auto", choices=SOLVER_METHODS)
    p_inv.add_argument("--restarts", type=int)
    p_inv.add_argument("--max-steps", type=int)
    p_inv.add_argument("--seed", type=int)
    p_inv.set_defaults(func=_cmd_inverse)

    p_enum = sub.add_parser("enumerate", help="distinct game classes on a weight grid")
    p_enum.add_argument("players", type=int)
    p_enum.add_argument("quota", help="relative quota as an exact fraction, e.g. 1/2")
    p_enum.add_argument("--bound", type=int, default=8, help="max weight per player (default 8)")
    p_enum.add_argument("--ssi", action="store_true", help="also print each class's power vector")
    p_enum.set_defaults(func=_cmd_enumerate)

    p_sim = sub.add_parser("simulate", help="pivot probabilities for one configuration")
    p_sim.add_argument("config", help="key=value file: federation, game, t, replications, seed")
    p_sim.set_defaults(func=_cmd_simulate)

    p_exp = sub.add_parser("experiment", help="fair-representation sweep to CSV")
    p_exp.add_argument("config", help="key=value experiment config file")
    p_exp.set_defaults(func=_cmd_experiment)
    return parser


def main(argv=None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (ValueError, TypeError, OSError, ResourceLimitError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
