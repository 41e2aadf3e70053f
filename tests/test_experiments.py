"""Federation files, weight rules, experiment sweeps, and the CLI surface."""

import csv
import math
from concurrent.futures import ThreadPoolExecutor
from fractions import Fraction

import numpy as np
import pytest

from twotier import (
    ExperimentConfig,
    FederationSpec,
    InverseSolverOptions,
    WeightedVotingGame,
    build_weights,
    load_federation,
    run_experiment,
    shapley_shubik,
)
from twotier import cli, simulation
from twotier.cli import main
from twotier.inverse import InverseProblemSpec, solve
from twotier.experiments import games_path_for

F = Fraction
HALF = Fraction(1, 2)


def make_federation_csv(path, rows, header="name,population"):
    path.write_text(header + "\n" + "\n".join(rows) + ("\n" if rows else ""))
    return path


class TestLoadFederation:
    def test_preserves_order(self, tmp_path):
        path = make_federation_csv(tmp_path / "fed.csv", ["A,100", "B,300"])
        fed = load_federation(path)
        assert fed.names == ("A", "B")
        assert fed.populations == (100, 300)
        assert fed.total_population == 400

    def test_empty_file(self, tmp_path):
        path = make_federation_csv(tmp_path / "fed.csv", [])
        with pytest.raises(ValueError, match="no constituencies"):
            load_federation(path)

    def test_negative_population_names_row(self, tmp_path):
        path = make_federation_csv(tmp_path / "fed.csv", ["A,100", "C,-5"])
        with pytest.raises(ValueError, match="row 3"):
            load_federation(path)

    def test_non_integer_population(self, tmp_path):
        path = make_federation_csv(tmp_path / "fed.csv", ["A,ten"])
        with pytest.raises(ValueError, match="not an integer"):
            load_federation(path)

    def test_duplicate_name(self, tmp_path):
        path = make_federation_csv(tmp_path / "fed.csv", ["A,1", "A,2"])
        with pytest.raises(ValueError, match="row 3: duplicate"):
            load_federation(path)

    def test_bad_header(self, tmp_path):
        path = make_federation_csv(tmp_path / "fed.csv", ["A,1"], header="state,pop")
        with pytest.raises(ValueError, match="header"):
            load_federation(path)

    def test_round_trip(self, tmp_path):
        fed = FederationSpec(("North", "South", "East"), (1200, 450, 90))
        path = tmp_path / "fed.csv"
        with open(path, "w", newline="", encoding="utf-8") as handle:
            csv.writer(handle).writerows([("name", "population"), *zip(fed.names, fed.populations)])
        assert load_federation(path) == fed

    def test_byte_order_mark(self, tmp_path):
        # spreadsheet exports start a UTF-8 CSV with a byte-order mark
        path = tmp_path / "fed.csv"
        path.write_text("name,population\nA,100\nB,300\n", encoding="utf-8-sig")
        assert load_federation(path) == FederationSpec(("A", "B"), (100, 300))

    @pytest.mark.parametrize("names", [("A", "A"), ("A", ""), ("A", " B"), ("A\t", "B")])
    def test_spec_refuses_names_that_do_not_round_trip(self, names):
        # the reader strips names and refuses empty and repeated ones
        with pytest.raises(ValueError, match="names must be distinct, non-empty and unpadded"):
            FederationSpec(names, (1, 2))

    def test_empty_name_names_row(self, tmp_path):
        path = make_federation_csv(tmp_path / "fed.csv", ["A,1", " ,2"])
        with pytest.raises(ValueError, match="row 3: empty constituency name"):
            load_federation(path)


class TestBuildWeights:
    FED = FederationSpec.from_sizes((42, 25, 24, 9))

    def test_proportional_already_integral(self):
        game = build_weights(self.FED, "proportional", HALF, weight_total=100)
        assert game.weights == (42, 25, 24, 9)

    def test_square_root(self):
        fed = FederationSpec.from_sizes((100, 400))
        game = build_weights(fed, "square_root", HALF, weight_total=3)
        assert game.weights == (1, 2)

    def test_equal_sizes_equal_weights(self):
        fed = FederationSpec.from_sizes((100, 100, 100, 100))
        for rule in ("proportional", "square_root", "shapley_inverse"):
            game = build_weights(fed, rule, HALF, weight_total=20,
                                 solver=InverseSolverOptions(weight_sum_bound=20, restarts=2))
            assert len(set(game.weights)) == 1

    def test_shapley_inverse_hits_documented_vector(self):
        game = build_weights(self.FED, "shapley_inverse", HALF,
                             solver=InverseSolverOptions(weight_sum_bound=30))
        assert shapley_shubik(game) == (F(5, 12), F(1, 4), F(1, 4), F(1, 12))

    def test_unknown_rule(self):
        with pytest.raises(ValueError, match="unknown weight rule"):
            build_weights(self.FED, "cube_root", HALF)

    @pytest.mark.parametrize("rule", ["proportional", "shapley_inverse"])
    @pytest.mark.parametrize("solver", [None, {"weight_sum_bound": 40}])
    def test_solver_must_be_options(self, rule, solver):
        with pytest.raises(TypeError, match="solver must be an InverseSolverOptions"):
            build_weights(self.FED, rule, HALF, solver=solver)


class TestExperimentConfig:
    def test_from_file(self, tmp_path):
        fed_path = make_federation_csv(tmp_path / "fed.csv", ["A,100", "B,300"])
        config_path = tmp_path / "exp.cfg"
        config_path.write_text(
            f"""
            federation = {fed_path}
            quota = 0.74          # parsed exactly as 37/50
            t_grid = 1, 5, 10
            replications = 500
            seed = 9
            rules = proportional, shapley_inverse
            weight_total = 50
            solver_bound = 40
            solver_restarts = 3
            output = {tmp_path / 'out.csv'}
            """
        )
        config = ExperimentConfig.from_file(config_path)
        assert config.quota_ratio == Fraction(37, 50)
        assert config.t_grid == (1.0, 5.0, 10.0)
        assert config.rules == ("proportional", "shapley_inverse")
        assert config.solver.weight_sum_bound == 40

    def test_from_file_byte_order_mark(self, tmp_path):
        config_path = tmp_path / "exp.cfg"
        config_path.write_text("federation = f.csv\nquota = 1/2\nt_grid = 1\nreplications = 10\nseed = 9\n",
                               encoding="utf-8-sig")
        assert ExperimentConfig.from_file(config_path).federation_path == "f.csv"

    def test_solver_seed_defaults_to_seed(self, tmp_path):
        base = "federation = f.csv\nquota = 1/2\nt_grid = 1\nreplications = 10\nseed = 9\n"
        config_path = tmp_path / "exp.cfg"
        config_path.write_text(base)
        assert ExperimentConfig.from_file(config_path).solver.seed == 9
        config_path.write_text(base + "solver_seed = 4\n")
        config = ExperimentConfig.from_file(config_path)
        assert (config.seed, config.solver.seed) == (9, 4)

    def test_defaults_come_from_the_dataclasses(self, tmp_path):
        config_path = tmp_path / "exp.cfg"
        config_path.write_text("federation = f.csv\nquota = 2/3\nt_grid = 1, 5\nreplications = 10\nseed = 9\n")
        expected = ExperimentConfig("f.csv", F(2, 3), (1.0, 5.0), 10, 9, solver=InverseSolverOptions(seed=9))
        assert ExperimentConfig.from_file(config_path) == expected

    def test_unknown_key(self, tmp_path):
        config_path = tmp_path / "exp.cfg"
        config_path.write_text(
            "federation = f.csv\nquota = 1/2\nt_grid = 1\nreplications = 10\nseed = 9\nsolver_bund = 500\n"
        )
        with pytest.raises(ValueError, match=r"exp\.cfg line 6: unknown config key 'solver_bund'"):
            ExperimentConfig.from_file(config_path)

    def test_repeated_key(self, tmp_path):
        config_path = tmp_path / "exp.cfg"
        config_path.write_text(
            "federation = a.csv\nquota = 1/2\nt_grid = 1\nreplications = 10\nseed = 9\nfederation = b.csv\n"
        )
        with pytest.raises(ValueError, match=r"exp\.cfg line 6: repeated config key 'federation'"):
            ExperimentConfig.from_file(config_path)

    @pytest.mark.parametrize(
        "line, key",
        [("replications = 1e5", "replications"), ("quota = half", "quota"), ("t_grid = 1, x", "t_grid"),
         ("solver_bound = 5.5", "solver_bound")],
    )
    def test_number_error_names_file_and_key(self, tmp_path, line, key):
        base = {"federation": "f.csv", "quota": "1/2", "t_grid": "1", "replications": "10", "seed": "9"}
        lines = [f"{k} = {v}" for k, v in base.items() if k != key] + [line]
        config_path = tmp_path / "exp.cfg"
        config_path.write_text("\n".join(lines) + "\n")
        with pytest.raises(ValueError, match=rf"exp\.cfg line {len(lines)}: config key '{key}': "):
            ExperimentConfig.from_file(config_path)

    def test_missing_key(self, tmp_path):
        config_path = tmp_path / "exp.cfg"
        config_path.write_text("federation = x.csv\n")
        with pytest.raises(ValueError, match="missing required"):
            ExperimentConfig.from_file(config_path)

    def test_grid_must_increase(self):
        with pytest.raises(ValueError, match="strictly increasing"):
            ExperimentConfig("f.csv", HALF, (1.0, 1.0), 10, 0)

    @pytest.mark.parametrize("grid", [(math.nan,), (1.0, math.nan), (0.0, math.inf)])
    def test_grid_must_be_finite(self, grid):
        with pytest.raises(ValueError, match="finite"):
            ExperimentConfig("f.csv", HALF, grid, 10, 0)

    @pytest.mark.parametrize("flag", [True, np.True_], ids=["bool", "numpy_bool"])
    def test_grid_refuses_bools(self, flag):
        # True would be read as t = 1.0, though a bool cohesion is refused
        with pytest.raises(ValueError, match="not bools"):
            ExperimentConfig("f.csv", HALF, (flag, 2.0), 10, 0)

    def test_grid_non_empty(self):
        with pytest.raises(ValueError, match="non-empty"):
            ExperimentConfig("f.csv", HALF, (), 10, 0)

    @pytest.mark.parametrize("solver", [None, {"weight_sum_bound": 40}])
    def test_solver_must_be_options(self, solver):
        with pytest.raises(TypeError, match="solver must be an InverseSolverOptions"):
            ExperimentConfig("f.csv", HALF, (1.0,), 10, 0, solver=solver)

    def test_unknown_rule(self):
        with pytest.raises(ValueError, match="unknown weight rule"):
            ExperimentConfig("f.csv", HALF, (1.0,), 10, 0, rules=("nearest",))

    @pytest.mark.parametrize("rules", ["proportional", ""])
    def test_rules_string_refused(self, rules):
        # a string is iterable, and was read one character at a time
        with pytest.raises(ValueError, match="rules must be a sequence, not the string"):
            ExperimentConfig("f.csv", HALF, (1.0,), 10, 0, rules=rules)

    @pytest.mark.parametrize("grid", ["1, 2", "5"])
    def test_grid_string_refused(self, grid):
        with pytest.raises(ValueError, match="t_grid must be a sequence, not the string"):
            ExperimentConfig("f.csv", HALF, grid, 10, 0)

    @pytest.mark.parametrize(
        "name, value",
        [
            ("replications", 2.5),
            ("replications", True),
            ("seed", -1),
            ("seed", 1.5),
            ("weight_total", 0),
            ("weight_total", 2.5),
        ],
    )
    def test_rejects_bad_integers(self, name, value):
        fields = {"replications": 10, "seed": 0, name: value}
        with pytest.raises(ValueError, match=name):
            ExperimentConfig("f.csv", HALF, (1.0,), **fields)

    @pytest.mark.parametrize(
        "name, value", [("weight_sum_bound", 2.5), ("restarts", 0), ("max_steps", -1), ("seed", -3)]
    )
    def test_solver_options_reject_bad_integers(self, name, value):
        with pytest.raises(ValueError, match=name):
            InverseSolverOptions(**{name: value})


class TestRunExperiment:
    def small_config(self, tmp_path, **overrides):
        fed_path = make_federation_csv(tmp_path / "fed.csv", ["A,400", "B,300", "C,200", "D,100"])
        defaults = dict(
            federation_path=str(fed_path),
            quota_ratio=HALF,
            t_grid=(1.0, 10.0),
            replications=2000,
            seed=77,
            rules=("proportional", "shapley_inverse"),
            weight_total=20,
            solver=InverseSolverOptions(weight_sum_bound=20, restarts=2),
            output_path=str(tmp_path / "out.csv"),
        )
        defaults.update(overrides)
        return ExperimentConfig(**defaults)

    def test_rows_and_files(self, tmp_path):
        config = self.small_config(tmp_path)
        rows = run_experiment(config)
        assert [(r.t, r.rule) for r in rows] == [
            (1.0, "proportional"),
            (1.0, "shapley_inverse"),
            (10.0, "proportional"),
            (10.0, "shapley_inverse"),
        ]
        content = (tmp_path / "out.csv").read_text().splitlines()
        assert content[0] == "t,rule,deviation,std_err_proxy,replications,seed"
        assert len(content) == 5

    def test_companion_ssi_matches_recomputation(self, tmp_path):
        config = self.small_config(tmp_path)
        run_experiment(config)
        for line in games_path_for(config.output_path).read_text().splitlines():
            rule, game_text, ssi_text = line.split("\t")
            game = WeightedVotingGame.from_text(game_text)
            recomputed = tuple(str(v) for v in shapley_shubik(game))
            assert tuple(ssi_text.split()) == recomputed

    def test_companion_reuses_the_solved_pivots(self, tmp_path, monkeypatch):
        import twotier.experiments as experiments_module
        from twotier import power

        built = []  # the weights of every table built since the last game was
        table, build_weights = power._cumulative_table, experiments_module.build_weights

        def build(*args):
            game = build_weights(*args)
            built.clear()
            return game

        monkeypatch.setattr(power, "_cumulative_table", lambda weights, width: built.append(weights) or table(weights, width))
        monkeypatch.setattr(experiments_module, "build_weights", build)
        config = self.small_config(tmp_path)
        run_experiment(config)
        lines = games_path_for(config.output_path).read_text().splitlines()
        proportional = WeightedVotingGame.from_text(lines[0].split("\t")[1])
        # only the proportional line builds a table: the shapley_inverse
        # game's pivots came with its solution
        assert built == [proportional.weights]

    def test_rerun_byte_identical(self, tmp_path):
        config = self.small_config(tmp_path)
        run_experiment(config)
        first = (tmp_path / "out.csv").read_bytes()
        first_games = games_path_for(config.output_path).read_bytes()
        run_experiment(config)
        assert (tmp_path / "out.csv").read_bytes() == first
        assert games_path_for(config.output_path).read_bytes() == first_games

    def test_bytes_do_not_depend_on_worker_count(self, tmp_path, monkeypatch):
        # three rows: with two CPUs one thread runs two of them
        replications = 2 * simulation.BLOCK_SIZE + 100
        config = self.small_config(
            tmp_path, replications=replications, t_grid=(0.0, 1.0, 10.0), rules=("square_root",)
        )
        outputs = []
        for cpus in (1, 2, 3):
            monkeypatch.setattr(simulation, "_available_cpus", lambda: cpus)
            run_experiment(config)
            outputs.append(((tmp_path / "out.csv").read_bytes(), games_path_for(config.output_path).read_bytes()))
        assert outputs[0] == outputs[1] == outputs[2]

    @pytest.mark.parametrize("cpus, threads", [(2, 2), (3, 3), (8, 4)])
    def test_rows_share_one_pool(self, tmp_path, monkeypatch, cpus, threads):
        # four rows of three blocks each: one pool of min(CPUs, rows)
        # threads, and the rows' blocks run on the row's own thread
        sizes = []

        class Recording(ThreadPoolExecutor):
            def __init__(self, max_workers):
                sizes.append(max_workers)
                super().__init__(max_workers)

        monkeypatch.setattr(simulation, "ThreadPoolExecutor", Recording)
        monkeypatch.setattr(simulation, "_available_cpus", lambda: cpus)
        replications = 2 * simulation.BLOCK_SIZE + 100
        run_experiment(self.small_config(tmp_path, replications=replications, rules=("proportional", "square_root")))
        assert sizes == [threads]

    def test_single_constituency_zero_deviation(self, tmp_path):
        fed_path = make_federation_csv(tmp_path / "solo.csv", ["Only,500"])
        config = self.small_config(
            tmp_path, federation_path=str(fed_path), rules=("proportional", "square_root")
        )
        rows = run_experiment(config)
        assert all(row.deviation == 0.0 for row in rows)

    def test_partial_output_removed_on_failure(self, tmp_path, monkeypatch):
        config = self.small_config(tmp_path)

        def boom(game):
            raise RuntimeError("forced failure")

        import twotier.experiments as experiments_module

        monkeypatch.setattr(experiments_module, "shapley_shubik", boom)
        with pytest.raises(RuntimeError, match="forced failure"):
            run_experiment(config)
        assert not (tmp_path / "out.csv").exists()
        assert not games_path_for(config.output_path).exists()


class TestCli:
    def test_power(self, capsys):
        assert main(["power", "1/2; 42,25,24,9", "--banzhaf"]) == 0
        out = capsys.readouterr().out
        assert "1/2" in out and "1/6" in out and "3/4" in out

    def test_power_oracle_flag(self, capsys):
        assert main(["power", "1/2; 3,2,2,1", "--oracle"]) == 0
        assert "5/12" in capsys.readouterr().out

    def test_enumerate(self, capsys):
        assert main(["enumerate", "4", "1/2", "--bound", "8", "--ssi"]) == 0
        out = capsys.readouterr().out
        assert out.startswith("9 structurally distinct games")
        assert "(3, 2, 2, 1)" in out

    def test_inverse_inline_target(self, capsys):
        assert main(["inverse", "0.42,0.25,0.24,0.09", "--bound", "30"]) == 0
        out = capsys.readouterr().out
        assert "certified: True" in out
        assert "evaluations: 9" in out
        assert "5/12" in out

    def test_inverse_from_federation(self, tmp_path, capsys):
        fed_path = make_federation_csv(tmp_path / "fed.csv", ["A,42", "B,25", "C,24", "D,9"])
        assert main(["inverse", "--federation", str(fed_path), "--bound", "30"]) == 0
        assert "distance (l1): 0.02" in capsys.readouterr().out

    def test_inverse_refuses_target_with_federation(self, tmp_path, capsys):
        fed_path = make_federation_csv(tmp_path / "fed.csv", ["A,42", "B,25", "C,24", "D,9"])
        with pytest.raises(SystemExit) as refused:
            main(["inverse", "0.5,0.5", "--federation", str(fed_path), "--bound", "30"])
        assert refused.value.code == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "argument --federation: not allowed with argument target" in captured.err

    def test_simulate(self, tmp_path, capsys):
        fed_path = make_federation_csv(tmp_path / "fed.csv", ["A,400", "B,300", "C,200"])
        config = tmp_path / "sim.cfg"
        config.write_text(
            f"federation = {fed_path}\ngame = 1/2; 2,1,1\nt = 5\nreplications = 2000\nseed = 3\n"
        )
        assert main(["simulate", str(config)]) == 0
        out = capsys.readouterr().out
        assert "fairness deviation" in out

    def test_simulate_unknown_key(self, tmp_path, capsys):
        config = tmp_path / "sim.cfg"
        config.write_text("federation = f.csv\ngame = 1/2; 2,1,1\nt = 5\nreplications = 20\nseed = 3\nrules = x\n")
        assert main(["simulate", str(config)]) == 2
        err = capsys.readouterr().err
        assert "sim.cfg line 6: unknown config key 'rules'" in err

    def test_experiment(self, tmp_path, capsys):
        fed_path = make_federation_csv(tmp_path / "fed.csv", ["A,400", "B,300", "C,300"])
        config = tmp_path / "exp.cfg"
        config.write_text(
            f"federation = {fed_path}\nquota = 1/2\nt_grid = 1\nreplications = 1000\n"
            f"seed = 4\nrules = proportional\nweight_total = 10\noutput = {tmp_path / 'r.csv'}\n"
        )
        assert main(["experiment", str(config)]) == 0
        assert (tmp_path / "r.csv").exists()
        assert "wrote" in capsys.readouterr().out

    @pytest.mark.parametrize("key, value", [("replications", "1e5"), ("seed", "3.0"), ("t", "five")])
    def test_simulate_number_error_names_file_and_key(self, tmp_path, capsys, key, value):
        values = {"federation": "f.csv", "game": "1/2; 2,1,1", "t": "5", "replications": "20", "seed": "3"}
        config = tmp_path / "sim.cfg"
        config.write_text("".join(f"{k} = {value if k == key else v}\n" for k, v in values.items()))
        assert main(["simulate", str(config)]) == 2
        line = list(values).index(key) + 1
        assert f"sim.cfg line {line}: config key '{key}': " in capsys.readouterr().err

    def test_experiment_number_error_names_file_and_key(self, tmp_path, capsys):
        config = tmp_path / "exp.cfg"
        config.write_text("federation = f.csv\nquota = 1/2\nt_grid = 1\nreplications = 1e5\nseed = 4\n")
        assert main(["experiment", str(config)]) == 2
        assert "exp.cfg line 4: config key 'replications': " in capsys.readouterr().err

    def test_error_exit_code_and_diagnostic(self, capsys):
        assert main(["power", "not-a-game"]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error:")
        assert err.count("\n") == 1

    @pytest.mark.parametrize(
        "argv, what",
        [
            (["inverse", "1/0,1"], "target ('1/0', '1')"),
            (["inverse", "0.5,0.5", "--quota", "1/0"], "quota '1/0'"),
            (["enumerate", "4", "1/0"], "quota '1/0'"),
        ],
    )
    def test_zero_denominator_error(self, capsys, argv, what):
        assert main(argv) == 2
        assert capsys.readouterr().err == f"error: {what} has a zero denominator\n"

    def test_inverse_flags_left_out_keep_spec_defaults(self, monkeypatch):
        calls = []
        monkeypatch.setattr(cli, "solve", lambda spec, method: calls.append((spec, method)) or solve(spec, method))
        assert main(["inverse", "0.5,0.5"]) == 0
        assert calls == [(InverseProblemSpec(target=(HALF, HALF)), "auto")]

    def test_missing_file_error(self, capsys):
        assert main(["simulate", "/nonexistent/sim.cfg"]) == 2
        assert "error:" in capsys.readouterr().err
