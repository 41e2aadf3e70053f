"""Federation files, weight rules, experiment sweeps, and the CLI surface."""

import math
from fractions import Fraction

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
    write_federation,
)
from twotier.cli import main
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
        with pytest.raises(ValueError, match="duplicate"):
            load_federation(path)

    def test_bad_header(self, tmp_path):
        path = make_federation_csv(tmp_path / "fed.csv", ["A,1"], header="state,pop")
        with pytest.raises(ValueError, match="header"):
            load_federation(path)

    def test_round_trip(self, tmp_path):
        fed = FederationSpec(("North", "South", "East"), (1200, 450, 90))
        path = tmp_path / "fed.csv"
        write_federation(fed, path)
        assert load_federation(path) == fed


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

    def test_grid_non_empty(self):
        with pytest.raises(ValueError, match="non-empty"):
            ExperimentConfig("f.csv", HALF, (), 10, 0)

    def test_unknown_rule(self):
        with pytest.raises(ValueError, match="unknown weight rule"):
            ExperimentConfig("f.csv", HALF, (1.0,), 10, 0, rules=("nearest",))


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

    def test_rerun_byte_identical(self, tmp_path):
        config = self.small_config(tmp_path)
        run_experiment(config)
        first = (tmp_path / "out.csv").read_bytes()
        first_games = games_path_for(config.output_path).read_bytes()
        run_experiment(config)
        assert (tmp_path / "out.csv").read_bytes() == first
        assert games_path_for(config.output_path).read_bytes() == first_games

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

    def test_simulate(self, tmp_path, capsys):
        fed_path = make_federation_csv(tmp_path / "fed.csv", ["A,400", "B,300", "C,200"])
        config = tmp_path / "sim.cfg"
        config.write_text(
            f"federation = {fed_path}\ngame = 1/2; 2,1,1\nt = 5\nreplications = 2000\nseed = 3\n"
        )
        assert main(["simulate", str(config)]) == 0
        out = capsys.readouterr().out
        assert "fairness deviation" in out

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

    def test_error_exit_code_and_diagnostic(self, capsys):
        assert main(["power", "not-a-game"]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error:")
        assert err.count("\n") == 1

    def test_missing_file_error(self, capsys):
        assert main(["simulate", "/nonexistent/sim.cfg"]) == 2
        assert "error:" in capsys.readouterr().err
