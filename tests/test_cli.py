"""End-to-end command-line behavior: exit codes, file outputs, config layering."""

import importlib
import json
import os
import shutil
import subprocess
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest

import avgrl
from avgrl.cli import build_schedule, load_config_file, main, resolve_features
from avgrl.learner import algo_schedule
from avgrl.envs import four_state_easy, save_mdp
from avgrl.errors import ParseError
from avgrl.features import FeatureMap
from avgrl.mdp import FiniteMdp
from avgrl.metrics import CSV_HEADER, read_metrics_csv


def write_full_onehot_env(tmp_path):
    """Four-state ring with embedded identity features: the all-ones vector
    lies in the span, so negative definiteness fails."""
    path = tmp_path / "full_onehot.json"
    save_mdp(str(path), four_state_easy(), features=FeatureMap(np.eye(4)))
    return str(path)


def write_two_cycle_env(tmp_path):
    P = np.zeros((2, 1, 2))
    P[0, 0, 1] = 1.0
    P[1, 0, 0] = 1.0
    path = tmp_path / "two_cycle.json"
    save_mdp(str(path), FiniteMdp(P, np.zeros((2, 1)), reward_bound=1.0))
    return str(path)


def read_lines(path):
    with open(path, "r", encoding="utf-8") as fh:
        return fh.read().splitlines()


def strip_wall(lines):
    return [",".join(line.split(",")[:-1]) for line in lines]


class TestValidate:
    def test_all_pass_exit_zero(self, capsys):
        rc = main(["validate", "--env", "garnet"])
        out = capsys.readouterr().out
        assert rc == 0
        assert "assumption1 (feature map): PASS" in out
        assert "assumption2 (negative definiteness): PASS" in out
        assert "assumption3 (geometric mixing): PASS" in out
        assert "finite_time_ok=True" in out
        assert "constants:" in out

    def test_ones_in_span_fails(self, tmp_path, capsys):
        rc = main(["validate", "--env", write_full_onehot_env(tmp_path)])
        out = capsys.readouterr().out
        assert rc == 1
        assert "assumption2 (negative definiteness): FAIL" in out
        assert "e_excluded=False" in out

    def test_periodic_chain_fails(self, tmp_path, capsys):
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            rc = main(["validate", "--env", write_two_cycle_env(tmp_path)])
        out = capsys.readouterr().out
        assert rc == 1
        assert "assumption3 (geometric mixing): FAIL" in out

    def test_report_json(self, tmp_path, capsys):
        report = tmp_path / "report.json"
        rc = main(["validate", "--env", "garnet", "--out", str(report)])
        capsys.readouterr()
        assert rc == 0
        doc = json.loads(report.read_text())
        assert doc["assumption1_ok"] is True
        assert doc["assumption2_ok"] is True
        assert doc["assumption3_ok"] is True
        assert doc["lambda_sup"] < -1e-8
        assert len(doc["lambda_thetas"]) == 8
        assert 0.0 <= doc["mixing_k"] < 1.0
        for key in ("B", "U_r", "U_v", "Ubar_v", "G", "U_w", "ratio_bound"):
            assert key in doc["constants"]
        assert doc["schedule"]["finite_time_ok"] is True
        assert doc["schedule"]["asymptotic_ok"] is False
        assert doc["schedule"]["tracker_ok"] is True


class TestTrain:
    def test_writes_csv_and_sidecar(self, tmp_path, capsys):
        out = tmp_path / "run.csv"
        rc = main(["train", "--env", "four-state", "--steps", "2000",
                   "--metrics-every", "500", "--out", str(out)])
        capsys.readouterr()
        assert rc == 0
        lines = read_lines(out)
        assert lines[0] == CSV_HEADER
        assert len(lines) == 5  # rows at t = 500, 1000, 1500, 2000
        sidecar = json.loads((tmp_path / "run.json").read_text())
        assert sidecar["algo"] == "ca"
        assert sidecar["steps"] == 2000
        assert sidecar["final"]["t"] == 2000
        assert sidecar["schedule"]["nu"] == 0.5
        assert sidecar["schedule"]["sigma"] == 0.51
        assert sidecar["uv_radius"] > 0

    def test_zero_steps_header_only(self, tmp_path, capsys):
        out = tmp_path / "empty.csv"
        rc = main(["train", "--env", "four-state", "--steps", "0",
                   "--out", str(out)])
        capsys.readouterr()
        assert rc == 0
        assert read_lines(out) == [CSV_HEADER]

    def test_deterministic_up_to_wall_clock(self, tmp_path, capsys):
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        for out in (a, b):
            rc = main(["train", "--env", "four-state", "--steps", "3000",
                       "--metrics-every", "1000", "--seed", "4", "--out", str(out)])
            assert rc == 0
        capsys.readouterr()
        la, lb = read_lines(a), read_lines(b)
        assert strip_wall(la) == strip_wall(lb)

    def test_seed_changes_trajectory(self, tmp_path, capsys):
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        main(["train", "--env", "four-state", "--steps", "2000", "--seed", "0",
              "--out", str(a)])
        main(["train", "--env", "four-state", "--steps", "2000", "--seed", "1",
              "--out", str(b)])
        capsys.readouterr()
        assert strip_wall(read_lines(a)) != strip_wall(read_lines(b))

    def test_feature_kind_flag(self, tmp_path, capsys):
        out = tmp_path / "ru.csv"
        rc = main(["train", "--env", "four-state", "--features", "random_unit:2",
                   "--steps", "1000", "--out", str(out)])
        capsys.readouterr()
        assert rc == 0
        assert read_lines(out)[0] == CSV_HEADER

    def test_unknown_feature_kind(self, tmp_path, capsys):
        rc = main(["train", "--env", "four-state", "--features", "fourier",
                   "--steps", "100", "--out", str(tmp_path / "x.csv")])
        err = capsys.readouterr().err
        assert rc == 1
        assert "fourier" in err

    def test_algo_choices(self, tmp_path, capsys):
        for algo in ("ca", "ac", "stac"):
            out = tmp_path / f"{algo}.csv"
            rc = main(["train", "--env", "four-state", "--algo", algo,
                       "--steps", "500", "--out", str(out)])
            assert rc == 0
        capsys.readouterr()


class TestSweep:
    def test_parallel_matches_serial(self, tmp_path, capsys):
        d1, d2 = tmp_path / "serial", tmp_path / "par"
        args = ["sweep", "--env", "four-state", "--steps", "2000",
                "--metrics-every", "1000", "--seeds", "2"]
        assert main(args + ["--jobs", "1", "--out", str(d1)]) == 0
        assert main(args + ["--jobs", "2", "--out", str(d2)]) == 0
        capsys.readouterr()
        assert (d1 / "aggregate.csv").read_text() == (d2 / "aggregate.csv").read_text()
        for d in (d1, d2):
            assert (d / "seed_0.csv").exists()
            assert (d / "seed_1.csv").exists()
        meta = json.loads((d1 / "sweep.json").read_text())
        assert meta["seeds"] == [0, 1]
        assert meta["failed"] == []

    def test_single_seed_zero_se(self, tmp_path, capsys):
        out = tmp_path / "one"
        rc = main(["sweep", "--env", "four-state", "--steps", "1000",
                   "--metrics-every", "500", "--seeds", "1", "--out", str(out)])
        capsys.readouterr()
        assert rc == 0
        lines = read_lines(out / "aggregate.csv")
        for line in lines[1:]:
            ses = [float(x) for x in line.split(",")[2::2]]
            assert all(se == 0.0 for se in ses)

    def test_seed_offset(self, tmp_path, capsys):
        out = tmp_path / "off"
        rc = main(["sweep", "--env", "four-state", "--steps", "500",
                   "--seeds", "2", "--seed", "10", "--out", str(out)])
        capsys.readouterr()
        assert rc == 0
        assert (out / "seed_10.csv").exists()
        assert (out / "seed_11.csv").exists()


def write_power_law_csv(path, exponent, n=60):
    ts = np.unique(np.round(np.geomspace(10, 1e6, n)).astype(int))
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("t,critic_err_sq\n")
        for t in ts:
            fh.write(f"{t},{float(t) ** exponent!r}\n")


class TestRate:
    def test_recovers_exponent(self, tmp_path, capsys):
        path = tmp_path / "decay.csv"
        write_power_law_csv(str(path), -0.5)
        rc = main(["rate", str(path), "--metric", "critic_err_sq",
                   "--t-min", "100"])
        out = capsys.readouterr().out
        assert rc == 0
        doc = json.loads(out)
        assert doc["slope"] == pytest.approx(-0.5, abs=0.01)
        assert doc["r_squared"] > 0.999

    def test_averages_across_files(self, tmp_path, capsys):
        p1, p2 = tmp_path / "a.csv", tmp_path / "b.csv"
        write_power_law_csv(str(p1), -0.8)
        write_power_law_csv(str(p2), -0.8)
        rc = main(["rate", str(p1), str(p2), "--metric", "critic_err_sq",
                   "--t-min", "100"])
        out = capsys.readouterr().out
        assert rc == 0
        assert json.loads(out)["slope"] == pytest.approx(-0.8, abs=0.01)

    def test_too_few_rows_exit_one(self, tmp_path, capsys):
        path = tmp_path / "short.csv"
        path.write_text("t,critic_err_sq\n10,1.0\n100,0.5\n1000,0.2\n")
        rc = main(["rate", str(path), "--metric", "critic_err_sq", "--t-min", "1"])
        err = capsys.readouterr().err
        assert rc == 1
        assert "windowed rows" in err

    def test_missing_column_exit_two(self, tmp_path, capsys):
        path = tmp_path / "cols.csv"
        path.write_text("t,other\n10,1.0\n")
        rc = main(["rate", str(path), "--metric", "critic_err_sq"])
        capsys.readouterr()
        assert rc == 2


class TestSolve:
    def test_exact_quantities(self, capsys):
        rc = main(["solve", "--env", "four-state"])
        out = capsys.readouterr().out
        assert rc == 0
        doc = json.loads(out)
        assert doc["L"] == pytest.approx(0.25, abs=1e-10)
        assert np.allclose(doc["v_star"], [0.30769231, 0.76923077, 1.46153846],
                           atol=1e-6)
        assert sum(doc["mu"]) == pytest.approx(1.0, abs=1e-10)
        assert doc["lambda_theta"] < 0
        assert 0.0 <= doc["mixing"]["k"] < 1.0
        # the actor field at (theta_0, v*) equals the true gradient here, and
        # theta_0 is not stationary
        assert doc["M_norm"] > 0

    def test_theta_file(self, tmp_path, capsys):
        theta = tmp_path / "theta.json"
        # push probability toward "advance everywhere, stay at the goal"
        vec = np.zeros(8)
        vec[[1, 3, 7]] = 2.0  # advance at 0, 1, 3
        vec[4] = 2.0  # stay at 2
        theta.write_text(json.dumps(list(vec)))
        rc = main(["solve", "--env", "four-state", "--theta", str(theta)])
        out = capsys.readouterr().out
        assert rc == 0
        doc = json.loads(out)
        assert doc["L"] > 0.5  # far above the uniform policy's 0.25

    def test_bad_theta_file(self, tmp_path, capsys):
        theta = tmp_path / "theta.json"
        theta.write_text("not json")
        rc = main(["solve", "--env", "four-state", "--theta", str(theta)])
        capsys.readouterr()
        assert rc == 2


class TestConfigLayering:
    def test_key_value_file(self, tmp_path, capsys):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("steps=1000\nmetrics_every=500  # grid\n\n# comment only\n")
        out = tmp_path / "run.csv"
        rc = main(["train", "--env", "four-state", "--config", str(cfg),
                   "--out", str(out)])
        capsys.readouterr()
        assert rc == 0
        cols = read_metrics_csv(str(out))
        assert cols["t"].tolist() == [500.0, 1000.0]

    def test_json_file(self, tmp_path, capsys):
        cfg = tmp_path / "run.json.cfg"
        cfg.write_text(json.dumps({"steps": 800, "metrics_every": 400}))
        out = tmp_path / "run.csv"
        rc = main(["train", "--env", "four-state", "--config", str(cfg),
                   "--out", str(out)])
        capsys.readouterr()
        assert rc == 0
        assert read_metrics_csv(str(out))["t"].tolist() == [400.0, 800.0]

    def test_flag_overrides_file(self, tmp_path, capsys):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("steps=1000\nmetrics_every=500\n")
        out = tmp_path / "run.csv"
        rc = main(["train", "--env", "four-state", "--config", str(cfg),
                   "--steps", "600", "--out", str(out)])
        capsys.readouterr()
        assert rc == 0
        assert read_metrics_csv(str(out))["t"].tolist() == [500.0, 600.0]

    def test_unknown_key_exit_two(self, tmp_path, capsys):
        cfg = tmp_path / "bad.cfg"
        cfg.write_text("bogus=1\n")
        rc = main(["train", "--env", "four-state", "--config", str(cfg)])
        err = capsys.readouterr().err
        assert rc == 2
        assert "bogus" in err

    @pytest.mark.parametrize("command", ["train", "validate"])
    def test_unknown_algo_in_file_exit_two(self, tmp_path, capsys, command):
        # argparse checks --algo, but a config file bypasses its choices
        cfg = tmp_path / "bad.cfg"
        cfg.write_text("algo=sarsa\nsteps=10\n")
        out = tmp_path / "out.csv"
        rc = main([command, "--env", "four-state", "--config", str(cfg), "--out", str(out)])
        err = capsys.readouterr().err
        assert rc == 2
        assert "sarsa" in err
        assert not out.exists()

    def test_malformed_line(self, tmp_path):
        cfg = tmp_path / "bad.cfg"
        cfg.write_text("steps 1000\n")
        with pytest.raises(ParseError, match="key=value"):
            load_config_file(str(cfg))

    def test_schedule_flags_reach_run(self, tmp_path, capsys):
        out = tmp_path / "s.csv"
        rc = main(["train", "--env", "four-state", "--steps", "500",
                   "--nu", "0.6", "--sigma", "0.7", "--c-alpha", "1.0",
                   "--out", str(out)])
        capsys.readouterr()
        assert rc == 0
        sidecar = json.loads((tmp_path / "s.json").read_text())
        assert sidecar["schedule"]["nu"] == 0.6
        assert sidecar["schedule"]["sigma"] == 0.7
        assert sidecar["schedule"]["c_alpha"] == 1.0
        assert sidecar["schedule"]["c_gamma"] == 1.0  # coupled to c_alpha


class TestErrorPaths:
    @pytest.mark.parametrize("command", ["train", "sweep", "validate"])
    def test_expanding_tracker_exit_one(self, tmp_path, capsys, command):
        # c_gamma = K c_alpha = 50 > 2: |1 - gamma_t| > 1 and L_t would blow
        # up; a run is refused before any step and nothing is written, and
        # validate (which passes at the default c_alpha) flags the tracker
        argv = [command, "--env", "four-state", "--c-alpha", "50"]
        if command != "validate":
            out = tmp_path / ("run.csv" if command == "train" else "sweep")
            argv += ["--steps", "5000", "--metrics-every", "1000", "--out", str(out)]
        rc = main(argv)
        captured = capsys.readouterr()
        assert rc == 1
        if command == "validate":
            assert "tracker_ok=False" in captured.out
        else:
            assert "c_gamma" in captured.err
        assert list(tmp_path.rglob("*.csv")) == []

    def test_env_file_missing_exit_two(self, tmp_path, capsys):
        rc = main(["solve", "--env", str(tmp_path / "nope.json")])
        capsys.readouterr()
        assert rc == 2

    def test_train_env_file_missing(self, tmp_path, capsys):
        rc = main(["train", "--env", str(tmp_path / "nope.json"), "--steps", "10",
                   "--out", str(tmp_path / "x.csv")])
        capsys.readouterr()
        assert rc == 2


class TestHelpers:
    def test_build_schedule_forwards_set_options(self):
        opts = {"c_alpha": 1.0, "c_beta": None, "c_gamma": None, "nu": None,
                "sigma": 0.45, "k_coupling": None, "steps": 10}
        for algo in ("ca", "ac", "stac"):
            assert build_schedule(algo, opts) == algo_schedule(algo, c_alpha=1.0, sigma=0.45)
            assert build_schedule(algo, {}) == algo_schedule(algo)

    def test_resolve_features_embedded_wins(self):
        mdp = four_state_easy()
        emb = FeatureMap(np.eye(4, 2))
        assert resolve_features(None, mdp, emb) is emb
        default = resolve_features(None, mdp, None)
        assert default.dim == 3

    def test_resolve_features_path_requires_block(self, tmp_path):
        path = tmp_path / "plain.json"
        save_mdp(str(path), four_state_easy())
        with pytest.raises(ParseError, match="features"):
            resolve_features(str(path), four_state_easy(), None)


def run_cli_process(argv, env):
    return subprocess.run(argv, capture_output=True, text=True, timeout=120, env=env)


def module_env():
    """The current environment with the directory holding the imported
    `avgrl` package first on PYTHONPATH, so `python -m avgrl` runs the code
    under test from any working directory, installed or not."""
    env = dict(os.environ)
    src = str(Path(avgrl.__file__).resolve().parent.parent)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    return env


def test_console_script_smoke():
    launchers = [([sys.executable, "-m", "avgrl"], module_env())]
    script = shutil.which("avgrl")
    if script is not None:
        launchers.append(([script], None))
    for command, env in launchers:
        proc = run_cli_process([*command, "validate", "--env", "four-state"], env)
        assert proc.returncode == 0, proc.stderr
        assert "assumption1" in proc.stdout


def test_module_entry_passes_exit_code(tmp_path):
    proc = run_cli_process(
        [sys.executable, "-m", "avgrl", "validate", "--env", write_two_cycle_env(tmp_path)],
        module_env(),
    )
    assert proc.returncode == 1, proc.stderr
    assert "assumption3 (geometric mixing): FAIL" in proc.stdout


def test_console_script_entry_point():
    tomllib = pytest.importorskip("tomllib")
    with open(Path(__file__).resolve().parent.parent / "pyproject.toml", "rb") as fh:
        target = tomllib.load(fh)["project"]["scripts"]["avgrl"]
    assert target == "avgrl.cli:console_main"
    module_name, _, attr = target.partition(":")
    assert callable(getattr(importlib.import_module(module_name), attr))
