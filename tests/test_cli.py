"""End-to-end command-line behavior: exit codes, file outputs, config layering."""

import importlib
import json
import math
import os
import shutil
import subprocess
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest

import avgrl
from avgrl import cli, metrics
from avgrl.cli import build_schedule, load_config_file, main, resolve_features
from avgrl.learner import algo_schedule
from avgrl.envs import GarnetSpec, build_garnet, four_state_easy, save_mdp
from avgrl.errors import OracleFailure, ParseError
from avgrl.features import FeatureMap, make_features
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


def write_eight_state_env(tmp_path):
    """An 8-state garnet with an embedded one_hot_reduced feature block."""
    mdp = build_garnet(GarnetSpec(n_states=8, n_actions=2, branching=3, seed=1))
    path = tmp_path / "garnet8.json"
    save_mdp(str(path), mdp, features=make_features("one_hot_reduced", mdp))
    return str(path)


def write_huge_reward_env(tmp_path, reward, bound):
    """Two states, one action, rewards +-reward under reward_bound bound."""
    path = tmp_path / f"huge_{reward:g}.json"
    save_mdp(str(path), FiniteMdp(np.full((2, 1, 2), 0.5), np.array([[reward], [-reward]]),
                                  reward_bound=bound))
    return str(path)


ROW_OVERFLOW = ("exact metrics failed at step 500: the row has non-finite columns: "
                "avg_err_sq=inf critic_err_sq=inf v_norm=inf")


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

    def test_non_finite_constants_fail(self, tmp_path, capsys):
        # rewards of +-1e308: no finite fixed point at theta_0 and an
        # overflowing ||V||; validate used to print PASS three times and exit 0
        rc = main(["validate", "--env", write_huge_reward_env(tmp_path, 1e308, 1.7e308)])
        out = capsys.readouterr().out.splitlines()
        assert rc == 1
        assert out[-1] == ("finite constants: FAIL  "
                           "U_v=nan Ubar_v=inf G=nan U_w=nan ratio_bound=inf")
        assert all("FAIL" not in line for line in out[:-1])

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

    @pytest.mark.parametrize("flags,tau_null", [
        (["--env", "gridworld4", "--c-alpha", "0", "--c-gamma", "1.5"], False),
        (["--env", "four-state", "--c-alpha", "0"], False),
        (["--env", "four-state", "--c-alpha", "0", "--c-beta", "0"], True),
    ], ids=["td-eval", "frozen-tracker", "all-zero"])
    def test_frozen_actor_takes_tau_at_the_smallest_positive_step(self, tmp_path, flags,
                                                                   tau_null):
        # a zero alpha_t used to reach tau_for and end validate on a ValueError
        report = tmp_path / "report.json"
        proc = run_cli_process([sys.executable, "-m", "avgrl", "validate", *flags,
                                "--out", str(report)], module_env())
        assert proc.returncode in (0, 1), proc.stderr
        assert "Traceback" not in proc.stderr
        taus = strict_json(report)["tau_examples"]
        assert list(taus) == ["0", "1000", "1000000"]
        for tau in taus.values():
            assert tau is None if tau_null else type(tau) is int

    def test_report_json_writes_null_for_non_finite(self, tmp_path, capsys):
        # NaN and Infinity are not JSON; the values print on stdout and the
        # report holds null in their place
        report = tmp_path / "report.json"
        huge = write_huge_reward_env(tmp_path, 1e308, 1.7e308)
        assert main(["validate", "--env", huge, "--out", str(report)]) == 1
        doc = strict_json(report)
        assert {k for k, v in doc["constants"].items() if v is None} == {
            "U_v", "Ubar_v", "G", "U_w", "ratio_bound"}
        assert doc["schedule"]["ratio_bound"] is None
        assert main(["validate", "--env", "four-state", "--c-alpha", "1", "--c-gamma", "0",
                     "--out", str(report)]) == 0
        assert "ratio=inf" in capsys.readouterr().out
        assert strict_json(report)["schedule"]["ratio"] is None


def strict_json(path):
    """The JSON document in path, refusing NaN, Infinity and -Infinity."""
    def refuse(constant):
        raise ValueError(f"{path}: non-JSON constant {constant}")

    return json.loads(Path(path).read_text(), parse_constant=refuse)


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

    @pytest.mark.parametrize("env,features,name", [
        ("garnet8", None, "embedded"),  # the env file's own map
        ("four-state", None, "one_hot_reduced"),
        ("gridworld4", "random_unit:6", "random_unit:6"),
    ])
    def test_sidecar_names_the_features_that_ran(self, tmp_path, capsys, env, features, name):
        if env == "garnet8":
            env = write_eight_state_env(tmp_path)
        out = tmp_path / "run.csv"
        argv = ["train", "--env", env, "--steps", "20", "--metrics-every", "10",
                "--out", str(out)]
        assert main(argv + (["--features", features] if features else [])) == 0
        capsys.readouterr()
        assert json.loads((tmp_path / "run.json").read_text())["features"] == name

    def test_zero_steps_header_only(self, tmp_path, capsys):
        out = tmp_path / "empty.csv"
        rc = main(["train", "--env", "four-state", "--steps", "0",
                   "--out", str(out)])
        capsys.readouterr()
        assert rc == 0
        assert read_lines(out) == [CSV_HEADER]

    def test_out_into_missing_directory(self, tmp_path, capsys):
        out = tmp_path / "new" / "sub" / "m.csv"
        rc = main(["train", "--env", "four-state", "--steps", "1000",
                   "--metrics-every", "500", "--out", str(out)])
        capsys.readouterr()
        assert rc == 0
        assert len(read_lines(out)) == 3
        assert json.loads((tmp_path / "new" / "sub" / "m.json").read_text())["steps"] == 1000

    def test_unwritable_out_refused_before_the_run(self, tmp_path, capsys, monkeypatch):
        (tmp_path / "file").write_text("")
        ran = []
        monkeypatch.setattr(cli.learner, "run", lambda config: ran.append(config))
        rc = main(["train", "--env", "four-state", "--steps", "1000",
                   "--out", str(tmp_path / "file" / "m.csv")])
        assert rc == 2
        assert "error" in capsys.readouterr().err
        assert ran == []

    def test_deterministic_up_to_wall_clock(self, tmp_path, capsys):
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        for out in (a, b):
            rc = main(["train", "--env", "four-state", "--steps", "3000",
                       "--metrics-every", "1000", "--seed", "4", "--out", str(out)])
            assert rc == 0
        capsys.readouterr()
        la, lb = read_lines(a), read_lines(b)
        assert strip_wall(la) == strip_wall(lb)

    def test_non_finite_row_exits_one(self, tmp_path, capsys):
        # rewards of +-1e160 keep the iterates finite, but the row's squared
        # errors and ||v|| overflow; train used to write inf to the CSV and exit 0
        out = tmp_path / "m.csv"
        rc = main(["train", "--env", write_huge_reward_env(tmp_path, 1e160, 1e160),
                   "--steps", "3000", "--metrics-every", "500", "--out", str(out)])
        captured = capsys.readouterr()
        assert rc == 1
        assert captured.out == ""
        assert captured.err.splitlines() == [f"error: {ROW_OVERFLOW}"]
        assert not out.exists()

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
        assert rc == 2
        assert "fourier" in err

    def test_algo_choices(self, tmp_path, capsys):
        for algo in ("ca", "ac", "stac"):
            out = tmp_path / f"{algo}.csv"
            rc = main(["train", "--env", "four-state", "--algo", algo,
                       "--steps", "500", "--out", str(out)])
            assert rc == 0
        capsys.readouterr()


class TestSweep:
    def test_non_finite_row_fails_the_seed(self, tmp_path, capsys):
        rc = main(["sweep", "--env", write_huge_reward_env(tmp_path, 1e160, 1e160),
                   "--steps", "1000", "--metrics-every", "500", "--seeds", "2",
                   "--out", str(tmp_path / "s")])
        capsys.readouterr()
        assert rc == 1
        meta = json.loads((tmp_path / "s" / "sweep.json").read_text())
        assert meta["failed"] == [[0, ROW_OVERFLOW], [1, ROW_OVERFLOW]]
        assert not (tmp_path / "s" / "seed_0.csv").exists()

    @pytest.mark.parametrize("env,features,name", [
        ("garnet8", None, "embedded"),  # the env file's own map
        ("four-state", None, "one_hot_reduced"),
        ("gridworld4", "random_unit:3", "random_unit:3"),
    ])
    def test_sweep_json_names_the_features_that_ran(self, tmp_path, capsys, env, features,
                                                    name):
        # opts.features is the raw option, null for both the default and the
        # env file's block; the features key is the name the train sidecar writes
        if env == "garnet8":
            env = write_eight_state_env(tmp_path)
        argv = ["sweep", "--env", env, "--steps", "20", "--metrics-every", "10",
                "--seeds", "2", "--out", str(tmp_path / "s")]
        assert main(argv + (["--features", features] if features else [])) == 0
        capsys.readouterr()
        meta = json.loads((tmp_path / "s" / "sweep.json").read_text())
        assert meta["features"] == name
        assert meta["opts"]["features"] == features

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


    @pytest.mark.parametrize("schedule", [
        ["--algo", "ac"],
        ["--c-alpha", "0", "--c-gamma", "1.5"],  # a frozen actor: batches step seed by seed
    ], ids=["moving", "frozen"])
    def test_job_counts_give_identical_outputs(self, tmp_path, monkeypatch, capsys, schedule):
        # 1, 2 and 3 jobs split the 5 seeds into 1, 2 and 3 batches
        outs = {}
        for jobs in (1, 2, 3):
            work = tmp_path / f"jobs{jobs}"
            work.mkdir()
            monkeypatch.chdir(work)
            assert main(["sweep", "--env", "gridworld4", *schedule,
                         "--reward-noise", "0.3", "--steps", "1500",
                         "--metrics-every", "400", "--seeds", "5", "--seed", "7",
                         "--jobs", str(jobs), "--out", "sweep"]) == 0
            out = work / "sweep"
            meta = json.loads((out / "sweep.json").read_text())
            assert meta["opts"].pop("jobs") == jobs
            outs[jobs] = {
                "seeds": {p.name: strip_wall(read_lines(p))
                          for p in sorted(out.glob("seed_*.csv"))},
                "aggregate": (out / "aggregate.csv").read_bytes(),
                "meta": meta,
            }
        capsys.readouterr()
        assert sorted(outs[1]["seeds"]) == sorted(f"seed_{s}.csv" for s in range(7, 12))
        assert outs[1] == outs[2] == outs[3]

    def test_jobs_across_the_lockstep_crossover(self, tmp_path, capsys):
        # 8 moving seeds with noise and a binding radius: --jobs 1 steps one
        # batch of 8 in-process, --jobs 2 two batches of 4 in worker processes
        outs = {}
        for jobs in (1, 2):
            out = tmp_path / f"jobs{jobs}"
            assert main(["sweep", "--env", "four-state", "--reward-noise", "0.3",
                         "--actor-radius", "2.0", "--steps", "1500", "--metrics-every", "500",
                         "--seeds", "8", "--jobs", str(jobs), "--out", str(out)]) == 0
            outs[jobs] = ({p.name: strip_wall(read_lines(p)) for p in out.glob("seed_*.csv")},
                          (out / "aggregate.csv").read_bytes())
        capsys.readouterr()
        assert sorted(outs[1][0]) == [f"seed_{s}.csv" for s in range(8)]
        assert outs[1] == outs[2]

    def test_failing_seed_listed_alone(self, tmp_path, monkeypatch, capsys):
        args = ["sweep", "--env", "four-state", "--steps", "1000",
                "--metrics-every", "500", "--seeds", "3", "--seed", "4"]
        clean = tmp_path / "clean"
        assert main(args + ["--out", str(clean)]) == 0
        # seed 5's first row fails; its delta_abs_mean tells it apart
        target = float(read_lines(clean / "seed_5.csv")[1].split(",")[7])
        real = metrics.exact_metrics_row

        def flaky(*a, **kw):
            if kw["t"] == 500 and kw["delta_abs_mean"] == target:
                raise OracleFailure("A(theta) is singular")
            return real(*a, **kw)

        monkeypatch.setattr(metrics, "exact_metrics_row", flaky)
        out = tmp_path / "flaky"
        assert main(args + ["--out", str(out)]) == 1
        err = capsys.readouterr().err
        assert "seed 5 failed: exact metrics failed at step 500" in err
        meta = json.loads((out / "sweep.json").read_text())
        assert meta["failed"] == [[5, "exact metrics failed at step 500: "
                                       "A(theta) is singular"]]
        assert not (out / "seed_5.csv").exists()
        for seed in (4, 6):
            assert (strip_wall(read_lines(out / f"seed_{seed}.csv"))
                    == strip_wall(read_lines(clean / f"seed_{seed}.csv")))

    @pytest.mark.parametrize("flag,value", [("seeds", "0"), ("seeds", "-2"),
                                            ("jobs", "0"), ("jobs", "-1")])
    def test_invalid_counts_exit_two(self, tmp_path, capsys, flag, value):
        out = tmp_path / "sweep"
        rc = main(["sweep", "--env", "four-state", "--steps", "100",
                   f"--{flag}", value, "--out", str(out)])
        assert rc == 2
        assert f"{flag} must be a positive integer" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("text", ["seeds=0\n", '{"jobs": 0}', "jobs=two\n",
                                      '{"seeds": 2.9}'])
    def test_invalid_counts_in_config_exit_two(self, tmp_path, capsys, text):
        cfg = tmp_path / "sweep.cfg"
        cfg.write_text(text)
        out = tmp_path / "sweep"
        rc = main(["sweep", "--config", str(cfg), "--steps", "100", "--out", str(out)])
        assert rc == 2
        assert "must be a positive integer" in capsys.readouterr().err
        assert not out.exists()


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

    def test_header_only_exit_one(self, tmp_path, capsys):
        path = tmp_path / "header.csv"
        path.write_text("t,critic_err_sq\n")
        rc = main(["rate", str(path), "--metric", "critic_err_sq"])
        assert rc == 1
        assert "windowed rows" in capsys.readouterr().err

    @pytest.mark.parametrize("t", ["nan", "inf", "-inf"])
    def test_non_finite_t_exit_two(self, tmp_path, capsys, t):
        path = tmp_path / "decay.csv"
        write_power_law_csv(str(path), -0.5)
        with open(path, "a", encoding="utf-8") as fh:
            fh.write(f"{t},1.0\n")
        rc = main(["rate", str(path), "--metric", "critic_err_sq", "--t-min", "100"])
        assert rc == 2
        assert "every t must be finite" in capsys.readouterr().err

    @pytest.mark.parametrize("y", ["nan", "inf", "-inf"])
    def test_non_finite_metric_exit_two(self, tmp_path, capsys, y):
        # an inf used to make rate exit 0 and print "slope": NaN, which is not JSON
        path = tmp_path / "decay.csv"
        write_power_law_csv(str(path), -0.5)
        with open(path, "a", encoding="utf-8") as fh:
            fh.write(f"2000000,{y}\n")
        rc = main(["rate", str(path), "--metric", "critic_err_sq", "--t-min", "100"])
        captured = capsys.readouterr()
        assert rc == 2
        assert captured.err == f"error: {path}: every critic_err_sq must be finite\n"
        assert captured.out == ""

    def test_overflowing_mean_exit_two(self, tmp_path, capsys):
        # two finite samples whose per-t mean overflows to inf
        paths = []
        for name in ("a.csv", "b.csv"):
            paths.append(tmp_path / name)
            write_power_law_csv(str(paths[-1]), -0.5)
            with open(paths[-1], "a", encoding="utf-8") as fh:
                fh.write("2000000,1e308\n")
        rc = main(["rate", *map(str, paths), "--metric", "critic_err_sq", "--t-min", "100"])
        captured = capsys.readouterr()
        assert rc == 2
        assert captured.err == "error: the mean of critic_err_sq at t = 2e+06 overflows\n"
        assert captured.out == ""

    def test_repeated_column_exit_two(self, tmp_path, capsys):
        # t,x,x used to fill x with two samples per row, misaligned with t
        path = tmp_path / "dup.csv"
        path.write_text("t,x,x\n" + "".join(f"{t},1.0,2.0\n" for t in range(1, 30)))
        rc = main(["rate", str(path), "--metric", "x", "--t-min", "1"])
        assert rc == 2
        assert "repeated column names ['x']" in capsys.readouterr().err


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

    @pytest.mark.parametrize("text", ['{"a": 1}', "[0, 0, 0, NaN, 0, 0, 0, 0]",
                                      "[[0, 0, 0, 0, 0, 0, 0, 0]]",
                                      "[true, 0, 0, 0, 0, 0, 0, 0]"])
    def test_unusable_theta_exit_two(self, tmp_path, capsys, text):
        theta = tmp_path / "theta.json"
        theta.write_text(text)
        rc = main(["solve", "--env", "four-state", "--theta", str(theta)])
        assert rc == 2
        assert "theta must be a JSON list of finite numbers" in capsys.readouterr().err

    def test_theta_of_wrong_length_exit_two(self, tmp_path, capsys):
        path = tmp_path / "theta.json"
        path.write_text("[1, 2]")
        rc = main(["solve", "--env", "four-state", "--theta", str(path)])
        assert rc == 2
        assert "theta has 2 entries, the policy takes 8" in capsys.readouterr().err

    def test_overflowing_critic_fixed_point_exits_one(self, tmp_path, capsys):
        # rewards of +-1e308 keep mu, L and V finite, but v* = -A^-1 b overflows;
        # solve used to exit 0 and print "v_star": [Infinity] and "M_norm": NaN
        env = tmp_path / "env.json"
        env.write_text(json.dumps({"n_states": 2, "n_actions": 1, "reward_bound": 1.7e308,
                                   "P": [[[0.5, 0.5]], [[0.5, 0.5]]],
                                   "R": [[1e308], [-1e308]]}))
        rc = main(["solve", "--env", str(env)])
        captured = capsys.readouterr()
        assert rc == 1
        assert captured.out == ""
        assert captured.err.splitlines() == [
            "error: critic fixed point is not finite; A is near singular or b too large"]


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

    @pytest.mark.parametrize("text,key", [("steps=abc\n", "steps"),
                                          ("reward_noise=lots\n", "reward_noise"),
                                          ('{"uv": [1]}', "uv"),
                                          # an int key takes no fraction or boolean
                                          ('{"steps": 2.5}', "steps"),
                                          ('{"steps": true}', "steps"),
                                          ("steps=1500.7\n", "steps"),
                                          ('{"seed": 3.9}', "seed")])
    def test_non_number_in_file_exit_two(self, tmp_path, capsys, text, key):
        cfg = tmp_path / "bad.cfg"
        cfg.write_text(text)
        out = tmp_path / "out.csv"
        rc = main(["train", "--env", "four-state", "--config", str(cfg), "--out", str(out)])
        assert rc == 2
        assert f"{key} must be a number" in capsys.readouterr().err
        assert not out.exists()

    def test_number_spelled_as_json_string(self, tmp_path, capsys):
        cfg = tmp_path / "run.cfg"
        cfg.write_text(json.dumps({"steps": "600", "uv": "5", "c_alpha": "1"}))
        out = tmp_path / "run.csv"
        rc = main(["train", "--env", "four-state", "--config", str(cfg), "--out", str(out)])
        capsys.readouterr()
        assert rc == 0
        sidecar = json.loads((tmp_path / "run.json").read_text())
        assert (sidecar["steps"], sidecar["uv_radius"]) == (600, 5.0)
        assert sidecar["schedule"]["c_alpha"] == 1.0

    def test_text_key_keeps_text(self, tmp_path, monkeypatch, capsys):
        # out=7 names a file, not file descriptor 7
        monkeypatch.chdir(tmp_path)
        (tmp_path / "run.cfg").write_text("out=7\nsteps=100\nmetrics_every=50\n")
        rc = main(["train", "--env", "four-state", "--config", "run.cfg"])
        capsys.readouterr()
        assert rc == 0
        assert read_metrics_csv(str(tmp_path / "7"))["t"].tolist() == [50.0, 100.0]
        assert json.loads((tmp_path / "7.json").read_text())["steps"] == 100

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
        assert sidecar["schedule"]["c_gamma"] == 1.0  # defaults to c_alpha

    def test_removed_tracker_option_exit_two(self, tmp_path, capsys):
        # the tracker's coefficient is set by c_gamma alone; the option that
        # scaled c_alpha is refused as a flag and as a config key
        flag = "--k-coupling"
        with pytest.raises(SystemExit) as exc:
            main(["train", "--env", "four-state", flag, "2", "--out", str(tmp_path / "a.csv")])
        assert exc.value.code == 2
        assert flag in capsys.readouterr().err
        key = flag[2:].replace("-", "_")
        for text in (f"{key}=2\n", json.dumps({key: 2.0})):
            cfg = tmp_path / "old.cfg"
            cfg.write_text(text)
            rc = main(["train", "--env", "four-state", "--config", str(cfg),
                       "--out", str(tmp_path / "b.csv")])
            err = capsys.readouterr().err
            assert rc == 2
            assert err.splitlines() == [f"error: {cfg}: unknown config keys ['{key}']"]
        assert list(tmp_path.iterdir()) == [cfg]


# flag, value, what the refusal says: each is refused by the object that holds
# the value, before any step or file
REFUSED_RUN_FLAGS = [
    ("--steps", "-5", "steps must be nonnegative"),
    ("--metrics-every", "0", "metrics_every must be positive"),
    ("--uv", "-1", "uv must be positive"),
    ("--uv", "0", "uv must be positive"),
    # a radius <= 0 reflects theta through the origin or pins it there
    ("--actor-radius", "-1", "actor_radius must be positive"),
    ("--actor-radius", "0", "actor_radius must be positive"),
    # negative noise would be switched off silently, infinite noise clips every reward
    ("--reward-noise", "-1", "reward_noise must be finite and nonnegative"),
    ("--reward-noise", "inf", "reward_noise must be finite and nonnegative"),
    ("--nu", "2", "nu must lie in [0, 1]"),
    ("--c-beta", "-1", "c_beta must be finite and nonnegative"),
    ("--c-beta", "nan", "c_beta must be finite and nonnegative"),
    ("--c-alpha", "50", "c_gamma must be at most 2"),
    # four-state has room for at most 3 reduced one-hot features
    ("--features", "one_hot_reduced:9", "one_hot_reduced needs 1 <= d1 <= 3"),
]


class TestErrorPaths:
    @pytest.mark.parametrize("command", ["train", "sweep", "validate"])
    def test_expanding_tracker_exit_one(self, tmp_path, capsys, command):
        # c_gamma = c_alpha = 50 > 2: |1 - gamma_t| > 1 and L_t would blow
        # up; a run is refused before any step and nothing is written (exit 2),
        # and validate (which passes at the default c_alpha) flags the tracker
        # as its verdict (exit 1)
        argv = [command, "--env", "four-state", "--c-alpha", "50"]
        if command != "validate":
            out = tmp_path / ("run.csv" if command == "train" else "sweep")
            argv += ["--steps", "5000", "--metrics-every", "1000", "--out", str(out)]
        rc = main(argv)
        captured = capsys.readouterr()
        assert rc == (1 if command == "validate" else 2)
        if command == "validate":
            assert "tracker_ok=False" in captured.out
        else:
            assert "c_gamma" in captured.err
        assert list(tmp_path.rglob("*.csv")) == []

    @pytest.mark.parametrize("command", ["validate", "solve"])
    def test_zero_horizon_exit_two(self, capsys, command):
        rc = main([command, "--env", "four-state", "--horizon", "0"])
        assert rc == 2
        assert "horizon must be at least 1" in capsys.readouterr().err

    @pytest.mark.parametrize("value", ["0", "-2"])
    def test_no_policy_samples_exit_two(self, capsys, value):
        rc = main(["validate", "--env", "four-state", "--policy-samples", value])
        assert rc == 2
        assert "n_theta_samples must be at least 1" in capsys.readouterr().err

    @pytest.mark.parametrize("command", ["train", "sweep", "validate"])
    def test_negative_seed_exit_two(self, tmp_path, capsys, command):
        out = tmp_path / "out"
        rc = main([command, "--env", "four-state", "--seed", "-1", "--out", str(out)])
        assert rc == 2
        assert "seed must be nonnegative" in capsys.readouterr().err
        assert list(tmp_path.iterdir()) == []

    def test_bad_feature_dimension_exit_two(self, tmp_path, capsys):
        rc = main(["train", "--env", "four-state", "--features", "random_unit:abc",
                   "--steps", "10", "--out", str(tmp_path / "x.csv")])
        assert rc == 2
        assert "random_unit:abc" in capsys.readouterr().err
        assert list(tmp_path.iterdir()) == []

    @pytest.mark.parametrize("command", ["train", "sweep"])
    @pytest.mark.parametrize("flag,value,message", REFUSED_RUN_FLAGS,
                             ids=[f"{flag}-{value}" for flag, value, _ in REFUSED_RUN_FLAGS])
    def test_out_of_range_run_flag_exit_two(self, tmp_path, capsys, command, flag, value,
                                            message):
        # refused before anything is written (a bad --uv used to fail each
        # sweep seed after out/, sweep.json and aggregate.csv were written)
        out = tmp_path / ("run.csv" if command == "train" else "sweep")
        argv = [command, "--env", "four-state", "--steps", "10", flag, value, "--out", str(out)]
        rc = main(argv + (["--seeds", "2"] if command == "sweep" else []))
        assert rc == 2
        assert message in capsys.readouterr().err
        assert list(tmp_path.iterdir()) == []

    @pytest.mark.parametrize("command", ["train", "sweep"])
    def test_overflowing_critic_exit_one(self, tmp_path, capsys, command):
        # ||v||^2 overflows to inf; the projection used to scale v by 0 and the
        # run exited 0 with v_norm 0.0 in every row
        out = tmp_path / ("run.csv" if command == "train" else "sweep")
        argv = [command, "--env", "four-state", "--c-beta", "1e300", "--steps", "200",
                "--out", str(out)]
        with np.errstate(over="ignore", invalid="ignore"):
            rc = main(argv + (["--seeds", "2", "--jobs", "1"] if command == "sweep" else []))
        err = capsys.readouterr().err
        assert rc == 1
        assert "critic diverged at step" in err and "lower c_beta (now 1e+300)" in err
        if command == "train":
            assert list(tmp_path.iterdir()) == []
        else:  # both seeds diverge, each with its own message
            failed = json.loads((out / "sweep.json").read_text())["failed"]
            assert [seed for seed, _ in failed] == [0, 1]
            assert all(msg.startswith("critic diverged at step") for _, msg in failed)
            assert list(out.glob("seed_*.csv")) == []

    def test_huge_actor_radius_still_projects(self, tmp_path, capsys):
        # at a radius of 2**512 or more the squared radius is inf, and the
        # ball test used to pass any iterate: ||theta_T|| reached 1.77e199
        out = tmp_path / "run.csv"
        rc = main(["train", "--env", "four-state", "--actor-radius", "1e160", "--c-alpha",
                   "1e200", "--c-gamma", "1.5", "--steps", "20", "--metrics-every", "10",
                   "--out", str(out)])
        capsys.readouterr()
        assert rc == 0
        theta = json.loads((tmp_path / "run.json").read_text())["final"]["theta"]
        assert math.hypot(*theta) <= 1e160 * (1.0 + 1e-12)

    def test_huge_critic_radius_diverges_with_one_error_line(self, tmp_path, capsys):
        # v used to pass the ball test with an inf squared norm and reach the
        # row, which failed with a RuntimeWarning from the actor field's matmul
        out = tmp_path / "run.csv"
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            rc = main(["train", "--env", "four-state", "--uv", "1e160", "--c-beta", "1e200",
                       "--c-alpha", "0", "--steps", "20", "--metrics-every", "10",
                       "--out", str(out)])
        err = capsys.readouterr().err.splitlines()
        assert rc == 1
        assert [str(w.message) for w in caught] == []
        assert len(err) == 1
        assert err[0].startswith("error: critic diverged at step ")
        assert "its norm is inf" in err[0]
        assert list(tmp_path.iterdir()) == []

    def test_sweep_keeps_the_seeds_that_stay_finite(self, tmp_path, capsys):
        # at c_beta = 3e153 seeds 1-3 of four-state overflow and seed 0 does not;
        # a diverged seed used to fail its whole batch
        argv = ["--env", "four-state", "--c-beta", "3e153", "--steps", "300"]
        with np.errstate(over="ignore", invalid="ignore"):
            rc = main(["sweep", *argv, "--seeds", "4", "--jobs", "1",
                       "--out", str(tmp_path / "sweep")])
            assert main(["train", *argv, "--out", str(tmp_path / "run.csv")]) == 0
        assert rc == 1
        failed = json.loads((tmp_path / "sweep" / "sweep.json").read_text())["failed"]
        assert [seed for seed, _ in failed] == [1, 2, 3]
        assert all(msg.startswith("critic diverged at step") for _, msg in failed)
        swept = read_metrics_csv(str(tmp_path / "sweep" / "seed_0.csv"))
        alone = read_metrics_csv(str(tmp_path / "run.csv"))
        for name in CSV_HEADER.split(",")[:-1]:
            assert np.array_equal(swept[name], alone[name])

    def test_infinite_reward_bound_exit_two(self, tmp_path, capsys):
        # JSON reads 1e400 as inf; validate used to print U_r=inf and pass
        env = tmp_path / "env.json"
        env.write_text(json.dumps({"n_states": 2, "n_actions": 1, "reward_bound": 1.0,
                                   "P": [[[0.5, 0.5]], [[0.5, 0.5]]], "R": [[0.0], [0.0]]})
                       .replace('"reward_bound": 1.0', '"reward_bound": 1e400'))
        rc = main(["validate", "--env", str(env)])
        captured = capsys.readouterr()
        assert rc == 2
        assert "reward_bound must be finite, got inf" in captured.err
        assert captured.out == ""

    @pytest.mark.parametrize("command", ["solve", "train", "sweep"])
    def test_refused_env_file_exit_two(self, tmp_path, capsys, command):
        env = tmp_path / "env.json"
        env.write_text(json.dumps({"n_states": 2, "n_actions": 1, "reward_bound": 1.0,
                                   "P": [[[0.5, 0.4]], [[0.0, 1.0]]], "R": [[0.0], [0.0]]}))
        out = tmp_path / "out"
        argv = [command, "--env", str(env)]
        rc = main(argv + (["--steps", "10", "--out", str(out)] if command != "solve" else []))
        captured = capsys.readouterr()
        assert rc == 2
        assert "transition row (s=0, a=0) sums to 0.9" in captured.err
        assert captured.out == ""
        assert list(tmp_path.iterdir()) == [env]

    @pytest.mark.parametrize("command", ["solve", "train"])
    @pytest.mark.parametrize("bad", ["NaN", "Infinity"])
    def test_non_finite_features_exit_two(self, tmp_path, capsys, command, bad):
        # refused when the env is loaded, before numpy's svd would fail untyped
        path = tmp_path / "env.json"
        save_mdp(str(path), four_state_easy(), features=FeatureMap(np.eye(4, 3)))
        doc = json.loads(path.read_text())
        doc["features"][1][1] = float(bad.replace("Infinity", "inf"))
        path.write_text(json.dumps(doc))
        assert bad in path.read_text()
        argv = [command, "--env", str(path)]
        rc = main(argv + (["--steps", "10", "--out", str(tmp_path / "out")]
                          if command == "train" else []))
        captured = capsys.readouterr()
        assert rc == 2
        assert "feature table has a non-finite entry" in captured.err
        assert captured.out == ""
        assert list(tmp_path.iterdir()) == [path]

    @pytest.mark.parametrize("command", ["solve", "validate", "train", "sweep"])
    def test_huge_features_exit_two(self, tmp_path, capsys, command):
        # a finite table whose A(theta) overflows: solve and validate used to die
        # in LAPACK, train with a ZeroDivisionError in the kernel's ball test
        path = tmp_path / "env.json"
        mdp = four_state_easy()
        huge = FeatureMap(1e200 * make_features("one_hot_reduced", mdp).table)
        save_mdp(str(path), mdp, features=huge)
        out = tmp_path / "out"
        runs = ["--steps", "10", "--out", str(out)]
        argv = [command, "--env", str(path)] + {"solve": [], "validate": [], "train": runs,
                                                "sweep": runs + ["--seeds", "2"]}[command]
        rc = main(argv)
        captured = capsys.readouterr()
        message = ("the critic matrices A(theta), b(theta) are not finite: the feature "
                   "table's largest |entry| is 1e+200; scale the features down")
        if command == "sweep":  # recorded per seed
            assert rc == 1
            failed = json.loads((out / "sweep.json").read_text())["failed"]
            assert failed == [[0, message], [1, message]]
        else:
            assert rc == 2
            assert message in captured.err
            assert captured.out == ""
            assert list(tmp_path.iterdir()) == [path]

    @pytest.mark.parametrize("command", ["solve", "validate", "train", "sweep"])
    def test_feature_file_of_another_env_exit_two(self, tmp_path, capsys, command):
        # an 8-state table on four-state used to die in numpy's matmul; with
        # --uv, train ran every step first
        path = write_eight_state_env(tmp_path)
        runs = ["--steps", "10", "--uv", "5", "--out", str(tmp_path / "out")]
        rc = main([command, "--env", "four-state", "--features", path]
                  + (runs if command in ("train", "sweep") else []))
        captured = capsys.readouterr()
        assert rc == 2
        assert captured.err.splitlines() == [
            f"error: {path}: the feature table has 8 rows, but the env has 4 states"]
        assert captured.out == ""
        assert list(tmp_path.iterdir()) == [Path(path)]

    def test_mistyped_env_file_exit_two(self, tmp_path, capsys):
        env = tmp_path / "env.json"
        env.write_text(json.dumps({"n_states": 2, "n_actions": 1, "reward_bound": "x",
                                   "P": [[[0.5, 0.5]], [[0.5, 0.5]]], "R": [[0.0], [0.0]]}))
        rc = main(["solve", "--env", str(env)])
        captured = capsys.readouterr()
        assert rc == 2
        assert "reward_bound must be a number" in captured.err
        assert captured.out == ""

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
                "sigma": 0.45, "steps": 10}
        for algo in ("ca", "ac", "stac"):
            assert build_schedule(algo, opts) == algo_schedule(algo, c_alpha=1.0, sigma=0.45)
            assert build_schedule(algo, {}) == algo_schedule(algo)

    def test_resolve_features_embedded_wins(self):
        mdp = four_state_easy()
        emb = FeatureMap(np.eye(4, 2))
        fmap, name = resolve_features(None, mdp, emb)
        assert fmap is emb and name == "embedded"
        default, name = resolve_features(None, mdp, None)
        assert default.dim == 3
        assert name == "one_hot_reduced"

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


def test_host_block_in_sidecar_and_sweep_json(tmp_path, capsys):
    # what makes output bytes host-specific is named beside the outputs
    assert main(["train", "--env", "four-state", "--steps", "100",
                 "--out", str(tmp_path / "run.csv")]) == 0
    assert main(["sweep", "--env", "four-state", "--steps", "100", "--seeds", "1",
                 "--out", str(tmp_path / "sweep")]) == 0
    capsys.readouterr()
    hosts = [json.loads(path.read_text())["host"]
             for path in (tmp_path / "run.json", tmp_path / "sweep" / "sweep.json")]
    assert hosts[0] == hosts[1]
    host = hosts[0]
    assert list(host) == ["numpy", "x86_v4", "openblas_core", "openblas_config", "libc"]
    assert host["numpy"] == np.__version__
    assert isinstance(host["x86_v4"], bool)
    for key in ("openblas_core", "openblas_config", "libc"):
        assert host[key] is None or isinstance(host[key], str)


def test_host_block_names_the_dispatch():
    # NPY_DISABLE_CPU_FEATURES turns numpy's X86_V4 (AVX512) loops off, and
    # with them np.exp's bits; the block says which loops ran
    if not cli._host()["x86_v4"]:
        pytest.skip("numpy dispatches no X86_V4 loops on this host")
    env = module_env()
    env["NPY_DISABLE_CPU_FEATURES"] = "X86_V4 AVX512_ICL AVX512_SPR"
    code = "import json; from avgrl.cli import _host; print(json.dumps(_host()))"
    proc = run_cli_process([sys.executable, "-c", code], env)
    assert proc.returncode == 0, proc.stderr
    assert json.loads(proc.stdout)["x86_v4"] is False


# The legs of test_trajectory_is_host_independent: environment settings that
# change numpy's SIMD loops or OpenBLAS's kernels.
HOST_LEGS = {
    "default": {},
    "no-avx512": {"NPY_DISABLE_CPU_FEATURES": "X86_V4 AVX512_ICL AVX512_SPR"},
    "haswell": {"OPENBLAS_CORETYPE": "Haswell"},
}


def test_trajectory_is_host_independent(tmp_path):
    # the sampled path runs on Python floats and libm's exp, so neither
    # numpy's dispatch nor the OpenBLAS core moves a byte of the trajectory
    # (t, L_t, delta_abs_mean, the final state); the oracle columns come from
    # LAPACK and agree within 1e-10 relative (critic_err_sq amplifies the
    # error in v* when v is near v*).  Seed 3's final theta is one that
    # numpy's exp would change between the first two legs
    knobs = {key for settings in HOST_LEGS.values() for key in settings}
    legs = {}
    for name, settings in HOST_LEGS.items():
        env = {k: v for k, v in module_env().items() if k not in knobs} | settings
        out = tmp_path / f"{name}.csv"
        proc = run_cli_process([sys.executable, "-m", "avgrl", "train", "--env", "four-state",
                                "--steps", "2000", "--metrics-every", "100", "--seed", "3",
                                "--out", str(out)],
                               env)
        assert proc.returncode == 0, proc.stderr
        header, *rows = read_lines(out)
        columns = dict(zip(header.split(","), zip(*(row.split(",") for row in rows))))
        legs[name] = columns, json.loads(out.with_suffix(".json").read_text())
    columns, sidecar = legs["default"]
    assert len(columns["t"]) == 20
    for name in ("no-avx512", "haswell"):
        other, other_sidecar = legs[name]
        assert other_sidecar["final"] == sidecar["final"], name
        for col in CSV_HEADER.split(",")[:-1]:
            if col in ("t", "L_t", "delta_abs_mean"):
                assert other[col] == columns[col], (name, col)
            else:
                assert np.allclose(np.array(other[col], float), np.array(columns[col], float),
                                   rtol=1e-10, atol=0.0), (name, col)
    assert legs["no-avx512"][1]["host"]["x86_v4"] is False
    if not sidecar["host"]["x86_v4"]:
        warnings.warn("numpy dispatches no X86_V4 loops on this host: the "
                      "NPY_DISABLE_CPU_FEATURES leg changed nothing")


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


def test_scipy_stays_off_the_import_path(tmp_path):
    # scipy serves lp_optimum alone, which imports it on its first call; no
    # command loads it on the way in
    code = "\n".join([
        "import sys",
        "import avgrl",
        "import avgrl.cli",
        f"rc = avgrl.cli.main(['train', '--env', 'gridworld4', '--steps', '0', "
        f"'--out', {str(tmp_path / 'run.csv')!r}])",
        "assert rc == 0, rc",
        "assert 'scipy' not in sys.modules, sorted(m for m in sys.modules if 'scipy' in m)",
        "from avgrl.envs import four_state_easy",
        "from avgrl.oracles import lp_optimum",
        "print(repr(lp_optimum(four_state_easy())))",
    ])
    proc = run_cli_process([sys.executable, "-c", code], module_env())
    assert proc.returncode == 0, proc.stderr
    assert float(proc.stdout.splitlines()[-1]) == pytest.approx(0.738, abs=1e-9)
