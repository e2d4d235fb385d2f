"""One stationary solve per policy evaluation, and the routes that share it.

A run's metrics rows share one policy solution while theta stands still, so a
frozen-actor run solves once in all and a moving one three times per row.

Counting wraps `stationary_distribution` in every `avgrl` namespace that binds
it, so a solve is counted whichever module calls it.
"""

import contextlib
import dataclasses
import io
import sys

import numpy as np
import pytest

import avgrl.cli
from avgrl import mdp as mdp_module
from avgrl import metrics
from avgrl.envs import GarnetSpec, build_garnet, four_state_easy, frozen_lake_4x4, tabular_policy
from avgrl.features import check_assumption2, make_features, matrix_A
from avgrl.learner import RunConfig, algo_schedule, run, run_batch
from avgrl.mdp import differential_value
from avgrl.oracles import actor_bias, critic_fixed_point


@pytest.fixture
def solves(monkeypatch):
    original = mdp_module.stationary_distribution
    calls = []

    def counting(chain):
        calls.append(chain.n_states)
        return original(chain)

    for name, mod in list(sys.modules.items()):
        if name.split(".")[0] == "avgrl" and getattr(mod, "stationary_distribution", None) is original:
            monkeypatch.setattr(mod, "stationary_distribution", counting)
    return calls


def problem(name):
    mdp = {
        "four-state": four_state_easy,
        "gridworld4": frozen_lake_4x4,
        "garnet": lambda: build_garnet(GarnetSpec(n_states=7, n_actions=3, seed=11)),
    }[name]()
    return mdp, tabular_policy(mdp), make_features("one_hot_reduced", mdp)


def test_check_assumption2_solves_once_per_theta(solves):
    mdp, policy, fmap = problem("four-state")
    report = check_assumption2(mdp, policy, fmap, n_theta_samples=8)
    assert len(report.lambda_thetas) == 8
    assert len(solves) == 8


@pytest.mark.parametrize("argv, expected", [
    (["validate", "--env", "four-state"], 9),
    (["validate", "--env", "gridworld4"], 9),
    (["solve", "--env", "gridworld4"], 3),
])
def test_command_solve_counts(solves, argv, expected):
    with contextlib.redirect_stdout(io.StringIO()):
        assert avgrl.cli.main(argv) == 0
    assert len(solves) == expected


def test_actor_bias_solves_once(solves):
    mdp, policy, fmap = problem("garnet")
    actor_bias(mdp, policy, fmap, np.ones(fmap.dim))
    assert len(solves) == 1


@pytest.mark.parametrize("name", ["four-state", "gridworld4", "garnet"])
def test_report_matches_public_routes(name):
    mdp, policy, fmap = problem(name)
    seed, n = 3, 6
    report = check_assumption2(mdp, policy, fmap, n_theta_samples=n, seed=seed)
    rng = np.random.default_rng(seed)
    thetas = [np.zeros(policy.dim)] + [rng.standard_normal(policy.dim) for _ in range(n - 1)]
    vbar = 0.0
    for theta, lam in zip(thetas, report.lambda_thetas, strict=True):
        pol = policy.with_theta(theta)
        A, _ = matrix_A(mdp, pol, fmap)
        assert lam == float(np.linalg.eigvalsh(0.5 * (A + A.T)).max())
        vbar = max(vbar, float(np.abs(differential_value(mdp, pol)).max()))
    assert report.constants["Ubar_v"] == 2.0 * vbar
    v_star = critic_fixed_point(mdp, policy.with_theta(thetas[0]), fmap)
    assert report.constants["U_v"] == max(10.0 * float(np.linalg.norm(v_star)), 1.0)


FROZEN = algo_schedule("ca", c_alpha=0.0, c_gamma=1.5)


def run_config(name, schedule, steps):
    mdp, policy, fmap = problem(name)
    return RunConfig(mdp=mdp, policy=policy, features=fmap, schedule=schedule, steps=steps,
                     metrics_every=steps // 10, uv_radius=5.0)


@pytest.mark.parametrize("name", ["four-state", "gridworld4"])
def test_frozen_run_solves_once(solves, monkeypatch, name):
    # every row of a frozen run is at theta_0: one row's 3 solves serve them all
    cfg = run_config(name, FROZEN, 1000)
    seen = []
    real = metrics.exact_metrics_row

    def recording(*args, **kw):
        row = real(*args, **kw)
        seen.append((args, {k: (np.copy(a) if isinstance(a, np.ndarray) else a)
                            for k, a in kw.items() if k != "memo"}, row))
        return row

    monkeypatch.setattr(metrics, "exact_metrics_row", recording)
    res = run(cfg)
    assert len(res.rows) == 10
    assert len(solves) == 3
    for (args, kw, row), kept in zip(seen, res.rows, strict=True):
        assert row is kept
        assert real(*args, **kw, memo=[]) == row  # a fresh row, bit for bit


def test_frozen_batch_solves_once(solves):
    cfg = run_config("gridworld4", FROZEN, 1000)
    results = run_batch([dataclasses.replace(cfg, seed=seed) for seed in (1, 2, 3)])
    assert [len(res.rows) for res in results] == [10, 10, 10]
    assert len(solves) == 3


def test_moving_run_solves_three_per_row(solves):
    res = run(run_config("four-state", algo_schedule("ca"), 1000))
    assert len(res.rows) == 10
    assert len(solves) == 3 * len(res.rows)
