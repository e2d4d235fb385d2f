"""One stationary solve per policy evaluation, and the routes that share it.

A run's metrics rows share one policy solution while theta stands still, so a
frozen-actor run asks for mu three times in all and a moving one three times
per row.  The three calls of a moving row share one pi table, one chain and
the one LU solve kept on that chain, and the row builds no psi table: its
actor field reads the action features.

`solves` counts calls: it wraps `stationary_distribution` in every `avgrl`
namespace that binds it, so a call is counted whichever module makes it.
`lu_solves` counts the LU solves behind them (`mdp._solve_stationary`).
"""

import contextlib
import dataclasses
import functools
import io
import sys

import numpy as np
import pytest
from hypothesis import assume, given, settings, strategies as st

import avgrl.cli
from avgrl import mdp as mdp_module
from avgrl import metrics
from avgrl.envs import GarnetSpec, build_garnet, four_state_easy, frozen_lake_4x4, tabular_policy
from avgrl.errors import AvgrlError
from avgrl.features import check_assumption2, make_features, matrix_A
from avgrl.learner import RunConfig, algo_schedule, run, run_batch
from avgrl.mdp import SoftmaxLinearPolicy, differential_value
from avgrl.oracles import actor_bias, actor_field_M, critic_fixed_point


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


@pytest.fixture
def lu_solves(monkeypatch):
    original = mdp_module._solve_stationary
    calls = []

    def counting(kernel):
        calls.append(kernel.shape[0])
        return original(kernel)

    monkeypatch.setattr(mdp_module, "_solve_stationary", counting)
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
def test_frozen_run_solves_once(solves, lu_solves, monkeypatch, name):
    # every row of a frozen run is at theta_0: one row's 3 calls, one LU, serve them all
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
    assert len(lu_solves) == 1
    for (args, kw, row), kept in zip(seen, res.rows, strict=True):
        assert row is kept
        assert real(*args, **kw, memo=[]) == row  # a fresh row, bit for bit


@settings(max_examples=60, deadline=None, database=None, derandomize=True)
@given(n_states=st.integers(2, 6), n_actions=st.integers(2, 4), d2=st.integers(1, 5),
       seed=st.integers(0, 2**16), critic=st.sampled_from(["random_unit", "tabular_centered"]))
def test_memo_hit_row_equals_fresh_row(n_states, n_actions, d2, seed, critic):
    # a hit reuses the fresh row's v-independent tables (R - L(theta) and
    # mu(s) pi(a|s)); with dense critic features and dense, non-tabular action
    # features it must still give the fresh row, every column bit for bit
    mdp = build_garnet(GarnetSpec(n_states=n_states, n_actions=n_actions,
                                  branching=min(2, n_states), seed=seed))
    rng = np.random.default_rng(seed)
    policy = SoftmaxLinearPolicy(theta=np.zeros(d2),
                                 action_features=rng.normal(size=(n_states, n_actions, d2)))
    fmap = make_features(critic, mdp, seed=seed)
    theta = rng.normal(size=d2)
    memo = []
    for t in range(4):
        kw = dict(t=t, theta=theta, v=3.0 * rng.normal(size=fmap.dim), L=float(rng.normal()),
                  delta_abs_mean=0.5, wall_ns=t)
        try:
            fresh = metrics.exact_metrics_row(mdp, policy, fmap, **kw, memo=[])
        except AvgrlError:  # a singular A(theta) or a reducible chain
            assume(False)
        kept = list(memo)
        row = metrics.exact_metrics_row(mdp, policy, fmap, **kw, memo=memo)
        if t > 0:  # a hit leaves the memo as the first row filled it
            assert all(a is b for a, b in zip(memo, kept, strict=True))
        assert [repr(x) for x in dataclasses.astuple(row)] == \
            [repr(x) for x in dataclasses.astuple(fresh)]


def test_frozen_batch_solves_once(solves):
    cfg = run_config("gridworld4", FROZEN, 1000)
    results = run_batch(cfg, [1, 2, 3])
    assert [len(res.rows) for res in results] == [10, 10, 10]
    assert len(solves) == 3


def test_moving_run_solves_three_per_row(solves, lu_solves):
    res = run(run_config("four-state", algo_schedule("ca"), 1000))
    assert len(res.rows) == 10
    assert len(solves) == 3 * len(res.rows)
    assert len(lu_solves) == len(res.rows)


@pytest.fixture
def builds(monkeypatch):
    """Counts of pi tables, psi tables and PolicyChains built."""
    counts = {"prob": 0, "score": 0, "chain": 0}
    policy_cls, chain_cls = mdp_module.SoftmaxLinearPolicy, mdp_module.PolicyChain

    def counted(key, fn):
        @functools.wraps(fn)
        def wrapper(self):
            counts[key] += 1
            return fn(self)
        return wrapper

    for key, attr in (("prob", "_prob"), ("score", "_score")):
        prop = functools.cached_property(counted(key, vars(policy_cls)[attr].func))
        prop.__set_name__(policy_cls, attr)
        monkeypatch.setattr(policy_cls, attr, prop)
    monkeypatch.setattr(chain_cls, "__post_init__",
                        counted("chain", chain_cls.__post_init__))
    return counts


@pytest.mark.parametrize("name", ["four-state", "gridworld4", "garnet"])
def test_moving_row_builds_tables_once(solves, builds, name):
    mdp, policy, fmap = problem(name)
    theta = np.random.default_rng(6).normal(size=policy.dim)
    v = np.random.default_rng(7).normal(size=fmap.dim)
    builds.update(prob=0, score=0, chain=0)  # building gridworld4 checks a chain
    memo = []
    row = metrics.exact_metrics_row(mdp, policy, fmap, t=1, theta=theta, v=v, L=0.1,
                                    delta_abs_mean=0.0, wall_ns=0, memo=memo)
    assert builds == {"prob": 1, "score": 0, "chain": 1}
    assert len(solves) == 3  # perfbench/test_tracer.py pins three per moving row
    # a row at the same theta (a memo hit) builds nothing
    metrics.exact_metrics_row(mdp, policy, fmap, t=2, theta=theta, v=2 * v, L=0.1,
                              delta_abs_mean=0.0, wall_ns=0, memo=memo)
    assert builds == {"prob": 1, "score": 0, "chain": 1}
    assert len(solves) == 3
    # the shared tables give the row of the separately built oracles, bit for bit
    pol = policy.with_theta(theta)
    assert row.critic_err_sq == float(np.sum((v - critic_fixed_point(mdp, pol, fmap)) ** 2))
    M = actor_field_M(mdp, policy.with_theta(theta), fmap, v)
    assert row.M_norm_sq == float(np.sum(M * M))
    # the sum over the action features is the triple sum over the scores
    chain, mu, gain = mdp_module._evaluate(mdp, pol)
    phi_v = fmap.table @ v
    delta = mdp.reward - gain + mdp.transition @ phi_v - phi_v[:, None]
    M_psi = np.tensordot(mu[:, None] * pol.prob_table() * delta, pol.score_table(), axes=2)
    assert np.linalg.norm(M - M_psi) <= 1e-12 * np.linalg.norm(M_psi)


@pytest.mark.parametrize("name", ["four-state", "gridworld4", "garnet"])
def test_moving_row_solves_one_lu(solves, lu_solves, name):
    mdp, policy, fmap = problem(name)
    theta = np.random.default_rng(8).normal(size=policy.dim)
    v = np.random.default_rng(9).normal(size=fmap.dim)
    row = metrics.exact_metrics_row(mdp, policy, fmap, t=1, theta=theta, v=v, L=0.1,
                                    delta_abs_mean=0.0, wall_ns=0, memo=[])
    assert (len(solves), len(lu_solves)) == (3, 1)
    # a fresh memo builds a fresh policy at the same theta: one more solve, the same row
    again = metrics.exact_metrics_row(mdp, policy, fmap, t=1, theta=theta, v=v, L=0.1,
                                      delta_abs_mean=0.0, wall_ns=0, memo=[])
    assert (len(solves), len(lu_solves)) == (6, 2)
    assert again == row
