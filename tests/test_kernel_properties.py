"""Property tests of the scalar kernel's branches over random garnets."""

import dataclasses

import numpy as np
import pytest

from avgrl import learner
from avgrl.envs import GarnetSpec, build_garnet, tabular_policy
from avgrl.errors import AvgrlError
from avgrl.features import make_features
from avgrl.learner import ALGO_SCHEDULES, RunConfig, algo_schedule, run

hypothesis = pytest.importorskip("hypothesis")
given, settings, st = hypothesis.given, hypothesis.settings, hypothesis.strategies


def run_outcome(cfg):
    """run(cfg) as (rows without wall_ns, t, s, L, v, theta), or its error's type and text."""
    try:
        res = run(cfg)
    except AvgrlError as exc:
        return type(exc).__name__, str(exc)
    rows = [{k: v for k, v in dataclasses.asdict(row).items() if k != "wall_ns"}
            for row in res.rows]
    f = res.final
    return rows, f.t, f.s, f.L, f.v.tolist(), f.theta.tolist()


@settings(max_examples=60, deadline=None, database=None, derandomize=True)
@given(n_actions=st.integers(2, 7), n_states=st.integers(2, 5), seed=st.integers(0, 2**16),
       theta_scale=st.sampled_from([0.0, 0.5, 4.0]), radius=st.sampled_from([None, 0.5, 4.0]),
       noise=st.sampled_from([0.0, 0.3]), algo=st.sampled_from(sorted(ALGO_SCHEDULES)),
       critic=st.sampled_from(["one_hot_reduced", "random_unit"]))
def test_list_branch_matches_dense_branch(n_actions, n_states, seed, theta_scale, radius,
                                          noise, algo, critic):
    # a moving tabular actor with A < 8 steps on Python floats; with its
    # detection off the same run takes the dense numpy branch, bit for bit
    mdp = build_garnet(GarnetSpec(n_states=n_states, n_actions=n_actions,
                                  branching=min(2, n_states), seed=seed))
    pol = tabular_policy(mdp)
    pol = pol.with_theta(theta_scale * np.random.default_rng(seed).normal(size=pol.dim))
    cfg = RunConfig(mdp=mdp, policy=pol, features=make_features(critic, mdp, seed=seed),
                    schedule=algo_schedule(algo), steps=300, seed=seed, metrics_every=100,
                    uv_radius=5.0, actor_radius=radius, reward_noise=noise)
    assert learner._action_columns(pol.action_features) is not None
    listed = run_outcome(cfg)
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(learner, "_action_columns", lambda x: None)
        dense = run_outcome(cfg)
    assert listed == dense
