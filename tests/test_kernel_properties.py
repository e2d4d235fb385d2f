"""Property tests of the sampled kernel over random garnets."""

import dataclasses
import math
from itertools import accumulate

import numpy as np
import pytest

from avgrl import learner
from avgrl.envs import GarnetSpec, build_garnet, tabular_policy
from avgrl.errors import AvgrlError
from avgrl.features import FeatureMap, make_features
from avgrl.learner import ALGO_SCHEDULES, RunConfig, StepSchedule, algo_schedule, run, run_batch
from test_learner import reference_run

hypothesis = pytest.importorskip("hypothesis")
given, settings, st = hypothesis.given, hypothesis.settings, hypothesis.strategies


def run_outcome(cfg, seed):
    """run(cfg, seed) as (rows without wall_ns, t, s, L, v, theta), or its error's type and
    text."""
    try:
        res = run(cfg, seed)
    except AvgrlError as exc:
        return type(exc).__name__, str(exc)
    rows = [{k: v for k, v in dataclasses.asdict(row).items() if k != "wall_ns"}
            for row in res.rows]
    f = res.final
    return rows, f.t, f.s, f.L, list(f.v), list(f.theta)


@settings(max_examples=60, deadline=None, database=None, derandomize=True)
@given(n_actions=st.integers(2, 9), n_states=st.integers(2, 5), seed=st.integers(0, 2**16),
       theta_scale=st.sampled_from([0.0, 0.5, 4.0]), radius=st.sampled_from([None, 0.5, 4.0]),
       noise=st.sampled_from([0.0, 0.3]), algo=st.sampled_from(sorted(ALGO_SCHEDULES)),
       critic=st.sampled_from(["one_hot_reduced", "random_unit"]))
def test_list_branch_matches_dense_branch(n_actions, n_states, seed, theta_scale, radius,
                                          noise, algo, critic):
    # a moving tabular actor's logits are lookups th[cols[s]]; with its
    # detection off the same run takes the dense _dot route, bit for bit at any
    # A, 8 and 9 included
    mdp = build_garnet(GarnetSpec(n_states=n_states, n_actions=n_actions,
                                  branching=min(2, n_states), seed=seed))
    pol = tabular_policy(mdp)
    pol = pol.with_theta(theta_scale * np.random.default_rng(seed).normal(size=pol.dim))
    cfg = RunConfig(mdp=mdp, policy=pol, features=make_features(critic, mdp, seed=seed),
                    schedule=algo_schedule(algo), steps=300, metrics_every=100,
                    uv_radius=5.0, actor_radius=radius, reward_noise=noise)
    assert learner._action_columns(pol.action_features) is not None
    listed = run_outcome(cfg, seed)
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(learner, "_action_columns", lambda x: None)
        dense = run_outcome(cfg, seed)
    assert listed == dense


@settings(max_examples=40, deadline=None, database=None, derandomize=True)
@given(n_states=st.integers(2, 6), n_actions=st.integers(2, 4), seed=st.integers(0, 2**16),
       uv_radius=st.sampled_from([0.05, 0.5, 5.0, 1e6]),
       critic=st.sampled_from(["one_hot_reduced", "random_unit", "tabular_centered"]),
       phi_scale=st.sampled_from([1.0, 2.0]), radius=st.sampled_from([None, 0.5]),
       noise=st.sampled_from([0.0, 0.3]), algo=st.sampled_from([*sorted(ALGO_SCHEDULES), "frozen"]),
       n=st.sampled_from([1, 3, 8]))
def test_skipped_ball_tests_match_reference_stepper(n_states, n_actions, seed, uv_radius, critic,
                                                    phi_scale, radius, noise, algo, n):
    # the kernel runs a ball test only when its bound on the norm could reach
    # the radius; the reference stepper tests every step.  A radius of 0.05
    # binds often, one of 1e6 almost never needs the exact test, and a scale
    # of 2 gives rows with ||phi(s)|| > 1
    mdp = build_garnet(GarnetSpec(n_states=n_states, n_actions=n_actions,
                                  branching=min(2, n_states), seed=seed))
    pol = tabular_policy(mdp)
    pol = pol.with_theta(np.random.default_rng(seed).normal(size=pol.dim))
    fmap = FeatureMap(phi_scale * make_features(critic, mdp, seed=seed).table)
    sched = StepSchedule(c_alpha=0.0) if algo == "frozen" else algo_schedule(algo)
    steps = 200
    cfg = RunConfig(mdp=mdp, policy=pol, features=fmap, schedule=sched, steps=steps,
                    metrics_every=steps, uv_radius=uv_radius, actor_radius=radius,
                    reward_noise=noise)
    seeds = [seed + i for i in range(n)]
    for seed_i, res in zip(seeds, run_batch(cfg, seeds), strict=True):
        hypothesis.assume(not isinstance(res, AvgrlError))  # a singular A(theta) at the row
        s, L, v, theta, delta_abs_mean = reference_run(
            mdp, pol, fmap, sched, steps, seed_i, uv_radius, noise, radius)
        assert (res.final.s, res.final.L) == (s, L)
        assert np.array_equal(res.final.v, v)
        assert np.array_equal(res.final.theta, theta)
        assert res.rows[-1].delta_abs_mean == delta_abs_mean


def softmax_cum_reference(logits: list) -> tuple[list, list]:
    """_softmax_cum's comprehension-and-accumulate body before its loops."""
    top = max(logits)
    e = [math.exp(z - top) for z in logits]
    *_, total = accumulate(e)
    p = [e_b / total for e_b in e]
    return p, list(accumulate(p))


# ties, spreads past 745 (exp underflows to a subnormal or to 0) and
# magnitudes up to 1e308 (z - top overflows to -inf)
_LOGIT = st.one_of(
    st.floats(-1e308, 1e308),
    st.floats(-2000.0, 2000.0),
    st.sampled_from([0.0, -0.0, 1.0, -744.5, -745.2, -746.0, 800.0, 1e308, -1e308, 5e-324]),
)


@settings(max_examples=200, deadline=None, database=None, derandomize=True)
@given(logits=st.one_of(st.lists(_LOGIT, min_size=1, max_size=9),
                        st.lists(st.sampled_from([-1.0, 0.0, 745.0]), min_size=1, max_size=9)))
def test_softmax_cum_keeps_its_bits(logits):
    # the loops take the first maximal logit, as max() does, and sum from
    # 0.0, which for the nonnegative terms is accumulate's bits
    p, cum = learner._softmax_cum(logits)
    ref_p, ref_cum = softmax_cum_reference(logits)
    assert repr(p) == repr(ref_p)
    assert repr(cum) == repr(ref_cum)
