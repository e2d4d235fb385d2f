"""Step schedules, per-step invariants of the sampled update, and run determinism."""

import ast
import copy
import dataclasses
import inspect
import json
import math
import re
import textwrap
import warnings

import numpy as np
import pytest

from avgrl.envs import GarnetSpec, build_garnet, four_state_easy, frozen_lake_4x4, tabular_policy
from avgrl import learner, metrics
from avgrl.errors import AvgrlError, Diverged, InvalidSpec, InvariantViolation, OracleFailure
from avgrl.features import FeatureMap, check_assumption2, make_features
from avgrl.learner import (
    _DRAW_BLOCK,
    ALGO_SCHEDULES,
    RunConfig,
    RunResult,
    StepSchedule,
    algo_schedule,
    resolve_uv_radius,
    run,
    run_batch,
    validate_schedule,
)
from avgrl.mdp import FiniteMdp
from avgrl.oracles import critic_fixed_point


# actor frozen at theta_0; critic and tracker on the ca clocks
FROZEN = StepSchedule(c_alpha=0.0, c_beta=1.5, nu=0.5, sigma=0.51,
                      c_gamma=1.5, gamma_exp=0.5)


class FakeReport:
    def __init__(self, bound):
        self.constants = {"ratio_bound": bound}


class TestStepSchedule:
    def test_values(self):
        sched = StepSchedule(c_alpha=1.5, c_beta=2.0, nu=0.5, sigma=0.51)
        assert sched.alpha(0) == 1.5
        assert sched.alpha(3) == 1.5 / 2.0  # (1+3)^0.5 = 2
        assert sched.beta(0) == 2.0
        assert sched.gamma(0) == 1.5  # c_gamma defaults to c_alpha
        assert sched.gamma(3) == 1.5 / 2.0

    def test_coupling_constant(self):
        sched = StepSchedule(c_alpha=1.5, c_gamma=3.0)
        assert sched.c_gamma == 3.0
        for t in (0, 5, 1000):
            assert abs(sched.gamma(t) - 2.0 * sched.alpha(t)) < 1e-15

    def test_presets(self):
        ca = algo_schedule("ca")
        assert (ca.nu, ca.sigma) == (0.5, 0.51)
        assert ca.gamma_exp == 0.5
        ac = algo_schedule("ac")
        assert (ac.nu, ac.sigma) == (0.6, 0.4)  # critic on the faster clock
        assert ac.gamma_exp == 0.4
        st = algo_schedule("stac")
        assert st.nu == st.sigma == st.gamma_exp == 0.6

    def test_exponent_range_checked(self):
        with pytest.raises(InvariantViolation):
            StepSchedule(nu=1.5, sigma=0.51)

    @pytest.mark.parametrize("field", ["c_alpha", "c_beta", "c_gamma"])
    @pytest.mark.parametrize("value", [-1.0, math.nan, math.inf])
    def test_coefficients_finite_and_nonnegative(self, field, value):
        # a NaN or infinite coefficient would step NaN iterates from t = 0
        with pytest.raises(InvariantViolation, match=f"{field} must be finite"):
            StepSchedule(**{field: value})


class TestAlgoSchedule:
    def test_defaults_on_every_field(self):
        # c = 1.5; the tracker follows nu for ca, sigma otherwise
        expected = {
            "ca": StepSchedule(c_alpha=1.5, c_beta=1.5, nu=0.5, sigma=0.51,
                               c_gamma=1.5, gamma_exp=0.5),
            "ac": StepSchedule(c_alpha=1.5, c_beta=1.5, nu=0.6, sigma=0.4,
                               c_gamma=1.5, gamma_exp=0.4),
            "stac": StepSchedule(c_alpha=1.5, c_beta=1.5, nu=0.6, sigma=0.6,
                                 c_gamma=1.5, gamma_exp=0.6),
        }
        assert set(ALGO_SCHEDULES) == set(expected)
        for algo, want in expected.items():
            assert algo_schedule(algo) == want

    def test_tracker_follows_critic(self):
        sched = algo_schedule("ac", sigma=0.45)
        assert sched.sigma == 0.45
        assert sched.gamma_exp == 0.45
        sched = algo_schedule("ca")
        assert sched.gamma_exp == sched.nu

    def test_overrides(self):
        sched = algo_schedule("ca", c_alpha=1.0, nu=0.6, sigma=0.7)
        assert (sched.c_alpha, sched.c_beta, sched.nu, sched.sigma) == (1.0, 1.5, 0.6, 0.7)
        assert sched.c_gamma == 1.0  # defaults to c_alpha
        assert sched.gamma_exp == 0.6
        assert algo_schedule("stac", c_gamma=0.75).c_gamma == 0.75
        assert algo_schedule("ac", gamma_exp=0.9).gamma_exp == 0.9

    def test_unknown_algo(self):
        with pytest.raises(InvalidSpec, match="sarsa"):
            algo_schedule("sarsa")


class TestValidateSchedule:
    def test_ca_default(self):
        # nu=0.5, sigma=0.51: 2*0.51=1.02 < 1.5 and 2*0.51-0.5=0.52 < 1 pass
        # the finite-time set, but nu = 0.5 is not > 1/2
        flags = validate_schedule(algo_schedule("ca"))
        assert flags.finite_time_ok
        assert not flags.asymptotic_ok

    def test_both_regimes(self):
        flags = validate_schedule(StepSchedule(nu=0.6, sigma=0.7))
        assert flags.finite_time_ok  # 1.4 < 1.8, 0.8 < 1
        assert flags.asymptotic_ok

    def test_wrong_ordering(self):
        flags = validate_schedule(algo_schedule("ac"))  # nu=0.6 > sigma=0.4
        assert not flags.finite_time_ok

    def test_coupling_violated(self):
        flags = validate_schedule(StepSchedule(nu=0.4, sigma=0.9))
        assert not flags.finite_time_ok  # 2*0.9 = 1.8 > 3*0.4 = 1.2
        assert not flags.asymptotic_ok

    def test_ratio_bound(self):
        sched = StepSchedule(c_alpha=1.0, c_gamma=4.0)  # ratio 0.25
        assert validate_schedule(sched, FakeReport(0.5)).ratio_ok is True
        assert validate_schedule(sched, FakeReport(0.1)).ratio_ok is False
        assert validate_schedule(sched).ratio_ok is None

    @pytest.mark.parametrize("c_alpha,c_gamma,ratio", [
        (0.0, 0.0, 0.0),  # neither the actor nor the tracker moves
        (1.0, 0.0, math.inf),
        (1.5, 0.5, 3.0),
    ])
    def test_ratio_of_coefficients(self, c_alpha, c_gamma, ratio):
        flags = validate_schedule(StepSchedule(c_alpha=c_alpha, c_gamma=c_gamma),
                                  FakeReport(0.5))
        assert flags.ratio == ratio
        assert flags.ratio_ok is (ratio < 0.5)


class TestSingleStep:
    """Per-step behaviour of the sampled update, observed through run."""

    def setup_method(self):
        self.mdp = four_state_easy()
        self.pol = tabular_policy(self.mdp)
        self.fmap = make_features("one_hot_reduced", self.mdp)
        self.sched = algo_schedule("ca")

    def run_steps(self, steps, seed, sched=None, policy=None, **kw):
        return run(RunConfig(mdp=self.mdp, policy=policy or self.pol, features=self.fmap,
                             schedule=sched or self.sched, steps=steps, **kw), seed)

    def test_hand_replay(self):
        # replay the draws with a mirrored generator and recompute the three
        # updates of the first step with plain array arithmetic; must match
        # bit for bit
        mirror = np.random.Generator(np.random.Philox(7))
        s0 = int(mirror.integers(4))
        u1, u2 = mirror.random(), mirror.random()
        p = np.array([0.5, 0.5])  # theta = 0: uniform over the two actions
        a = int(np.searchsorted(np.cumsum(p), u1, side="right"))
        s1 = int(np.searchsorted(np.cumsum(self.mdp.transition[s0, a]), u2, side="right"))
        r = self.mdp.reward[s0, a]
        L1 = self.sched.gamma(0) * r
        phi = self.fmap.table
        v0 = np.zeros(self.fmap.dim)
        delta = r + phi[s1] @ v0 - phi[s0] @ v0
        v1 = v0 + (self.sched.beta(0) * delta) * phi[s0]
        x = self.pol.action_features
        psi = x[s0, a] - p @ x[s0]
        th1 = self.pol.theta + (self.sched.alpha(0) * delta) * psi

        out = self.run_steps(1, seed=7, uv_radius=10.0).final
        assert out.t == 1
        assert out.s == s1
        assert out.L == L1
        assert np.array_equal(out.v, v1)
        assert np.array_equal(out.theta, th1)

    def test_null_step_leaves_iterates(self):
        # zero coefficients: only the sampled state advances, on the frozen
        # branch (no actor radius) and the moving one (a radius that never binds)
        sched0 = StepSchedule(c_alpha=0.0, c_beta=0.0, c_gamma=0.0)
        pol = self.pol.with_theta(np.random.default_rng(3).normal(size=self.pol.dim))
        for radius in (None, 1e9):
            out = self.run_steps(50, seed=3, sched=sched0, policy=pol, uv_radius=1.0,
                                 actor_radius=radius).final
            assert out.t == 50
            assert out.L == 0.0
            assert np.array_equal(out.v, np.zeros(self.fmap.dim))
            assert np.array_equal(out.theta, pol.theta)

    def test_step_determinism(self):
        a, b = (self.run_steps(50, seed=11, uv_radius=5.0).final for _ in range(2))
        assert a.t == b.t == 50
        assert a.s == b.s and a.L == b.L
        assert np.array_equal(a.v, b.v)
        assert np.array_equal(a.theta, b.theta)

    def test_critic_stays_in_ball(self):
        res = self.run_steps(2000, seed=5, uv_radius=0.5, metrics_every=1)
        assert len(res.rows) == 2000
        assert max(row.v_norm for row in res.rows) <= 0.5 + 1e-12

    def test_actor_radius_flag(self):
        # rows carry no theta norm, so read the final theta of runs cut at
        # every step early on and on a grid after; the run is a prefix of
        # the longest one, so these are its iterates at those steps
        for steps in [*range(1, 51), *range(100, 2001, 100)]:
            out = self.run_steps(steps, seed=5, uv_radius=5.0, actor_radius=0.3).final
            assert np.linalg.norm(out.theta) <= 0.3 + 1e-12

    def test_average_tracker_stays_bounded(self):
        # with gamma_t <= 1 throughout, L is a running convex combination of
        # rewards, so it never leaves [-U_r, U_r]
        sched = StepSchedule(c_alpha=1.5, c_beta=1.5, c_gamma=0.9)
        res = self.run_steps(3000, seed=9, sched=sched, uv_radius=5.0, metrics_every=1)
        assert len(res.rows) == 3000
        assert max(abs(row.L_t) for row in res.rows) <= self.mdp.reward_bound + 1e-12

    def test_reward_noise_respects_bound(self):
        noisy = self.run_steps(500, seed=13, uv_radius=5.0, reward_noise=0.5,
                               metrics_every=1)
        clean = self.run_steps(500, seed=13, uv_radius=5.0)
        # the trajectory differs from the noiseless one but L stays plausible
        assert noisy.final.L != clean.final.L
        assert len(noisy.rows) == 500
        assert max(abs(row.L_t) for row in noisy.rows) < 2.0


class TestRun:
    def setup_method(self):
        self.mdp = four_state_easy()
        self.pol = tabular_policy(self.mdp)
        self.fmap = make_features("one_hot_reduced", self.mdp)

    def config(self, **kw):
        base = dict(mdp=self.mdp, policy=self.pol, features=self.fmap,
                    schedule=algo_schedule("ca"), steps=2000, metrics_every=500)
        base.update(kw)
        return RunConfig(**base)

    def test_zero_steps(self):
        res = run(self.config(steps=0))
        assert res.rows == []
        assert res.final.t == 0

    def test_row_grid(self):
        res = run(self.config(steps=2200, metrics_every=500))
        assert [r.t for r in res.rows] == [500, 1000, 1500, 2000, 2200]
        ts = [r.t for r in res.rows]
        assert ts == sorted(set(ts))

    def test_default_uv_radius(self):
        cfg = self.config()
        v_star = critic_fixed_point(self.mdp, self.pol, self.fmap)
        assert resolve_uv_radius(cfg) == pytest.approx(
            max(10.0 * float(np.linalg.norm(v_star)), 1.0))

    def test_default_uv_radius_does_not_overflow(self):
        # rewards of +-1e160: v* = [2e160], whose squared norm overflows in
        # np.linalg.norm; the radius used to be inf (no critic projection) and
        # validate's U_v NaN, each with a RuntimeWarning
        mdp = FiniteMdp(np.full((2, 1, 2), 0.5), np.array([[1e160], [-1e160]]),
                        reward_bound=1e160)
        pol, fmap = tabular_policy(mdp), make_features("one_hot_reduced", mdp)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            radius = resolve_uv_radius(self.config(mdp=mdp, policy=pol, features=fmap))
            report = check_assumption2(mdp, pol, fmap)
        assert critic_fixed_point(mdp, pol, fmap).tolist() == [2e160]
        assert radius == 2e161
        assert report.constants["U_v"] == radius

    def test_frozen_branch_matches_moving_branch(self):
        # c_alpha = 0 without an actor radius takes the frozen branch (one
        # precomputed policy table); a radius that never binds forces the
        # moving branch, which recomputes the policy row every step
        mdp = frozen_lake_4x4()
        fmap = make_features("one_hot_reduced", mdp)
        pol = tabular_policy(mdp)
        pol = pol.with_theta(np.random.default_rng(3).normal(size=pol.theta.shape))
        results = [
            run(RunConfig(mdp=mdp, policy=pol, features=fmap, schedule=FROZEN,
                          steps=600, metrics_every=200, uv_radius=5.0,
                          actor_radius=radius, reward_noise=0.2), 2)
            for radius in (None, 1e9)
        ]
        frozen, moving = (
            [{k: v for k, v in dataclasses.asdict(row).items() if k != "wall_ns"}
             for row in res.rows]
            for res in results
        )
        assert len(frozen) == 3
        assert frozen == moving
        a, b = results[0].final, results[1].final
        assert (a.t, a.s, a.L) == (b.t, b.s, b.L)
        assert np.array_equal(a.v, b.v)
        assert np.array_equal(a.theta, b.theta)
        assert np.array_equal(a.theta, pol.theta)

    def test_same_seed_same_rows(self):
        r1 = run(self.config())
        r2 = run(self.config())
        assert len(r1.rows) == len(r2.rows) == 4
        for a, b in zip(r1.rows, r2.rows):
            assert a.t == b.t
            for name in ("L_t", "L_theta", "avg_err_sq", "critic_err_sq",
                         "M_norm_sq", "v_norm", "delta_abs_mean"):
                assert getattr(a, name) == getattr(b, name)
        a, b = r1.final, r2.final
        assert (a.s, a.L) == (b.s, b.L)
        assert np.array_equal(a.v, b.v)
        assert np.array_equal(a.theta, b.theta)

    def test_tail_average(self):
        cfg = self.config(steps=1000, tail_average_from=500, uv_radius=5.0)
        res = run(cfg)
        assert res.v_tail_avg is not None
        assert np.linalg.norm(res.v_tail_avg) <= 5.0 + 1e-12

    def test_config_validation(self):
        with pytest.raises(InvariantViolation):
            self.config(steps=-1)
        # numpy's generators take no negative seed
        with pytest.raises(InvariantViolation, match="seed must be nonnegative, got -1"):
            run(self.config(), seed=-1)
        with pytest.raises(InvariantViolation, match="seed must be nonnegative, got -1"):
            run_batch(self.config(), [0, -1])
        for radius in (0.0, -1.0, math.nan):
            with pytest.raises(InvariantViolation, match="uv must be positive"):
                self.config(uv_radius=radius)

    def test_problem_shapes_must_match_the_mdp(self):
        # a 3-state map on four-state used to raise IndexError inside the kernel
        with pytest.raises(InvariantViolation, match="feature map has 3 states, the MDP 4"):
            self.config(features=FeatureMap(np.eye(3, 2)))
        garnet = build_garnet(GarnetSpec(n_states=4, n_actions=3, branching=2, seed=0))
        with pytest.raises(InvariantViolation, match=r"policy takes \(S, A\) = \(4, 3\)"):
            self.config(policy=tabular_policy(garnet))

    @pytest.mark.parametrize("field,value", [
        ("actor_radius", -1.0),  # the projection would reflect theta
        ("actor_radius", 0.0),  # ... or pin it at 0
        ("reward_noise", -1.0),  # the kernels would switch the noise off
        ("reward_noise", math.inf),  # every reward would be clipped to +-reward_bound
        ("reward_noise", math.nan),
        ("tail_average_from", -1),
    ])
    def test_algorithm_changing_parameters_rejected(self, field, value):
        with pytest.raises(InvariantViolation, match=field):
            self.config(**{field: value})

    def test_expanding_tracker_rejected(self):
        # c_gamma <= 2 keeps |1 - gamma_t| <= 1 for every t
        self.config(schedule=algo_schedule("ca", c_alpha=2.0))
        with pytest.raises(InvariantViolation, match="c_gamma"):
            self.config(schedule=algo_schedule("ca", c_alpha=50.0))
        with pytest.raises(InvariantViolation, match="c_gamma"):
            self.config(schedule=StepSchedule(c_alpha=0.0, c_gamma=2.5))


def left_to_right(terms):
    """The terms summed left to right from 0.0 (the builtin sum compensates
    from Python 3.12 on)."""
    total = 0.0
    for term in terms:
        total += term
    return total


def dot(a, b):
    return left_to_right(float(a_i) * float(b_i) for a_i, b_i in zip(a, b))


def reference_run(mdp, pol, fmap, sched, steps, seed, uv_radius,
                  reward_noise, actor_radius):
    """The update equations of the learner docstring, stepped plainly in the
    kernel's arithmetic (libm's exp, every sum left to right): draws by
    np.searchsorted on freshly summed rows, the policy row recomputed and
    every ball tested each step.  Returns the final (s, L, v, theta) and the
    mean |delta|."""
    rng = np.random.Generator(np.random.Philox(seed))
    s = int(rng.integers(mdp.n_states))
    L, v, theta = 0.0, np.zeros(fmap.dim), np.array(pol.theta, dtype=float)
    x, phi = pol.action_features, fmap.table
    abs_delta_sum = 0.0
    for t in range(steps):
        logits = [dot(x_b, theta) for x_b in x[s]]
        e = [math.exp(z - max(logits)) for z in logits]
        p = [e_b / left_to_right(e) for e_b in e]
        a = min(int(np.searchsorted(np.cumsum(p), rng.random(), side="right")),
                mdp.n_actions - 1)
        s1 = min(int(np.searchsorted(np.cumsum(mdp.transition[s, a]), rng.random(),
                                     side="right")),
                 mdp.n_states - 1)
        r = mdp.reward[s, a]
        if reward_noise > 0.0:
            r = r + reward_noise * (2.0 * rng.random() - 1.0)
            r = min(max(r, -mdp.reward_bound), mdp.reward_bound)
        delta = r - L + dot(phi[s1], v) - dot(phi[s], v)
        L = L + sched.gamma(t) * (r - L)
        v = v + (sched.beta(t) * delta) * phi[s]
        if dot(v, v) > uv_radius * uv_radius:
            v = v * (uv_radius / math.sqrt(dot(v, v)))
        mean_x = np.array([dot(p, x_c) for x_c in x[s].T])
        theta = theta + (sched.alpha(t) * delta) * (x[s, a] - mean_x)
        if actor_radius is not None and dot(theta, theta) > actor_radius * actor_radius:
            theta = theta * (actor_radius / math.sqrt(dot(theta, theta)))
        abs_delta_sum += abs(delta)
        s = s1
    return s, L, v, theta, abs_delta_sum / steps


REFERENCE_CASES = [
    (algo, noise, radius, 300)
    for algo in ALGO_SCHEDULES for noise in (0.0, 0.3) for radius in (None, 0.5)
] + [("frozen", 0.0, None, 300), ("frozen", 0.3, None, 300),
     # one metrics window across a _DRAW_BLOCK segment cap pins the |delta| sum order
     ("ca", 0.3, None, _DRAW_BLOCK + 76), ("frozen", 0.3, None, _DRAW_BLOCK + 76)]
REFERENCE_IDS = ["-".join(map(str, case[:3] if case[3] == 300 else case))
                 for case in REFERENCE_CASES]


@pytest.mark.parametrize("algo,noise,radius,steps", REFERENCE_CASES, ids=REFERENCE_IDS)
def test_run_matches_reference_stepper(algo, noise, radius, steps):
    # run, a 3-seed run_batch and an 8-seed one, each seed against the plain
    # stepper
    mdp = four_state_easy()
    pol = tabular_policy(mdp)
    fmap = make_features("one_hot_reduced", mdp)
    sched = FROZEN if algo == "frozen" else algo_schedule(algo)
    cfg = RunConfig(mdp=mdp, policy=pol, features=fmap, schedule=sched,
                    steps=steps, metrics_every=steps, uv_radius=5.0,
                    actor_radius=radius, reward_noise=noise)
    single = run(cfg, 5)
    results = [(5, single)]
    for seeds in (range(5, 8), range(5, 13)):
        results += zip(seeds, run_batch(cfg, list(seeds)), strict=True)
    expected = {seed: reference_run(mdp, pol, fmap, sched, steps, seed, 5.0, noise, radius)
                for seed in range(5, 13)}
    for seed, res in results:
        s, L, v, theta, delta_abs_mean = expected[seed]
        assert len(res.rows) == 1
        assert (res.final.s, res.final.L) == (s, L)
        assert np.array_equal(res.final.v, v)
        assert np.array_equal(res.final.theta, theta)
        assert res.rows[-1].delta_abs_mean == delta_abs_mean
    if radius is not None:  # the radius binds at seed 5, so the projection is exercised
        assert abs(np.linalg.norm(single.final.theta) - radius) < 1e-12


@pytest.mark.parametrize("algo,noise,radius,steps", REFERENCE_CASES, ids=REFERENCE_IDS)
def test_one_hot_branch_matches_dense_branch(monkeypatch, algo, noise, radius, steps):
    # the tabular policy and one_hot_reduced features take the one-hot branch
    # of the stepper; with its detection off they take the dense one
    mdp = four_state_easy()
    pol = tabular_policy(mdp)
    fmap = make_features("one_hot_reduced", mdp)
    assert learner._action_columns(pol.action_features) is not None
    assert learner._unit_columns(fmap.table) is not None
    sched = FROZEN if algo == "frozen" else algo_schedule(algo)
    cfg = RunConfig(mdp=mdp, policy=pol, features=fmap, schedule=sched, steps=steps,
                    metrics_every=100, uv_radius=5.0, actor_radius=radius,
                    reward_noise=noise)
    one_hot = run(cfg, 5)
    monkeypatch.setattr(learner, "_unit_columns", lambda table: None)
    dense = run(cfg, 5)
    assert len(dense.rows) == -(-steps // 100)
    assert without_wall(one_hot.rows) == without_wall(dense.rows)
    a, b = one_hot.final, dense.final
    assert (a.s, a.L) == (b.s, b.L)
    assert np.array_equal(a.v, b.v)
    assert np.array_equal(a.theta, b.theta)


def test_eight_tabular_actions_match_reference_stepper():
    # numpy sums 8 or more entries pairwise; the kernel sums left to right at
    # any A, so at A = 8 too a moving tabular actor equals the plain stepper
    mdp = build_garnet(GarnetSpec(n_states=3, n_actions=8, branching=2, seed=4))
    pol = tabular_policy(mdp)
    pol = pol.with_theta(np.random.default_rng(4).normal(size=pol.dim))
    fmap = make_features("one_hot_reduced", mdp)
    assert learner._action_columns(pol.action_features) is not None
    for noise, radius in [(0.0, None), (0.3, 1.0)]:
        cfg = RunConfig(mdp=mdp, policy=pol, features=fmap, schedule=algo_schedule("ca"),
                        steps=600, metrics_every=600, uv_radius=5.0,
                        actor_radius=radius, reward_noise=noise)
        res = run(cfg, 9)
        s, L, v, theta, delta_abs_mean = reference_run(
            mdp, pol, fmap, cfg.schedule, 600, 9, 5.0, noise, radius)
        assert (res.final.s, res.final.L) == (s, L)
        assert np.array_equal(res.final.v, v)
        assert np.array_equal(res.final.theta, theta)
        assert res.rows[-1].delta_abs_mean == delta_abs_mean


def numpy_and_sum_calls(func):
    """(line, text) of each np./numpy. use and builtin sum call in the bodies
    of func's inner functions, or in func's whole body when it has none."""
    tree = ast.parse(textwrap.dedent(inspect.getsource(func))).body[0]
    inner = [node for node in ast.walk(tree)
             if isinstance(node, (ast.FunctionDef, ast.Lambda)) and node is not tree]
    found = []
    for scope in inner or [tree]:
        for node in ast.walk(scope):
            numpy_use = (isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name)
                         and node.value.id in ("np", "numpy"))
            sum_call = (isinstance(node, ast.Call) and isinstance(node.func, ast.Name)
                        and node.func.id == "sum")
            if numpy_use or sum_call:
                found.append((node.lineno, ast.unparse(node)))
    return found


def test_step_loop_runs_on_python_floats():
    # no numpy call in the segment stepper, whose bits would follow numpy's
    # SIMD dispatch or the OpenBLAS core, and no builtin sum, which compensates
    # from Python 3.12 on; the same holds for the helpers it calls
    for func in (learner._make_step, learner._softmax_cum, learner._dot, learner._decay):
        assert numpy_and_sum_calls(func) == [], func.__name__
    source = inspect.getsource(learner._make_step)
    assert "def advance(" in source and "def ball_test(" in source
    # a comprehension builds a function object and a frame per call before
    # Python 3.12 (PEP 709), which cost the moving step's softmax half its time
    tree = ast.parse(textwrap.dedent(inspect.getsource(learner._softmax_cum)))
    comprehensions = (ast.ListComp, ast.SetComp, ast.DictComp, ast.GeneratorExp)
    assert [ast.unparse(node) for node in ast.walk(tree)
            if isinstance(node, comprehensions)] == []


@pytest.mark.parametrize("table,expected", [
    ([[0.0, 1.0, 0.0], [0.0, 0.0, 0.0], [1.0, 0.0, 0.0]], [1, -1, 0]),
    ([[0.0, 0.5, 0.0], [1.0, 0.0, 0.0]], None),
    ([[0.0, 2.0, 0.0], [1.0, 0.0, 0.0]], None),
    ([[0.0, -1.0, 0.0], [1.0, 0.0, 0.0]], None),
    ([[0.0, 1.0, 1.0], [1.0, 0.0, 0.0]], None),
    ([[0.0, 1.0, math.nan], [1.0, 0.0, 0.0]], None),
])
def test_unit_columns(table, expected):
    cols = learner._unit_columns(np.array(table))
    assert (cols is None) if expected is None else cols.tolist() == expected


@pytest.mark.parametrize("edit,one_hot", [
    (None, True),
    (lambda x: x.__setitem__((1, 0, 2), 0.5), False),
    (lambda x: x.__setitem__((1, 0, 2), 2.0), False),
    (lambda x: x.__setitem__((1, 0, 2), -1.0), False),
    (lambda x: x.__setitem__((1, 0, 0), 1.0), False),  # two nonzeros in x[1, 0]
    (lambda x: x.__setitem__((1, 0, 2), 0.0), False),  # a zero row
    (lambda x: x.__setitem__((1, 1), x[1, 0]), False),  # a column repeated within state 1
])
def test_action_columns(edit, one_hot):
    x = np.array(tabular_policy(four_state_easy()).action_features)
    if edit is not None:
        edit(x)
    cols = learner._action_columns(x)
    if one_hot:
        assert cols.tolist() == np.argmax(x, axis=2).tolist()
    else:
        assert cols is None


def make_stepper(mdp, pol, fmap, sched, uv_radius, actor_radius=None):
    """_make_step of a config of these, with the critic radius uv_radius."""
    cfg = RunConfig(mdp=mdp, policy=pol, features=fmap, schedule=sched, steps=0,
                    actor_radius=actor_radius)
    return learner._make_step(cfg, uv_radius)


def seed_record(theta, v, u, L=0.0, s=0):
    """A stepper record at these iterates with the segment's draws u, and no
    generator or tail."""
    return learner._Seed(rng=None, s=s, L=L, v=v, theta=theta, tail=None, u=u)


def record_state(seed):
    """theta, v, L, s and the |delta| sum of a record."""
    return seed.theta, seed.v, seed.L, seed.s, seed.delta_sum


@pytest.mark.parametrize("one_hot", [True, False])
def test_radial_unlikely_action_is_projected(monkeypatch, one_hot):
    # one state, two actions, theta = (t, -t) just inside the actor radius:
    # the unlikely action 1 with a negative reward moves theta straight out by
    # alpha |delta| ||psi||, and ||psi|| = sqrt 2 pi(0) exceeds 1, so a skip
    # bound that takes ||psi|| <= 1 would leave theta outside the ball
    mdp = FiniteMdp(np.ones((1, 2, 1)), np.array([[0.0, -1.0]]), reward_bound=1.0)
    sched, radius = algo_schedule("ca"), 4.0
    step = sched.alpha(1)  # delta is -1 at step 1: step 0 takes action 0 at L = 0
    t = (radius - 1.2 * step) / math.sqrt(2.0)
    pol = tabular_policy(mdp, np.array([t, -t]))
    psi = pol.action_features[0, 1] - pol.prob_table()[0] @ pol.action_features[0]
    assert np.linalg.norm(psi) > 1.2
    if not one_hot:
        monkeypatch.setattr(learner, "_action_columns", lambda x: None)
    advance = make_stepper(mdp, pol, FeatureMap(np.ones((1, 1))), sched, 5.0, radius)
    seed = seed_record(pol.theta.tolist(), [0.0], [0.0, 0.5, 0.999, 0.5])  # actions 0, then 1
    advance(0, 2, [seed], False)
    assert seed.error is None
    assert abs(np.linalg.norm(seed.theta) - radius) < 1e-12


def test_huge_critic_radius_projects():
    # at uv_radius 1e160 the squared radius is inf; v = (1e180, 0, 0) has an
    # inf squared norm too, and used to pass the ball test unprojected
    mdp = four_state_easy()
    pol, fmap, radius = tabular_policy(mdp), make_features("one_hot_reduced", mdp), 1e160
    assert radius * radius == math.inf
    advance = make_stepper(mdp, pol, fmap, FROZEN, radius)
    seed = seed_record(pol.theta.tolist(), [1e180, 0.0, 0.0], [0.3, 0.6] * 3)
    advance(0, 3, [seed], False)
    assert seed.error is None
    assert math.hypot(*seed.v) <= radius * (1.0 + 1e-12)
    assert seed.v[0] > 0.9 * radius


def diverging_configs(kind):
    mdp = four_state_easy()
    sched = {"critic": algo_schedule("ca", c_beta=1e300),
             "actor": algo_schedule("ca", c_alpha=1e300, c_gamma=1.5)}[kind]
    pol = tabular_policy(mdp)
    features = [make_features(name, mdp) for name in ("one_hot_reduced", "tabular_centered")]
    return [RunConfig(mdp=mdp, policy=pol, features=fmap, schedule=sched,
                      steps=200, metrics_every=50, uv_radius=5.0, actor_radius=1.0)
            for fmap in features]


@pytest.mark.parametrize("kind,coef", [("critic", "c_beta"), ("actor", "c_alpha")])
@pytest.mark.parametrize("n", [1, 3, 8])
def test_overflow_gives_diverged(kind, coef, n):
    # an overflowing squared norm used to scale the iterate by 0; the kernel,
    # on the one-hot and the dense branch and at any batch size, refuses it
    # instead
    pattern = (rf"{kind} diverged at step \d+: its squared norm is (inf|nan); "
               rf"lower {coef} \(now 1e\+300\)")
    for cfg in diverging_configs(kind):
        with np.errstate(over="ignore", invalid="ignore"):
            if n == 1:
                with pytest.raises(Diverged) as err:
                    run(cfg)
                results = [err.value]
            else:
                results = run_batch(cfg, list(range(n)))
        assert len(results) == n
        for res in results:
            assert isinstance(res, Diverged)
            assert re.fullmatch(pattern, str(res))


def nan_kernel_inputs(iterate, draws, nan_row):
    """advance on four-state and a record per flat list of draws, at zero
    iterates but the first entry of record nan_row's critic or actor, a NaN."""
    mdp = four_state_easy()
    pol = tabular_policy(mdp)
    cfg = RunConfig(mdp=mdp, policy=pol, features=make_features("one_hot_reduced", mdp),
                    schedule=algo_schedule("ca"), steps=0, actor_radius=1.0)
    seeds = [seed_record([0.0] * pol.dim, [0.0] * 3, u, s=i % mdp.n_states)
             for i, u in enumerate(draws)]
    (seeds[nan_row].v if iterate == "critic" else seeds[nan_row].theta)[0] = math.nan
    return learner._make_step(cfg, 5.0), seeds


def flat_draws(u):
    """u[i, j, n], seed n's j-th draw of step i, as the kernel's flat list per seed."""
    return [u[:, :, n].ravel().tolist() for n in range(u.shape[2])]


@pytest.mark.parametrize("iterate", ["critic", "actor"])
def test_nan_iterate_reports_diverged(iterate):
    # NaN <= r * r is false, as is NaN > r * r: a NaN must not skip the check
    advance, seeds = nan_kernel_inputs(iterate, [[0.5] * 10], 0)
    with np.errstate(invalid="ignore"):
        advance(0, 5, seeds, False)
    assert isinstance(seeds[0].error, Diverged)
    assert str(seeds[0].error).startswith(f"{iterate} diverged at step 0: its squared norm is nan")


def nan_segment_and_solo_runs(iterate):
    """The 3 records of a 5-step segment whose row 1 holds a NaN, after the
    segment, and each record after running the same segment alone."""
    draws = flat_draws(np.random.default_rng(3).random((5, 2, 3)))
    advance, seeds = nan_kernel_inputs(iterate, draws, 1)
    solo = copy.deepcopy(seeds)
    with np.errstate(invalid="ignore"):
        advance(0, 5, seeds, False)
        for alone in solo:
            advance(0, 5, [alone], False)
    return seeds, solo


@pytest.mark.parametrize("iterate", ["critic", "actor"])
def test_nan_row_leaves_the_other_rows(iterate):
    # row 1 is reported alone, as it is when it runs alone, and ends as it
    # does alone
    seeds, solo = nan_segment_and_solo_runs(iterate)
    assert [seed.error is None for seed in seeds] == [True, False, True]
    assert str(seeds[1].error).startswith(f"{iterate} diverged at step 0: its squared norm is nan")
    assert str(solo[1].error) == str(seeds[1].error)
    for a, b in zip(record_state(seeds[1]), record_state(solo[1])):
        assert np.array_equal(a, b, equal_nan=True)


@pytest.mark.parametrize("iterate", ["critic", "actor"])
def test_scalar_kernel_steps_every_row(iterate):
    # row 1 stops at step 0; rows 0 and 2 run the whole segment, each as alone
    seeds, solo = nan_segment_and_solo_runs(iterate)
    assert [seed.error is None for seed in seeds] == [True, False, True]
    for i in (0, 2):
        assert solo[i].error is None
        for a, b in zip(record_state(seeds[i]), record_state(solo[i])):
            assert np.array_equal(a, b)


def two_failures_and_a_survivor():
    """advance and 3 records at steps 3 .. 8 on four-state: seed 0's huge L
    overflows its critic at step 3; seed 1 walks 0 -> 1 -> 2, and at step 4
    v[2] = 1e10 makes a delta whose actor step (c_alpha = 1e150) overflows
    theta; seed 2 keeps to the balls, its theta projected most steps."""
    mdp = four_state_easy()
    pol = tabular_policy(mdp)
    advance = make_stepper(mdp, pol, make_features("one_hot_reduced", mdp),
                           StepSchedule(c_alpha=1e150, c_gamma=1.5), 1e11, actor_radius=1.0)
    # draws per step: (action, next state); 0.75 then 0.5 takes action 1 and its likeliest
    # next state, 0 -> 1 -> 2
    seeds = [seed_record([0.0] * pol.dim, [0.0] * 3, [0.5] * 12, L=1e300),
             seed_record([0.0] * pol.dim, [0.0, 0.0, 1e10], [0.75, 0.5] * 6),
             seed_record([0.1 * i for i in range(pol.dim)], [0.1, -0.2, 0.3],
                         np.random.default_rng(4).random(12).tolist(), L=0.2, s=2)]
    return advance, seeds


def test_seed_major_failures_equal_solo_segments():
    advance, seeds = two_failures_and_a_survivor()
    solo, pair = copy.deepcopy(seeds), copy.deepcopy(seeds[:2])
    advance(3, 9, seeds, False)
    assert [seed.error is None for seed in seeds] == [False, False, True]
    assert str(seeds[0].error).startswith("critic diverged at step 3: its squared norm is inf")
    assert str(seeds[1].error).startswith("actor diverged at step 4: its squared norm is inf")
    # a failed seed keeps L_{t+1}, v and theta of its failing step, and s_t
    failed = seeds[:2]
    assert [(seed.s, seed.L, seed.delta_sum) for seed in failed] == [
        (0, 1e300 + 0.75 * (0.0 - 1e300), 0.0), (1, 0.0, 0.0)]
    assert learner._dot(failed[0].v, failed[0].v) == math.inf
    assert failed[1].v[:2] == [0.0, 1.5 / 5 ** 0.51 * 1e10]
    assert failed[0].theta == [0.0] * 8
    assert learner._dot(failed[1].theta, failed[1].theta) == math.inf
    assert seeds[2].theta != solo[2].theta  # the survivor's theta moved
    for seed, alone in zip(seeds, solo):
        advance(3, 9, [alone], False)
        assert str(alone.error) == str(seed.error)
        assert record_state(alone) == record_state(seed)
    # with every seed failing, in the other order
    advance(3, 9, pair[::-1], False)
    for seed, alone in zip(seeds, pair):
        assert str(alone.error) == str(seed.error)
        assert record_state(alone) == record_state(seed)


def without_wall(rows):
    return [{k: v for k, v in dataclasses.asdict(row).items() if k != "wall_ns"}
            for row in rows]


# Each case runs N seeds of one config through run_batch; every seed must equal
# run() of that config and seed.  Steps default to two _DRAW_BLOCK segment caps
# plus a remainder.
BATCH_CASES = {
    "ca": dict(schedule=algo_schedule("ca")),
    "ac-noise": dict(schedule=algo_schedule("ac"), reward_noise=0.3),
    "stac-actor-radius": dict(schedule=algo_schedule("stac"), actor_radius=0.05),
    "frozen-tail": dict(schedule=FROZEN, tail_average_from=700),
    "frozen-noise-critic-ball": dict(schedule=FROZEN, reward_noise=0.3, uv_radius=0.05),
    "zero-steps": dict(schedule=algo_schedule("ac"), steps=0),
}


class TestRunBatch:
    def setup_method(self):
        self.mdp = frozen_lake_4x4()
        self.pol = tabular_policy(self.mdp)
        self.fmap = make_features("one_hot_reduced", self.mdp)

    def config(self, **kw):
        base = dict(mdp=self.mdp, policy=self.pol, features=self.fmap,
                    schedule=algo_schedule("ca"), steps=2 * _DRAW_BLOCK + 77, metrics_every=500)
        base.update(kw)
        return RunConfig(**base)

    @staticmethod
    def seeds(n):
        return list(range(10, 10 + n))

    def assert_matches_run(self, cfg, seed, res):
        ref = run(cfg, seed)
        assert isinstance(res, RunResult)
        assert without_wall(res.rows) == without_wall(ref.rows)
        assert res.final == ref.final  # t, s, L, v, theta and the generator's position
        assert res.uv_radius == ref.uv_radius
        if ref.v_tail_avg is None:
            assert res.v_tail_avg is None
        else:
            assert np.array_equal(res.v_tail_avg, ref.v_tail_avg)

    @pytest.mark.parametrize("n", [1, 2, 3, 8, 10])
    @pytest.mark.parametrize("case", list(BATCH_CASES))
    def test_each_seed_matches_run(self, case, n):
        cfg, seeds = self.config(**BATCH_CASES[case]), self.seeds(n)
        results = run_batch(cfg, seeds)
        assert len(results) == n
        for seed, res in zip(seeds, results):
            self.assert_matches_run(cfg, seed, res)
        if cfg.steps:
            assert [r.t for r in results[0].rows] == [500, 1000, 1500, 2000, 2125]

    def count_kernel_builds(self, monkeypatch):
        real, built = learner._make_step, []

        def counting(*args):
            built.append(args)
            return real(*args)

        monkeypatch.setattr(learner, "_make_step", counting)
        return built

    def test_frozen_batch_builds_one_kernel(self, monkeypatch):
        # one build of the one kernel serves the whole batch
        built = self.count_kernel_builds(monkeypatch)
        cfg, seeds = self.config(schedule=FROZEN, reward_noise=0.3), self.seeds(8)
        results = run_batch(cfg, seeds)
        assert len(built) == 1
        for seed, res in zip(seeds, results, strict=True):
            self.assert_matches_run(cfg, seed, res)  # run itself is the N = 1 case

    @pytest.mark.parametrize("case", ["ca", "ac-noise", "stac-actor-radius"])
    def test_moving_batch_builds_one_kernel(self, monkeypatch, case):
        # a moving batch of any size, 7 seeds here, steps in the one kernel,
        # built once for the batch
        built = self.count_kernel_builds(monkeypatch)
        cfg, seeds = self.config(**BATCH_CASES[case]), self.seeds(7)
        results = run_batch(cfg, seeds)
        assert len(built) == 1
        for seed, res in zip(seeds, results, strict=True):
            self.assert_matches_run(cfg, seed, res)

    def test_projections_bind(self):
        # the actor-radius and critic-ball cases above reach their radius
        res = run_batch(self.config(**BATCH_CASES["stac-actor-radius"]), self.seeds(3))
        norms = [np.linalg.norm(r.final.theta) for r in res]
        assert max(norms) == pytest.approx(0.05, abs=1e-12)
        res = run_batch(self.config(**BATCH_CASES["frozen-noise-critic-ball"]), self.seeds(3))
        norms = [row.v_norm for r in res for row in r.rows]
        assert max(norms) == pytest.approx(0.05, abs=1e-12)

    def test_empty_batch(self):
        assert run_batch(self.config(), []) == []

    def test_row_failure_drops_only_that_seed(self, monkeypatch):
        cfg, seeds = self.config(steps=1500), self.seeds(3)
        clean = [run(cfg, seed) for seed in seeds]
        target = clean[1].rows[1]  # seed 11's row at step 1000
        real = metrics.exact_metrics_row

        def flaky(*args, **kw):
            if kw["t"] == target.t and kw["delta_abs_mean"] == target.delta_abs_mean:
                raise OracleFailure("A(theta) is singular")
            return real(*args, **kw)

        monkeypatch.setattr(metrics, "exact_metrics_row", flaky)
        with pytest.raises(OracleFailure) as expected:
            run(cfg, seeds[1])
        results = run_batch(cfg, seeds)
        assert isinstance(results[1], OracleFailure)
        assert str(results[1]) == str(expected.value)
        assert str(results[1]) == "exact metrics failed at step 1000: A(theta) is singular"
        for i in (0, 2):
            assert without_wall(results[i].rows) == without_wall(clean[i].rows)
            assert np.array_equal(results[i].final.theta, clean[i].final.theta)
            assert results[i].final.rng == clean[i].final.rng

    def test_diverged_and_failed_row_leave_the_others(self, monkeypatch):
        # seed 3's actor overflows at step 1 and seed 5's row at step 150
        # fails; every other seed, stepped around both, equals its run()
        mdp = four_state_easy()
        pol, fmap = tabular_policy(mdp), make_features("one_hot_reduced", mdp)
        cfg = RunConfig(mdp=mdp, policy=pol, features=fmap, steps=300,
                        schedule=algo_schedule("ca", c_alpha=1e154, c_gamma=1.5),
                        metrics_every=50, uv_radius=5.0, actor_radius=1.0)
        target = run(cfg, 5).rows[2]
        real = metrics.exact_metrics_row

        def flaky(*args, **kw):
            if kw["t"] == target.t and kw["delta_abs_mean"] == target.delta_abs_mean:
                raise OracleFailure("A(theta) is singular")
            return real(*args, **kw)

        monkeypatch.setattr(metrics, "exact_metrics_row", flaky)
        results = run_batch(cfg, list(range(8)))
        assert str(results[3]).startswith("actor diverged at step 1: ")
        assert str(results[5]) == "exact metrics failed at step 150: A(theta) is singular"
        for seed, res in enumerate(results):
            if seed in (3, 5):
                with pytest.raises(AvgrlError) as expected:
                    run(cfg, seed)
                assert type(res) is type(expected.value)
                assert str(res) == str(expected.value)
            else:
                self.assert_matches_run(cfg, seed, res)

    @pytest.mark.parametrize("overrides,every,diverge", [
        (dict(c_beta=1e154), 100, [1, 2, 3, 4, 5, 7]),
        # seed 3's actor overflows at step 1, just before a row
        (dict(c_alpha=1e154, c_gamma=1.5, actor_radius=1.0), 2, [3]),
    ])
    def test_diverged_seed_drops_only_that_seed(self, monkeypatch, overrides, every, diverge):
        # near the overflow threshold divergence depends on the sampled path;
        # the seeds that stay finite keep their rows whatever the batch
        radius = overrides.pop("actor_radius", None)
        mdp = four_state_easy()
        pol, fmap = tabular_policy(mdp), make_features("one_hot_reduced", mdp)
        cfg = RunConfig(mdp=mdp, policy=pol, features=fmap, steps=300,
                        schedule=algo_schedule("ca", **overrides), metrics_every=every,
                        uv_radius=5.0, actor_radius=radius)
        real, solved = metrics.exact_metrics_row, []

        def counting(*args, **kw):
            solved.append(kw["t"])
            return real(*args, **kw)

        with np.errstate(over="ignore", invalid="ignore"):
            monkeypatch.setattr(metrics, "exact_metrics_row", counting)
            results = run_batch(cfg, list(range(8)))
            monkeypatch.undo()
            # no row is solved for a seed that diverged before it
            assert len(solved) == sum(len(r.rows) for r in results if isinstance(r, RunResult))
            for seed, res in enumerate(results):
                if seed in diverge:
                    with pytest.raises(Diverged) as expected:
                        run(cfg, seed)
                    assert isinstance(res, Diverged)
                    assert str(res) == str(expected.value)
                else:
                    self.assert_matches_run(cfg, seed, res)


def draw_block_config(case):
    """(config, seeds) of a draw-block case."""
    mdp = four_state_easy()
    base = dict(mdp=mdp, policy=tabular_policy(mdp), features=make_features("one_hot_reduced", mdp),
                uv_radius=5.0)
    if case == "frozen":
        return RunConfig(schedule=FROZEN, steps=2100, metrics_every=300,
                         tail_average_from=1500, **base), [5]
    if case == "moving-noise":  # k = 3 draws a step
        return RunConfig(schedule=algo_schedule("ca"), steps=2100, metrics_every=300,
                         reward_noise=0.3, actor_radius=0.5, **base), [5]
    # seed 3's actor overflows at step 1, inside its draw block unless the block
    # is one step; the other seeds step on to the end
    sched = algo_schedule("ca", c_alpha=1e154, c_gamma=1.5)
    return RunConfig(schedule=sched, steps=300, metrics_every=50, actor_radius=1.0,
                     **base), list(range(8))


@pytest.mark.parametrize("block", [1, 7, 1000])
@pytest.mark.parametrize("case", ["frozen", "moving-noise", "batch-one-leaves"])
def test_draw_block_size_leaves_runs_unchanged(monkeypatch, case, block):
    # a step's draws sit at their offset in the seed's flat block whatever the
    # block size, so rows, final states and errors equal the default block's
    cfg, seeds = draw_block_config(case)
    with np.errstate(over="ignore", invalid="ignore"):
        expected = run_batch(cfg, seeds)
        monkeypatch.setattr(learner, "_DRAW_BLOCK", block)
        results = run_batch(cfg, seeds)
    if case == "batch-one-leaves":
        assert str(expected[3]).startswith("actor diverged at step 1: ")
    for res, ref in zip(results, expected, strict=True):
        if isinstance(ref, AvgrlError):
            assert type(res) is type(ref) and str(res) == str(ref)
            continue
        assert without_wall(res.rows) == without_wall(ref.rows)
        assert res.final == ref.final  # t, s, L, v, theta and the generator's position
        assert (res.v_tail_avg is None) == (ref.v_tail_avg is None)
        if ref.v_tail_avg is not None:
            assert np.array_equal(res.v_tail_avg, ref.v_tail_avg)


@pytest.mark.parametrize("noise", [0.0, 0.3])
def test_final_rng_is_the_position_after_k_uniforms_a_step(noise):
    # a seed's generator draws its initial state, then k uniforms a step (k = 2,
    # 3 with reward noise) however segments and rows cut them: its final
    # position is that of one integers call and one random call.  Rows every
    # 1500 steps and the _DRAW_BLOCK cap cut 2500 steps at 1024 and 1500
    mdp = four_state_easy()
    steps, k = 2500, 3 if noise else 2
    cfg = RunConfig(mdp=mdp, policy=tabular_policy(mdp),
                    features=make_features("one_hot_reduced", mdp),
                    schedule=algo_schedule("ca"), steps=steps, metrics_every=1500,
                    uv_radius=5.0, reward_noise=noise)
    assert 1500 > _DRAW_BLOCK
    results = [(5, run(cfg, 5)), *zip(range(5, 8), run_batch(cfg, [5, 6, 7]), strict=True)]
    for seed, res in results:
        assert [row.t for row in res.rows] == [1500, 2500]
        rng = np.random.Generator(np.random.Philox(seed))
        rng.integers(mdp.n_states)
        rng.random(k * steps)
        expected = rng.bit_generator.state
        expected["state"] = {key: val.tolist() for key, val in expected["state"].items()}
        expected["buffer"] = expected["buffer"].tolist()
        assert res.final.rng == expected
        # plain values only (no array, no Generator): the snapshot writes as JSON
        json.dumps(dataclasses.asdict(res.final), allow_nan=False)
