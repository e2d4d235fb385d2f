"""Cross-validation of the exact oracles against one another.

The load-bearing checks here are the dual routes: the critic residual computed
from the Bellman operator must match the expected sampled increment computed
from the triple sum, and the actor field must decompose exactly into the true
gradient plus the independently expanded bias term.
"""

import warnings

import numpy as np
import pytest

from avgrl.envs import (
    GarnetSpec,
    build_garnet,
    four_state_easy,
    frozen_lake_4x4,
    tabular_policy,
)
from avgrl.errors import BudgetExceeded, InvalidSpec, PeriodicChain, SingularA
from avgrl.features import FeatureMap, make_features, matrix_A
from avgrl.learner import algo_schedule
from avgrl.mdp import FiniteMdp, differential_value, policy_gradient
from avgrl.oracles import (
    MixingProfile,
    actor_bias,
    actor_field_M,
    brute_force_optimum,
    critic_fixed_point,
    estimate_mixing,
    expected_critic_drift,
    lp_optimum,
    projected_bellman_residual,
)


def garnet_instance(seed, n_states=5, n_actions=3, d1=3):
    mdp = build_garnet(GarnetSpec(n_states=n_states, n_actions=n_actions,
                                  branching=3, seed=seed, epsilon=0.05))
    rng = np.random.default_rng(seed + 1000)
    pol = tabular_policy(mdp, theta=0.3 * rng.normal(size=n_states * n_actions))
    fmap = make_features("random_unit", mdp, d1=d1, seed=seed)
    return mdp, pol, fmap, rng


class TestCriticFixedPoint:
    def test_solves_linear_system(self):
        for seed in range(8):
            mdp, pol, fmap, _ = garnet_instance(seed)
            A, b = matrix_A(mdp, pol, fmap)
            v = critic_fixed_point(mdp, pol, fmap)
            assert np.linalg.norm(A @ v + b) < 1e-12

    def test_four_state_values(self):
        # reduced one-hot features represent the differential value exactly on
        # this instance, so the fixed point equals V shifted to zero at the
        # dropped state
        mdp = four_state_easy()
        pol = tabular_policy(mdp)
        fmap = make_features("one_hot_reduced", mdp)
        v = critic_fixed_point(mdp, pol, fmap)
        assert np.allclose(v, [0.30769231, 0.76923077, 1.46153846], atol=1e-6)
        V = differential_value(mdp, pol)
        assert np.allclose(fmap.table @ v, V - V[-1], atol=1e-10)

    def test_duplicated_columns_raise(self):
        # a repeated feature column makes A singular even though the linear
        # system stays consistent; conditioning has to catch it
        mdp, pol, _, _ = garnet_instance(0)
        col = np.linspace(0.1, 0.5, mdp.n_states)[:, None]
        fmap = FeatureMap(table=np.hstack([col, col]))
        with pytest.raises(SingularA):
            critic_fixed_point(mdp, pol, fmap)


class TestResidualIdentities:
    def test_three_routes_agree(self):
        for seed in range(10):
            mdp, pol, fmap, rng = garnet_instance(seed)
            v = rng.normal(size=fmap.dim)
            A, b = matrix_A(mdp, pol, fmap)
            direct = A @ v + b
            pbr = projected_bellman_residual(mdp, pol, fmap, v)
            drift = expected_critic_drift(mdp, pol, fmap, v)
            assert np.allclose(pbr, direct, atol=1e-12)
            assert np.allclose(drift, direct, atol=1e-12)

    def test_residual_vanishes_at_fixed_point(self):
        for seed in range(5):
            mdp, pol, fmap, _ = garnet_instance(seed)
            v = critic_fixed_point(mdp, pol, fmap)
            assert np.linalg.norm(projected_bellman_residual(mdp, pol, fmap, v)) < 1e-10
            assert np.linalg.norm(expected_critic_drift(mdp, pol, fmap, v)) < 1e-10


class TestActorField:
    def test_field_is_gradient_plus_bias(self):
        for seed in range(10):
            mdp, pol, fmap, rng = garnet_instance(seed)
            v = rng.normal(size=fmap.dim)
            M = actor_field_M(mdp, pol, fmap, v)
            grad = policy_gradient(mdp, pol)
            bias = actor_bias(mdp, pol, fmap, v)
            assert np.allclose(M, grad + bias, atol=1e-12)

    def test_exact_critic_kills_bias(self):
        # when Phi v* reproduces the differential value up to a constant, the
        # bias vanishes and the actor field equals the true gradient
        mdp = four_state_easy()
        fmap = make_features("one_hot_reduced", mdp)
        rng = np.random.default_rng(4)
        for theta in (np.zeros(8), 0.5 * rng.normal(size=8)):
            pol = tabular_policy(mdp, theta=theta)
            v = critic_fixed_point(mdp, pol, fmap)
            assert np.linalg.norm(actor_bias(mdp, pol, fmap, v)) < 1e-10
            assert np.allclose(actor_field_M(mdp, pol, fmap, v),
                               policy_gradient(mdp, pol), atol=1e-10)

    def test_zero_critic_field(self):
        # v = 0 reduces the field to sum mu pi (R - L) psi, which the drift
        # route must reproduce too
        mdp, pol, fmap, _ = garnet_instance(2)
        v = np.zeros(fmap.dim)
        M = actor_field_M(mdp, pol, fmap, v)
        assert M.shape == (mdp.n_states * mdp.n_actions,)
        assert np.all(np.isfinite(M))


def two_state_chain(p_stay=0.85):
    P = np.array([[[p_stay, 1.0 - p_stay]], [[1.0 - p_stay, p_stay]]])
    R = np.zeros((2, 1))
    return FiniteMdp(transition=P, reward=R, reward_bound=1.0)


class TestMixing:
    def test_two_state_geometric(self):
        # d_m = 0.5 * 0.7^m exactly, so the fit recovers b = 0.5, k = 0.7
        mdp = two_state_chain()
        prof = estimate_mixing(mdp, tabular_policy(mdp))
        assert prof.k == pytest.approx(0.7, abs=1e-3)
        assert prof.b == pytest.approx(0.5, abs=1e-2)
        assert prof.distances[0] == pytest.approx(0.35, abs=1e-12)

    def test_envelope_dominates_measurements(self):
        for seed in range(5):
            mdp, pol, _, _ = garnet_instance(seed)
            prof = estimate_mixing(mdp, pol)
            for m, d in enumerate(prof.distances, start=1):
                assert prof.b * prof.k ** m >= d * (1.0 - 1e-9)

    def test_one_power_above_the_floor(self):
        # K = 1 mu^T + u w^T with w . 1 = 0 and u orthogonal to mu and w, so
        # K^2 = 1 mu^T: d_1 = 0.1 and d_2 is rounding, at or below the floor.
        # The line runs from d_1 to the floor at m = 2 (a fit of d_1 alone
        # warned and returned an arbitrary k)
        mu, w = np.array([0.4, 0.3, 0.3]), np.array([0.0, 1.0, -1.0])
        K = np.outer(np.ones(3), mu) + np.outer(np.cross(mu, w), w) / 6.0
        mdp = FiniteMdp(transition=K[:, None, :], reward=np.zeros((3, 1)), reward_bound=1.0)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            prof = estimate_mixing(mdp, tabular_policy(mdp))
        d1, d2 = prof.distances
        assert d1 == pytest.approx(0.1, abs=1e-12)
        assert d2 <= 1e-12
        assert prof.k == pytest.approx(1e-12 / d1, rel=1e-9)
        assert prof.b * prof.k == pytest.approx(d1, rel=1e-9)

    @pytest.mark.parametrize("eps", [1e-12, 5e-13, 5e-12])
    def test_one_floor_for_the_degenerate_case(self, eps):
        # the chain above with u w^T scaled to d_1 = 0.6 eps: at or below the
        # 1e-12 floor it mixes at once (b = k = 0), not periodically; above it
        # the line runs from d_1 down to the floor, k = 1e-12 / d_1 (about 1/3)
        mu, w = np.array([0.4, 0.3, 0.3]), np.array([0.0, 1.0, -1.0])
        K = np.outer(np.ones(3), mu) + eps * np.outer(np.cross(mu, w), w)
        mdp = FiniteMdp(transition=K[:, None, :], reward=np.zeros((3, 1)), reward_bound=1.0)
        prof = estimate_mixing(mdp, tabular_policy(mdp))
        d1 = prof.distances[0]
        assert d1 == pytest.approx(0.6 * eps, rel=1e-3)
        if d1 <= 1e-12:
            assert prof.distances == (d1,)
            assert prof.b == 0.0 and prof.k == 0.0
        else:
            assert prof.k == pytest.approx(1e-12 / d1, rel=1e-9)
            assert prof.k == pytest.approx(1.0 / 3.0, rel=1e-4)
            assert prof.b * prof.k == pytest.approx(d1, rel=1e-9)

    def test_perfect_mixing_degenerates(self):
        P = np.tile(np.array([0.3, 0.7]), (2, 1, 1))
        mdp = FiniteMdp(transition=P, reward=np.zeros((2, 1)), reward_bound=1.0)
        prof = estimate_mixing(mdp, tabular_policy(mdp))
        assert prof.b == 0.0 and prof.k == 0.0
        assert prof.tau_for(1e-9) == 1
        assert prof.tau(10**6, algo_schedule("ca")) == 1

    def test_periodic_chain_rejected(self):
        P = np.array([[[0.0, 1.0]], [[1.0, 0.0]]])
        mdp = FiniteMdp(transition=P, reward=np.zeros((2, 1)), reward_bound=1.0)
        with pytest.raises(PeriodicChain):
            estimate_mixing(mdp, tabular_policy(mdp))

    def test_horizon_below_one_rejected(self):
        mdp = two_state_chain()
        for horizon in (0, -3):
            with pytest.raises(InvalidSpec, match="horizon"):
                estimate_mixing(mdp, tabular_policy(mdp), horizon=horizon)

    def test_tau_minimal_and_monotone(self):
        prof = MixingProfile(b=0.5, k=0.7, distances=())
        sched = algo_schedule("ca")
        taus = [prof.tau(t, sched) for t in (0, 10, 100, 10**4, 10**6)]
        assert taus == sorted(taus)
        for t in (0, 10, 100, 10**4, 10**6):
            eps = min(sched.alpha(t), sched.beta(t), sched.gamma(t))
            m = prof.tau_for(eps)
            assert prof.b * prof.k ** (m - 1) <= eps
            if m > 0:
                assert prof.b * prof.k ** (m - 2) > eps


class TestOptima:
    def test_four_state_enumeration(self):
        gain, actions = brute_force_optimum(four_state_easy())
        assert gain == pytest.approx(0.738, abs=1e-9)
        assert list(actions) == [1, 1, 0, 1]

    def test_budget_guard(self):
        with pytest.raises(BudgetExceeded):
            brute_force_optimum(frozen_lake_4x4())  # 4^16 policies

    def test_lp_matches_enumeration(self):
        for seed in range(8):
            mdp = build_garnet(GarnetSpec(n_states=4, n_actions=3, branching=2,
                                          seed=seed, epsilon=0.05))
            gain, _ = brute_force_optimum(mdp)
            assert lp_optimum(mdp) == pytest.approx(gain, abs=1e-6)

    def test_lp_values(self):
        assert lp_optimum(four_state_easy()) == pytest.approx(0.738, abs=1e-9)
        assert lp_optimum(frozen_lake_4x4()) == pytest.approx(0.01755506, abs=1e-6)

    @pytest.mark.parametrize("build,best_gain,best_actions", [
        ("two_loops", 1.0, [0, 0]),
        ("transient_fork", 0.9, [0, 0, 1]),
    ], ids=["two_loops", "transient_fork"])
    def test_multichain_scored_by_best_closed_class(self, build, best_gain, best_actions):
        if build == "two_loops":
            # the stay-stay policy splits into two singleton classes with gains
            # 0 and 1; optimistic scoring credits the better one
            P = np.zeros((2, 2, 2))
            P[0, 0, 0] = 1.0  # stay
            P[1, 0, 1] = 1.0
            P[0, 1, 1] = 1.0  # swap
            P[1, 1, 0] = 1.0
            R = np.array([[0.0, 0.3], [1.0, 0.3]])
        else:
            # state 0 pays the most but is transient under every policy: it
            # feeds the absorbing states 1 and 2, and only their gains count
            P = np.zeros((3, 2, 3))
            P[0, 0, 1:] = 0.5
            P[0, 1, 1] = 1.0
            P[1, :, 1] = 1.0
            P[2, :, 2] = 1.0
            R = np.array([[1.0, 1.0], [0.2, 0.1], [0.5, 0.9]])
        mdp = FiniteMdp(transition=P, reward=R, reward_bound=1.0)
        gain, actions = brute_force_optimum(mdp)
        assert gain == pytest.approx(best_gain, abs=1e-12)
        assert list(actions) == best_actions  # first policy in enumeration order wins

    def test_tie_breaks_lexicographically(self):
        P = np.ones((1, 2, 1))
        R = np.array([[0.5, 0.5]])
        mdp = FiniteMdp(transition=P, reward=R, reward_bound=1.0)
        gain, actions = brute_force_optimum(mdp)
        assert gain == pytest.approx(0.5)
        assert list(actions) == [0]
