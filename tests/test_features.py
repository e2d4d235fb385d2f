"""Feature-map construction, the critic matrix A, and the assumption report."""

import numpy as np
import pytest

from avgrl.envs import GarnetSpec, build_garnet, four_state_easy, tabular_policy
from avgrl.errors import InfeasibleDimension, InvalidSpec
from avgrl.features import FeatureMap, check_assumption2, make_features, matrix_A
from avgrl.mdp import differential_value, induced_chain, stationary_distribution


def garnet(seed=0):
    return build_garnet(GarnetSpec(n_states=5, n_actions=3, epsilon=0.05, seed=seed))


class TestMakeFeatures:
    def test_one_hot_reduced_three_states(self):
        # 3 states: Phi = [[1,0],[0,1],[0,0]]
        P = np.zeros((3, 1, 3))
        P[:, 0, :] = 1.0 / 3.0
        from avgrl.mdp import FiniteMdp

        m = FiniteMdp(P, np.zeros((3, 1)), reward_bound=1.0)
        fmap = make_features("one_hot_reduced", m)
        assert np.array_equal(fmap.table, [[1.0, 0.0], [0.0, 1.0], [0.0, 0.0]])

    def test_one_hot_reduced_rejects_full_dimension(self):
        with pytest.raises(InfeasibleDimension):
            make_features("one_hot_reduced", garnet(), d1=5)

    def test_random_unit_invariants(self):
        for seed in range(10):
            fmap = make_features("random_unit", garnet(), d1=3, seed=seed)
            norms = np.linalg.norm(fmap.table, axis=1)
            assert abs(norms.max() - 1.0) < 1e-12  # rescaled so the max is exactly 1
            assert fmap.rank_ok()
            assert fmap.e_excluded()

    def test_tabular_centered_represents_shifted_values(self):
        # the centered map spans exactly the mean-zero subspace, so any V is
        # representable after removing its mean
        m = garnet(2)
        fmap = make_features("tabular_centered", m)
        pol = tabular_policy(m, np.random.default_rng(0).normal(size=15))
        V = differential_value(m, pol)
        target = V - V.mean()
        coeff, *_ = np.linalg.lstsq(fmap.table, target, rcond=None)
        assert np.abs(fmap.table @ coeff - target).max() < 1e-10

    def test_unknown_kind(self):
        with pytest.raises(InfeasibleDimension, match="unknown"):
            make_features("fourier", garnet())

    def test_full_one_hot_constructible_but_flagged(self):
        # direct construction is allowed (the validator needs to inspect it),
        # but e-exclusion fails because the columns sum to the ones vector
        fmap = FeatureMap(np.eye(5))
        assert fmap.rank_ok()
        assert fmap.norm_ok()
        assert not fmap.e_excluded()


class TestMatrixA:
    def test_one_hot_reduced_block_identity(self):
        # with Phi = [I; 0], A is the top-left (n-1)x(n-1) block of D(P-I)
        m = garnet(1)
        pol = tabular_policy(m, np.random.default_rng(1).normal(size=15))
        fmap = make_features("one_hot_reduced", m)
        A, _ = matrix_A(m, pol, fmap)
        chain = induced_chain(m, pol)
        mu = stationary_distribution(chain)
        full = mu[:, None] * (chain.kernel - np.eye(5))
        assert np.abs(A - full[:4, :4]).max() < 1e-14

    def test_b_vector_formula(self):
        m = garnet(1)
        pol = tabular_policy(m)
        fmap = make_features("one_hot_reduced", m)
        _, b = matrix_A(m, pol, fmap)
        chain = induced_chain(m, pol)
        mu = stationary_distribution(chain)
        gain = float(mu @ chain.expected_reward)
        expect = fmap.table.T @ (mu * (chain.expected_reward - gain))
        assert np.abs(b - expect).max() < 1e-15

    def test_monte_carlo_oracle(self):
        # A matches the empirical mean of phi(s)(phi(s') - phi(s))^T over 1e6
        # stationary pairs (s ~ mu, s' ~ P_theta(s, .)) within 3 standard errors
        m = garnet(4)
        pol = tabular_policy(m, np.random.default_rng(2).normal(size=15))
        fmap = make_features("random_unit", m, d1=2, seed=5)
        A, _ = matrix_A(m, pol, fmap)
        chain = induced_chain(m, pol)
        mu = stationary_distribution(chain)
        rng = np.random.default_rng(99)
        n = 1_000_000
        s = rng.choice(5, size=n, p=mu)
        s1 = np.empty(n, dtype=int)
        for state in range(5):
            mask = s == state
            s1[mask] = rng.choice(5, size=int(mask.sum()), p=chain.kernel[state])
        phi = fmap.table
        samples = phi[s][:, :, None] * (phi[s1] - phi[s])[:, None, :]
        mc = samples.mean(axis=0)
        se = samples.std(axis=0, ddof=1) / np.sqrt(n)
        assert np.all(np.abs(mc - A) <= 3.0 * se + 1e-12)


class TestCheckAssumption2:
    def test_garnet_passes(self):
        m = garnet(0)
        pol = tabular_policy(m)
        fmap = make_features("one_hot_reduced", m)
        report = check_assumption2(m, pol, fmap, n_theta_samples=8, seed=0)
        assert report.assumption2_ok
        assert all(l < -1e-8 for l in report.lambda_thetas)
        assert report.lam > 0
        assert len(report.lambda_thetas) == 8

    def test_quadratic_form_negative(self):
        # direct cross-check: x^T A x < 0 on 100 random unit vectors
        m = garnet(0)
        pol = tabular_policy(m, np.random.default_rng(3).normal(size=15))
        fmap = make_features("one_hot_reduced", m)
        A, _ = matrix_A(m, pol, fmap)
        rng = np.random.default_rng(11)
        for _ in range(100):
            x = rng.normal(size=4)
            x /= np.linalg.norm(x)
            assert x @ A @ x < 0

    def test_full_one_hot_detected(self):
        # e in the span makes A singular: A e = 0, so lambda_sup >= 0
        m = garnet(0)
        pol = tabular_policy(m)
        report = check_assumption2(m, pol, FeatureMap(np.eye(5)), n_theta_samples=4, seed=0)
        assert not report.e_excluded
        assert report.lambda_sup >= -1e-8
        assert not report.assumption2_ok

    def test_zero_map_rejected(self):
        m = garnet(0)
        with pytest.raises(InfeasibleDimension, match="rank"):
            check_assumption2(m, tabular_policy(m), FeatureMap(np.zeros((5, 2))))

    def test_negative_seed_refused(self):
        m = garnet(0)
        fmap = make_features("one_hot_reduced", m)
        with pytest.raises(InvalidSpec, match="seed must be nonnegative, got -1"):
            check_assumption2(m, tabular_policy(m), fmap, seed=-1)

    def test_constants_formulas(self):
        m = four_state_easy()
        pol = tabular_policy(m)
        fmap = make_features("one_hot_reduced", m)
        report = check_assumption2(m, pol, fmap, n_theta_samples=4, seed=0)
        c = report.constants
        assert c["B"] == pol.score_bound == 2.0
        assert c["G"] == 2.0 * (1.0 + c["U_v"]) * c["B"]
        assert c["U_w"] == 2.0 * c["B"] * (c["U_v"] + c["Ubar_v"])
        assert abs(c["ratio_bound"] - 1.0 / (2 * c["B"] * (c["G"] + c["U_w"]) + c["U_w"] * c["B"])) < 1e-15
        assert c["U_v"] >= 1.0
