"""Feature-map construction, the critic matrix A, and the assumption report."""

import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from avgrl.envs import GarnetSpec, build_garnet, four_state_easy, tabular_policy
from avgrl.errors import InfeasibleDimension, InvalidSpec, InvariantViolation, SingularA
from avgrl.features import (FeatureMap, _critic_matrices, _critic_solve,
                            _well_inside_negative_definite, check_assumption2, critic_radius,
                            make_features, matrix_A)
from avgrl.mdp import (PolicyChain, _solve_stationary, differential_value, induced_chain,
                       stationary_distribution)


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


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_feature_map_refuses_non_finite_table(bad):
    table = np.eye(4, 3)
    table[1, 1] = bad
    with pytest.raises(InvariantViolation, match="feature table has a non-finite entry"):
        FeatureMap(table)


def svd_critic_solve(A, b):
    """_critic_solve with the SVD conditioning test on every A."""
    sv = np.linalg.svd(A, compute_uv=False)
    if sv[0] == 0.0 or sv[-1] <= 1e-12 * sv[0]:
        raise SingularA(
            f"critic matrix A is singular (smallest/largest singular value "
            f"{sv[-1]:.3e}/{sv[0]:.3e})"
        )
    try:
        v = np.linalg.solve(A, -b)
    except np.linalg.LinAlgError as exc:
        raise SingularA("critic matrix A is singular") from exc
    if not np.isfinite(v).all():
        raise SingularA("critic fixed point is not finite; A is near singular or b too large")
    if not math.hypot(*(A @ v + b).tolist()) <= 1e-10 * max(1.0, math.hypot(*b.tolist())):
        raise SingularA("critic solve residual exceeds tolerance; A is near singular")
    return v


def solve_outcome(solve, A, b):
    """The bytes of v, or the error's type and text; pytest turns numpy's
    RuntimeWarnings (an infinite A times a zero v) into errors."""
    try:
        return solve(A, b).tobytes()
    except (SingularA, np.linalg.LinAlgError, RuntimeWarning) as exc:
        return type(exc).__name__, str(exc)


def critic_system(kind, n, seed, log_ratio, skew, scale):
    """(A, b) of one kind, n x n, with A times scale; see
    test_conditioning_check_matches_svd."""
    rng = np.random.default_rng(seed)
    b = rng.normal(size=n)
    if kind == "zero":
        return np.zeros((n, n)), b
    if kind == "duplicated":  # a real A(theta) whose features repeat a column
        S = n + 2
        kernel = rng.random((S, S)) + 0.01
        kernel /= kernel.sum(axis=1, keepdims=True)
        chain = PolicyChain(kernel, rng.normal(size=S))
        mu = _solve_stationary(kernel)
        Phi = rng.normal(size=(S, n))
        Phi[:, -1] = Phi[:, 0] if n > 1 else 0.0
        A, b = _critic_matrices(Phi, chain, mu, float(mu @ chain.expected_reward))
        return scale * A, b
    Q, _ = np.linalg.qr(rng.normal(size=(n, n)))
    lam = 10.0 ** rng.uniform(-3, 3) * np.logspace(0.0, log_ratio, n)
    if kind == "indefinite":
        lam *= np.where(rng.random(n) < 0.5, -1.0, 1.0)
        lam[0] = abs(lam[0])
        lam[-1] = -abs(lam[-1])
    K = rng.normal(size=(n, n))
    A = scale * (-(Q * lam) @ Q.T + skew * lam[0] * (K - K.T))
    if kind == "non-finite":
        A[rng.integers(n), rng.integers(n)] = rng.choice([np.nan, np.inf, -np.inf])
    return A, b


@settings(max_examples=200, deadline=None, database=None, derandomize=True)
@given(kind=st.sampled_from(["negative-definite", "negative-definite", "indefinite", "zero",
                             "duplicated", "non-finite"]),
       n=st.integers(1, 8), seed=st.integers(0, 2**16), log_ratio=st.floats(-15.0, -1.0),
       skew=st.sampled_from([0.0, 0.0, 1e-3, 0.3]),
       scale=st.sampled_from([1.0, 1.0, 1.0, 1e-170, 1e200]))
def test_conditioning_check_matches_svd(kind, n, seed, log_ratio, skew, scale):
    # negative definite A with lambda_min/lambda_max of -sym(A) from 1e-1 down
    # to 1e-15, indefinite or zero A, a real A(theta) with a duplicated feature
    # column, and A with a NaN or infinite entry, some scaled so that ||A||_F
    # underflows or overflows: the Cholesky screen must make the SVD's
    # SingularA decision, with its message, and the same v
    A, b = critic_system(kind, n, seed, log_ratio, skew, scale)
    assert solve_outcome(_critic_solve, A, b) == solve_outcome(svd_critic_solve, A, b)


def test_critic_solve_refuses_an_overflowing_fixed_point():
    # A is well conditioned, but v* = -A^-1 b = 2e308 overflows to inf; the
    # tolerance from ||b|| used to overflow too, and inf > inf let v = [inf] through
    with pytest.raises(SingularA, match="critic fixed point is not finite"):
        _critic_solve(np.array([[-0.25]]), np.array([5e307]))


def test_critic_solve_residual_test_at_any_scale(monkeypatch):
    # a stand-in solve lands 1e294 off v* = 1e300, against a tolerance of
    # 1e-10 ||b|| = 1e290; the tolerance used to overflow to inf for any
    # ||b|| above about 1e154
    monkeypatch.setattr(np.linalg, "solve", lambda A, rhs: np.array([1.000001e300]))
    with pytest.raises(SingularA, match="residual exceeds tolerance"):
        _critic_solve(np.array([[-1.0]]), np.array([1e300]))


def test_critic_solve_refuses_a_nan_residual():
    # the SVD passes A = [[inf]] and the solve gives v = [-0.0], so the
    # residual is inf * -0.0 = NaN, which NaN > tol used to let through
    with np.errstate(invalid="ignore"):
        with pytest.raises(SingularA, match="residual exceeds tolerance"):
            _critic_solve(np.array([[np.inf]]), np.array([1.0]))


def test_cholesky_margin_refuses_a_near_singular_a():
    # lambda_min(-A) = 5e-13 sits below the margin tau = 1e-8 ||A||_F, so A
    # goes to the SVD test, which refuses a ratio of 5e-13; a margin of
    # 1e-13 ||A||_F would accept A and return v = [1, 2e12]
    with pytest.raises(SingularA, match="critic matrix A is singular"):
        _critic_solve(-np.diag([1.0, 5e-13]), np.array([1.0, 1.0]))


@pytest.mark.parametrize("v_star", [[0.0], [0.05, -0.05], [3.0, -4.0], [1e150, 1e-300]])
def test_critic_radius_keeps_the_norm_where_it_is_finite(v_star):
    v_star = np.array(v_star)
    assert critic_radius(v_star) == max(10.0 * float(np.linalg.norm(v_star)), 1.0)


@pytest.mark.parametrize("env", ["four-state", "garnet"])
def test_conditioning_check_skips_the_svd_on_a_real_a(env, monkeypatch):
    m = four_state_easy() if env == "four-state" else garnet(0)
    theta = np.random.default_rng(3).normal(size=m.n_states * m.n_actions)
    A, b = matrix_A(m, tabular_policy(m, theta), make_features("one_hot_reduced", m))
    assert _well_inside_negative_definite(A)

    def no_svd(*args, **kw):
        raise AssertionError("svd called")

    monkeypatch.setattr(np.linalg, "svd", no_svd)
    assert _critic_solve(A, b).tobytes() == np.linalg.solve(A, -b).tobytes()
