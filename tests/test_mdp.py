"""Exact-solver tests: hand-derived chains, finite-difference gradients."""

import copy
import math
import pickle

import numpy as np
import pytest
import scipy.sparse as sp
from scipy.sparse.csgraph import connected_components

from avgrl import mdp as mdp_module
from avgrl.envs import GarnetSpec, build_garnet, tabular_policy
from avgrl.errors import InvariantViolation, NotIrreducible, SingularSystem
from avgrl.features import FeatureMap
from avgrl.mdp import (
    FiniteMdp,
    PolicyChain,
    SoftmaxLinearPolicy,
    _reach,
    _solve_stationary,
    advantage_table,
    average_reward,
    chain_period,
    differential_value,
    grad_stationary,
    induced_chain,
    is_irreducible,
    policy_gradient,
    q_value,
    stationary_distribution,
)


def single_action_mdp(kernel, rewards, bound=1.0):
    """Wrap a Markov chain as a 1-action MDP."""
    kernel = np.asarray(kernel, dtype=float)
    n = kernel.shape[0]
    P = kernel[:, None, :]
    R = np.asarray(rewards, dtype=float)[:, None]
    return FiniteMdp(P, R, reward_bound=bound)


def two_action_garnet(seed):
    return build_garnet(GarnetSpec(n_states=5, n_actions=3, epsilon=0.05, seed=seed))


class TestFiniteMdpInvariants:
    def test_row_sums_checked(self):
        P = np.zeros((2, 1, 2))
        P[0, 0] = [0.5, 0.4]  # sums to 0.9
        P[1, 0] = [0.0, 1.0]
        with pytest.raises(InvariantViolation, match=r"\(s=0, a=0\)"):
            FiniteMdp(P, np.zeros((2, 1)), reward_bound=1.0)

    def test_negative_probability_checked(self):
        P = np.zeros((2, 1, 2))
        P[0, 0] = [1.2, -0.2]
        P[1, 0] = [0.0, 1.0]
        with pytest.raises(InvariantViolation, match="negative"):
            FiniteMdp(P, np.zeros((2, 1)), reward_bound=1.0)

    def test_reward_bound_checked(self):
        P = np.zeros((2, 1, 2))
        P[0, 0] = [0.0, 1.0]
        P[1, 0] = [1.0, 0.0]
        R = np.array([[2.0], [0.0]])
        with pytest.raises(InvariantViolation, match="bound"):
            FiniteMdp(P, R, reward_bound=1.0)

    @pytest.mark.parametrize("where,message", [
        ("P", r"transition row \(s=1, a=0\) sums to nan"),
        ("R", r"\|reward\| at \(s=1, a=0\) is nan"),
        ("bound", "reward_bound must be positive, got nan"),
    ])
    def test_nan_refused(self, where, message):
        P, R, bound = np.full((2, 1, 2), 0.5), np.zeros((2, 1)), 1.0
        if where == "P":
            P[1, 0, 0] = np.nan
        elif where == "R":
            R[1, 0] = np.nan
        else:
            bound = np.nan
        with pytest.raises(InvariantViolation, match=message):
            FiniteMdp(P, R, reward_bound=bound)

    @pytest.mark.parametrize("kernel,reward,message", [
        # NaN > tol is false: the row-sum test used to pass a NaN kernel
        (np.full((2, 2), np.nan), np.zeros(2), "kernel rows must sum to 1"),
        (np.full((2, 2), 0.5), np.array([0.0, np.nan]), "expected_reward must be finite"),
        (np.full((2, 2), 0.5), np.array([np.inf, 0.0]), "expected_reward must be finite"),
    ])
    def test_policy_chain_nan_refused(self, kernel, reward, message):
        with pytest.raises(InvariantViolation, match=message):
            PolicyChain(kernel, reward)

    @pytest.mark.parametrize("bad", [math.inf, -math.inf, math.nan])
    def test_policy_non_finite_theta_refused(self, bad):
        # theta = [inf, 0] used to give a NaN prob_table
        x = np.eye(2)[None]
        policy = SoftmaxLinearPolicy(np.zeros(2), x)
        for make in (lambda: SoftmaxLinearPolicy(np.array([bad, 0.0]), x),
                     lambda: policy.with_theta(np.array([0.0, bad]))):
            with pytest.raises(InvariantViolation, match="theta has a non-finite entry"):
                make()

    @pytest.mark.parametrize("bound,message", [
        (math.inf, "reward_bound must be finite, got inf"),
        (-math.inf, "reward_bound must be positive, got -inf"),
        (0.0, "reward_bound must be positive, got 0.0"),
    ])
    def test_reward_bound_must_be_positive_and_finite(self, bound, message):
        with pytest.raises(InvariantViolation, match=message):
            FiniteMdp(np.full((2, 1, 2), 0.5), np.zeros((2, 1)), reward_bound=bound)
        FiniteMdp(np.full((2, 1, 2), 0.5), np.zeros((2, 1)), reward_bound=1e308)

    def test_arrays_frozen(self):
        m = single_action_mdp([[0.5, 0.5], [0.5, 0.5]], [0.0, 0.0])
        with pytest.raises(ValueError):
            m.transition[0, 0, 0] = 0.9


class TestStationaryDistribution:
    def test_two_state_balance(self):
        # kernel [[1/2, 1/2], [1, 0]]: balance gives mu0 = mu0/2 + mu1,
        # mu1 = mu0/2, normalization => mu = (2/3, 1/3).
        m = single_action_mdp([[0.5, 0.5], [1.0, 0.0]], [0.0, 0.0])
        mu = stationary_distribution(induced_chain(m, tabular_policy(m)))
        assert np.allclose(mu, [2.0 / 3.0, 1.0 / 3.0], atol=1e-12)

    def test_stationarity_property(self):
        for seed in range(10):
            m = two_action_garnet(seed)
            pol = tabular_policy(m, np.random.default_rng(seed).normal(size=15))
            chain = induced_chain(m, pol)
            mu = stationary_distribution(chain)
            assert np.all(mu >= 0)
            assert abs(mu.sum() - 1.0) < 1e-12
            assert np.abs(mu @ chain.kernel - mu).max() < 1e-10

    def test_not_irreducible(self):
        # two absorbing states never communicate
        m = single_action_mdp([[1.0, 0.0], [0.0, 1.0]], [0.0, 0.0])
        with pytest.raises(NotIrreducible):
            stationary_distribution(induced_chain(m, tabular_policy(m)))

    def test_matches_left_eigenvector(self):
        # independent route: the left eigenvector of K for eigenvalue 1
        for seed in range(20):
            rng = np.random.default_rng(300 + seed)
            spec = GarnetSpec(n_states=int(rng.integers(3, 30)), n_actions=3, epsilon=0.05,
                              seed=seed)
            m = build_garnet(spec)
            pol = tabular_policy(m, rng.normal(size=spec.n_states * spec.n_actions) * 2)
            chain = induced_chain(m, pol)
            vals, vecs = np.linalg.eig(chain.kernel.T)
            ref = np.real(vecs[:, np.argmin(np.abs(vals - 1.0))])
            ref /= ref.sum()
            mu = stationary_distribution(chain)
            assert np.abs(mu - ref).max() < 1e-12, f"seed {seed}"

    def test_irreducibility_memo_keyed_on_support(self):
        # same size, different support: a cached "irreducible" must not leak
        cycle = np.roll(np.eye(4), 1, axis=1)
        m = single_action_mdp(0.5 * np.eye(4) + 0.5 * cycle, np.zeros(4))
        stationary_distribution(induced_chain(m, tabular_policy(m)))
        split = np.kron(np.eye(2), np.full((2, 2), 0.5))  # two closed classes
        m = single_action_mdp(split, np.zeros(4))
        with pytest.raises(NotIrreducible):
            stationary_distribution(induced_chain(m, tabular_policy(m)))

    def test_support_tolerance_keeps_a_small_probability(self):
        # an edge of probability 1e-9 is support: above _SUPPORT_TOL = 1e-12,
        # below a tolerance of 1e-6
        assert is_irreducible(np.array([[1.0 - 1e-9, 1e-9], [0.5, 0.5]]))

    def test_is_irreducible_matches_uncached_check(self):
        # scipy's strong components are the reference: the closure's mutual
        # reachability must give the same partition on 1-11 states
        rng = np.random.default_rng(11)
        answers = set()
        for _ in range(1000):
            n = int(rng.integers(1, 12))
            support = rng.random((n, n)) < rng.uniform(0.1, 0.5)
            kernel = support / np.maximum(support.sum(axis=1, keepdims=True), 1)
            n_comp, labels = connected_components(
                sp.csr_matrix(kernel > 1e-12), directed=True, connection="strong"
            )
            reach = _reach(kernel > 1e-12)
            assert np.array_equal(reach & reach.T, labels[:, None] == labels[None, :])
            assert is_irreducible(kernel) == (n_comp == 1)
            answers.add(n_comp == 1)
        assert answers == {True, False}


class TestDifferentialValue:
    def test_two_state_cycle(self):
        # deterministic cycle, rewards (1, 0): L = 1/2, mu = (1/2, 1/2);
        # (I-P)V = R - L e with mu.V = 0 gives V = (1/4, -1/4);
        # Q(0,.) = 1 - 1/2 + V(1) = 1/4, Q(1,.) = 0 - 1/2 + V(0) = -1/4.
        m = single_action_mdp([[0.0, 1.0], [1.0, 0.0]], [1.0, 0.0])
        pol = tabular_policy(m)
        assert abs(average_reward(m, pol) - 0.5) < 1e-12
        with pytest.warns(UserWarning, match="periodic"):
            V = differential_value(m, pol)
        assert np.allclose(V, [0.25, -0.25], atol=1e-12)
        with pytest.warns(UserWarning, match="periodic"):
            Q = q_value(m, pol)
        assert np.allclose(Q[:, 0], [0.25, -0.25], atol=1e-12)

    def test_bellman_residual_and_normalization(self):
        for seed in range(10):
            m = two_action_garnet(seed)
            pol = tabular_policy(m, np.random.default_rng(seed + 50).normal(size=15))
            chain = induced_chain(m, pol)
            mu = stationary_distribution(chain)
            V = differential_value(m, pol)
            gain = average_reward(m, pol)
            resid = (np.eye(5) - chain.kernel) @ V - (chain.expected_reward - gain)
            assert np.abs(resid).max() < 1e-9
            assert abs(mu @ V) < 1e-9

    def test_advantage_averages_to_zero(self):
        m = two_action_garnet(3)
        pol = tabular_policy(m, np.random.default_rng(0).normal(size=15))
        adv = advantage_table(m, pol)
        p = pol.prob_table()
        assert np.abs(np.einsum("sa,sa->s", p, adv)).max() < 1e-10

    def test_shift_invariance(self):
        # adding c to every reward shifts L by c, leaves V and grad L alone
        m = two_action_garnet(4)
        c = 0.37
        m_shift = FiniteMdp(m.transition, m.reward + c, reward_bound=2.0)
        theta = np.random.default_rng(1).normal(size=15)
        pol = tabular_policy(m, theta)
        pol_shift = tabular_policy(m_shift, theta)
        assert abs(average_reward(m_shift, pol_shift) - average_reward(m, pol) - c) < 1e-9
        assert np.abs(differential_value(m_shift, pol_shift) - differential_value(m, pol)).max() < 1e-9
        assert np.abs(policy_gradient(m_shift, pol_shift) - policy_gradient(m, pol)).max() < 1e-9


class TestSoftmaxPolicy:
    def test_rows_sum_to_one(self):
        m = two_action_garnet(0)
        pol = tabular_policy(m, np.random.default_rng(2).normal(size=15) * 5)
        p = pol.prob_table()
        assert np.abs(p.sum(axis=1) - 1.0).max() < 1e-12
        assert np.all(p > 0)

    def test_score_bound(self):
        # ||grad log pi|| <= 2 max ||x(s,a)|| over many random draws
        rng = np.random.default_rng(7)
        x = rng.normal(size=(4, 3, 6))
        bound = 2.0 * np.linalg.norm(x, axis=2).max()
        worst = 0.0
        for _ in range(100):
            pol = SoftmaxLinearPolicy(rng.normal(size=6) * 3, x)
            worst = max(worst, np.linalg.norm(pol.score_table(), axis=2).max())
        assert worst <= bound + 1e-12
        assert abs(pol.score_bound - bound) < 1e-12

    def test_theta_length_checked(self):
        with pytest.raises(InvariantViolation, match="theta has 2 entries, the policy takes 6"):
            SoftmaxLinearPolicy(np.zeros(2), np.zeros((4, 3, 6)))

    def test_scores_average_to_zero(self):
        m = two_action_garnet(1)
        pol = tabular_policy(m, np.random.default_rng(3).normal(size=15))
        p = pol.prob_table()
        psi = pol.score_table()
        assert np.abs(np.einsum("sa,sad->sd", p, psi)).max() < 1e-14


class TestSharedTables:
    """A policy builds its pi and psi tables and its chain once and hands them
    out read-only; only arrays nobody can write to are shared, never copied."""

    def policy(self, seed=0):
        rng = np.random.default_rng(seed)
        return SoftmaxLinearPolicy(rng.normal(size=6), rng.normal(size=(4, 3, 6)))

    def test_tables_built_once_read_only(self):
        pol = self.policy()
        for table in (pol.prob_table, pol.score_table):
            first = table()
            assert table() is first
            assert not first.flags.writeable
            with pytest.raises(ValueError):
                first[0, 0] = 0.5

    def test_tables_equal_their_formulas_bit_for_bit(self):
        pol = self.policy(1)
        x, theta = np.array(pol.action_features), np.array(pol.theta)
        logits = x @ theta
        logits = logits - logits.max(axis=1, keepdims=True)
        p = np.exp(logits)
        p /= p.sum(axis=1, keepdims=True)
        psi = x - np.einsum("sa,sad->sd", p, x)[:, None, :]
        fresh = SoftmaxLinearPolicy(theta, x)
        for got in (pol, fresh, pol.with_theta(theta)):
            assert got.prob_table().tobytes() == p.tobytes()
            assert got.score_table().tobytes() == psi.tobytes()

    def test_with_theta_shares_action_features(self):
        pol = self.policy()
        other = pol.with_theta(np.ones(pol.dim))
        assert np.shares_memory(other.action_features, pol.action_features)

    def test_writeable_inputs_copied(self):
        rng = np.random.default_rng(3)
        P, R = np.full((2, 1, 2), 0.5), np.zeros((2, 1))
        theta, x = rng.normal(size=6), rng.normal(size=(2, 3, 6))
        K, r = np.full((2, 2), 0.5), np.zeros(2)
        Phi = np.eye(2)[:, :1]
        made = {
            "transition": (FiniteMdp(P, R, reward_bound=1.0), P),
            "reward": (FiniteMdp(P, R, reward_bound=1.0), R),
            "theta": (SoftmaxLinearPolicy(theta, x), theta),
            "action_features": (SoftmaxLinearPolicy(theta, x), x),
            "kernel": (PolicyChain(K, r), K),
            "expected_reward": (PolicyChain(K, r), r),
            "table": (FeatureMap(Phi), Phi),
        }
        for name, (obj, given) in made.items():
            held = getattr(obj, name)
            kept = held.copy()
            assert not np.shares_memory(held, given), name
            given[...] = 0.25  # in range for every field
            assert np.array_equal(held, kept), name

    def test_driver_theta_row_copied(self):
        # with_theta copies its argument: a writeable row of a caller's array,
        # edited after the call, leaves the policy as it was
        pol = self.policy()
        thetas = np.tile(pol.theta, (2, 1))
        at = pol.with_theta(thetas[1])
        p = at.prob_table().copy()
        thetas[1] += 1.0
        assert np.array_equal(at.theta, pol.theta)
        assert np.array_equal(at.prob_table(), p)

    def test_read_only_view_copied(self):
        # a read-only view shares the memory of an array that may be writeable
        x = self.policy().action_features
        base = np.array(x)
        view = base[:, :, :]
        view.flags.writeable = False
        pol = SoftmaxLinearPolicy(np.zeros(6), view)
        assert not np.shares_memory(pol.action_features, base)
        base[...] = 0.0
        assert np.array_equal(pol.action_features, x)

    def test_chain_kept_per_mdp_object(self):
        m = two_action_garnet(0)
        twin = FiniteMdp(m.transition, m.reward, m.reward_bound)
        other = two_action_garnet(1)
        pol = tabular_policy(m, np.random.default_rng(4).normal(size=15))
        chain = induced_chain(m, pol)
        assert induced_chain(m, pol) is chain
        for mdp in (twin, other, m):  # one slot: each new object rebuilds
            again = induced_chain(mdp, pol)
            assert again is not chain
            assert induced_chain(mdp, pol) is again
            fresh = induced_chain(mdp, SoftmaxLinearPolicy(pol.theta, pol.action_features))
            assert again.kernel.tobytes() == fresh.kernel.tobytes()
            assert again.expected_reward.tobytes() == fresh.expected_reward.tobytes()
            chain = again
        assert not np.array_equal(induced_chain(other, pol).kernel, chain.kernel)

    def test_copies_checked_and_frozen(self):
        m = two_action_garnet(0)
        pol = tabular_policy(m, np.random.default_rng(5).normal(size=15))
        induced_chain(m, pol), pol.score_table()
        assert set(vars(pol)) == {"theta", "action_features", "_prob", "_score", "_chain_memo"}
        for copy_of in (lambda o: pickle.loads(pickle.dumps(o)), copy.deepcopy, copy.copy):
            got = copy_of(pol)
            assert set(vars(got)) == {"theta", "action_features"}  # caches left behind
            assert not got.theta.flags.writeable
            assert not got.action_features.flags.writeable
            assert got.prob_table().tobytes() == pol.prob_table().tobytes()

    def test_mu_kept_read_only_on_the_chain(self):
        m = two_action_garnet(6)
        chain = induced_chain(m, tabular_policy(m, np.random.default_rng(6).normal(size=15)))
        mu = stationary_distribution(chain)
        assert stationary_distribution(chain) is mu
        assert stationary_distribution(induced_chain(m, tabular_policy(m))) is not mu
        assert not mu.flags.writeable
        with pytest.raises(ValueError):
            mu[0] = 0.5

    def test_mu_equals_a_fresh_solve_bit_for_bit(self):
        for seed in range(10):
            m = two_action_garnet(seed)
            pol = tabular_policy(m, np.random.default_rng(seed).normal(size=15))
            chain = induced_chain(m, pol)
            assert stationary_distribution(chain).tobytes() == \
                _solve_stationary(chain.kernel).tobytes()

    def test_copies_leave_mu_behind(self):
        m = two_action_garnet(7)
        chain = induced_chain(m, tabular_policy(m, np.random.default_rng(7).normal(size=15)))
        mu = stationary_distribution(chain)
        assert set(vars(chain)) == {"kernel", "expected_reward", "_stationary"}
        for copy_of in (lambda o: pickle.loads(pickle.dumps(o)), copy.deepcopy, copy.copy):
            got = copy_of(chain)
            assert set(vars(got)) == {"kernel", "expected_reward"}
            again = stationary_distribution(got)
            assert again is not mu
            assert again.tobytes() == mu.tobytes()

    def test_reducible_chain_raises_on_every_call(self):
        chain = PolicyChain(np.eye(2), np.zeros(2))  # two absorbing states
        for _ in range(2):
            with pytest.raises(NotIrreducible):
                stationary_distribution(chain)
            assert "_stationary" not in vars(chain)

    def test_residual_failure_raises_on_every_call(self, monkeypatch):
        # the LU solve stands in for one that lands off the stationary vector
        chain = PolicyChain([[0.5, 0.5], [1.0, 0.0]], np.zeros(2))  # mu = (2/3, 1/3)
        solves = []

        def off_target(kernel):
            solves.append(kernel)
            return np.full(2, 0.5)

        monkeypatch.setattr(mdp_module, "_solve_stationary", off_target)
        for n in (1, 2):
            with pytest.raises(SingularSystem, match="stationary residual 2.500e-01"):
                stationary_distribution(chain)
            assert len(solves) == n
            assert "_stationary" not in vars(chain)

    @pytest.mark.parametrize("residual", [1e-8, math.nan])
    def test_residual_just_over_the_bound_raises(self, monkeypatch, residual):
        # mu = (2/3 + d, 1/3 - d) has residual 1.5 d; NaN must fail the test too
        chain = PolicyChain([[0.5, 0.5], [1.0, 0.0]], np.zeros(2))
        d = residual / 1.5
        monkeypatch.setattr(mdp_module, "_solve_stationary",
                            lambda kernel: np.array([2.0 / 3.0 + d, 1.0 / 3.0 - d]))
        with pytest.raises(SingularSystem, match=r"stationary residual (1\.000e-08|nan) "):
            stationary_distribution(chain)

    def test_differential_residual_of_1e_7_raises(self, monkeypatch):
        # the solve stands in for one that lands off V by c (1, -2): mu . V
        # stays 0 and (I - K) V misses rhs by 3c = 1e-7 on a unit-scale chain,
        # far above rounding under an absolute or a scale-aware bound
        chain = PolicyChain([[0.5, 0.5], [1.0, 0.0]], np.array([1.0, 0.0]))
        mu = stationary_distribution(chain)  # (2/3, 1/3)
        gain = float(mu @ chain.expected_reward)
        V = mdp_module._differential(chain, mu, gain)
        off = V + (1e-7 / 3.0) * np.array([1.0, -2.0])
        monkeypatch.setattr(np.linalg, "solve", lambda a, b: off)
        with pytest.raises(SingularSystem, match="differential value residual"):
            mdp_module._differential(chain, mu, gain)

    def test_infinite_differential_value_raises(self, monkeypatch):
        # an inf in V makes the scale-aware bound inf as well, which the
        # residual would meet; V itself must be finite
        chain = PolicyChain([[0.5, 0.5], [1.0, 0.0]], np.array([1.0, 0.0]))
        mu = stationary_distribution(chain)
        monkeypatch.setattr(np.linalg, "solve", lambda a, b: np.array([math.inf, 0.0]))
        with pytest.raises(SingularSystem, match="differential value residual exceeds 1e-9"):
            mdp_module._differential(chain, mu, float(mu @ chain.expected_reward))

    def test_nan_differential_residual_raises(self):
        chain = PolicyChain([[0.5, 0.5], [1.0, 0.0]], np.zeros(2))
        with pytest.raises(SingularSystem, match="differential value residual exceeds 1e-9"):
            mdp_module._differential(chain, stationary_distribution(chain), math.nan)


class TestGradients:
    def test_policy_gradient_finite_difference(self):
        h = 1e-5
        for i in range(20):
            m = two_action_garnet(100 + i)
            pol0 = tabular_policy(m)
            theta = np.random.default_rng(200 + i).normal(size=pol0.dim)
            g = policy_gradient(m, pol0.with_theta(theta))
            fd = np.zeros_like(g)
            for j in range(len(theta)):
                e = np.zeros_like(theta)
                e[j] = h
                fd[j] = (
                    average_reward(m, pol0.with_theta(theta + e))
                    - average_reward(m, pol0.with_theta(theta - e))
                ) / (2 * h)
            rel = np.abs(g - fd).max() / max(np.abs(fd).max(), 1e-12)
            assert rel <= 1e-4, f"instance {i}: rel error {rel:.2e}"

    def test_grad_stationary_finite_difference(self):
        h = 1e-5
        for i in range(5):
            m = two_action_garnet(150 + i)
            pol0 = tabular_policy(m)
            theta = np.random.default_rng(250 + i).normal(size=pol0.dim)
            J = grad_stationary(m, pol0.with_theta(theta))
            fd = np.zeros_like(J)
            for j in range(len(theta)):
                e = np.zeros_like(theta)
                e[j] = h
                mu_p = stationary_distribution(induced_chain(m, pol0.with_theta(theta + e)))
                mu_m = stationary_distribution(induced_chain(m, pol0.with_theta(theta - e)))
                fd[j] = (mu_p - mu_m) / (2 * h)
            rel = np.abs(J - fd).max() / max(np.abs(fd).max(), 1e-12)
            assert rel <= 1e-4, f"instance {i}: rel error {rel:.2e}"

    def test_grad_stationary_rows_sum_to_zero(self):
        m = two_action_garnet(6)
        pol = tabular_policy(m, np.random.default_rng(4).normal(size=15))
        J = grad_stationary(m, pol)
        assert J.shape == (15, 5)
        assert np.abs(J.sum(axis=1)).max() < 1e-10


class TestChainPeriod:
    def test_period_two_cycle(self):
        assert chain_period(np.array([[0.0, 1.0], [1.0, 0.0]])) == 2

    def test_aperiodic_with_self_loop(self):
        assert chain_period(np.array([[0.5, 0.5], [1.0, 0.0]])) == 1

    def test_memo_keyed_on_support(self):
        # same size, different supports: a cached period must not leak
        cycle = np.roll(np.eye(4), 1, axis=1)
        assert chain_period(cycle) == 4
        assert chain_period(0.5 * np.eye(4) + 0.5 * cycle) == 1
        assert chain_period(0.5 * cycle + 0.5 * cycle.T) == 2
        assert chain_period(cycle) == 4

    def test_matches_edge_loop_reference(self):
        # reference: BFS levels from state 0, then the gcd of level[u] + 1 -
        # level[v] over every edge leaving a reached state, one edge at a time
        def reference_period(support):
            level = {0: 0}
            frontier, edges = [0], []
            while frontier:
                nxt = []
                for u in frontier:
                    for v in map(int, np.nonzero(support[u])[0]):
                        edges.append((u, v))
                        if v not in level:
                            level[v] = level[u] + 1
                            nxt.append(v)
                frontier = nxt
            g = 0
            for u, v in edges:
                g = math.gcd(g, level[u] + 1 - level[v])
            return g or 1

        rng = np.random.default_rng(12)
        periods = set()
        for _ in range(500):
            # edges only from layer l to layer l + 1 (mod p), so periods up to 4
            n, p = int(rng.integers(1, 12)), int(rng.integers(1, 5))
            layer = np.arange(n) % p
            support = rng.random((n, n)) < rng.uniform(0.05, 0.6)
            support &= layer[None, :] == (layer[:, None] + 1) % p
            # a ring through every state, with gaps so that some supports are reducible
            support[np.arange(n), (np.arange(n) + 1) % n] |= rng.random(n) < 0.9
            kernel = support / np.maximum(support.sum(axis=1, keepdims=True), 1)
            assert chain_period(kernel) == reference_period(kernel > 1e-12)
            periods.add(chain_period(kernel))
        assert len(periods) > 2
