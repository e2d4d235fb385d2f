"""Independent oracles: fixed points, drift fields, mixing rates, optima.

These routines cross-validate the learner and each other through distinct
computational routes:

  * critic_fixed_point solves A v = -b directly; projected_bellman_residual
    recomputes Phi^T D (T(Phi v) - Phi v) from the Bellman operator, and the
    two must agree with expected_critic_drift (all three equal A v + b).
  * actor_field_M evaluates the exact expected actor update by the full
    (s, a, s') triple sum; actor_bias evaluates the same object minus the true
    gradient through an independent expansion, so M = grad L + bias can be
    checked term by term.
  * estimate_mixing fits a geometric envelope b * k^m to exact total-variation
    distances from matrix powers.
  * brute_force_optimum enumerates deterministic policies and scores each by
    the closed classes of its support graph (mdp._reach); lp_optimum solves
    the stationary-flow linear program.  They agree on small instances, and
    the LP scales to instances where enumeration would blow the budget.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass

import numpy as np

from .errors import BudgetExceeded, InvalidSpec, PeriodicChain, SingularSystem
from .features import FeatureMap, _critic_solve, matrix_A
from .mdp import (_SUPPORT_TOL, FiniteMdp, SoftmaxLinearPolicy, _evaluate, _gradient, _reach,
                  _solve_stationary)

_DECAY_FLOOR = 1e-12


def critic_fixed_point(
    mdp: FiniteMdp, policy: SoftmaxLinearPolicy, features: FeatureMap
) -> np.ndarray:
    """TD(0) fixed point v* = -A^{-1} b; raises SingularA when A is singular.

    Singularity is detected by conditioning, not by solve failure: a singular
    A with b in its range still "solves" but the fixed point is not unique.
    """
    return _critic_solve(*matrix_A(mdp, policy, features))


def projected_bellman_residual(
    mdp: FiniteMdp, policy: SoftmaxLinearPolicy, features: FeatureMap, v: np.ndarray
) -> np.ndarray:
    """Phi^T D_mu (T_theta(Phi v) - Phi v) where T is the average-reward Bellman operator.

    Expanding T_theta(x) = R_theta - L(theta) e + P_theta x shows this equals
    A v + b identically, which is also the expected critic increment; the
    residual vanishes exactly at v*.
    """
    chain, mu, gain = _evaluate(mdp, policy)
    Phi = features.table
    x = Phi @ v
    bellman = chain.expected_reward - gain + chain.kernel @ x
    return Phi.T @ (mu * (bellman - x))


def expected_critic_drift(
    mdp: FiniteMdp, policy: SoftmaxLinearPolicy, features: FeatureMap, v: np.ndarray
) -> np.ndarray:
    """Stationary expectation of the critic increment delta_t phi(s_t).

    Computed as the explicit triple sum over (s, a, s') with the exact average
    reward in place of L_t; equals A v + b.
    """
    _, mu, gain = _evaluate(mdp, policy)
    p = policy.prob_table()
    Phi = features.table
    phi_v = Phi @ v
    # delta(s, a) averaged over s': R(s,a) - L + sum_s' P(s'|s,a) phi(s').v - phi(s).v
    delta = mdp.reward - gain + mdp.transition @ phi_v - phi_v[:, None]
    weights = np.einsum("s,sa,sa->s", mu, p, delta)
    return Phi.T @ weights


def actor_field_M(
    mdp: FiniteMdp, policy: SoftmaxLinearPolicy, features: FeatureMap, v: np.ndarray
) -> np.ndarray:
    """Exact expected actor update direction at (theta, v).

    M(theta, v) = sum_{s,a,s'} mu(s) pi(a|s) P(s'|s,a)
                  (R(s,a) - L(theta) + phi(s').v - phi(s).v) grad log pi(a|s).
    """
    _, mu, gain = _evaluate(mdp, policy)
    return _actor_field(mdp, policy.prob_table(), policy.score_table(), features, v, mu, gain)


def _actor_field(mdp: FiniteMdp, p: np.ndarray, psi: np.ndarray, features: FeatureMap,
                 v: np.ndarray, mu: np.ndarray, gain: float) -> np.ndarray:
    """actor_field_M of an evaluated policy with prob and score tables p and psi."""
    phi_v = features.table @ v
    delta = mdp.reward - gain + mdp.transition @ phi_v - phi_v[:, None]
    return np.tensordot(mu[:, None] * p * delta, psi, axes=2)


def actor_bias(
    mdp: FiniteMdp, policy: SoftmaxLinearPolicy, features: FeatureMap, v: np.ndarray
) -> np.ndarray:
    """Bias of the actor field relative to the true gradient: M = grad L + bias.

    Evaluated through the expansion sum_s mu(s) grad Vbar(s) - 0 where
    Vbar(s) = sum_a pi(a|s)(R(s,a) - L + sum_s' P(s'|s,a) phi(s').v); the
    - phi(s).v term drops because the scores average to zero under pi(.|s).
    This route never forms M itself, so it cross-validates the triple sum.
    """
    chain, mu, gain = _evaluate(mdp, policy)
    p = policy.prob_table()
    psi = policy.score_table()
    phi_v = features.table @ v
    inner = mdp.reward - gain + mdp.transition @ phi_v  # (S, A), no - phi(s).v term
    # grad pi(a|s) = pi(a|s) psi(s, a)
    field = np.tensordot(mu[:, None] * p * inner, psi, axes=2)
    return field - _gradient(mdp, policy, chain, mu, gain)


@dataclass(frozen=True)
class MixingProfile:
    """Geometric mixing envelope d_TV(P^m(s, .), mu) <= b * k^m.

    `distances` holds the measured worst-state total-variation distances,
    index m-1 for power m.  The degenerate perfectly-mixing case (d_1 = 0) is
    reported as b = 0, k = 0 with tau identically 1.
    """

    b: float
    k: float
    distances: tuple[float, ...]

    def tau_for(self, eps: float) -> int:
        """Smallest m >= 0 with b * k^(m-1) <= eps."""
        if self.b == 0.0:
            return 1
        if eps <= 0:
            raise ValueError("eps must be positive")
        if self.b / self.k <= eps:
            return 0
        m = max(0, math.ceil(1.0 + math.log(eps / self.b) / math.log(self.k)))
        while self.b * self.k ** (m - 1) > eps:  # guard against rounding in the ceil
            m += 1
        return m

    def tau(self, t: int, sched) -> int:
        """tau_t for a StepSchedule: mixing time at the smallest current step size."""
        eps = min(sched.alpha(t), sched.beta(t), sched.gamma(t))
        return self.tau_for(eps)


def estimate_mixing(
    mdp: FiniteMdp, policy: SoftmaxLinearPolicy, horizon: int = 200
) -> MixingProfile:
    """Fit a geometric envelope to exact worst-state mixing distances.

    Computes d_m = max_s d_TV(P^m(s, .), mu) by repeated exact matrix powers
    for m = 1..horizon (stopping once d_m <= 1e-12), fits log d_m = log b +
    m log k by least squares, drops the m = 1 point when it sits more than 20%
    off the fitted line (pre-asymptotic head), then raises the prefactor to
    b = max_m d_m / k^m so the envelope dominates every measured distance.

    Raises PeriodicChain when the distances never decay below 0.5 * d_1 within
    the horizon (no geometric regime to fit), and InvalidSpec when horizon < 1.
    """
    if horizon < 1:
        raise InvalidSpec(f"mixing horizon must be at least 1, got {horizon}")
    chain, mu, _ = _evaluate(mdp, policy)
    K = chain.kernel
    power = K.copy()
    ds: list[float] = []
    for _ in range(horizon):
        d = float(0.5 * np.abs(power - mu).sum(axis=1).max())
        ds.append(d)
        if d <= _DECAY_FLOOR:
            break
        power = power @ K
    if ds[0] <= 1e-14:
        return MixingProfile(b=0.0, k=0.0, distances=tuple(ds))
    if min(ds) > 0.5 * ds[0]:
        raise PeriodicChain(
            f"d_m stayed above 0.5 * d_1 = {0.5 * ds[0]:.3e} for {len(ds)} powers"
        )

    ms = np.arange(1, len(ds) + 1, dtype=float)
    logd = np.log(np.array(ds))
    keep = np.array(ds) > _DECAY_FLOOR
    ms_fit, logd_fit = ms[keep], logd[keep]
    slope, intercept = np.polyfit(ms_fit, logd_fit, 1)
    # Exclude the pre-asymptotic head when m = 1 deviates > 20% from the line.
    if len(ms_fit) > 2 and ms_fit[0] == 1.0:
        predicted_d1 = math.exp(intercept + slope * 1.0)
        if abs(predicted_d1 / ds[0] - 1.0) > 0.2:
            slope, intercept = np.polyfit(ms_fit[1:], logd_fit[1:], 1)
    k = math.exp(min(slope, -1e-12))
    b = max(d / k ** m for m, d in zip(range(1, len(ds) + 1), ds))
    return MixingProfile(b=b, k=k, distances=tuple(ds))


def _deterministic_gain(mdp: FiniteMdp, actions: np.ndarray) -> float:
    """Best recurrent-class gain of the chain induced by a deterministic policy.

    Multichain policies are scored optimistically by their best closed class,
    which keeps the enumeration an upper bound on any single-chain gain.  A
    state is recurrent iff every state it reaches reaches it back; the
    reachable sets of the recurrent states are the closed classes.
    """
    idx = np.arange(mdp.n_states)
    K = mdp.transition[idx, actions, :]
    r = mdp.reward[idx, actions]
    reach = _reach(K > _SUPPORT_TOL)
    recurrent = (reach <= reach.T).all(axis=1)
    best = -np.inf
    for members in np.unique(reach[recurrent], axis=0):
        mu = _solve_stationary(K[np.ix_(members, members)])
        best = max(best, float(mu @ r[members]))
    return best


def brute_force_optimum(mdp: FiniteMdp, budget: int = 10**6) -> tuple[float, np.ndarray]:
    """Exact optimal gain by enumerating all deterministic stationary policies.

    Returns (L*, actions).  Ties break toward the lexicographically smallest
    action tuple (enumeration order).  Raises BudgetExceeded when
    n_actions ** n_states > budget.
    """
    n_pol = mdp.n_actions ** mdp.n_states
    if n_pol > budget:
        raise BudgetExceeded(
            f"{mdp.n_actions}^{mdp.n_states} = {n_pol} deterministic policies exceeds "
            f"budget {budget}"
        )
    best_gain = -np.inf
    best_actions = None
    for actions in itertools.product(range(mdp.n_actions), repeat=mdp.n_states):
        arr = np.array(actions, dtype=int)
        gain = _deterministic_gain(mdp, arr)
        if gain > best_gain + 1e-12:
            best_gain = gain
            best_actions = arr
    return best_gain, best_actions


def lp_optimum(mdp: FiniteMdp) -> float:
    """Optimal gain via the stationary state-action flow linear program.

    maximize sum_{s,a} x(s,a) R(s,a) over x >= 0 with
      sum_a x(s',a) = sum_{s,a} x(s,a) P(s'|s,a)  for all s',
      sum x = 1.
    Feasible points are exactly stationary occupation measures, so the optimum
    matches brute_force_optimum while scaling far beyond the enumeration
    budget.
    """
    from scipy.optimize import linprog  # here, so that only the LP pays for loading scipy

    S, A = mdp.n_states, mdp.n_actions
    c = -mdp.reward.reshape(S * A)
    # flow conservation: sum_a x(s',a) - sum_{s,a} x(s,a) P(s'|s,a) = 0
    flow = np.repeat(np.eye(S), A, axis=1) - mdp.transition.reshape(S * A, S).T
    A_eq = np.vstack([flow, np.ones(S * A)])
    b_eq = np.zeros(S + 1)
    b_eq[S] = 1.0
    res = linprog(c, A_eq=A_eq, b_eq=b_eq, bounds=(0, None), method="highs")
    if not res.success:
        raise SingularSystem(f"occupation-measure LP failed: {res.message}")
    return float(-res.fun)
