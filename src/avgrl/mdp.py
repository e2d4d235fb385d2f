"""Finite average-reward MDPs, softmax-linear policies, and exact solvers.

All quantities here are population values computed by dense linear algebra on
the full transition model: stationary distributions, the long-run average
reward (gain), differential values, Q-values/advantages, the exact policy
gradient, and the Jacobian of the stationary distribution.  Sampled learners
are measured against these solvers, so correctness beats speed throughout.

Conventions:
  * transition[s, a, s1] = P(s1 | s, a), each (s, a) row a distribution,
  * reward[s, a] with |reward| <= reward_bound everywhere,
  * a policy chain has kernel[s, s1] = sum_a pi(a|s) P(s1|s,a) and
    expected_reward[s] = sum_a pi(a|s) R(s, a),
  * a kernel's support graph has an edge s -> s1 iff kernel[s, s1] > _SUPPORT_TOL;
    its closure `_reach` decides irreducibility and, in `oracles`, closed classes.
"""

from __future__ import annotations

import functools
import warnings
from dataclasses import dataclass

import numpy as np

from .errors import InvariantViolation, NotIrreducible, SingularSystem

_ROW_SUM_TOL = 1e-9
_SUPPORT_TOL = 1e-12


def _frozen_array(x, dtype=float) -> np.ndarray:
    out = np.array(x, dtype=dtype)
    out.flags.writeable = False
    return out


@dataclass(frozen=True)
class FiniteMdp:
    """A finite MDP with a known transition tensor and bounded rewards."""

    transition: np.ndarray  # (S, A, S)
    reward: np.ndarray  # (S, A)
    reward_bound: float

    def __post_init__(self):
        object.__setattr__(self, "transition", _frozen_array(self.transition))
        object.__setattr__(self, "reward", _frozen_array(self.reward))
        P, R = self.transition, self.reward
        if P.ndim != 3 or P.shape[0] != P.shape[2]:
            raise InvariantViolation(f"transition tensor has shape {P.shape}, want (S, A, S)")
        if R.shape != P.shape[:2]:
            raise InvariantViolation(f"reward table has shape {R.shape}, want {P.shape[:2]}")
        if np.any(P < -_SUPPORT_TOL):
            s, a, s1 = np.unravel_index(int(np.argmin(P)), P.shape)
            raise InvariantViolation(f"negative transition probability at (s={s}, a={a}, s'={s1})")
        row_err = np.abs(P.sum(axis=2) - 1.0)
        if not row_err.max() <= _ROW_SUM_TOL:  # a NaN entry fails too
            s, a = np.unravel_index(int(np.argmax(row_err)), row_err.shape)
            raise InvariantViolation(f"transition row (s={s}, a={a}) sums to {P[s, a].sum():.12g}")
        if not self.reward_bound > 0:
            raise InvariantViolation(f"reward_bound must be positive, got {self.reward_bound}")
        if self.reward_bound == np.inf:  # every reward and |delta| bound would be vacuous
            raise InvariantViolation("reward_bound must be finite, got inf")
        if not np.abs(R).max() <= self.reward_bound + 1e-12:
            s, a = np.unravel_index(int(np.argmax(np.abs(R))), R.shape)
            raise InvariantViolation(
                f"|reward| at (s={s}, a={a}) is {abs(R[s, a]):.12g} > bound {self.reward_bound}"
            )

    @property
    def n_states(self) -> int:
        return self.transition.shape[0]

    @property
    def n_actions(self) -> int:
        return self.transition.shape[1]


@dataclass(frozen=True)
class SoftmaxLinearPolicy:
    """Softmax-linear policy: pi(a|s) proportional to exp(theta . x(s, a)).

    The score function is grad log pi(a|s) = x(s,a) - sum_a' pi(a'|s) x(s,a'),
    so its norm never exceeds 2 * max ||x(s,a)|| (the `score_bound`).
    """

    theta: np.ndarray  # (d2,)
    action_features: np.ndarray  # (S, A, d2)

    def __post_init__(self):
        object.__setattr__(self, "theta", _frozen_array(self.theta))
        object.__setattr__(self, "action_features", _frozen_array(self.action_features))
        if self.action_features.ndim != 3:
            raise InvariantViolation("action_features must have shape (S, A, d2)")
        if self.theta.shape != (self.action_features.shape[2],):
            raise InvariantViolation(f"theta has {self.theta.size} entries, the policy takes "
                                     f"{self.action_features.shape[2]}")

    @property
    def dim(self) -> int:
        return self.theta.shape[0]

    @property
    def feature_bound(self) -> float:
        return float(np.linalg.norm(self.action_features, axis=2).max())

    @property
    def score_bound(self) -> float:
        return 2.0 * self.feature_bound

    def with_theta(self, theta: np.ndarray) -> "SoftmaxLinearPolicy":
        return SoftmaxLinearPolicy(theta, self.action_features)

    def prob_table(self) -> np.ndarray:
        """Full pi(a|s) table, shape (S, A); rows sum to 1."""
        logits = self.action_features @ self.theta  # (S, A)
        logits = logits - logits.max(axis=1, keepdims=True)
        p = np.exp(logits)
        p /= p.sum(axis=1, keepdims=True)
        return p

    def score_table(self) -> np.ndarray:
        """grad log pi for every (s, a), shape (S, A, d2)."""
        p = self.prob_table()
        mean_feat = np.einsum("sa,sad->sd", p, self.action_features)
        return self.action_features - mean_feat[:, None, :]


@dataclass(frozen=True)
class PolicyChain:
    """Markov chain and expected one-step reward induced by a fixed policy."""

    kernel: np.ndarray  # (S, S)
    expected_reward: np.ndarray  # (S,)

    def __post_init__(self):
        object.__setattr__(self, "kernel", _frozen_array(self.kernel))
        object.__setattr__(self, "expected_reward", _frozen_array(self.expected_reward))
        K = self.kernel
        if K.ndim != 2 or K.shape[0] != K.shape[1]:
            raise InvariantViolation(f"kernel has shape {K.shape}, want square")
        if self.expected_reward.shape != (K.shape[0],):
            raise InvariantViolation("expected_reward length must match kernel size")
        if np.any(K < -_SUPPORT_TOL):
            raise InvariantViolation("kernel has a negative entry")
        if np.abs(K.sum(axis=1) - 1.0).max() > _ROW_SUM_TOL:
            raise InvariantViolation("kernel rows must sum to 1")

    @property
    def n_states(self) -> int:
        return self.kernel.shape[0]


def induced_chain(mdp: FiniteMdp, policy: SoftmaxLinearPolicy) -> PolicyChain:
    """Average the transition tensor and rewards under pi(.|s)."""
    p = policy.prob_table()
    kernel = np.einsum("sa,sat->st", p, mdp.transition)
    expected_reward = np.einsum("sa,sa->s", p, mdp.reward)
    return PolicyChain(kernel, expected_reward)


def is_irreducible(kernel: np.ndarray) -> bool:
    """True iff the support digraph is a single strongly connected component.

    The answer depends only on the support pattern (entries > _SUPPORT_TOL), so
    it is memoised per pattern: under a softmax policy every action has positive
    probability and the support is the same at every theta.
    """
    return _support_irreducible(*_packed_support(kernel))


def _packed_support(kernel: np.ndarray) -> tuple[int, bytes]:
    """Hashable key of the support pattern (entries > _SUPPORT_TOL) of a square kernel."""
    return kernel.shape[0], np.packbits(kernel > _SUPPORT_TOL).tobytes()


def _unpack_support(n: int, packed: bytes) -> np.ndarray:
    bits = np.unpackbits(np.frombuffer(packed, dtype=np.uint8), count=n * n)
    return bits.reshape(n, n).astype(bool)


def _reach(support: np.ndarray) -> np.ndarray:
    """reach[u, v] iff v is reachable from u: the reflexive-transitive closure, by
    ceil(log2 n) squarings.  A 0/1 float matmul thresholded at zero is exact."""
    reach = support | np.eye(support.shape[0], dtype=bool)
    for _ in range((support.shape[0] - 1).bit_length()):
        walks = reach.astype(float)
        reach = walks @ walks > 0
    return reach


@functools.lru_cache(maxsize=64)
def _support_irreducible(n: int, packed: bytes) -> bool:
    return bool(_reach(_unpack_support(n, packed)).all())


def chain_period(kernel: np.ndarray) -> int:
    """Period of an irreducible chain: gcd of (level[u] + 1 - level[v]) over edges.

    Levels come from a BFS over the support digraph; the standard identity for
    strongly connected graphs gives the gcd of all cycle lengths.  Memoised per
    support pattern, like is_irreducible.
    """
    return _support_period(*_packed_support(kernel))


@functools.lru_cache(maxsize=64)
def _support_period(n: int, packed: bytes) -> int:
    support = _unpack_support(n, packed)
    level = np.full(n, -1)
    frontier = np.arange(n) == 0
    depth = 0
    while frontier.any():
        level[frontier] = depth
        frontier = support[frontier].any(axis=0) & (level < 0)
        depth += 1
    u, v = np.nonzero(support & (level >= 0)[:, None])
    return int(np.gcd.reduce(level[u] + 1 - level[v])) or 1


def _solve_stationary(kernel: np.ndarray) -> np.ndarray:
    """Normalised solution of mu K = mu by one LU solve, with no further checks.

    Solves the bordered system (K^T - I) mu = 0 with its last row replaced by
    the normalisation 1^T mu = 1 (Golub & Meyer, 1986); the matrix is
    nonsingular whenever K has a single closed communicating class.  Raises
    SingularSystem if the solve fails or yields a degenerate vector.
    """
    n = kernel.shape[0]
    M = kernel.T - np.eye(n)
    M[-1, :] = 1.0
    rhs = np.zeros(n)
    rhs[-1] = 1.0
    try:
        mu = np.linalg.solve(M, rhs)
    except np.linalg.LinAlgError as exc:
        raise SingularSystem("stationary system is singular") from exc
    mu = np.clip(mu, 0.0, None)
    total = mu.sum()
    if not np.isfinite(total) or total <= 0:
        raise SingularSystem("stationary solve produced a degenerate vector")
    mu /= total
    return mu


def stationary_distribution(chain: PolicyChain) -> np.ndarray:
    """Unique stationary distribution mu of an irreducible kernel.

    Solves the null-space system (P^T - I) mu = 0 with one of its rows replaced
    by the normalization 1^T mu = 1, by one LU solve.  Raises NotIrreducible if
    the support graph has more than one communicating class, and
    SingularSystem if the solve fails or does not reproduce stationarity to
    1e-10.
    """
    K = chain.kernel
    if not is_irreducible(K):
        raise NotIrreducible("kernel support is not a single communicating class")
    mu = _solve_stationary(K)
    if np.abs(mu @ K - mu).max() > 1e-10:
        raise SingularSystem(
            f"stationary residual {np.abs(mu @ K - mu).max():.3e} exceeds 1e-10"
        )
    return mu


def _evaluate(
    mdp: FiniteMdp, policy: SoftmaxLinearPolicy
) -> tuple[PolicyChain, np.ndarray, float]:
    """(chain, mu, gain) of the policy from one stationary solve.

    Every exact quantity at a fixed theta is a function of these three, so a
    caller that needs several of them evaluates the policy once.
    """
    chain = induced_chain(mdp, policy)
    mu = stationary_distribution(chain)
    return chain, mu, float(mu @ chain.expected_reward)


def average_reward(mdp: FiniteMdp, policy: SoftmaxLinearPolicy) -> float:
    """Long-run average reward (gain) L(theta) = mu . R_theta."""
    return _evaluate(mdp, policy)[2]


def _differential(chain: PolicyChain, mu: np.ndarray, gain: float) -> np.ndarray:
    """Differential value of an evaluated chain; see differential_value."""
    K = chain.kernel
    n = K.shape[0]
    if chain_period(K) > 1:
        warnings.warn("chain is periodic; differential value uses Cesaro-limit semantics")
    rhs = chain.expected_reward - gain
    try:
        V = np.linalg.solve(np.eye(n) - K + np.outer(np.ones(n), mu), rhs)
    except np.linalg.LinAlgError as exc:
        raise SingularSystem("differential value system is singular") from exc
    bellman = (np.eye(n) - K) @ V - rhs
    if np.abs(bellman).max() > 1e-9 or abs(mu @ V) > 1e-9:
        raise SingularSystem("differential value residual exceeds 1e-9")
    return V


def differential_value(mdp: FiniteMdp, policy: SoftmaxLinearPolicy) -> np.ndarray:
    """Differential value V solving (I - P) V = R_theta - L e with mu . V = 0.

    Uses the fundamental-matrix trick: (I - P + e mu^T) is nonsingular for
    irreducible chains and its solution automatically satisfies mu . V = 0.
    Warns (without failing) when the chain is periodic, where P^m itself does
    not converge and only Cesaro averages do.
    """
    return _differential(*_evaluate(mdp, policy))


def q_value(mdp: FiniteMdp, policy: SoftmaxLinearPolicy) -> np.ndarray:
    """Q(s, a) = R(s, a) - L(theta) + sum_s1 P(s1|s,a) V(s1), shape (S, A)."""
    chain, mu, gain = _evaluate(mdp, policy)
    return mdp.reward - gain + mdp.transition @ _differential(chain, mu, gain)


def _advantage(mdp: FiniteMdp, gain: float, V: np.ndarray) -> np.ndarray:
    return mdp.reward - gain + mdp.transition @ V - V[:, None]


def advantage_table(mdp: FiniteMdp, policy: SoftmaxLinearPolicy) -> np.ndarray:
    """Advantage A(s, a) = Q(s, a) - V(s); satisfies sum_a pi(a|s) A(s, a) = 0."""
    chain, mu, gain = _evaluate(mdp, policy)
    return _advantage(mdp, gain, _differential(chain, mu, gain))


def _gradient(
    mdp: FiniteMdp, policy: SoftmaxLinearPolicy, chain: PolicyChain, mu: np.ndarray,
    gain: float,
) -> np.ndarray:
    """Policy gradient of an evaluated chain; see policy_gradient."""
    adv = _advantage(mdp, gain, _differential(chain, mu, gain))
    return np.tensordot(mu[:, None] * policy.prob_table() * adv, policy.score_table(), axes=2)


def policy_gradient(mdp: FiniteMdp, policy: SoftmaxLinearPolicy) -> np.ndarray:
    """Exact gradient of the gain: sum_{s,a} mu(s) pi(a|s) A(s,a) grad log pi(a|s)."""
    return _gradient(mdp, policy, *_evaluate(mdp, policy))


def grad_stationary(mdp: FiniteMdp, policy: SoftmaxLinearPolicy) -> np.ndarray:
    """Jacobian of the stationary distribution, shape (d2, S).

    Row j is mu^T (dP/dtheta_j) Z with Z = (I - P + P_inf)^{-1} and P_inf the
    rank-one matrix with every row equal to mu.  Each row sums to zero
    (probability is conserved along every parameter direction).
    """
    chain, mu, _ = _evaluate(mdp, policy)
    K = chain.kernel
    n = K.shape[0]
    p = policy.prob_table()
    psi = policy.score_table()
    try:
        Z = np.linalg.inv(np.eye(n) - K + np.outer(np.ones(n), mu))
    except np.linalg.LinAlgError as exc:
        raise SingularSystem("fundamental matrix is singular") from exc
    # dP_theta[j, s, s1] = sum_a pi(a|s) psi(s,a)[j] P(s1|s,a)
    dP = np.einsum("sa,saj,sat->jst", p, psi, mdp.transition)
    return np.einsum("s,jst,tu->ju", mu, dP, Z)
