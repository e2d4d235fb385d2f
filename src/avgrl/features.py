"""Linear critic features and the negative-definiteness / constants report.

A feature map assigns each state a vector phi(s) in R^{d1}.  For TD(0) with
linear function approximation the relevant objects are

    A(theta) = Phi^T D_mu (P_theta - I) Phi,
    b(theta) = Phi^T D_mu (R_theta - L(theta) e),

whose fixed point v* = -A^{-1} b is what the critic tracks.  The map must keep
||phi(s)|| <= 1, have full column rank, and exclude the all-ones vector from
its column span; one-step TD is negative definite only sampled-wise, so the
report below is an estimate over sampled actor parameters, not a certificate.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .errors import InfeasibleDimension, InvalidSpec, InvariantViolation, SingularA
from .mdp import FiniteMdp, SoftmaxLinearPolicy, induced_chain, stationary_distribution
from . import mdp as _mdp

E_EXCLUSION_RESIDUAL = 1e-6
RANDOM_UNIT_MAX_REDRAWS = 100
THETA_SAMPLE_SCALE = 1.0
LAMBDA_MARGIN = -1e-8

FEATURE_KINDS = ("one_hot_reduced", "random_unit", "tabular_centered")


@dataclass(frozen=True)
class FeatureMap:
    """State features Phi, one row per state, shape (S, d1), every entry finite."""

    table: np.ndarray
    __reduce__ = _mdp._reduce_to_fields

    def __post_init__(self):
        object.__setattr__(self, "table", _mdp._frozen_array(self.table))
        if self.table.ndim != 2:
            raise InvariantViolation("feature table must have shape (S, d1)")
        if not np.isfinite(self.table).all():
            raise InvariantViolation("feature table has a non-finite entry")

    @property
    def n_states(self) -> int:
        return self.table.shape[0]

    @property
    def dim(self) -> int:
        return self.table.shape[1]

    def norm_ok(self) -> bool:
        return bool(np.linalg.norm(self.table, axis=1).max() <= 1.0 + 1e-9)

    def rank_ok(self) -> bool:
        return int(np.linalg.matrix_rank(self.table)) == self.dim

    def e_residual(self) -> float:
        """L2 residual of the least-squares fit of the all-ones vector."""
        e = np.ones(self.n_states)
        coeff, *_ = np.linalg.lstsq(self.table, e, rcond=None)
        return float(np.linalg.norm(self.table @ coeff - e))

    def e_excluded(self) -> bool:
        return self.e_residual() >= E_EXCLUSION_RESIDUAL


def make_features(
    kind: str,
    mdp: FiniteMdp,
    d1: int | None = None,
    seed: int = 0,
) -> FeatureMap:
    """Construct a feature map of the given kind, enforcing all invariants.

    Kinds:
      one_hot_reduced   indicators for states 0..d1-1 (d1 <= S-1, default S-1);
                        the remaining states get the zero vector.
      random_unit       i.i.d. Gaussian rows rescaled so max ||phi(s)|| = 1,
                        redrawn until full rank and e-exclusion hold, at most
                        RANDOM_UNIT_MAX_REDRAWS times.
      tabular_centered  phi_j(s) = 1{s == j} - 1/S for j < S-1; spans exactly
                        the mean-zero subspace, so shifted values are exact.
    """
    n = mdp.n_states
    if kind == "one_hot_reduced":
        if d1 is None:
            d1 = n - 1
        if not 1 <= d1 <= n - 1:
            raise InfeasibleDimension(f"one_hot_reduced needs 1 <= d1 <= {n - 1}, got {d1}")
        table = np.zeros((n, d1))
        table[:d1, :] = np.eye(d1)
        fmap = FeatureMap(table)
    elif kind == "tabular_centered":
        if d1 is None:
            d1 = n - 1
        if d1 != n - 1:
            raise InfeasibleDimension(f"tabular_centered requires d1 = {n - 1}, got {d1}")
        table = np.zeros((n, d1))
        table[:d1, :] = np.eye(d1)
        table -= 1.0 / n
        fmap = FeatureMap(table)
    elif kind == "random_unit":
        if d1 is None:
            d1 = max(1, n // 2)
        if not 1 <= d1 <= n - 1:
            raise InfeasibleDimension(f"random_unit needs 1 <= d1 <= {n - 1}, got {d1}")
        rng = np.random.default_rng(seed)
        fmap = None
        for _ in range(RANDOM_UNIT_MAX_REDRAWS):
            table = rng.standard_normal((n, d1))
            table /= np.linalg.norm(table, axis=1).max()
            cand = FeatureMap(table)
            if cand.rank_ok() and cand.e_excluded():
                fmap = cand
                break
        if fmap is None:
            raise InfeasibleDimension(
                f"random_unit failed rank/e-exclusion after {RANDOM_UNIT_MAX_REDRAWS} redraws"
            )
    else:
        raise InfeasibleDimension(f"unknown feature kind {kind!r}; want one of {FEATURE_KINDS}")

    if not (fmap.norm_ok() and fmap.rank_ok() and fmap.e_excluded()):
        raise InfeasibleDimension(f"{kind} features violate construction invariants")
    return fmap


def matrix_A(
    mdp: FiniteMdp, policy: SoftmaxLinearPolicy, features: FeatureMap
) -> tuple[np.ndarray, np.ndarray]:
    """Return (A, b) for the TD(0) critic at the policy's parameters.

    A = Phi^T D_mu (P_theta - I) Phi is the expected update matrix
    E[phi(s)(phi(s') - phi(s))^T] under stationarity; b = E[(r - L) phi(s)].
    """
    chain = induced_chain(mdp, policy)
    # By name, not via _evaluate: perfbench/test_tracer.py asserts features binds it.
    mu = stationary_distribution(chain)
    return _critic_matrices(features.table, chain, mu, float(mu @ chain.expected_reward))


def _critic_matrices(
    Phi: np.ndarray, chain: _mdp.PolicyChain, mu: np.ndarray, gain: float
) -> tuple[np.ndarray, np.ndarray]:
    """(A, b) of an evaluated chain; see matrix_A.  InvariantViolation when
    either is not finite, as a finite but huge feature table can make it."""
    with np.errstate(over="ignore", invalid="ignore"):
        A = Phi.T @ (mu[:, None] * (chain.kernel @ Phi - Phi))
        b = Phi.T @ (mu * (chain.expected_reward - gain))
    if not (np.isfinite(A).all() and np.isfinite(b).all()):
        raise InvariantViolation(
            f"the critic matrices A(theta), b(theta) are not finite: the feature table's "
            f"largest |entry| is {float(np.abs(Phi).max()):.6g}; scale the features down")
    return A, b


def _well_inside_negative_definite(A: np.ndarray) -> bool:
    """Whether a Cholesky of -sym(A) - tau I succeeds, with sym(A) = (A + A^T)/2
    and tau = 1e-8 ||A||_F; False for a zero or non-finite A, and for an A
    whose ||A||_F overflows."""
    with np.errstate(over="ignore"):
        tau = 1e-8 * float(np.linalg.norm(A))
    if not (tau > 0.0 and math.isfinite(tau)):
        return False
    H = -0.5 * (A + A.T)
    H.flat[::A.shape[0] + 1] -= tau
    try:
        np.linalg.cholesky(H)
    except np.linalg.LinAlgError:
        return False
    return True


def _critic_solve(A: np.ndarray, b: np.ndarray) -> np.ndarray:
    """v* = -A^{-1} b; SingularA when A fails the conditioning or residual test,
    or when v* is not finite.

    The conditioning test asks for sigma_min(A) > 1e-12 sigma_max(A).  A
    Cholesky of -sym(A) - tau I (`_well_inside_negative_definite`) settles it
    cheaply whenever A is well inside negative definiteness: for every x,
    ||A x|| ||x|| >= -x^T A x = x^T (-sym A) x, so sigma_min(A) >=
    lambda_min(-sym A) > tau = 1e-8 ||A||_F, and ||A||_F >= sigma_max(A), so
    an accepted A has sigma_min/sigma_max > 1e-8.  The rounding of the
    Cholesky (Higham, Accuracy and Stability of Numerical Algorithms, ch. 10)
    and of the SVD is about d1 eps relative to ||A||, which the four decades
    between 1e-8 and 1e-12 cover, so an accepted A would have passed the SVD
    test too.  Any other A (not negative definite by that margin, zero,
    non-finite, or with an overflowing ||A||_F) takes the SVD test, with its
    message, so SingularA is raised on the same inputs either way.
    """
    if not _well_inside_negative_definite(A):
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
    # math.hypot scales, so neither norm overflows on a finite vector; a NaN residual fails
    if not math.hypot(*(A @ v + b).tolist()) <= 1e-10 * max(1.0, math.hypot(*b.tolist())):
        raise SingularA("critic solve residual exceeds tolerance; A is near singular")
    return v


def critic_radius(v_star: np.ndarray) -> float:
    """The default critic projection radius U_v = max(10 ||v*||, 1).  ||v*|| is
    np.linalg.norm's, or the scaled math.hypot's where that overflows."""
    with np.errstate(over="ignore"):
        norm = float(np.linalg.norm(v_star))
    if not math.isfinite(norm):
        norm = math.hypot(*v_star.tolist())
    return max(10.0 * norm, 1.0)


@dataclass
class AssumptionReport:
    """Sampled validation report for the critic and mixing assumptions.

    lambda_thetas holds the largest eigenvalue of sym(A(theta)) for each
    sampled theta (the zero vector is always included); the headline lambda_sup
    is their max and lam = -lambda_sup.  Negative definiteness "passes" iff
    every sampled eigenvalue sits below -1e-8.  This is evidence over a sample
    of parameters, not a certificate over all of R^{d2}.
    """

    lambda_thetas: list[float]
    rank_ok: bool
    norm_ok: bool
    e_excluded: bool
    constants: dict[str, float] = field(default_factory=dict)
    mixing_b: float | None = None
    mixing_k: float | None = None
    tau_examples: dict[int, int | None] = field(default_factory=dict)

    @property
    def lambda_sup(self) -> float:
        return max(self.lambda_thetas)

    @property
    def lam(self) -> float:
        return -self.lambda_sup

    @property
    def features_ok(self) -> bool:
        return self.rank_ok and self.norm_ok and self.e_excluded

    @property
    def assumption2_ok(self) -> bool:
        return self.features_ok and all(l < LAMBDA_MARGIN for l in self.lambda_thetas)

    @property
    def mixing_ok(self) -> bool:
        return self.mixing_k is not None and 0.0 <= self.mixing_k < 1.0

    def to_dict(self) -> dict:
        return {
            "lambda_thetas": self.lambda_thetas,
            "lambda_sup": self.lambda_sup,
            "lam": self.lam,
            "rank_ok": self.rank_ok,
            "norm_ok": self.norm_ok,
            "e_excluded": self.e_excluded,
            "assumption2_ok": self.assumption2_ok,
            "mixing_b": self.mixing_b,
            "mixing_k": self.mixing_k,
            "tau_examples": {str(t): tau for t, tau in self.tau_examples.items()},
            "constants": self.constants,
        }


def check_assumption2(
    mdp: FiniteMdp,
    policy: SoftmaxLinearPolicy,
    features: FeatureMap,
    n_theta_samples: int = 8,
    seed: int = 0,
) -> AssumptionReport:
    """Probe negative definiteness of A(theta) over sampled actor parameters.

    Samples theta = 0 plus (n_theta_samples - 1) standard Gaussian draws times
    THETA_SAMPLE_SCALE and records the largest eigenvalue of (A + A^T)/2 at
    each.  Also derives the constants used by the step-size ratio bound:

        B  = 2 max ||x(s,a)||          (score bound)
        U_v = max(10 ||v*(theta_0)||, 1)   (critic projection radius, critic_radius)
        Ubar_v = 2 max_theta ||V^theta||_inf
        G  = 2 (U_r + U_v) B
        U_w = 2 B (U_v + Ubar_v)
        ratio_bound = 1 / (2 B (G + U_w) + U_w B)

    Rank-deficient feature maps are rejected outright (A would be singular for
    structural reasons); maps that merely fail norm or e-exclusion are allowed
    through so the validator can report the failure.
    """
    if not features.rank_ok():
        raise InfeasibleDimension("feature map is rank deficient; A(theta) is degenerate")
    if features.n_states != mdp.n_states:
        raise InvariantViolation("feature map size does not match the MDP")
    if n_theta_samples < 1:
        raise InvalidSpec(f"n_theta_samples must be at least 1, got {n_theta_samples}")
    if seed < 0:  # numpy's generators take no negative seed
        raise InvalidSpec(f"seed must be nonnegative, got {seed}")
    rng = np.random.default_rng(seed)
    thetas = [np.zeros(policy.dim)]
    for _ in range(n_theta_samples - 1):
        thetas.append(THETA_SAMPLE_SCALE * rng.standard_normal(policy.dim))

    lambdas: list[float] = []
    vbar = 0.0
    u_v = np.nan  # stays NaN without a unique fixed point at theta_0
    for i, theta in enumerate(thetas):
        chain, mu, gain = _mdp._evaluate(mdp, policy.with_theta(theta))
        A, b = _critic_matrices(features.table, chain, mu, gain)
        sym = 0.5 * (A + A.T)
        lambdas.append(float(np.linalg.eigvalsh(sym).max()))
        V = _mdp._differential(chain, mu, gain)
        vbar = max(vbar, float(np.abs(V).max()))
        if i == 0:
            try:
                u_v = critic_radius(_critic_solve(A, b))
            except SingularA:
                pass

    B = policy.score_bound
    ubar_v = 2.0 * vbar
    G = 2.0 * (mdp.reward_bound + u_v) * B
    u_w = 2.0 * B * (u_v + ubar_v)
    denom = 2.0 * B * (G + u_w) + u_w * B
    constants = {
        "B": B,
        "U_r": mdp.reward_bound,
        "U_v": u_v,
        "Ubar_v": ubar_v,
        "G": G,
        "U_w": u_w,
        "ratio_bound": 1.0 / denom if denom > 0 else np.inf,
    }
    return AssumptionReport(
        lambda_thetas=lambdas,
        rank_ok=features.rank_ok(),
        norm_ok=features.norm_ok(),
        e_excluded=features.e_excluded(),
        constants=constants,
    )
