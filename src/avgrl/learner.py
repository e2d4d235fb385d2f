"""Sampled two-timescale learners for average-reward control.

All three algorithms share the same per-step arithmetic and differ only in
their step-size schedules:

    L_{t+1}   = L_t + gamma_t (r_t - L_t)
    delta_t   = r_t - L_t + phi(s_{t+1}).v_t - phi(s_t).v_t     (pre-update L_t)
    v_{t+1}   = Proj_{||v|| <= U_v} (v_t + beta_t delta_t phi(s_t))
    theta_{t+1} = theta_t + alpha_t delta_t grad log pi_theta(a_t|s_t)

The critic-actor regime decays the critic slower than the actor
(nu < sigma); classic actor-critic flips the ordering; the single-timescale
variant runs both at the same rate.  ALGO_SCHEDULES holds the three presets
and algo_schedule builds them.  The actor is unprojected by default; an
optional radius reproduces the projected variant.

One private driver, _drive(config, seeds), runs one config on several seeds:
`run(config, seed)` is its one-seed case and `run_batch(config, seeds)` the
batch.  Its one kernel, _make_step, runs a segment (up to the next metrics
row, at most _DRAW_BLOCK steps) seed by seed: each live seed runs the whole
segment on its state in local variables, written back to its slot once, at
the segment's end or where the seed fails, bit for bit as its one-seed run.
A segment lists its step sizes once, through StepSchedule, and each seed's
loop walks that list and indexes its draws.  One BLAS thread, 2-core
Xeon host, ca schedule (frozen: c_alpha = 0), 10k steps, min us per seed-step
over 45 runs in three sessions (90 for the last row):

    moving / frozen, N =   1          4          8          10
    four-state, one-hot    3.7 / 1.4  2.9 / 0.7  3.0 / 0.7  3.1 / 0.6
    gridworld4, one-hot    4.1 / 1.0  3.9 / 0.7  3.6 / 0.7  3.8 / 0.7
    random_unit:6 critic   6.1 / 3.0  5.6 / 2.5  5.3 / 2.4  5.2 / 2.3

The segment loop calls no numpy.  A seed's state is Python floats from its
first step to its final state, held by the seed's slot for the whole run: L,
s and the |delta| sum as numbers, theta, v and the tail sum as lists.  Arrays
are built from it only for a metrics row and for the final result.  One
softmax, _softmax_cum (libm's math.exp, sums left to right), builds the frozen
actor's table at theta_0 and steps a moving one; every dot product and squared
norm is a left-to-right _dot, never the builtin sum, which compensates from
Python 3.12 on.  So a trajectory does not depend on numpy's SIMD dispatch or
the OpenBLAS core.  One-hot features, detected at build time by exact
comparison, take lookups, bit for bit the _dot route: th[cols[s]] for the
logits when each x[s, a] is a unit vector (distinct within a state), v[j] for
phi(s).v when each phi(s) is zero or a unit vector.  An iterate's ball test
runs only when a bound on its norm could reach the radius (_BOUND_SLACK).

Each seed draws from its own counter-based generator in the fixed order
(action, next state, optional reward noise), so runs are bit-reproducible.
At a segment's start _drive draws each live seed's uniforms for it, k a step
(k = 2, or 3 with reward noise), as one flat list: step t of the segment from
t_start reads its j-th draw at u[n][k * (t - t_start) + j].  At a metrics row
t a live seed's generator has drawn its initial state and exactly k t uniforms.
Cumulative rows are inverted as np.searchsorted(side="right") would, by
bisect.bisect_right on a list.
"""

from __future__ import annotations

import math
import time
from bisect import bisect_right
from dataclasses import dataclass
from itertools import accumulate, repeat

import numpy as np

from .errors import AvgrlError, Diverged, InvalidSpec, InvariantViolation, OracleFailure
from .features import FeatureMap, critic_radius
from .mdp import FiniteMdp, SoftmaxLinearPolicy
from .oracles import critic_fixed_point


# (nu, sigma) per algorithm; the update equations are shared, only the clocks
# differ.  ca: actor on the faster clock (nu < sigma); ac: critic faster;
# stac: one rate for both.
ALGO_SCHEDULES = {"ca": (0.5, 0.51), "ac": (0.6, 0.4), "stac": (0.6, 0.6)}


@dataclass(frozen=True)
class StepSchedule:
    """Polynomially decaying step sizes.

    alpha_t = c_alpha / (1+t)^nu   (actor)
    beta_t  = c_beta  / (1+t)^sigma (critic)
    gamma_t = c_gamma / (1+t)^gamma_exp (average-reward tracker)

    c_gamma defaults to c_alpha and gamma_exp to nu (gamma_t = alpha_t).  alphas,
    betas and gammas list a run of steps t0 .. t1 - 1 for the kernel, which
    takes a segment's step sizes before its seed loop; alpha(t), beta(t) and
    gamma(t) are their one-step runs, so each formula has one definition.
    """

    c_alpha: float = 1.5
    c_beta: float = 1.5
    nu: float = ALGO_SCHEDULES["ca"][0]
    sigma: float = ALGO_SCHEDULES["ca"][1]
    c_gamma: float | None = None
    gamma_exp: float | None = None

    def __post_init__(self):
        if self.c_gamma is None:
            object.__setattr__(self, "c_gamma", self.c_alpha)
        if self.gamma_exp is None:
            object.__setattr__(self, "gamma_exp", self.nu)
        for name in ("c_alpha", "c_beta", "c_gamma"):
            val = getattr(self, name)
            if not 0.0 <= val < math.inf:
                raise InvariantViolation(f"{name} must be finite and nonnegative, got {val}")
        for name in ("nu", "sigma", "gamma_exp"):
            val = getattr(self, name)
            if not 0.0 <= val <= 1.0:
                raise InvariantViolation(f"{name} must lie in [0, 1], got {val}")

    def alphas(self, t0: int, t1: int) -> list[float]:
        return _decay(self.c_alpha, self.nu, t0, t1)

    def betas(self, t0: int, t1: int) -> list[float]:
        return _decay(self.c_beta, self.sigma, t0, t1)

    def gammas(self, t0: int, t1: int) -> list[float]:
        return _decay(self.c_gamma, self.gamma_exp, t0, t1)

    def alpha(self, t: int) -> float:
        return self.alphas(t, t + 1)[0]

    def beta(self, t: int) -> float:
        return self.betas(t, t + 1)[0]

    def gamma(self, t: int) -> float:
        return self.gammas(t, t + 1)[0]


def _decay(c: float, e: float, t0: int, t1: int) -> list[float]:
    """c / (1 + t)^e for t = t0 .. t1 - 1."""
    return [c / (1.0 + t) ** e for t in range(t0, t1)]


def algo_schedule(algo: str, **overrides) -> StepSchedule:
    """The ALGO_SCHEDULES exponents on the StepSchedule defaults (c = 1.5),
    then `overrides`.

    The tracker follows the actor clock (gamma_exp = nu) for ca and the
    critic clock (gamma_exp = sigma after overrides) for ac and stac, unless
    gamma_exp is given.
    """
    if algo not in ALGO_SCHEDULES:
        raise InvalidSpec(f"unknown algo {algo!r}")
    nu, sigma = ALGO_SCHEDULES[algo]
    kwargs = {"nu": nu, "sigma": sigma, **overrides}
    if algo != "ca" and kwargs.get("gamma_exp") is None:
        kwargs["gamma_exp"] = kwargs["sigma"]
    return StepSchedule(**kwargs)


@dataclass(frozen=True)
class ScheduleFlags:
    """Outcome of validate_schedule; ratio_bound and ratio_ok are None without
    a report."""

    finite_time_ok: bool
    asymptotic_ok: bool
    ratio: float
    ratio_bound: float | None
    ratio_ok: bool | None
    tracker_ok: bool


def validate_schedule(sched: StepSchedule, report=None) -> ScheduleFlags:
    """Check the exponent and coefficient conditions for the CA guarantees.

    finite_time_ok:  0 < nu < sigma < 1, 2 sigma < 3 nu, 2 sigma - nu < 1.
    asymptotic_ok:   nu and sigma both in (1/2, 1] (square-summable but not
                     summable steps).
    ratio_ok:        c_alpha / c_gamma below the constant-dependent bound
                     1 / (2B(G + U_w) + U_w B); needs an AssumptionReport with
                     those constants and is None when no report is given.
                     c/0 is inf for c > 0; 0/0 is 0, since then neither
                     the actor nor the tracker moves.
    tracker_ok:      c_gamma <= 2.  gamma_t <= c_gamma, so |1 - gamma_t| <= 1
                     for every t iff c_gamma <= 2; above that the
                     average-reward recursion expands and overflows.
    """
    nu, sigma = sched.nu, sched.sigma
    finite_time_ok = (
        0.0 < nu < sigma < 1.0 and 2.0 * sigma < 3.0 * nu and 2.0 * sigma - nu < 1.0
    )
    asymptotic_ok = 0.5 < nu <= 1.0 and 0.5 < sigma <= 1.0
    ratio = (sched.c_alpha / sched.c_gamma if sched.c_gamma > 0
             else np.inf if sched.c_alpha > 0 else 0.0)
    ratio_ok = ratio_bound = None
    if report is not None:
        ratio_bound = report.constants.get("ratio_bound")
        if ratio_bound is not None and np.isfinite(ratio_bound):
            ratio_ok = bool(ratio < ratio_bound)
    return ScheduleFlags(
        finite_time_ok=finite_time_ok,
        asymptotic_ok=asymptotic_ok,
        ratio=ratio,
        ratio_bound=ratio_bound,
        ratio_ok=ratio_ok,
        tracker_ok=bool(sched.c_gamma <= 2.0),
    )


def _unit_columns(table: np.ndarray) -> np.ndarray | None:
    """Column of the 1.0 in each row (last axis) of table, -1 for a zero row, or
    None unless every row is zero or a unit vector (by exact comparison)."""
    nonzero = table != 0.0
    if not ((nonzero.sum(axis=-1) <= 1).all() and (table[nonzero] == 1.0).all()):
        return None
    return np.where(nonzero.any(axis=-1), nonzero.argmax(axis=-1), -1)


def _action_columns(x: np.ndarray) -> np.ndarray | None:
    """cols[s, a], the column of the unit vector x[s, a], when every x[s, a] is
    one and the columns within each state are distinct; otherwise None."""
    cols = _unit_columns(x)
    ok = cols is not None and (cols >= 0).all() and np.diff(np.sort(cols), axis=1).all()
    return cols if ok else None


def _softmax_cum(logits: list) -> tuple[list, list]:
    """(softmax(logits), its cumulative row) on Python floats: libm's exp of the
    logits shifted by their max, the normaliser and the row summed left to right."""
    top = max(logits)
    e = [math.exp(z - top) for z in logits]
    *_, total = accumulate(e)
    p = [e_b / total for e_b in e]
    return p, list(accumulate(p))


def _dot(a, b) -> float:
    """a . b on Python floats, summed left to right from 0.0."""
    acc = 0.0
    for a_i, b_i in zip(a, b):
        acc += a_i * b_i
    return acc


# An iterate's ball test (a _dot of w with itself) runs only when a bound on
# ||w|| could reach the radius.  Each step the bound gains |step * delta| times
# a bound on the update direction's norm and grows by 1 + _BOUND_SLACK; a test
# resets it to sqrt(w . w) (1 + _BOUND_SLACK).  A d-term dot or norm is off by
# about d units of 2**-53 relative and a step by a few, so this covers any d
# below 2**20.  A skipped test could not have projected: bit for bit.
_BOUND_SLACK = 2.0 ** 20 * float(np.finfo(float).eps)


def _ball_limit(radius: float, dim: int) -> float:
    """The largest bound on ||w|| at which the ball test is skipped; 2**-500
    covers underflow in a squared norm."""
    return radius * (1.0 - _BOUND_SLACK) - 2.0 ** -500 if dim < 2 ** 20 else -math.inf


def _make_step(
    mdp: FiniteMdp,
    policy: SoftmaxLinearPolicy,
    features: FeatureMap,
    sched: StepSchedule,
    uv_radius: float,
    reward_noise: float,
    actor_radius: float | None,
):
    """The sampled update of a batch of seeds, with its constants built once.

    Returns the segment stepper advance(t_start, t_end, u, live, theta, v, L,
    s, delta_sum, tails, failed).  It runs steps t_start .. t_end - 1
    (t_end > t_start) seed-major: each seed n of live runs all of them before
    the next seed starts, and it returns one past the last step any seed ran.
    A seed's state is held by its slot n, as Python floats: theta[n] and v[n]
    are lists, L[n] and s[n] numbers, delta_sum[n] sums |delta| and tails[n]
    (unless tails is None) v after each step.  Within the segment the seed
    runs on local copies of them and of its ball bounds, written back to the
    slot once.  u[n] is seed n's draws of the segment, one flat list: the
    j-th draw of step t is u[n][k * (t - t_start) + j], with
    k = _draws_per_step(reward_noise) (action, next state, then the reward
    noise).  The segment's step sizes are listed by sched once, for all its
    seeds.  An iterate whose squared norm is not finite puts a Diverged in
    failed[n], stops seed n there and, at the segment's end, takes it out of
    live; its slot keeps L, v and theta of the failing step and s and the sums
    from before it.  A frozen actor's table is built at policy.theta and its
    update skipped.
    """
    # bisect_right on Python lists makes the same probes as
    # np.searchsorted(side="right") at a tenth of its per-call cost.
    pcum_rows = np.cumsum(mdp.transition, axis=2).tolist()
    R = mdp.reward.tolist()
    x, phi = policy.action_features, features.table
    n_states, n_actions = mdp.n_states, x.shape[1]
    reward_bound = mdp.reward_bound
    k = _draws_per_step(reward_noise)
    # no actor step and no projection: theta never leaves policy.theta
    frozen = sched.c_alpha == 0.0 and actor_radius is None
    x_cols, phi_cols = _action_columns(x), _unit_columns(phi)
    cols = None if x_cols is None else x_cols.tolist()
    if cols is None:  # x(s, b) per action, and per column across the actions
        x_rows, x_by_col = x.tolist(), x.transpose(0, 2, 1).tolist()
    phi_rows, phi_cols = phi.tolist(), None if phi_cols is None else phi_cols.tolist()

    def logits(s, th):
        return [_dot(x_b, th) for x_b in x_rows[s]] if cols is None else [th[c] for c in cols[s]]

    if frozen:
        prob_cum = [_softmax_cum(logits(s, policy.theta.tolist()))[1] for s in range(n_states)]
    # skip limits, and per state bounds on ||phi(s)|| and ||psi|| (<= sqrt 2 one-hot)
    grow = 1.0 + _BOUND_SLACK
    v_lim, phi_norm = _ball_limit(uv_radius, phi.shape[1]), np.linalg.norm(phi, axis=1).tolist()
    if actor_radius is not None:
        th_lim = _ball_limit(actor_radius, x.shape[2])
        psi_norm = ([math.sqrt(2.0)] * n_states if cols is not None else
                    (2.0 * np.linalg.norm(x, axis=2).max(axis=1)).tolist())

    def ball_test(iterate, w, t, n, failed):
        """Project w, seed n's list of v (critic) or theta (actor), onto its ball in
        place: the new bound on its norm, or None after a Diverged in failed[n]."""
        radius, coef = (uv_radius, "c_beta") if iterate == "critic" else (actor_radius, "c_alpha")
        w_sq = _dot(w, w)
        if not w_sq <= radius * radius:  # NaN too
            if not math.isfinite(w_sq):
                failed[n] = Diverged(f"{iterate} diverged at step {t}: its squared norm is "
                                     f"{w_sq}; lower {coef} (now {getattr(sched, coef)!r})")
                return None
            scale = radius / math.sqrt(w_sq)
            w[:] = [w_i * scale for w_i in w]
        return math.sqrt(w_sq) * grow

    def advance(t_start, t_end, u, live, ths, vs, L, s, delta_sum, tails, failed):
        # step t's draws start at u[n][i]; the segment's step sizes are listed once
        steps = list(zip(range(t_start, t_end), range(0, k * (t_end - t_start), k),
                         repeat(0.0) if frozen else sched.alphas(t_start, t_end),
                         sched.betas(t_start, t_end), sched.gammas(t_start, t_end)))
        t_last = t_start
        for n in live:
            s_t, L_t, v, th, d_sum, u_n = s[n], L[n], vs[n], ths[n], delta_sum[n], u[n]
            tail = None if tails is None else tails[n]
            v_up = th_up = math.inf  # bounds on ||v|| and ||theta||; inf tests exactly
            for t, i, alpha, beta, gamma in steps:
                if frozen:
                    cum = prob_cum[s_t]
                else:
                    p, cum = _softmax_cum(logits(s_t, th))
                a = bisect_right(cum, u_n[i])
                if a >= n_actions:  # cumulative sum may fall a few ulp short of 1
                    a = n_actions - 1
                s1 = bisect_right(pcum_rows[s_t][a], u_n[i + 1])
                if s1 >= n_states:
                    s1 = n_states - 1
                r = R[s_t][a]
                if reward_noise > 0.0:
                    r = r + reward_noise * (2.0 * u_n[i + 2] - 1.0)
                    r = min(max(r, -reward_bound), reward_bound)

                if phi_cols is None:
                    phi_s = phi_rows[s_t]
                    delta = r - L_t + _dot(phi_rows[s1], v) - _dot(phi_s, v)
                    g = beta * delta
                    v = [v_i + g * f_i for v_i, f_i in zip(v, phi_s)]
                else:  # phi_cols[s] is -1 for a zero row
                    j, j1 = phi_cols[s_t], phi_cols[s1]
                    delta = r - L_t + (v[j1] if j1 >= 0 else 0.0) - (v[j] if j >= 0 else 0.0)
                    g = beta * delta
                    if j >= 0:
                        v[j] += g
                # a failing seed keeps L_{t+1}, v and theta as they stand, s_t and its sums
                L_t = L_t + gamma * (r - L_t)
                v_up = (v_up + abs(g) * phi_norm[s_t]) * grow
                if not v_up <= v_lim:  # NaN too
                    v_up = ball_test("critic", v, t, n, failed)
                    if v_up is None:
                        break
                if not frozen:
                    g = alpha * delta
                    if cols is not None:  # psi is 1 - p at a, -p elsewhere
                        for b, c in enumerate(cols[s_t]):
                            th[c] = th[c] + g * (1.0 - p[b] if b == a else -p[b])
                    else:  # psi = x(s, a) - sum_b p[b] x(s, b), column by column
                        th = [th_c + g * (x_c - _dot(p, xs_c)) for th_c, x_c, xs_c
                              in zip(th, x_rows[s_t][a], x_by_col[s_t])]
                    if actor_radius is not None:
                        th_up = (th_up + abs(g) * psi_norm[s_t]) * grow
                        if not th_up <= th_lim:
                            th_up = ball_test("actor", th, t, n, failed)
                            if th_up is None:
                                break
                if tail is not None:
                    tail = [acc + v_i for acc, v_i in zip(tail, v)]
                # starting from the seed's running sum, not 0, adds |delta| in step order
                d_sum += abs(delta)
                s_t = s1
            s[n], L[n], vs[n], ths[n], delta_sum[n] = s_t, L_t, v, th, d_sum
            if tail is not None:
                tails[n] = tail
            t_last = max(t_last, t + 1)
        live[:] = [n for n in live if n not in failed]
        return t_last

    return advance


@dataclass
class RunConfig:
    """Resolved inputs for a learning run (objects, not file paths); the seed
    is passed beside it, so the seeds of a batch share everything else."""

    mdp: FiniteMdp
    policy: SoftmaxLinearPolicy
    features: FeatureMap
    schedule: StepSchedule
    steps: int
    metrics_every: int = 1000
    uv_radius: float | None = None  # None: max(10 ||v*(theta_0)||, 1) by critic_radius
    actor_radius: float | None = None
    reward_noise: float = 0.0
    tail_average_from: int | None = None  # accumulate mean of v_t from this step on

    def __post_init__(self):
        shape = (self.mdp.n_states, self.mdp.n_actions)
        if self.features.n_states != shape[0]:
            raise InvariantViolation(f"the feature map has {self.features.n_states} states, "
                                     f"the MDP {shape[0]}")
        policy_shape = self.policy.action_features.shape[:2]
        if policy_shape != shape:
            raise InvariantViolation(
                f"the policy takes (S, A) = {policy_shape}, the MDP is {shape}")
        if self.steps < 0:
            raise InvariantViolation(f"steps must be nonnegative, got {self.steps}")
        if self.metrics_every <= 0:
            raise InvariantViolation(f"metrics_every must be positive, got {self.metrics_every}")
        if self.uv_radius is not None and not self.uv_radius > 0:
            raise InvariantViolation(f"uv must be positive, got {self.uv_radius}")
        if self.actor_radius is not None and not self.actor_radius > 0:
            raise InvariantViolation(
                f"actor_radius must be positive, got {self.actor_radius}: the projection "
                "would reflect theta through the origin or pin it there")
        if not 0.0 <= self.reward_noise < math.inf:
            raise InvariantViolation(
                f"reward_noise must be finite and nonnegative, got {self.reward_noise}")
        if self.tail_average_from is not None and self.tail_average_from < 0:
            raise InvariantViolation("tail_average_from must be nonnegative")
        if not validate_schedule(self.schedule).tracker_ok:
            raise InvariantViolation(
                f"c_gamma must be at most 2, got {self.schedule.c_gamma}: the average-reward "
                "tracker would expand (|1 - gamma_0| > 1); lower c_gamma or c_alpha")


@dataclass
class LearnerState:
    """Final iterate of a run; rng is the generator after the last draw."""

    t: int
    L: float
    v: np.ndarray
    theta: np.ndarray
    s: int
    rng: np.random.Generator


@dataclass
class RunResult:
    rows: list
    final: LearnerState
    uv_radius: float
    v_tail_avg: np.ndarray | None = None


def resolve_uv_radius(config: RunConfig) -> float:
    """config.uv_radius, or by default critic_radius of the fixed point at theta_0."""
    if config.uv_radius is not None:
        return config.uv_radius
    return critic_radius(critic_fixed_point(config.mdp, config.policy, config.features))


def run(config: RunConfig, seed: int = 0) -> RunResult:
    """Execute a full run of `seed`, emitting an exact-metrics row every
    metrics_every steps (and at the final step).  Raises OracleFailure (a row's
    exact solve failed) or Diverged (an iterate's squared norm is not finite),
    with the step."""
    result = _drive(config, [seed])[0]
    if isinstance(result, AvgrlError):
        raise result
    return result


# The most steps in one segment, which bounds each seed's list of draws.
_DRAW_BLOCK = 1024


def _draws_per_step(reward_noise: float) -> int:
    """Uniforms a step draws: action, next state, and the reward noise if any."""
    return 3 if reward_noise > 0.0 else 2


def run_batch(config: RunConfig, seeds: list[int]) -> list[RunResult | AvgrlError]:
    """`run` of config for each of seeds, stepped together.

    Slot i holds seeds[i]'s RunResult, equal to run(config, seeds[i]) bit for
    bit (wall_ns aside), or the OracleFailure or Diverged that it raises; a
    failed seed leaves the batch at its failing step and the others go on
    unchanged.  A negative seed raises InvariantViolation before any step.
    """
    return _drive(config, seeds)


def _drive(config: RunConfig, seeds: list[int]) -> list[RunResult | AvgrlError]:
    """The run loop of config for each of seeds.

    A segment ends at the next metrics row, the start of the tail average,
    the last step or _DRAW_BLOCK steps on, whichever comes first; at its start
    each live seed draws k = 2 (3 with reward noise) uniforms a step for it.
    Generator.random makes one double of each 64-bit Philox word, so a seed's
    draws do not depend on where segments (or batches) cut them.  A seed that
    diverges or whose row fails leaves live there, its state kept as it stood.
    """
    from .metrics import exact_metrics_row

    if min(seeds, default=0) < 0:  # numpy's generators take no negative seed
        raise InvariantViolation(f"seed must be nonnegative, got {min(seeds)}")
    mdp, policy, features = config.mdp, config.policy, config.features
    uv_radius = resolve_uv_radius(config)
    n_seeds = len(seeds)
    rngs = [np.random.Generator(np.random.Philox(seed)) for seed in seeds]
    # each seed's state, by its slot in seeds
    s = [int(rng.integers(mdp.n_states)) for rng in rngs]
    L, delta_sum = [0.0] * n_seeds, [0.0] * n_seeds
    theta = [policy.theta.tolist() for _ in seeds]
    v = [[0.0] * features.dim for _ in seeds]
    tails = [[0.0] * features.dim for _ in seeds]

    advance = _make_step(mdp, policy, features, config.schedule, uv_radius,
                         config.reward_noise, config.actor_radius)

    steps, every = config.steps, config.metrics_every
    tail_from = steps if config.tail_average_from is None else config.tail_average_from
    failed: dict = {}  # slot -> its Diverged or OracleFailure; the seed then leaves live
    memo: list = []  # the last row's policy solution, reused while theta stands still
    live = list(range(n_seeds))
    rows: list[list] = [[] for _ in seeds]
    last_row = 0
    k = _draws_per_step(config.reward_noise)
    start_ns = time.perf_counter_ns()
    t = 0
    while t < steps and live:
        t_end = min(steps, t - t % every + every, t + _DRAW_BLOCK)
        if t < tail_from:
            t_end = min(t_end, tail_from)
        # u[n]: live seed n's draws of the segment, k per step (see _make_step)
        u: list = [None] * n_seeds
        for n in live:
            u[n] = rngs[n].random(k * (t_end - t)).tolist()
        t = advance(t, t_end, u, live, theta, v, L, s,
                    delta_sum, tails if t >= tail_from else None, failed)
        if t % every == 0 or t == steps:
            for n in live:
                try:
                    rows[n].append(exact_metrics_row(
                        mdp, policy, features,
                        t=t, theta=np.array(theta[n]), v=np.array(v[n]), L=L[n],
                        delta_abs_mean=delta_sum[n] / (t - last_row),
                        wall_ns=time.perf_counter_ns() - start_ns, memo=memo,
                    ))
                except AvgrlError as exc:
                    failed[n] = OracleFailure(f"exact metrics failed at step {t}: {exc}")
                    failed[n].__cause__ = exc
            live[:] = [n for n in live if n not in failed]
            delta_sum[:] = [0.0] * n_seeds
            last_row = t

    tail_n = steps - tail_from
    return [failed[n] if n in failed else RunResult(
        rows=rows[n], uv_radius=uv_radius,
        final=LearnerState(t=steps, L=L[n], v=np.array(v[n]), theta=np.array(theta[n]), s=s[n],
                           rng=rngs[n]),
        v_tail_avg=np.array(tails[n]) / tail_n if tail_n > 0 else None,
    ) for n in range(n_seeds)]
