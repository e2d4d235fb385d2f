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

One driver, run_batch(config, seeds), runs one config on several seeds, and
`run(config, seed)` is its one-seed case.  It keeps each seed's run on one
_Seed record: its generator, its state and iterates, its rows, and the error
that ended it, if any.  Its one kernel, _make_step, runs a segment (up to the
next metrics row, at most _DRAW_BLOCK steps) seed by seed: each live seed runs
the whole segment on its state in local variables, written back to its record
once, at the segment's end or where the seed fails, bit for bit as its
one-seed run.  A segment lists its step sizes once, through StepSchedule, and
each seed's loop walks that list and indexes its draws.  One BLAS thread,
2-core Xeon host, ca schedule (frozen: c_alpha = 0), 10k steps with the draws
made beforehand, min us per seed-step of the stepper over 15 runs:

    moving / frozen, N =   1          4          8          10
    four-state, one-hot    2.2 / 0.8  1.9 / 0.6  1.9 / 0.5  1.8 / 0.5
    gridworld4, one-hot    2.6 / 0.8  2.4 / 0.6  2.4 / 0.6  2.4 / 0.8
    random_unit:6 critic   4.5 / 2.5  4.1 / 2.3  4.1 / 2.2  4.2 / 2.2

The segment loop calls no numpy.  A seed's state is Python floats from its
first step to its final state, held by its record for the whole run: L, s
and the |delta| sum as numbers, theta, v and the tail sum as lists.  Arrays
are built from it only for a metrics row; its final state is a Snapshot.  One
softmax, _softmax_cum (libm's math.exp, sums left to right), builds the frozen
actor's table at theta_0 and steps a moving one; every dot product and squared
norm is a left-to-right _dot, never the builtin sum, which compensates from
Python 3.12 on.  So a trajectory does not depend on numpy's SIMD dispatch or
the OpenBLAS core.  The per-step helpers (the softmax, the logits, the one-hot
actor update) are plain for loops, not comprehensions: before Python 3.12 (PEP
709) each comprehension builds a function object and a frame per call, which
cost a moving four-state step about a third of its time.  One-hot features,
detected at build time by exact comparison, take lookups, bit for bit the _dot
route: th[cols[s]] for the logits when each x[s, a] is a unit vector (distinct
within a state), v[j] for phi(s).v when each phi(s) is zero or a unit vector.
An iterate's ball test runs only when a bound on its norm could reach the
radius (_BOUND_SLACK); it compares squared norms, or norms (math.hypot) when
the squared radius overflows.

Each seed draws from its own counter-based generator in the fixed order
(action, next state, optional reward noise), so runs are bit-reproducible.
At a segment's start run_batch draws each live seed's uniforms for it, k a
step (k = 2, or 3 with reward noise), as one flat list on its record: step t
of the segment from t_start reads its j-th draw at seed.u[k * (t - t_start) +
j].  At a metrics row t a live seed's generator has drawn its initial state
and exactly k t uniforms.  Cumulative rows are inverted as
np.searchsorted(side="right") would, by bisect.bisect_right on a list.
"""

from __future__ import annotations

import json
import math
import time
from bisect import bisect_right
from dataclasses import dataclass, field
from itertools import repeat

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
    logits shifted by their max (the first maximal one, as max() picks), then
    the normaliser and the row summed left to right from 0.0, which for the
    nonnegative terms is accumulate's bits."""
    top = logits[0]
    for z in logits:
        if z > top:
            top = z
    e = []
    total = 0.0
    for z in logits:
        e_b = math.exp(z - top)
        e.append(e_b)
        total += e_b
    p, cum = [], []
    acc = 0.0
    for e_b in e:
        p_b = e_b / total
        p.append(p_b)
        acc += p_b
        cum.append(acc)
    return p, cum


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


@dataclass(slots=True)
class _Seed:
    """One seed's run, as Python floats: its generator, state s, average-reward
    estimate L, critic v and actor theta (lists), the sum of v over the steps
    from the tail average's start (tail), the |delta| sum since the last row,
    the segment's draws u (see _make_step), its metrics rows, and the Diverged
    or OracleFailure that ended it."""

    rng: np.random.Generator
    s: int
    L: float
    v: list
    theta: list
    tail: list
    delta_sum: float = 0.0
    u: list | None = None
    rows: list = field(default_factory=list)
    error: AvgrlError | None = None


def _make_step(config: RunConfig, uv_radius: float):
    """The sampled update of config's seeds, with its constants built once.

    Returns the segment stepper advance(t_start, t_end, seeds, tail_on).  It
    runs steps t_start .. t_end - 1 (t_end > t_start) seed-major: each _Seed of
    seeds runs all of them before the next one starts, on local copies of its
    state and of its ball bounds, written back to the record once.  seed.u is
    the seed's draws of the segment, one flat list: the j-th draw of step t is
    seed.u[k * (t - t_start) + j], with k = _draws_per_step(config.reward_noise)
    (action, next state, then the reward noise).  With tail_on, seed.tail adds
    v after each step.  The segment's step sizes are listed by the schedule
    once, for all its seeds.  An iterate whose squared norm is not finite puts
    a Diverged in seed.error and stops the seed there; its record keeps L, v
    and theta of the failing step and s and the sums from before it.  A frozen
    actor's table is built at policy.theta and its update skipped.
    """
    mdp, policy, sched = config.mdp, config.policy, config.schedule
    reward_noise, actor_radius = config.reward_noise, config.actor_radius
    # bisect_right on Python lists makes the same probes as
    # np.searchsorted(side="right") at a tenth of its per-call cost.
    pcum_rows = np.cumsum(mdp.transition, axis=2).tolist()
    R = mdp.reward.tolist()
    x, phi = policy.action_features, config.features.table
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
        z = []
        if cols is None:
            for x_b in x_rows[s]:
                z.append(_dot(x_b, th))
        else:
            for c in cols[s]:
                z.append(th[c])
        return z

    if frozen:
        prob_cum = [_softmax_cum(logits(s, policy.theta.tolist()))[1] for s in range(n_states)]
    # skip limits, and per state bounds on ||phi(s)|| and ||psi|| (<= sqrt 2 one-hot)
    grow = 1.0 + _BOUND_SLACK
    v_lim, phi_norm = _ball_limit(uv_radius, phi.shape[1]), np.linalg.norm(phi, axis=1).tolist()
    if actor_radius is not None:
        th_lim = _ball_limit(actor_radius, x.shape[2])
        psi_norm = ([math.sqrt(2.0)] * n_states if cols is not None else
                    (2.0 * np.linalg.norm(x, axis=2).max(axis=1)).tolist())

    def ball_test(iterate, w, t):
        """Project w, a seed's list of v (critic) or theta (actor), onto its ball
        in place: the new bound on its norm, or a Diverged if it is not finite."""
        radius, coef = (uv_radius, "c_beta") if iterate == "critic" else (actor_radius, "c_alpha")
        if radius * radius < math.inf:
            size = _dot(w, w)
            inside, what, norm = size <= radius * radius, "squared norm", math.sqrt(size)
        else:  # radius >= 2**512: the squares would pass as inf <= inf, so compare norms
            size = norm = math.hypot(*w)
            inside, what = norm <= radius, "norm"
        if not inside:  # NaN too
            if not math.isfinite(size):
                return Diverged(f"{iterate} diverged at step {t}: its {what} is "
                                f"{size}; lower {coef} (now {getattr(sched, coef)!r})")
            scale = radius / norm
            w[:] = [w_i * scale for w_i in w]
        return norm * grow

    def advance(t_start, t_end, seeds, tail_on):
        # step t's draws start at u[i]; the segment's step sizes are listed once
        steps = list(zip(range(t_start, t_end), range(0, k * (t_end - t_start), k),
                         repeat(0.0) if frozen else sched.alphas(t_start, t_end),
                         sched.betas(t_start, t_end), sched.gammas(t_start, t_end)))
        for seed in seeds:
            s_t, L_t, v, th, d_sum, u = seed.s, seed.L, seed.v, seed.theta, seed.delta_sum, seed.u
            tail = seed.tail if tail_on else None
            v_up = th_up = math.inf  # bounds on ||v|| and ||theta||; inf tests exactly
            for t, i, alpha, beta, gamma in steps:
                if frozen:
                    cum = prob_cum[s_t]
                else:
                    p, cum = _softmax_cum(logits(s_t, th))
                a = bisect_right(cum, u[i])
                if a >= n_actions:  # cumulative sum may fall a few ulp short of 1
                    a = n_actions - 1
                s1 = bisect_right(pcum_rows[s_t][a], u[i + 1])
                if s1 >= n_states:
                    s1 = n_states - 1
                r = R[s_t][a]
                if reward_noise > 0.0:
                    r = r + reward_noise * (2.0 * u[i + 2] - 1.0)
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
                    v_up = ball_test("critic", v, t)
                    if isinstance(v_up, Diverged):
                        seed.error = v_up
                        break
                if not frozen:
                    g = alpha * delta
                    if cols is not None:  # psi is 1 - p at a, -p elsewhere
                        # th[c] - g p[b] is th[c] + g (-p[b]); the columns are distinct
                        c_a = cols[s_t][a]
                        th_a = th[c_a]
                        for c, p_b in zip(cols[s_t], p):
                            th[c] -= g * p_b
                        th[c_a] = th_a + g * (1.0 - p[a])
                    else:  # psi = x(s, a) - sum_b p[b] x(s, b), column by column
                        th = [th_c + g * (x_c - _dot(p, xs_c)) for th_c, x_c, xs_c
                              in zip(th, x_rows[s_t][a], x_by_col[s_t])]
                    if actor_radius is not None:
                        th_up = (th_up + abs(g) * psi_norm[s_t]) * grow
                        if not th_up <= th_lim:
                            th_up = ball_test("actor", th, t)
                            if isinstance(th_up, Diverged):
                                seed.error = th_up
                                break
                if tail is not None:
                    tail = [acc + v_i for acc, v_i in zip(tail, v)]
                # starting from the seed's running sum, not 0, adds |delta| in step order
                d_sum += abs(delta)
                s_t = s1
            seed.s, seed.L, seed.v, seed.theta, seed.delta_sum = s_t, L_t, v, th, d_sum
            if tail is not None:
                seed.tail = tail

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


@dataclass(frozen=True)
class Snapshot:
    """A seed's run state after step t in plain values: v and theta as tuples,
    rng its generator's position (bit_generator.state, arrays as lists of ints)."""

    t: int
    L: float
    s: int
    v: tuple
    theta: tuple
    rng: dict


@dataclass
class RunResult:
    rows: list
    final: Snapshot
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
    result = run_batch(config, [seed])[0]
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

    A segment ends at the next metrics row, the start of the tail average,
    the last step or _DRAW_BLOCK steps on, whichever comes first; at its start
    each live seed draws k = 2 (3 with reward noise) uniforms a step for it.
    Generator.random makes one double of each 64-bit Philox word, so a seed's
    draws do not depend on where segments (or batches) cut them.  A seed that
    diverges or whose row fails leaves live there, its state kept on its
    record as it stood.
    """
    from .metrics import exact_metrics_row

    if min(seeds, default=0) < 0:  # numpy's generators take no negative seed
        raise InvariantViolation(f"seed must be nonnegative, got {min(seeds)}")
    mdp, policy, features = config.mdp, config.policy, config.features
    uv_radius = resolve_uv_radius(config)
    batch = []
    for seed in seeds:
        rng = np.random.Generator(np.random.Philox(seed))
        batch.append(_Seed(rng=rng, s=int(rng.integers(mdp.n_states)), L=0.0,
                           v=[0.0] * features.dim, theta=policy.theta.tolist(),
                           tail=[0.0] * features.dim))

    advance = _make_step(config, uv_radius)

    steps, every = config.steps, config.metrics_every
    tail_from = steps if config.tail_average_from is None else config.tail_average_from
    memo: list = []  # the last row's policy solution, reused while theta stands still
    live = batch
    last_row = 0
    k = _draws_per_step(config.reward_noise)
    start_ns = time.perf_counter_ns()
    t = 0
    while t < steps and live:
        t_end = min(steps, t - t % every + every, t + _DRAW_BLOCK)
        if t < tail_from:
            t_end = min(t_end, tail_from)
        for seed in live:  # the segment's draws, k per step (see _make_step)
            seed.u = seed.rng.random(k * (t_end - t)).tolist()
        advance(t, t_end, live, t >= tail_from)
        t = t_end
        if t % every == 0 or t == steps:
            for seed in live:
                if seed.error is not None:  # diverged in this segment
                    continue
                try:
                    seed.rows.append(exact_metrics_row(
                        mdp, policy, features,
                        t=t, theta=np.array(seed.theta), v=np.array(seed.v), L=seed.L,
                        delta_abs_mean=seed.delta_sum / (t - last_row),
                        wall_ns=time.perf_counter_ns() - start_ns, memo=memo,
                    ))
                except AvgrlError as exc:
                    seed.error = OracleFailure(f"exact metrics failed at step {t}: {exc}")
                    seed.error.__cause__ = exc
                seed.delta_sum = 0.0
            last_row = t
        live = [seed for seed in live if seed.error is None]

    tail_n = steps - tail_from
    return [seed.error if seed.error is not None else RunResult(
        rows=seed.rows, uv_radius=uv_radius,
        final=Snapshot(steps, seed.L, seed.s, tuple(seed.v), tuple(seed.theta), rng=json.loads(
            json.dumps(seed.rng.bit_generator.state, default=np.ndarray.tolist))),
        v_tail_avg=np.array(seed.tail) / tail_n if tail_n > 0 else None,
    ) for seed in batch]
