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

One private driver, _drive(configs), runs configs that differ only in seed:
`run(config)` is its one-seed case and `run_batch(configs)` the checked way in
for several.  A kernel runs one segment (up to the next metrics row or the end
of a draw block) on (N, .) state arrays in place.  _make_step works on Python
scalars and small arrays of row 0; _make_batch_step steps N seeds in lockstep,
one numpy dispatch for all, and each seed matches its one-seed run bit for bit.
One BLAS thread, 2-core host, four-state and gridworld4, us per seed-step:
actor moving, 20-23 scalar against 56-72 lockstep at N = 1 and 8.4-10 at N = 8;
actor frozen (c_alpha = 0, no radius: a branch in each kernel that reuses one
precomputed policy table), 4.2-5.3 scalar against 5.5-5.8 lockstep at N = 8.

The scalar kernel has a one-hot branch, picked at build time by exact
comparison: with each x[s, a] a unit vector (distinct within a state) the
logits are theta[cols[s]] and the actor update touches those A entries; with
each phi(s) zero or a unit vector phi(s).v is v[j] and the critic update adds
to v[j].  Products with exact 0s and 1s keep every value bit for bit.  The
lockstep kernel stays dense: a one-hot branch of fancy indexing measured no
gain (four-state moving, N = 4: 9.0-15.5 us per seed-step against 8.4-9.2
dense), and sweep-ca-4state fell from 120k to 107-110k with it.

Each seed draws from its own counter-based generator in the fixed order
(action, next state, optional reward noise), so runs are bit-reproducible.
The scalar kernel inverts a cumulative row with bisect.bisect_right on a list
and the lockstep kernel with (cum <= u).sum(-1), both as
np.searchsorted(side="right").
"""

from __future__ import annotations

import bisect
import math
import time
from dataclasses import dataclass, fields

import numpy as np

from .errors import AvgrlError, Diverged, InvalidSpec, InvariantViolation, OracleFailure
from .features import FeatureMap
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

    c_gamma defaults to k_coupling * c_alpha and gamma_exp to nu, i.e. the
    tracker is coupled to the actor clock as gamma_t = K alpha_t.
    """

    c_alpha: float = 1.5
    c_beta: float = 1.5
    nu: float = ALGO_SCHEDULES["ca"][0]
    sigma: float = ALGO_SCHEDULES["ca"][1]
    k_coupling: float = 1.0
    c_gamma: float | None = None
    gamma_exp: float | None = None

    def __post_init__(self):
        if self.c_gamma is None:
            object.__setattr__(self, "c_gamma", self.k_coupling * self.c_alpha)
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

    def alpha(self, t: int) -> float:
        return self.c_alpha / (1.0 + t) ** self.nu

    def beta(self, t: int) -> float:
        return self.c_beta / (1.0 + t) ** self.sigma

    def gamma(self, t: int) -> float:
        return self.c_gamma / (1.0 + t) ** self.gamma_exp


def algo_schedule(algo: str, **overrides) -> StepSchedule:
    """The ALGO_SCHEDULES exponents on the StepSchedule defaults (c = 1.5,
    K = 1), then `overrides`.

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
    tracker_ok:      c_gamma <= 2.  gamma_t <= c_gamma, so |1 - gamma_t| <= 1
                     for every t iff c_gamma <= 2; above that the
                     average-reward recursion expands and overflows.
    """
    nu, sigma = sched.nu, sched.sigma
    finite_time_ok = (
        0.0 < nu < sigma < 1.0 and 2.0 * sigma < 3.0 * nu and 2.0 * sigma - nu < 1.0
    )
    asymptotic_ok = 0.5 < nu <= 1.0 and 0.5 < sigma <= 1.0
    ratio = sched.c_alpha / sched.c_gamma if sched.c_gamma > 0 else np.inf
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


def _diverged(iterate: str, t: int, w_sq: float, coef: str, value: float) -> Diverged:
    return Diverged(f"{iterate} diverged at step {t}: its squared norm is {w_sq}; "
                    f"lower {coef} (now {value!r})")


def _make_step(
    mdp: FiniteMdp,
    policy: SoftmaxLinearPolicy,
    features: FeatureMap,
    sched: StepSchedule,
    theta0: np.ndarray,
    uv_radius: float,
    reward_noise: float,
    actor_radius: float | None,
):
    """The sampled update of one seed, with its constants built once.

    Returns the segment stepper advance(t, t_end, u, theta, v, L, s,
    abs_delta_sum, tail_acc, failed), which runs steps t .. t_end - 1 (t_end > t)
    on row 0 of the (1, .) state arrays in place and returns the step after the
    last one run: u[i, j, 0] is the j-th draw of step t + i, abs_delta_sum sums
    |delta| and tail_acc (unless None) v after each step.  An iterate whose
    squared norm is not finite puts a Diverged in failed[0] and ends the segment.
    The td error uses the pre-update average-reward iterate.  A frozen actor
    (c_alpha = 0, no radius) never leaves theta0: its cumulative table is
    precomputed and the actor update skipped, bit for bit as the moving branch.
    One-hot x or phi tables take the lookups of the module docstring; np.exp
    and the norms stay.
    """
    # bisect_right on Python lists makes the same probes as
    # np.searchsorted(side="right") at a tenth of its per-call cost.
    pcum_rows = np.cumsum(mdp.transition, axis=2).tolist()
    R = mdp.reward
    x, phi = policy.action_features, features.table
    n_states, n_actions = mdp.n_states, x.shape[1]
    reward_bound = mdp.reward_bound
    uv_sq = uv_radius * uv_radius
    alpha_f, beta_f, gamma_f = sched.alpha, sched.beta, sched.gamma
    frozen = sched.c_alpha == 0.0 and actor_radius is None
    if frozen:
        prob_cum = np.cumsum(policy.with_theta(theta0).prob_table(), axis=1).tolist()
    x_cols, phi_cols = _action_columns(x), _unit_columns(phi)
    phi_cols = None if phi_cols is None else phi_cols.tolist()

    def advance(t, t_end, u, theta, v, L, s, abs_delta_sum, tail_acc, failed):
        draw = iter(u[:, :, 0].ravel().tolist()).__next__
        theta, v = theta[0], v[0]
        tail = None if tail_acc is None else tail_acc[0]
        # starting from the row's running sum, not 0, adds |delta| in step order
        L_t, s_t, delta_sum = float(L[0]), int(s[0]), float(abs_delta_sum[0])
        for t in range(t, t_end):
            if frozen:
                cum = prob_cum[s_t]
            else:
                logits = x[s_t] @ theta if x_cols is None else theta[x_cols[s_t]]
                p = np.exp(logits - logits.max())
                p /= p.sum()
                cum = np.cumsum(p).tolist()
            a = bisect.bisect_right(cum, draw())
            if a >= n_actions:  # cumulative sum may fall a few ulp short of 1
                a = n_actions - 1
            s1 = bisect.bisect_right(pcum_rows[s_t][a], draw())
            if s1 >= n_states:
                s1 = n_states - 1
            r = R[s_t, a]
            if reward_noise > 0.0:
                r = r + reward_noise * (2.0 * draw() - 1.0)
                r = min(max(r, -reward_bound), reward_bound)

            if phi_cols is None:
                phi_s = phi[s_t]
                delta = r - L_t + phi[s1] @ v - phi_s @ v
                v += (beta_f(t) * delta) * phi_s
            else:  # phi_cols[s] is -1 for a zero row
                j, j1 = phi_cols[s_t], phi_cols[s1]
                delta = r - L_t + (v[j1] if j1 >= 0 else 0.0) - (v[j] if j >= 0 else 0.0)
                if j >= 0:
                    v[j] += beta_f(t) * delta
            L_t = L_t + gamma_f(t) * (r - L_t)
            v_sq = v @ v
            if not v_sq <= uv_sq:  # NaN too
                if not math.isfinite(v_sq):
                    failed[0] = _diverged("critic", t, v_sq, "c_beta", sched.c_beta)
                    break
                v *= uv_radius / math.sqrt(v_sq)
            if not frozen:
                if x_cols is None:
                    theta += (alpha_f(t) * delta) * (x[s_t, a] - p @ x[s_t])
                else:
                    psi = -p
                    psi[a] += 1.0
                    theta[x_cols[s_t]] += (alpha_f(t) * delta) * psi
                if actor_radius is not None:
                    t_sq = theta @ theta
                    if not t_sq <= actor_radius * actor_radius:
                        if not math.isfinite(t_sq):
                            failed[0] = _diverged("actor", t, t_sq, "c_alpha", sched.c_alpha)
                            break
                        theta *= actor_radius / math.sqrt(t_sq)
            if tail is not None:
                tail += v
            delta_sum += abs(delta)
            s_t = s1
        L[0], s[0], abs_delta_sum[0] = L_t, s_t, delta_sum
        return t + 1

    return advance


def _make_batch_step(
    mdp: FiniteMdp,
    policy: SoftmaxLinearPolicy,
    features: FeatureMap,
    sched: StepSchedule,
    theta0: np.ndarray,
    uv_radius: float,
    reward_noise: float,
    actor_radius: float | None,
):
    """_make_step for N seeds in lockstep.

    Returns the same segment stepper, on theta (N, d2), v (N, d1), L (N,),
    s (N,), abs_delta_sum (N,) and tail_acc (N, d1) or None, all in place;
    u[i, j, n] is seed n's j-th draw of step t + i.  Row n's Diverged goes in
    failed[n]; the other rows finish that step, where the segment ends.  Every
    product is a stacked matmul (a gemv or dot per seed, as in the scalar
    kernel) rather than an einsum, so each seed matches _make_step bit for bit.
    """
    # take() on the leading axis, with (s, a) flattened to s * A + a, is the
    # cheapest gather; the ufunc reductions are sum, max and cumsum without
    # their Python wrappers.
    add_reduce, max_reduce = np.add.reduce, np.maximum.reduce
    n_states, n_actions = mdp.n_states, mdp.n_actions
    pcum_sa = np.cumsum(mdp.transition, axis=2).reshape(n_states * n_actions, n_states)
    r_sa = mdp.reward.ravel()
    x, phi = policy.action_features, features.table
    x_sa = x.reshape(n_states * n_actions, -1)
    reward_bound = mdp.reward_bound
    alpha_f, beta_f, gamma_f = sched.alpha, sched.beta, sched.gamma
    frozen = sched.c_alpha == 0.0 and actor_radius is None
    if frozen:
        prob_cum = np.cumsum(policy.with_theta(theta0).prob_table(), axis=1)

    def dots(a, b):
        """Row-wise a[n] @ b[n] of two (N, d) arrays."""
        return (a[:, None, :] @ b[:, :, None])[:, 0, 0]

    def shrink(w, radius, t, iterate, coef, failed):
        """Project each row of w into the radius ball; a non-finite row goes in failed."""
        w_sq = dots(w, w)
        inside = w_sq <= radius * radius
        if not inside.all():
            for n in np.flatnonzero(~np.isfinite(w_sq)).tolist():
                failed.setdefault(n, _diverged(iterate, t, w_sq[n], coef, getattr(sched, coef)))
            out = ~inside & np.isfinite(w_sq)
            w[out] *= (radius / np.sqrt(w_sq[out]))[:, None]

    def advance(t, t_end, u, theta, v, L, s, abs_delta_sum, tail_acc, failed):
        L_out, s_out = L, s
        for t, u_t in zip(range(t, t_end), u):
            if frozen:
                cum = prob_cum.take(s, axis=0)
            else:
                xs = x.take(s, axis=0)
                logits = (xs @ theta[:, :, None])[:, :, 0]
                p = np.exp(logits - max_reduce(logits, axis=1, keepdims=True))
                p /= add_reduce(p, axis=1, keepdims=True)
                cum = np.add.accumulate(p, axis=1)
            # the cumulative rows may fall a few ulp short of 1, hence the clamps
            a = np.minimum(add_reduce(cum <= u_t[0][:, None], axis=1), n_actions - 1)
            sa = s * n_actions + a
            s1 = np.minimum(add_reduce(pcum_sa.take(sa, axis=0) <= u_t[1][:, None], axis=1),
                            n_states - 1)
            r = r_sa.take(sa)
            if reward_noise > 0.0:
                r = r + reward_noise * (2.0 * u_t[2] - 1.0)
                r = np.minimum(np.maximum(r, -reward_bound), reward_bound)

            phi_s = phi.take(s, axis=0)
            delta = r - L + dots(phi.take(s1, axis=0), v) - dots(phi_s, v)
            L = L + gamma_f(t) * (r - L)
            v += (beta_f(t) * delta)[:, None] * phi_s
            shrink(v, uv_radius, t, "critic", "c_beta", failed)
            if not frozen:
                psi = x_sa.take(sa, axis=0) - (p[:, None, :] @ xs)[:, 0, :]
                theta += (alpha_f(t) * delta)[:, None] * psi
                if actor_radius is not None:
                    shrink(theta, actor_radius, t, "actor", "c_alpha", failed)
            if tail_acc is not None:
                tail_acc += v
            abs_delta_sum += np.abs(delta)
            s = s1
            if failed:
                break
        L_out[:], s_out[:] = L, s
        return t + 1

    return advance


@dataclass
class RunConfig:
    """Resolved inputs for a learning run (objects, not file paths)."""

    mdp: FiniteMdp
    policy: SoftmaxLinearPolicy
    features: FeatureMap
    schedule: StepSchedule
    steps: int
    algo: str = "ca"
    seed: int = 0
    metrics_every: int = 1000
    uv_radius: float | None = None  # None: max(10 ||v*(theta_0)||, 1)
    actor_radius: float | None = None
    reward_noise: float = 0.0
    tail_average_from: int | None = None  # accumulate mean of v_t from this step on

    def __post_init__(self):
        if self.algo not in ALGO_SCHEDULES:
            raise InvariantViolation(f"unknown algo {self.algo!r}")
        if self.steps < 0:
            raise InvariantViolation(f"steps must be nonnegative, got {self.steps}")
        if self.seed < 0:  # numpy's generators take no negative seed
            raise InvariantViolation(f"seed must be nonnegative, got {self.seed}")
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
                "tracker would expand (|1 - gamma_0| > 1); lower c_gamma, c_alpha or K")


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
    """Default critic radius: 10x the fixed-point norm at theta_0, floor 1."""
    if config.uv_radius is not None:
        return config.uv_radius
    v_star = critic_fixed_point(config.mdp, config.policy, config.features)
    return max(10.0 * float(np.linalg.norm(v_star)), 1.0)


def run(config: RunConfig) -> RunResult:
    """Execute a full run, emitting an exact-metrics row every metrics_every
    steps (and at the final step).  Raises OracleFailure (a row's exact solve
    failed) or Diverged (an iterate's squared norm is not finite), with the step."""
    result = _drive([config])[0]
    if isinstance(result, AvgrlError):
        raise result
    return result


# Steps per block of uniforms drawn from each seed's generator.
_DRAW_BLOCK = 1024

# RunConfig fields that a batch shares by identity: its kernel is built from one
# problem.
_SHARED_OBJECTS = ("mdp", "policy", "features")


def _check_batch(configs: list[RunConfig]) -> None:
    base = configs[0]
    for cfg in configs[1:]:
        for name in (f.name for f in fields(RunConfig) if f.name != "seed"):
            a, b = getattr(base, name), getattr(cfg, name)
            if not (a is b if name in _SHARED_OBJECTS else a == b):
                raise InvariantViolation(
                    f"run_batch configs differ in {name}; only seed may differ "
                    f"(mdp, policy and features must be the same objects)")


def run_batch(configs: list[RunConfig]) -> list[RunResult | AvgrlError]:
    """`run` for configs that differ only in seed, stepped in lockstep.

    Slot i holds configs[i]'s RunResult, equal to run(configs[i]) bit for bit
    (wall_ns aside), or the OracleFailure or Diverged that run(configs[i])
    raises; a failed seed leaves the batch at its failing step and the others
    go on unchanged.  Any difference other than seed raises InvariantViolation.
    """
    if not configs:
        return []
    _check_batch(configs)
    return _drive(configs)


def _drive(configs: list[RunConfig]) -> list[RunResult | AvgrlError]:
    """The run loop for configs that differ only in seed (unchecked).

    Each seed keeps its own generator and draws k = 2 (3 with reward noise)
    uniforms per step in blocks of at most _DRAW_BLOCK steps, so it stops on
    the same draw whatever the batch.  The kernel advances every live seed
    one segment at a time; a segment ends at a draw-block end, a metrics row,
    the start of the tail average or a step at which a seed diverged.
    """
    from .metrics import exact_metrics_row

    base = configs[0]
    mdp, policy, features = base.mdp, base.policy, base.features
    uv_radius = resolve_uv_radius(base)
    rngs = [np.random.Generator(np.random.Philox(cfg.seed)) for cfg in configs]
    s = np.array([int(rng.integers(mdp.n_states)) for rng in rngs])
    n = len(configs)
    theta0 = np.array(policy.theta, dtype=float)
    L, v, theta = np.zeros(n), np.zeros((n, features.dim)), np.tile(theta0, (n, 1))

    make_kernel = _make_step if n == 1 else _make_batch_step
    advance = make_kernel(mdp, policy, features, base.schedule, theta0, uv_radius,
                          base.reward_noise, base.actor_radius)

    steps, every = base.steps, base.metrics_every
    tail_from = steps if base.tail_average_from is None else base.tail_average_from
    tail_acc = np.zeros_like(v)

    out: list = [None] * n
    failed: dict = {}  # batch row -> its Diverged or OracleFailure; the row then leaves
    memo: list = []  # the last row's policy solution, reused while theta stands still
    live = list(range(n))  # configs index of each row of the batch arrays
    rows: list[list] = [[] for _ in range(n)]
    abs_delta_sum = np.zeros(n)
    last_row = 0
    k = 3 if base.reward_noise > 0.0 else 2
    start_ns = time.perf_counter_ns()
    t = 0
    while t < steps and live:
        block_start, block_end = t, min(t + _DRAW_BLOCK, steps)
        # u[i, j, n]: seed n's j-th draw of the block's i-th step
        u = np.stack([rng.random(k * (block_end - t)).reshape(-1, k) for rng in rngs],
                     axis=2)
        while t < block_end and live:
            t_end = min(block_end, t - t % every + every)
            if t < tail_from:
                t_end = min(t_end, tail_from)
            t = advance(t, t_end, u[t - block_start:t_end - block_start], theta, v, L, s,
                        abs_delta_sum, tail_acc if t >= tail_from else None, failed)
            if t % every == 0 or t == steps:
                for j, slot in enumerate(live):
                    if j in failed:  # diverged at step t - 1
                        continue
                    try:
                        rows[slot].append(exact_metrics_row(
                            mdp, policy, features,
                            t=t, theta=theta[j], v=v[j], L=L[j],
                            delta_abs_mean=abs_delta_sum[j] / (t - last_row),
                            wall_ns=time.perf_counter_ns() - start_ns, memo=memo,
                        ))
                    except AvgrlError as exc:
                        failed[j] = OracleFailure(f"exact metrics failed at step {t}: {exc}")
                        failed[j].__cause__ = exc
                abs_delta_sum[:] = 0.0
                last_row = t
            if failed:
                for j, exc in failed.items():
                    out[live[j]] = exc
                keep = np.array([j not in failed for j in range(len(live))])
                failed.clear()
                live = [slot for slot, kept in zip(live, keep) if kept]
                rngs = [rng for rng, kept in zip(rngs, keep) if kept]
                s, L, v, theta, abs_delta_sum, tail_acc, u = (
                    s[keep], L[keep], v[keep], theta[keep], abs_delta_sum[keep],
                    tail_acc[keep], u[:, :, keep])

    tail_n = steps - tail_from
    for j, slot in enumerate(live):
        final = LearnerState(t=steps, L=float(L[j]), v=v[j].copy(), theta=theta[j].copy(),
                             s=int(s[j]), rng=rngs[j])
        v_tail = tail_acc[j] / tail_n if tail_n > 0 else None
        out[slot] = RunResult(rows=rows[slot], final=final, uv_radius=uv_radius,
                              v_tail_avg=v_tail)
    return out
