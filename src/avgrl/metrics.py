"""Run metrics: exact per-row diagnostics, CSV round-trip, rate estimation.

The CSV schema is frozen; downstream tooling greps these exact column names:

    t,L_t,L_theta,avg_err_sq,critic_err_sq,M_norm_sq,v_norm,delta_abs_mean,wall_ns

Every float is serialized with repr(), which round-trips exactly, and wall_ns
is the only column allowed to differ between reruns of the same seed.

CSVs are read as columns: `read_table` parses every data line in one
`np.loadtxt` call, and checks each line's field count only when that call
fails or returns the wrong shape.  `rate` merges several files with
`_mean_by_t`, one vectorised mean per t that sums the samples in the order
`np.mean` would.

Rate estimation fits an ordinary-least-squares line to log(windowed metric)
vs log t where the window is a trailing-decade geometric mean; for an exact
power law t^p the fitted slope is p.  Each window's log sum is the correctly
rounded exact sum (`math.fsum`'s), taken from exact integer prefix sums, so
windowing is O(n) in the row count.
"""

from __future__ import annotations

import io
import math
import operator
import warnings
from dataclasses import dataclass
from itertools import accumulate

import numpy as np

from .errors import InsufficientData, InvalidSpec, OracleFailure, ParseError
from .features import FeatureMap
from .mdp import FiniteMdp, SoftmaxLinearPolicy, induced_chain, stationary_distribution
from .oracles import _actor_field, actor_field_M, critic_fixed_point

CSV_HEADER = "t,L_t,L_theta,avg_err_sq,critic_err_sq,M_norm_sq,v_norm,delta_abs_mean,wall_ns"
METRIC_COLUMNS = CSV_HEADER.split(",")[1:]


@dataclass(frozen=True)
class MetricsRow:
    t: int
    L_t: float
    L_theta: float
    avg_err_sq: float
    critic_err_sq: float
    M_norm_sq: float
    v_norm: float
    delta_abs_mean: float
    wall_ns: int


def exact_metrics_row(
    mdp: FiniteMdp,
    policy: SoftmaxLinearPolicy,
    features: FeatureMap,
    t: int,
    theta: np.ndarray,
    v: np.ndarray,
    L: float,
    delta_abs_mean: float,
    wall_ns: int,
    *,
    memo: list,
) -> MetricsRow:
    """Evaluate the exact diagnostics at the current iterate.

    Solves for L(theta), v*(theta) and the expected actor field M(theta, v)
    from the model, so each row reports true optimality gaps rather than
    sampled proxies.

    A fresh row builds one policy at theta; its pi table, its chain and the
    chain's mu are built once and shared by the row's own read of mu,
    critic_fixed_point and actor_field_M: one LU solve.  No psi table is built:
    M is summed over the action features (oracles._actor_field).  And
    critic_fixed_point settles A's conditioning by a Cholesky, with an SVD
    only when that fails (features._critic_solve).

    memo: a list ([] for a fresh row), shared only by rows of one (mdp,
    policy, features), that keeps the last solved theta's bytes, L(theta), v*
    and the v-independent tables of its actor field: pi, the action features,
    R - L(theta) and mu(s) pi(a|s).  A fresh row builds the last two a second
    time for it, after actor_field_M.  A row at that theta (a memo hit) solves
    nothing and builds no policy: its M is Phi v, P (Phi v), the weights and
    one matvec (oracles._actor_field), bit for bit the fresh row's.

    A row with a non-finite column (an overflowing squared error or norm, say)
    is an OracleFailure that names each such column, so none reaches a CSV.
    """
    hit = bool(memo) and memo[0] == theta.tobytes()
    if hit:
        _, l_theta, v_star, p, x, reward_gain, mu_p = memo
    else:
        pol = policy.with_theta(theta)
        chain = induced_chain(mdp, pol)
        # By name, not via _evaluate: perfbench/test_tracer.py asserts metrics binds it.
        mu = stationary_distribution(chain)
        l_theta = float(mu @ chain.expected_reward)
        v_star = critic_fixed_point(mdp, pol, features)
    # a non-finite v makes M non-finite too, without a warning: a non-finite
    # column is refused below
    with np.errstate(over="ignore", invalid="ignore"):
        if hit:
            M = _actor_field(mdp, p, x, features, v, reward_gain, mu_p)
        else:
            M = actor_field_M(mdp, pol, features, v)
            p = pol.prob_table()
            memo[:] = [theta.tobytes(), l_theta, v_star, p, pol.action_features,
                       mdp.reward - l_theta, mu[:, None] * p]
        try:
            avg_err_sq = float((L - l_theta) ** 2)
        except OverflowError:  # a Python float's power raises where numpy's returns inf
            avg_err_sq = math.inf
        row = MetricsRow(
            t=t,
            L_t=float(L),
            L_theta=l_theta,
            avg_err_sq=avg_err_sq,
            critic_err_sq=float(np.sum((v - v_star) ** 2)),
            M_norm_sq=float(np.sum(M * M)),
            v_norm=float(np.linalg.norm(v)),
            delta_abs_mean=float(delta_abs_mean),
            wall_ns=int(wall_ns),
        )
    bad = [f"{name}={getattr(row, name)!r}" for name in METRIC_COLUMNS[:-1]
           if not math.isfinite(getattr(row, name))]
    if bad:
        raise OracleFailure(f"the row has non-finite columns: {' '.join(bad)}")
    return row


def rows_to_csv(rows: list[MetricsRow]) -> str:
    """Serialize rows under the frozen header; repr() keeps floats exact."""
    buf = io.StringIO()
    buf.write(CSV_HEADER + "\n")
    for row in rows:
        vals = [str(row.t)]
        vals += [repr(getattr(row, name)) for name in METRIC_COLUMNS[:-1]]
        vals.append(str(row.wall_ns))
        buf.write(",".join(vals) + "\n")
    return buf.getvalue()


def write_metrics_csv(path: str, rows: list[MetricsRow]) -> None:
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(rows_to_csv(rows))


def read_table(path: str) -> dict[str, np.ndarray]:
    """Read any metrics-style CSV into column arrays keyed by header name.

    The header names must be distinct.  Every data line needs one cell per
    name; a cell is a decimal float as numpy's `loadtxt` reads it (optional
    sign, `inf` and `nan` too, surrounding blanks and one pair of double
    quotes allowed).  Anything else is a `ParseError`.

    One `np.loadtxt` call parses every data line.  It makes at most one row
    of a line (none of a blank one), and a row of one float per name holds
    exactly the line's commas, so one row per line and one column per name,
    with no warning, means every line has its fields.  Any other outcome runs
    the per-line field count check, then loadtxt again: a ragged or blank
    line is named before a non-numeric cell, wherever each is.
    """
    try:
        with open(path, "r", encoding="utf-8") as fh:
            # "\n" only: str.splitlines would also break at a form feed in a cell
            lines = fh.read().split("\n")
    except OSError as exc:
        raise ParseError(f"cannot read {path}: {exc}") from exc
    if lines[-1] == "":
        del lines[-1]
    if not lines:
        raise ParseError(f"{path}: empty file")
    header = [name[1:-1] if len(name) > 1 and name[0] == name[-1] == '"' else name
              for name in lines[0].split(",")]
    repeated = sorted({name for name in header if header.count(name) > 1})
    if repeated:
        raise ParseError(f"{path}: repeated column names {repeated}")
    if len(lines) == 1:  # loadtxt warns on no data
        return {name: np.empty(0) for name in header}
    try:
        with warnings.catch_warnings():
            warnings.simplefilter("error", UserWarning)  # "input contained no data"
            data = _loadtxt(lines[1:])
        if data.shape == (len(lines) - 1, len(header)):
            return dict(zip(header, data.T))
    except (ValueError, UserWarning):
        pass
    commas = len(header) - 1
    for line_no, line in enumerate(lines[1:], start=2):
        if not line or line.count(",") != commas:
            got = line.count(",") + 1 if line else 0
            raise ParseError(f"{path}:{line_no}: expected {len(header)} fields, got {got}")
    try:
        data = _loadtxt(lines[1:])
    except ValueError as exc:
        raise ParseError(f"{path}: non-numeric cell ({exc})") from exc
    return dict(zip(header, data.T))


def _loadtxt(lines: list[str]) -> np.ndarray:
    return np.loadtxt(lines, delimiter=",", comments=None, quotechar='"', ndmin=2)


def _mean_by_t(columns: list[tuple[np.ndarray, np.ndarray]]) -> tuple[np.ndarray, np.ndarray]:
    """Distinct t values, ascending, and the mean of the y samples at each,
    over the (t, y) column pairs of several files.

    The samples of one t are summed in file order with numpy's pairwise
    sum, as `np.mean` sums a list of them, so the means are bit for bit
    those of a per-t `np.mean`.
    """
    t_all = np.concatenate([t for t, _ in columns])
    y_all = np.concatenate([y for _, y in columns])
    order = np.argsort(t_all, kind="stable")
    uniq, starts, counts = np.unique(t_all[order], return_index=True, return_counts=True)
    y_sorted = y_all[order]
    means = np.empty(len(uniq))
    with np.errstate(over="ignore"):  # a mean that overflows is inf; the caller refuses it
        for c in np.unique(counts):
            sel = counts == c
            block = y_sorted[starts[sel][:, None] + np.arange(c)]
            means[sel] = np.add.reduce(block, axis=1) / c
    return uniq, means


def read_metrics_csv(path: str) -> dict[str, np.ndarray]:
    cols = read_table(path)
    if list(cols.keys()) != CSV_HEADER.split(","):
        raise ParseError(f"{path}: header does not match {CSV_HEADER!r}")
    return cols


def windowed_geomean(ts: np.ndarray, ys: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Trailing-decade geometric mean: w(t) = geomean of y over t' in (t/10, t].

    Nonpositive samples, -inf too, are dropped from each window; rows whose
    window is empty after dropping are omitted from the output.  A sample of
    +inf or NaN is an InvalidSpec.

    w(t) = exp(math.fsum(logs) / k) bit for bit, in O(n) overall: each log is
    an integer times a power of two (np.frexp), so scaled by a common power
    of two the logs are integers whose prefix sums are exact Python ints.  A
    window's sum is the difference of two prefix sums divided by the scale,
    which int true division rounds correctly, as fsum does.
    """
    order = np.argsort(ts)
    ts, ys = np.asarray(ts)[order], np.asarray(ys)[order]
    if np.isnan(ys).any():  # NaN > 0 is false: it would be dropped as nonpositive
        raise InvalidSpec("windowed_geomean: a sample is NaN")
    positive = ys > 0.0
    pos_t, log_y = ts[positive], np.log(ys[positive])
    if not np.isfinite(log_y).all():
        raise InvalidSpec("windowed_geomean: a positive sample is not finite")
    # each window is the contiguous run of positive samples with t/10 < t' <= t
    lo = np.searchsorted(pos_t, ts / 10.0, side="right")
    hi = np.searchsorted(pos_t, ts, side="right")
    keep = hi > lo
    mant, expo = np.frexp(log_y)  # log_y = mant * 2**expo, mant * 2**53 an integer
    e_min = int(expo.min(initial=0))
    ints = map(operator.lshift, np.ldexp(mant, 53).astype(np.int64).tolist(),
               (expo - e_min).tolist())
    prefix = list(accumulate(ints, initial=0))  # prefix sums of log_y * scale, exact
    scale = 1 << (53 - e_min)
    out_w = [math.exp((prefix[j] - prefix[i]) / scale / (j - i))
             for i, j in zip(lo[keep].tolist(), hi[keep].tolist())]
    return ts[keep], np.array(out_w)


def windowed_value_at(ts: np.ndarray, ys: np.ndarray, t: float) -> float:
    """Windowed geometric mean evaluated at the row nearest to t."""
    wt, wv = windowed_geomean(ts, ys)
    if len(wt) == 0:
        raise InsufficientData("no positive samples to window")
    idx = int(np.argmin(np.abs(wt - t)))
    return float(wv[idx])


@dataclass(frozen=True)
class RateEstimate:
    slope: float
    r_squared: float
    n_rows: int
    t_min: float
    metric: str


def rate_slope(
    ts: np.ndarray, ys: np.ndarray, t_min: float, metric: str = ""
) -> RateEstimate:
    """OLS slope of log(windowed metric) against log t for rows with t >= t_min.

    Raises InvalidSpec for a NaN or +inf t_min, either of which would keep no
    row (-inf keeps every row), and InsufficientData when fewer than 10
    windowed rows survive the cut.
    """
    if not t_min < math.inf:  # NaN or +inf
        raise InvalidSpec(f"t_min must be {'a number' if math.isnan(t_min) else 'below inf'}, "
                          f"got {t_min}")
    wt, wv = windowed_geomean(np.asarray(ts, dtype=float), np.asarray(ys, dtype=float))
    keep = wt >= t_min
    wt, wv = wt[keep], wv[keep]
    if len(wt) < 10:
        raise InsufficientData(
            f"need >= 10 windowed rows with t >= {t_min:g}, have {len(wt)}"
        )
    lx, ly = np.log(wt), np.log(wv)
    slope, intercept = np.polyfit(lx, ly, 1)
    fitted = slope * lx + intercept
    ss_res = float(np.sum((ly - fitted) ** 2))
    ss_tot = float(np.sum((ly - ly.mean()) ** 2))
    r2 = 1.0 - ss_res / ss_tot if ss_tot > 0 else 1.0
    return RateEstimate(float(slope), r2, len(wt), float(t_min), metric)


AGGREGATE_HEADER = "t," + ",".join(
    f"{name}_mean,{name}_se" for name in METRIC_COLUMNS[:-1]
)


def aggregate_runs(runs: list[list[MetricsRow]]) -> str:
    """Merge per-seed row streams into a mean/standard-error table.

    Rows are grouped by t (all seeds share the emission grid); the output is
    independent of the order runs completed in because seeds are merged, not
    streamed.  wall_ns is dropped: it is the one nondeterministic column.
    A single seed reports a standard error of 0.
    """
    by_t: dict[int, list[MetricsRow]] = {}
    for rows in runs:
        for row in rows:
            by_t.setdefault(row.t, []).append(row)
    buf = io.StringIO()
    buf.write(AGGREGATE_HEADER + "\n")
    for t in sorted(by_t):
        group = by_t[t]
        vals = [str(t)]
        for name in METRIC_COLUMNS[:-1]:
            xs = np.array([getattr(r, name) for r in group], dtype=float)
            mean = float(xs.mean())
            se = float(xs.std(ddof=1) / math.sqrt(len(xs))) if len(xs) > 1 else 0.0
            vals.append(repr(mean))
            vals.append(repr(se))
        buf.write(",".join(vals) + "\n")
    return buf.getvalue()
