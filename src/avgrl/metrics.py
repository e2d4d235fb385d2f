"""Run metrics: exact per-row diagnostics, CSV round-trip, rate estimation.

The CSV schema is frozen; downstream tooling greps these exact column names:

    t,L_t,L_theta,avg_err_sq,critic_err_sq,M_norm_sq,v_norm,delta_abs_mean,wall_ns

Every float is serialized with repr(), which round-trips exactly, and wall_ns
is the only column allowed to differ between reruns of the same seed.

Rate estimation fits an ordinary-least-squares line to log(windowed metric)
vs log t where the window is a trailing-decade geometric mean; for an exact
power law t^p the fitted slope is p.
"""

from __future__ import annotations

import csv
import io
import math
from dataclasses import dataclass

import numpy as np

from .errors import InsufficientData, ParseError
from .features import FeatureMap
from .mdp import (
    FiniteMdp,
    SoftmaxLinearPolicy,
    induced_chain,
    stationary_distribution,
)

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
) -> MetricsRow:
    """Evaluate the exact diagnostics at the current iterate.

    Solves for L(theta), v*(theta) and the expected actor field M(theta, v)
    from the model, so each row reports true optimality gaps rather than
    sampled proxies.
    """
    from .oracles import actor_field_M, critic_fixed_point

    pol = policy.with_theta(theta)
    chain = induced_chain(mdp, pol)
    mu = stationary_distribution(chain)
    l_theta = float(mu @ chain.expected_reward)
    v_star = critic_fixed_point(mdp, pol, features)
    M = actor_field_M(mdp, pol, features, v)
    return MetricsRow(
        t=t,
        L_t=float(L),
        L_theta=l_theta,
        avg_err_sq=float((L - l_theta) ** 2),
        critic_err_sq=float(np.sum((v - v_star) ** 2)),
        M_norm_sq=float(np.sum(M * M)),
        v_norm=float(np.linalg.norm(v)),
        delta_abs_mean=float(delta_abs_mean),
        wall_ns=int(wall_ns),
    )


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
    """Read any metrics-style CSV into column arrays keyed by header name."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            reader = csv.reader(fh)
            try:
                header = next(reader)
            except StopIteration:
                raise ParseError(f"{path}: empty file") from None
            columns = {name: [] for name in header}
            for line_no, parts in enumerate(reader, start=2):
                if len(parts) != len(header):
                    raise ParseError(
                        f"{path}:{line_no}: expected {len(header)} fields, got {len(parts)}"
                    )
                for name, val in zip(header, parts):
                    columns[name].append(float(val))
    except OSError as exc:
        raise ParseError(f"cannot read {path}: {exc}") from exc
    except ValueError as exc:
        raise ParseError(f"{path}: non-numeric cell ({exc})") from exc
    return {name: np.array(vals) for name, vals in columns.items()}


def read_metrics_csv(path: str) -> dict[str, np.ndarray]:
    cols = read_table(path)
    if list(cols.keys()) != CSV_HEADER.split(","):
        raise ParseError(f"{path}: header does not match {CSV_HEADER!r}")
    return cols


def windowed_geomean(ts: np.ndarray, ys: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Trailing-decade geometric mean: w(t) = geomean of y over t' in (t/10, t].

    Nonpositive samples are dropped from each window; rows whose window is
    empty after dropping are omitted from the output.
    """
    order = np.argsort(ts)
    ts, ys = np.asarray(ts)[order], np.asarray(ys)[order]
    out_t, out_w = [], []
    for i, t in enumerate(ts):
        lo = t / 10.0
        mask = (ts > lo) & (ts <= t) & (ys > 0.0)
        if not np.any(mask):
            continue
        out_t.append(t)
        out_w.append(math.exp(float(np.mean(np.log(ys[mask])))))
    return np.array(out_t), np.array(out_w)


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

    Raises InsufficientData when fewer than 10 windowed rows survive the cut.
    """
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
