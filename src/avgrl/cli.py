"""Command-line harness: validate / train / sweep / rate / solve.

Exit codes: 0 on success (for `validate`: all assumptions PASS and the
average-reward tracker does not expand), 1 when a validation or oracle check
fails, 2 on I/O or parse problems.  Any flag can also be supplied through
`--config FILE` holding either a JSON object or flat `key=value` lines;
explicit flags override file values.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import os
import sys
from concurrent.futures import ProcessPoolExecutor

import numpy as np

from . import envs, learner, metrics, oracles
from .errors import (
    AvgrlError,
    InvalidSpec,
    ParseError,
    PeriodicChain,
)
from .features import FeatureMap, _critic_matrices, check_assumption2, make_features
from .mdp import _differential, _evaluate

_DEFAULTS = {
    "env": "four-state",
    "features": None,
    "algo": "ca",
    "steps": 100_000,
    "seed": 0,
    "nu": None,
    "sigma": None,
    "c_alpha": None,
    "c_beta": None,
    "c_gamma": None,
    "k_coupling": None,
    "uv": None,
    "actor_radius": None,
    "reward_noise": 0.0,
    "metrics_every": 1000,
    "out": None,
    "seeds": 10,
    "jobs": 1,
    "metric": "critic_err_sq",
    "t_min": 1000.0,
    "policy_samples": 8,
    "horizon": 300,
    "theta": None,
}


# Config-file keys that hold numbers, with the type of their flag (flags are
# typed by argparse); seeds and jobs are checked by _positive_int.
_NUMBER_KEYS = {
    "steps": int, "seed": int, "metrics_every": int, "policy_samples": int,
    "horizon": int, "nu": float, "sigma": float, "c_alpha": float, "c_beta": float,
    "c_gamma": float, "k_coupling": float, "uv": float, "actor_radius": float,
    "reward_noise": float, "t_min": float,
}


def _parse_scalar(text: str):
    for cast in (int, float):
        try:
            return cast(text)
        except ValueError:
            pass
    return text


def load_config_file(path: str) -> dict:
    """JSON object or flat key=value lines; '#' starts a comment."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            text = fh.read()
    except OSError as exc:
        raise ParseError(f"cannot read config {path}: {exc}") from exc
    stripped = text.lstrip()
    if stripped.startswith("{"):
        try:
            doc = json.loads(text)
        except json.JSONDecodeError as exc:
            raise ParseError(f"{path} is not valid JSON: {exc}") from exc
        if not isinstance(doc, dict):
            raise ParseError(f"{path}: config JSON must be an object")
        return doc
    doc = {}
    for line_no, line in enumerate(text.splitlines(), start=1):
        line = line.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ParseError(f"{path}:{line_no}: expected key=value, got {line!r}")
        key, val = line.split("=", 1)
        doc[key.strip()] = _parse_scalar(val.strip())
    return doc


def resolve_options(args: argparse.Namespace) -> dict:
    """defaults < config file < explicit flags."""
    opts = dict(_DEFAULTS)
    cfg_path = getattr(args, "config", None)
    if cfg_path:
        file_opts = load_config_file(cfg_path)
        unknown = set(file_opts) - set(_DEFAULTS)
        if unknown:
            raise ParseError(f"{cfg_path}: unknown config keys {sorted(unknown)}")
        for key, cast in _NUMBER_KEYS.items():
            value = file_opts.get(key)
            if value is None or isinstance(value, (int, float)):
                continue
            try:  # a JSON string such as "5" is read as the number it spells
                file_opts[key] = cast(value)
            except (TypeError, ValueError):
                raise ParseError(f"{cfg_path}: {key} must be a number, got {value!r}") from None
        opts.update(file_opts)
    for key in _DEFAULTS:
        val = getattr(args, key, None)
        if val is not None:
            opts[key] = val
    return opts


_SCHEDULE_KEYS = ("c_alpha", "c_beta", "c_gamma", "nu", "sigma", "k_coupling")


def build_schedule(algo: str, opts: dict) -> learner.StepSchedule:
    """The preset for `algo` with the schedule options that are set."""
    overrides = {key: opts[key] for key in _SCHEDULE_KEYS if opts.get(key) is not None}
    return learner.algo_schedule(algo, **overrides)


def resolve_features(spec: str | None, mdp, embedded: FeatureMap | None) -> FeatureMap:
    if spec is None:
        if embedded is not None:
            return embedded
        return make_features("one_hot_reduced", mdp)
    if os.path.exists(spec):
        _, fmap = envs.load_mdp(spec)
        if fmap is None:
            raise ParseError(f"{spec}: no 'features' block in file")
        return fmap
    kind, _, dim = spec.partition(":")
    try:
        d1 = int(dim) if dim else None
    except ValueError:
        raise ParseError(f"features {spec!r}: dimension {dim!r} is not an integer") from None
    return make_features(kind, mdp, d1=d1, seed=0)


def _resolve_problem(opts: dict):
    mdp, embedded = envs.resolve_env(opts["env"])
    features = resolve_features(opts["features"], mdp, embedded)
    policy = envs.tabular_policy(mdp)
    return mdp, features, policy


def cmd_validate(opts: dict) -> int:
    mdp, features, policy = _resolve_problem(opts)
    report = check_assumption2(
        mdp, policy, features,
        n_theta_samples=int(opts["policy_samples"]), seed=int(opts["seed"]),
    )
    a1 = report.features_ok
    a2 = report.assumption2_ok
    mixing_error = None
    try:
        profile = oracles.estimate_mixing(mdp, policy, horizon=int(opts["horizon"]))
        report.mixing_b, report.mixing_k = profile.b, profile.k
    except PeriodicChain as exc:
        profile = None
        mixing_error = str(exc)
    a3 = report.mixing_ok

    sched = build_schedule(opts["algo"], opts)
    flags = learner.validate_schedule(sched, report)
    if profile is not None:
        report.tau_examples = {t: profile.tau(t, sched) for t in (0, 1000, 1_000_000)}

    print(f"assumption1 (feature map): {'PASS' if a1 else 'FAIL'}  "
          f"norm_ok={report.norm_ok} rank_ok={report.rank_ok} "
          f"e_excluded={report.e_excluded}")
    print(f"assumption2 (negative definiteness): {'PASS' if a2 else 'FAIL'}  "
          f"lambda_sup={report.lambda_sup:.6g} over {len(report.lambda_thetas)} "
          f"sampled theta (sampled evidence, not a certificate)")
    if profile is not None:
        print(f"assumption3 (geometric mixing): {'PASS' if a3 else 'FAIL'}  "
              f"b={profile.b:.6g} k={profile.k:.6g} "
              f"tau={report.tau_examples}")
    else:
        print(f"assumption3 (geometric mixing): FAIL  {mixing_error}")
    print(f"schedule: finite_time_ok={flags.finite_time_ok} "
          f"asymptotic_ok={flags.asymptotic_ok} ratio={flags.ratio:.6g} "
          f"ratio_bound={flags.ratio_bound} ratio_ok={flags.ratio_ok} "
          f"tracker_ok={flags.tracker_ok}")
    consts = " ".join(f"{k}={v:.6g}" for k, v in report.constants.items())
    print(f"constants: {consts}")

    doc = report.to_dict()
    doc["assumption1_ok"] = a1
    doc["assumption3_ok"] = a3
    doc["mixing_error"] = mixing_error
    doc["schedule"] = dataclasses.asdict(flags)
    if opts["out"]:
        with open(opts["out"], "w", encoding="utf-8") as fh:
            json.dump(doc, fh, indent=2)
            fh.write("\n")
    return 0 if (a1 and a2 and a3 and flags.tracker_ok) else 1


def _make_run_config(opts: dict, seed: int) -> learner.RunConfig:
    mdp, features, policy = _resolve_problem(opts)
    sched = build_schedule(opts["algo"], opts)
    return learner.RunConfig(
        mdp=mdp,
        policy=policy,
        features=features,
        schedule=sched,
        steps=int(opts["steps"]),
        algo=opts["algo"],
        seed=seed,
        metrics_every=int(opts["metrics_every"]),
        uv_radius=opts["uv"],
        actor_radius=opts["actor_radius"],
        reward_noise=float(opts["reward_noise"]),
    )


def _sidecar(opts: dict, config: learner.RunConfig, result: learner.RunResult) -> dict:
    sched = config.schedule
    return {
        "env": opts["env"],
        "features": opts["features"] or "one_hot_reduced",
        "algo": config.algo,
        "steps": config.steps,
        "seed": config.seed,
        "metrics_every": config.metrics_every,
        "reward_noise": config.reward_noise,
        "actor_radius": config.actor_radius,
        "uv_radius": result.uv_radius,
        "schedule": {
            "c_alpha": sched.c_alpha, "c_beta": sched.c_beta, "c_gamma": sched.c_gamma,
            "nu": sched.nu, "sigma": sched.sigma, "gamma_exp": sched.gamma_exp,
            "k_coupling": sched.k_coupling,
        },
        "final": {
            "t": result.final.t,
            "L": result.final.L,
            "s": result.final.s,
            "v": [float(x) for x in result.final.v],
            "theta": [float(x) for x in result.final.theta],
        },
    }


def cmd_train(opts: dict) -> int:
    config = _make_run_config(opts, int(opts["seed"]))
    result = learner.run(config)
    out = opts["out"] or "metrics.csv"
    metrics.write_metrics_csv(out, result.rows)
    sidecar_path = os.path.splitext(out)[0] + ".json"
    with open(sidecar_path, "w", encoding="utf-8") as fh:
        json.dump(_sidecar(opts, config, result), fh, indent=2)
        fh.write("\n")
    last_l_theta = result.rows[-1].L_theta if result.rows else float("nan")
    print(f"wrote {out} ({len(result.rows)} rows); final L_t={result.final.L:.6g} "
          f"L(theta_T)={last_l_theta:.6g}")
    return 0


def _positive_int(opts: dict, key: str) -> int:
    try:
        value = int(opts[key])
    except (TypeError, ValueError):
        raise InvalidSpec(f"{key} must be a positive integer, got {opts[key]!r}") from None
    if value < 1:
        raise InvalidSpec(f"{key} must be a positive integer, got {value}")
    return value


def _sweep_batch(configs: list[learner.RunConfig]) -> list:
    """Rows per seed, or the failure message of a seed that failed."""
    try:
        results = learner.run_batch(configs)
    except AvgrlError as exc:  # before any step, e.g. the critic radius: every seed
        return [str(exc)] * len(configs)
    return [res.rows if isinstance(res, learner.RunResult) else str(res)
            for res in results]


def cmd_sweep(opts: dict) -> int:
    n_seeds = _positive_int(opts, "seeds")
    jobs = _positive_int(opts, "jobs")
    base_seed = int(opts["seed"])
    seeds = [base_seed + i for i in range(n_seeds)]
    base = _make_run_config(opts, base_seed)
    configs = [dataclasses.replace(base, seed=seed) for seed in seeds]
    out_dir = opts["out"] or "sweep_out"
    os.makedirs(out_dir, exist_ok=True)
    # contiguous batches whose sizes differ by at most one, one per process
    n_batches = min(jobs, n_seeds)
    bounds = [n_seeds * i // n_batches for i in range(n_batches + 1)]
    batches = [configs[lo:hi] for lo, hi in zip(bounds, bounds[1:])]
    if n_batches == 1:
        outcomes = _sweep_batch(configs)
    else:
        with ProcessPoolExecutor(max_workers=n_batches) as pool:
            outcomes = [out for batch in pool.map(_sweep_batch, batches) for out in batch]
    failures = [(seed, out) for seed, out in zip(seeds, outcomes) if isinstance(out, str)]
    results = {seed: out for seed, out in zip(seeds, outcomes) if not isinstance(out, str)}
    for seed in seeds:
        if seed in results:
            metrics.write_metrics_csv(
                os.path.join(out_dir, f"seed_{seed}.csv"), results[seed]
            )
    # merge in seed order so the aggregate is independent of completion order
    agg = metrics.aggregate_runs([results[s] for s in seeds if s in results])
    with open(os.path.join(out_dir, "aggregate.csv"), "w", encoding="utf-8") as fh:
        fh.write(agg)
    with open(os.path.join(out_dir, "sweep.json"), "w", encoding="utf-8") as fh:
        json.dump({"seeds": seeds, "failed": failures,
                   "opts": {k: v for k, v in opts.items() if k != "theta"}},
                  fh, indent=2)
        fh.write("\n")
    for seed, msg in failures:
        print(f"seed {seed} failed: {msg}", file=sys.stderr)
    print(f"wrote {out_dir}/ ({len(results)}/{len(seeds)} seeds)")
    return 1 if failures else 0


def cmd_rate(files: list[str], opts: dict) -> int:
    metric = opts["metric"]
    t_min = float(opts["t_min"])
    by_t: dict[float, list[float]] = {}
    for path in files:
        cols = metrics.read_table(path)
        if "t" not in cols or metric not in cols:
            raise ParseError(f"{path}: need columns 't' and {metric!r}")
        for t, y in zip(cols["t"], cols[metric]):
            by_t.setdefault(float(t), []).append(float(y))
    ts = np.array(sorted(by_t))
    ys = np.array([np.mean(by_t[t]) for t in ts])
    est = metrics.rate_slope(ts, ys, t_min=t_min, metric=metric)
    print(json.dumps({
        "metric": est.metric, "slope": est.slope, "r_squared": est.r_squared,
        "n_rows": est.n_rows, "t_min": est.t_min,
    }, indent=2))
    return 0


def cmd_solve(opts: dict) -> int:
    mdp, features, policy = _resolve_problem(opts)
    if opts["theta"]:
        try:
            with open(opts["theta"], "r", encoding="utf-8") as fh:
                theta = np.array(json.load(fh), dtype=float)
        except OSError as exc:
            raise ParseError(f"cannot read {opts['theta']}: {exc}") from exc
        except (json.JSONDecodeError, ValueError) as exc:
            raise ParseError(f"{opts['theta']}: not a JSON float list: {exc}") from exc
        policy = policy.with_theta(theta)
    chain, mu, gain = _evaluate(mdp, policy)
    V = _differential(chain, mu, gain)
    A, b = _critic_matrices(features.table, chain, mu, gain)
    v_star = oracles._critic_solve(A, b)
    M = oracles.actor_field_M(mdp, policy, features, v_star)
    lam = float(np.linalg.eigvalsh(0.5 * (A + A.T)).max())
    try:
        profile = oracles.estimate_mixing(mdp, policy, horizon=int(opts["horizon"]))
        mixing = {"b": profile.b, "k": profile.k}
    except PeriodicChain as exc:
        mixing = {"error": str(exc)}
    doc = {
        "mu": [float(x) for x in mu],
        "L": gain,
        "V": [float(x) for x in V],
        "v_star": [float(x) for x in v_star],
        "M_norm": float(np.linalg.norm(M)),
        "lambda_theta": lam,
        "mixing": mixing,
    }
    print(json.dumps(doc, indent=2))
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="avgrl",
        description="Average-reward two-timescale learners with exact oracles",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_common(p):
        p.add_argument("--config", help="JSON or key=value config file")
        p.add_argument("--env", help="builtin name (four-state, gridworld4, garnet) or JSON path")
        p.add_argument("--features",
                       help="kind[:d1] (one_hot_reduced, random_unit, tabular_centered) or JSON path")
        p.add_argument("--seed", type=int)

    def add_schedule(p):
        p.add_argument("--algo", choices=list(learner.ALGO_SCHEDULES))
        p.add_argument("--nu", type=float)
        p.add_argument("--sigma", type=float)
        p.add_argument("--c-alpha", dest="c_alpha", type=float)
        p.add_argument("--c-beta", dest="c_beta", type=float)
        p.add_argument("--c-gamma", dest="c_gamma", type=float)
        p.add_argument("--k-coupling", dest="k_coupling", type=float)

    def add_run(p):
        p.add_argument("--steps", type=int)
        p.add_argument("--uv", type=float, help="critic projection radius")
        p.add_argument("--actor-radius", dest="actor_radius", type=float)
        p.add_argument("--reward-noise", dest="reward_noise", type=float)
        p.add_argument("--metrics-every", dest="metrics_every", type=int)
        p.add_argument("--out")

    p_val = sub.add_parser("validate", help="check assumptions and report constants")
    add_common(p_val)
    add_schedule(p_val)
    p_val.add_argument("--policy-samples", dest="policy_samples", type=int)
    p_val.add_argument("--horizon", type=int)
    p_val.add_argument("--out")

    p_train = sub.add_parser("train", help="run one seed and write a metrics CSV")
    add_common(p_train)
    add_schedule(p_train)
    add_run(p_train)

    p_sweep = sub.add_parser("sweep", help="run several seeds and aggregate")
    add_common(p_sweep)
    add_schedule(p_sweep)
    add_run(p_sweep)
    p_sweep.add_argument("--seeds", type=int, help="number of consecutive seeds")
    p_sweep.add_argument("--jobs", type=int, help="parallel worker processes")

    p_rate = sub.add_parser("rate", help="fit a decay exponent to metrics CSVs")
    p_rate.add_argument("files", nargs="+")
    p_rate.add_argument("--config")
    p_rate.add_argument("--metric")
    p_rate.add_argument("--t-min", dest="t_min", type=float)

    p_solve = sub.add_parser("solve", help="print exact quantities at a fixed theta")
    add_common(p_solve)
    p_solve.add_argument("--theta", help="JSON file with the parameter vector")
    p_solve.add_argument("--horizon", type=int)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        opts = resolve_options(args)
        if args.command == "validate":
            return cmd_validate(opts)
        if args.command == "train":
            return cmd_train(opts)
        if args.command == "sweep":
            return cmd_sweep(opts)
        if args.command == "rate":
            return cmd_rate(args.files, opts)
        if args.command == "solve":
            return cmd_solve(opts)
        parser.error(f"unknown command {args.command!r}")
    except (ParseError, InvalidSpec, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except AvgrlError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    return 0


def console_main() -> None:
    sys.exit(main())
