"""Command-line harness: validate / train / sweep / rate / solve.

Exit codes: 0 on success (for `validate`: all assumptions PASS, every
constant is finite and the average-reward tracker does not expand).  2 when an
input is refused before anything runs: a file that cannot be read or parsed,
or a value refused by the object that holds it (InvalidSpec,
InvariantViolation, InfeasibleDimension for `--features`).  1 when a check
that a command performs fails (`validate`'s verdicts, too few rows for `rate`)
or a run fails.  Any flag can also come from `--config FILE`, a JSON object or
flat `key=value` lines, each value read with its flag's type; explicit flags
override file values.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import os
import sys
from concurrent.futures import ProcessPoolExecutor
from itertools import repeat

import numpy as np

from . import envs, learner, metrics, oracles
from .errors import (AvgrlError, InfeasibleDimension, InvalidSpec, InvariantViolation, ParseError,
                     PeriodicChain)
from .features import (FeatureMap, _critic_matrices, _critic_solve, check_assumption2,
                       make_features)
from .mdp import _differential, _evaluate

# Every option once: key -> (type, default, help).  The key is the config-file
# key and, with "-" for "_", the flag; the type reads the flag and the file
# value alike.  sweep.json writes `opts` in this order.
_OPTIONS = {
    "env": (str, "four-state", "builtin name (four-state, gridworld4, garnet) or JSON path"),
    "features": (str, None,
                 "kind[:d1] (one_hot_reduced, random_unit, tabular_centered) or JSON path"),
    "algo": (str, "ca", None),
    "steps": (int, 100_000, None),
    "seed": (int, 0, None),
    "nu": (float, None, None),
    "sigma": (float, None, None),
    "c_alpha": (float, None, None),
    "c_beta": (float, None, None),
    "c_gamma": (float, None, None),
    "uv": (float, None, "critic projection radius"),
    "actor_radius": (float, None, None),
    "reward_noise": (float, 0.0, None),
    "metrics_every": (int, 1000, None),
    "out": (str, None, None),
    "seeds": (int, 10, "number of consecutive seeds"),
    "jobs": (int, 1, "seed batches, one worker process each"),
    "metric": (str, "critic_err_sq", None),
    "t_min": (float, 1000.0, None),
    "policy_samples": (int, 8, None),
    "horizon": (int, 300, None),
    "theta": (str, None, "JSON file with the parameter vector"),
}

_SCHEDULE_KEYS = ("nu", "sigma", "c_alpha", "c_beta", "c_gamma")
_RUN_KEYS = ("env", "features", "seed", "algo", *_SCHEDULE_KEYS,
             "steps", "uv", "actor_radius", "reward_noise", "metrics_every", "out")

# command -> (help, the option keys it reads, in --help order)
_COMMANDS = {
    "validate": ("check assumptions and report constants",
                 ("env", "features", "seed", "algo", *_SCHEDULE_KEYS,
                  "policy_samples", "horizon", "out")),
    "train": ("run one seed and write a metrics CSV", _RUN_KEYS),
    "sweep": ("run several seeds and aggregate", (*_RUN_KEYS, "seeds", "jobs")),
    "rate": ("fit a decay exponent to metrics CSVs", ("metric", "t_min")),
    "solve": ("print exact quantities at a fixed theta", ("env", "features", "theta", "horizon")),
}

# sweep's counts; _positive_int checks them
_COUNT_KEYS = ("seeds", "jobs")


def load_config_file(path: str) -> dict:
    """JSON object or flat key=value lines; '#' starts a comment.

    A key=value value is returned as its text; `resolve_options` reads it
    with the type of its flag.
    """
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
        doc[key.strip()] = val.strip()
    return doc


def _read_value(path: str, key: str, value):
    """`value` from a config file, read with the type of its flag.

    Text is read as the flag reads it, so "5" is the number 5.  A JSON number
    serves a float key, and an int key unless it has a fraction or is a
    boolean.
    """
    cast = _OPTIONS[key][0]
    if isinstance(value, str):
        try:
            return cast(value)
        except ValueError:
            pass
    elif type(value) is cast or (cast is float and type(value) is int):
        return cast(value)
    kind = ("a positive integer" if key in _COUNT_KEYS else
            {str: "a string", int: "a number with no fraction", float: "a number"}[cast])
    raise ParseError(f"{path}: {key} must be {kind}, got {value!r}")


def resolve_options(args: argparse.Namespace) -> dict:
    """defaults < config file < explicit flags."""
    opts = {key: default for key, (_, default, _) in _OPTIONS.items()}
    cfg_path = getattr(args, "config", None)
    if cfg_path:
        file_opts = load_config_file(cfg_path)
        unknown = set(file_opts) - set(_OPTIONS)
        if unknown:
            raise ParseError(f"{cfg_path}: unknown config keys {sorted(unknown)}")
        for key, value in file_opts.items():
            if value is not None:  # JSON null leaves the default
                opts[key] = _read_value(cfg_path, key, value)
    for key in _OPTIONS:
        val = getattr(args, key, None)
        if val is not None:
            opts[key] = val
    return opts


def build_schedule(algo: str, opts: dict) -> learner.StepSchedule:
    """The preset for `algo` with the schedule options that are set."""
    overrides = {key: opts[key] for key in _SCHEDULE_KEYS if opts.get(key) is not None}
    return learner.algo_schedule(algo, **overrides)


def resolve_features(spec: str | None, mdp,
                     embedded: FeatureMap | None) -> tuple[FeatureMap, str]:
    """The feature map of `spec` (a JSON path or kind[:d1]) and the name a run
    records for it: without a spec the env file's own map ("embedded"), or
    else one_hot_reduced."""
    if spec is None:
        if embedded is not None:
            return embedded, "embedded"
        return make_features("one_hot_reduced", mdp), "one_hot_reduced"
    if os.path.exists(spec):
        _, fmap = envs.load_mdp(spec)
        if fmap is None:
            raise ParseError(f"{spec}: no 'features' block in file")
        if fmap.n_states != mdp.n_states:
            raise ParseError(f"{spec}: the feature table has {fmap.n_states} rows, but the "
                             f"env has {mdp.n_states} states")
        return fmap, spec
    kind, _, dim = spec.partition(":")
    try:
        d1 = int(dim) if dim else None
    except ValueError:
        raise ParseError(f"features {spec!r}: dimension {dim!r} is not an integer") from None
    return make_features(kind, mdp, d1=d1, seed=0), spec


def _resolve_problem(opts: dict):
    """(mdp, features, policy, the features' name)."""
    mdp, embedded = envs.resolve_env(opts["env"])
    features, features_name = resolve_features(opts["features"], mdp, embedded)
    policy = envs.tabular_policy(mdp)
    return mdp, features, policy, features_name


def cmd_validate(opts: dict) -> int:
    sched = build_schedule(opts["algo"], opts)
    mdp, features, policy, _ = _resolve_problem(opts)
    report = check_assumption2(
        mdp, policy, features,
        n_theta_samples=opts["policy_samples"], seed=opts["seed"],
    )
    a1 = report.features_ok
    a2 = report.assumption2_ok
    mixing_error = None
    try:
        profile = oracles.estimate_mixing(mdp, policy, horizon=opts["horizon"])
        report.mixing_b, report.mixing_k = profile.b, profile.k
    except PeriodicChain as exc:
        profile = None
        mixing_error = str(exc)
    a3 = report.mixing_ok

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
    not_finite = [f"{k}={v:.6g}" for k, v in report.constants.items() if not np.isfinite(v)]
    if not_finite:
        print(f"finite constants: FAIL  {' '.join(not_finite)}")

    doc = report.to_dict()
    doc["assumption1_ok"] = a1
    doc["assumption3_ok"] = a3
    doc["mixing_error"] = mixing_error
    doc["schedule"] = dataclasses.asdict(flags)
    if opts["out"]:
        with open(opts["out"], "w", encoding="utf-8") as fh:
            _dump_json(doc, fh)
    return 0 if (a1 and a2 and a3 and flags.tracker_ok and not not_finite) else 1


def _finite_or_null(obj):
    """obj with every non-finite float (NaN, +-inf) replaced by None, so that
    it writes as strict JSON (null) rather than NaN or Infinity."""
    if isinstance(obj, float):
        return obj if np.isfinite(obj) else None
    if isinstance(obj, dict):
        return {k: _finite_or_null(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_finite_or_null(v) for v in obj]
    return obj


def _dump_json(doc, fh) -> None:
    """doc as strict JSON (non-finite floats as null), indented, and a newline."""
    json.dump(_finite_or_null(doc), fh, indent=2, allow_nan=False)
    fh.write("\n")


def _positive_int(opts: dict, key: str) -> int:
    if opts[key] < 1:
        raise InvalidSpec(f"{key} must be a positive integer, got {opts[key]}")
    return opts[key]


def _make_run_config(opts: dict) -> tuple[learner.RunConfig, str]:
    """The run options but --seed, which is refused here when negative, before
    any output is made (numpy's generators take no negative seed); and the
    features' name."""
    if opts["seed"] < 0:
        raise InvariantViolation(f"seed must be nonnegative, got {opts['seed']}")
    mdp, features, policy, features_name = _resolve_problem(opts)
    sched = build_schedule(opts["algo"], opts)
    return learner.RunConfig(
        mdp=mdp,
        policy=policy,
        features=features,
        schedule=sched,
        steps=opts["steps"],
        metrics_every=opts["metrics_every"],
        uv_radius=opts["uv"],
        actor_radius=opts["actor_radius"],
        reward_noise=opts["reward_noise"],
    ), features_name


def _host() -> dict:
    """What makes output bytes host-specific: numpy's SIMD dispatch and the
    OpenBLAS core (LAPACK) for the oracle columns, and the C library (libm's
    exp, on the sampled path too)."""
    import ctypes
    import glob
    import platform

    try:
        from numpy._core._multiarray_umath import __cpu_features__
    except ImportError:  # numpy 1.x
        from numpy.core._multiarray_umath import __cpu_features__
    blas = {"openblas_core": None, "openblas_config": None}
    libs = os.path.join(os.path.dirname(os.path.dirname(np.__file__)), "numpy.libs")
    for path in glob.glob(os.path.join(libs, "libscipy_openblas*")):
        lib = ctypes.CDLL(path)
        for key, name in (("openblas_core", "corename"), ("openblas_config", "config")):
            getter = getattr(lib, f"scipy_openblas_get_{name}64_", None)
            if getter is not None:
                getter.restype = ctypes.c_char_p
                blas[key] = getter().decode()
    return {"numpy": np.__version__, "x86_v4": bool(__cpu_features__.get("X86_V4", False)),
            **blas, "libc": " ".join(platform.libc_ver()).strip() or None}


def _sidecar(opts: dict, features_name: str, config: learner.RunConfig,
             result: learner.RunResult) -> dict:
    sched = config.schedule
    return {
        "env": opts["env"],
        "features": features_name,
        "algo": opts["algo"],
        "steps": config.steps,
        "seed": opts["seed"],
        "metrics_every": config.metrics_every,
        "reward_noise": config.reward_noise,
        "actor_radius": config.actor_radius,
        "uv_radius": result.uv_radius,
        "schedule": {
            "c_alpha": sched.c_alpha, "c_beta": sched.c_beta, "c_gamma": sched.c_gamma,
            "nu": sched.nu, "sigma": sched.sigma, "gamma_exp": sched.gamma_exp,
        },
        "final": dataclasses.asdict(result.final),
        "host": _host(),
    }


def cmd_train(opts: dict) -> int:
    config, features_name = _make_run_config(opts)
    out = opts["out"] or "metrics.csv"
    os.makedirs(os.path.dirname(out) or ".", exist_ok=True)
    result = learner.run(config, opts["seed"])
    metrics.write_metrics_csv(out, result.rows)
    sidecar_path = os.path.splitext(out)[0] + ".json"
    with open(sidecar_path, "w", encoding="utf-8") as fh:
        _dump_json(_sidecar(opts, features_name, config, result), fh)
    gain = f" L(theta_T)={result.rows[-1].L_theta:.6g}" if result.rows else ""
    print(f"wrote {out} ({len(result.rows)} rows); final L_t={result.final.L:.6g}{gain}")
    return 0


def _sweep_batch(config: learner.RunConfig, seeds: list[int]) -> list:
    """Rows per seed, or the failure message of a seed that failed."""
    try:
        results = learner.run_batch(config, seeds)
    except AvgrlError as exc:  # before any step, e.g. the default critic radius: every seed
        return [str(exc)] * len(seeds)
    return [res.rows if isinstance(res, learner.RunResult) else str(res)
            for res in results]


def cmd_sweep(opts: dict) -> int:
    n_seeds = _positive_int(opts, "seeds")
    jobs = _positive_int(opts, "jobs")
    base_seed = opts["seed"]
    seeds = [base_seed + i for i in range(n_seeds)]
    config, features_name = _make_run_config(opts)
    out_dir = opts["out"] or "sweep_out"
    os.makedirs(out_dir, exist_ok=True)
    # contiguous batches whose sizes differ by at most one, one per process
    n_batches = min(jobs, n_seeds)
    bounds = [n_seeds * i // n_batches for i in range(n_batches + 1)]
    batches = [seeds[lo:hi] for lo, hi in zip(bounds, bounds[1:])]
    if n_batches == 1:
        outcomes = _sweep_batch(config, seeds)
    else:
        with ProcessPoolExecutor(max_workers=n_batches) as pool:
            outcomes = [out for batch in pool.map(_sweep_batch, repeat(config), batches)
                        for out in batch]
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
        _dump_json({"seeds": seeds, "failed": failures, "features": features_name,
                    "opts": {k: v for k, v in opts.items() if k != "theta"}, "host": _host()},
                   fh)
    for seed, msg in failures:
        print(f"seed {seed} failed: {msg}", file=sys.stderr)
    print(f"wrote {out_dir}/ ({len(results)}/{len(seeds)} seeds)")
    return 1 if failures else 0


def cmd_rate(files: list[str], opts: dict) -> int:
    metric = opts["metric"]
    t_min = opts["t_min"]
    columns = []
    for path in files:
        cols = metrics.read_table(path)
        if "t" not in cols or metric not in cols:
            raise ParseError(f"{path}: need columns 't' and {metric!r}")
        if not np.isfinite(cols["t"]).all():
            raise ParseError(f"{path}: every t must be finite")
        if not np.isfinite(cols[metric]).all():
            raise ParseError(f"{path}: every {metric} must be finite")
        columns.append((cols["t"], cols[metric]))
    ts, ys = metrics._mean_by_t(columns)
    if not np.isfinite(ys).all():
        raise ParseError(f"the mean of {metric} at t = {ts[~np.isfinite(ys)][0]:g} overflows")
    est = metrics.rate_slope(ts, ys, t_min=t_min, metric=metric)
    _dump_json({
        "metric": est.metric, "slope": est.slope, "r_squared": est.r_squared,
        "n_rows": est.n_rows, "t_min": est.t_min,
    }, sys.stdout)
    return 0


def _read_theta(path: str) -> np.ndarray:
    """The JSON list of finite numbers in `path`, as a vector."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            doc = json.load(fh)
        if isinstance(doc, list) and all(type(x) in (int, float) for x in doc):
            theta = np.array(doc, dtype=float)
            if np.isfinite(theta).all():
                return theta
    except OSError as exc:
        raise ParseError(f"cannot read {path}: {exc}") from exc
    except (json.JSONDecodeError, OverflowError):  # an int too large for a float
        pass
    raise ParseError(f"{path}: theta must be a JSON list of finite numbers")


def cmd_solve(opts: dict) -> int:
    mdp, features, policy, _ = _resolve_problem(opts)
    if opts["theta"]:
        policy = policy.with_theta(_read_theta(opts["theta"]))
    chain, mu, gain = _evaluate(mdp, policy)
    V = _differential(chain, mu, gain)
    A, b = _critic_matrices(features.table, chain, mu, gain)
    v_star = _critic_solve(A, b)
    M = oracles.actor_field_M(mdp, policy, features, v_star)
    lam = float(np.linalg.eigvalsh(0.5 * (A + A.T)).max())
    try:
        profile = oracles.estimate_mixing(mdp, policy, horizon=opts["horizon"])
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
    _dump_json(doc, sys.stdout)
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="avgrl",
        description="Average-reward two-timescale learners with exact oracles",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for command, (help_text, keys) in _COMMANDS.items():
        p = sub.add_parser(command, help=help_text)
        if command == "rate":
            p.add_argument("files", nargs="+")
        p.add_argument("--config", help="JSON or key=value config file")
        for key in keys:
            cast, _, key_help = _OPTIONS[key]
            p.add_argument("--" + key.replace("_", "-"), dest=key, type=cast, help=key_help,
                           choices=list(learner.ALGO_SCHEDULES) if key == "algo" else None)

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
    except (ParseError, InvalidSpec, InvariantViolation, InfeasibleDimension, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except AvgrlError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


def console_main() -> None:
    sys.exit(main())
