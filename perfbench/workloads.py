"""The four benchmark workloads: seeded inputs, CLI calls and output checks.

Each workload is one ``avgrl`` subcommand with fixed sizes.  ``make_inputs``
builds everything the program reads from the workload seed; ``Call`` holds
one invocation (its argv plus what its outputs must look like); ``check``
returns the list of problems found in a call's outputs.  The checks compare
values with tolerances or exact integer grids, so they do not depend on the
order of floating-point operations inside the program.
"""

from __future__ import annotations

import hashlib
import json
import math
import os
from dataclasses import dataclass, field

import numpy as np

# The frozen metrics schema, restated here so that a program change to it
# fails the benchmark instead of being absorbed by it.
CSV_HEADER = "t,L_t,L_theta,avg_err_sq,critic_err_sq,M_norm_sq,v_norm,delta_abs_mean,wall_ns"
_FLOAT_COLUMNS = CSV_HEADER.split(",")[1:-1]
AGGREGATE_HEADER = "t," + ",".join(f"{c}_mean,{c}_se" for c in _FLOAT_COLUMNS)
_L_THETA = CSV_HEADER.split(",").index("L_theta")

RATE_FILES = 5
RATE_ROWS = 20_000
RATE_T_STEP = 50
RATE_EXPONENT = -0.6
RATE_T_MIN = 1000.0
SLOPE_TOLERANCE = 0.05
GAIN_TOLERANCE = 1e-9

# name -> (why, fixed options).  A timed call (end-to-end metrics) is a tenth
# of a traced call for the learning workloads, so that a run holds dozens of
# timed calls; the traced call keeps the full size, which gives 1000
# exact-metrics rows on the dense and td-eval workloads.
WORKLOADS = {
    "sweep-ca-4state": (
        "step kernel with the actor moving plus the 2-process pool; oracles bypassed",
        dict(command="sweep", env="four-state", extra=["--algo", "ca"], seeds=8, jobs=2,
             traced=(40_000, 10_000), timed=(5_000, 1_250)),
    ),
    "train-dense-garnet50": (
        "exact-metrics rows at a new theta each on a 50-state garnet; kernel ~8%",
        dict(command="train", env=None, extra=[], seeds=1, jobs=1,
             traced=(10_000, 10), timed=(1_000, 10)),
    ),
    "td-eval-gridworld": (
        "frozen-actor loop: rows at one fixed theta, kernel and rows about half each",
        dict(command="train", env="gridworld4", extra=["--c-alpha", "0", "--c-gamma", "1.5"],
             seeds=1, jobs=1, traced=(100_000, 100), timed=(10_000, 100)),
    ),
    "rate-20k": (
        "reads five 20k-row CSVs and fits a rate; no kernel, no oracles",
        dict(command="rate", jobs=1),
    ),
}


@dataclass
class Inputs:
    """What the program reads, plus the provenance of each file."""

    env: str | None = None
    files: list[str] = field(default_factory=list)
    hashes: dict[str, str] = field(default_factory=dict)


@dataclass
class Call:
    """One CLI invocation and the shape its outputs must have."""

    argv: list[str]
    out: str
    command: str
    seeds: list[int] = field(default_factory=list)
    steps: int = 0
    metrics_every: int = 1
    frozen_actor: bool = False

    @property
    def ops(self) -> int:
        """Sampled steps (learning) or CSV rows read (rate) in this call."""
        if self.command == "rate":
            return RATE_FILES * RATE_ROWS
        return self.steps * len(self.seeds)


def _sha256_file(path: str) -> str:
    with open(path, "rb") as fh:
        return hashlib.sha256(fh.read()).hexdigest()


def _write_rate_csv(path: str, rng: np.random.Generator) -> None:
    t = RATE_T_STEP * np.arange(1, RATE_ROWS + 1)
    noise = rng.lognormal(mean=0.0, sigma=0.3, size=(len(_FLOAT_COLUMNS), RATE_ROWS))
    cols = {name: noise[i] for i, name in enumerate(_FLOAT_COLUMNS)}
    cols["critic_err_sq"] = 3.0 * t.astype(float) ** RATE_EXPONENT * noise[
        _FLOAT_COLUMNS.index("critic_err_sq")]
    lines = [CSV_HEADER]
    for k in range(RATE_ROWS):
        vals = [str(int(t[k]))]
        vals += [repr(float(cols[name][k])) for name in _FLOAT_COLUMNS]
        vals.append(str(1000 * (k + 1)))
        lines.append(",".join(vals))
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write("\n".join(lines) + "\n")


def make_inputs(name: str, seed: int, workdir: str) -> Inputs:
    """Generate the workload's input files from its seed (before any timing)."""
    from avgrl import envs

    _, spec = WORKLOADS[name]
    inputs = Inputs(env=spec.get("env"))
    if name == "train-dense-garnet50":
        mdp = envs.build_garnet(envs.GarnetSpec(n_states=50, n_actions=4, branching=5,
                                                seed=seed))
        inputs.env = os.path.join(workdir, "garnet50.json")
        envs.save_mdp(inputs.env, mdp)
        inputs.hashes["garnet50.content_hash"] = envs.content_hash(mdp)
        inputs.hashes["garnet50.json.sha256"] = _sha256_file(inputs.env)
    elif name == "rate-20k":
        for i in range(RATE_FILES):
            path = os.path.join(workdir, f"s{i}.csv")
            _write_rate_csv(path, np.random.default_rng([seed, i]))
            inputs.files.append(path)
            inputs.hashes[f"s{i}.csv.sha256"] = _sha256_file(path)
    else:
        inputs.hashes[f"{inputs.env}.content_hash"] = envs.content_hash(
            envs.resolve_env(inputs.env)[0])
    return inputs


def make_call(name: str, seed: int, inputs: Inputs, out: str, *, traced: bool = False,
              jobs: int | None = None) -> Call:
    """The workload's timed (or traced) CLI call writing to `out`."""
    _, spec = WORKLOADS[name]
    if spec["command"] == "rate":
        argv = ["rate", *inputs.files, "--metric", "critic_err_sq",
                "--t-min", repr(RATE_T_MIN)]
        return Call(argv=argv, out=out, command="rate")
    steps, every = spec["traced" if traced else "timed"]
    argv = [spec["command"], "--env", inputs.env, *spec["extra"],
            "--steps", str(steps), "--metrics-every", str(every)]
    if spec["command"] == "sweep":
        argv += ["--seeds", str(spec["seeds"]), "--seed", str(seed),
                 "--jobs", str(jobs or spec["jobs"]), "--out", out]
    else:
        argv += ["--seed", str(seed), "--out", os.path.join(out, "metrics.csv")]
    return Call(argv=argv, out=out, command=spec["command"],
                seeds=[seed + i for i in range(spec["seeds"])], steps=steps,
                metrics_every=every, frozen_actor="--c-alpha" in spec["extra"])


# ---------------------------------------------------------------- checks


def _expected_grid(steps: int, every: int) -> list[int]:
    grid = list(range(every, steps + 1, every))
    if steps % every:
        grid.append(steps)
    return grid


def _read_csv(path: str, header: str, problems: list[str]) -> list[list[float]] | None:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            lines = fh.read().splitlines()
    except OSError as exc:
        problems.append(f"{path}: {exc}")
        return None
    if not lines or lines[0] != header:
        problems.append(f"{path}: header differs from the frozen schema")
        return None
    rows = []
    for line_no, line in enumerate(lines[1:], start=2):
        try:
            vals = [float(x) for x in line.split(",")]
        except ValueError:
            problems.append(f"{path}:{line_no}: non-numeric cell")
            return None
        if len(vals) != header.count(",") + 1 or not all(map(math.isfinite, vals)):
            problems.append(f"{path}:{line_no}: wrong width or non-finite value")
            return None
        rows.append(vals)
    return rows


def _check_metrics_csv(path: str, call: Call, optimum: float,
                       problems: list[str]) -> list[list[float]] | None:
    rows = _read_csv(path, CSV_HEADER, problems)
    if rows is None:
        return None
    if [int(r[0]) for r in rows] != _expected_grid(call.steps, call.metrics_every):
        problems.append(f"{path}: t grid differs from every {call.metrics_every} to "
                        f"{call.steps}")
        return None
    worst = max((r[_L_THETA] for r in rows), default=-math.inf)
    if worst > optimum + GAIN_TOLERANCE:
        problems.append(f"{path}: L_theta {worst!r} exceeds the LP optimum {optimum!r}")
    return rows


def output_digest(call: Call, stdout: str) -> str:
    """SHA-256 over a call's outputs without the wall_ns column (recorded, not gated)."""
    h = hashlib.sha256()
    if call.command == "rate":
        h.update(stdout.encode())
        return h.hexdigest()
    names = sorted(n for n in os.listdir(call.out) if n.endswith(".csv"))
    for name in names:
        with open(os.path.join(call.out, name), "r", encoding="utf-8") as fh:
            for line in fh.read().splitlines():
                keep = line if name == "aggregate.csv" else line.rsplit(",", 1)[0]
                h.update(f"{name}:{keep}\n".encode())
    return h.hexdigest()


def check(call: Call, rc: int, stdout: str, optimum: float | None) -> list[str]:
    """Problems found in one call's exit code and outputs; empty means correct."""
    problems = [] if rc == 0 else [f"exit code {rc}"]
    if call.command == "rate":
        _check_rate(stdout, problems)
    elif call.command == "train":
        rows = _check_metrics_csv(os.path.join(call.out, "metrics.csv"), call, optimum,
                                  problems)
        if rows and call.frozen_actor:
            values = [r[_L_THETA] for r in rows]
            if max(values) - min(values) > 1e-12 * max(1.0, abs(values[0])):
                problems.append("L_theta moved although the actor is frozen")
    else:
        _check_sweep(call, optimum, problems)
    return problems


def _check_rate(stdout: str, problems: list[str]) -> None:
    try:
        doc = json.loads(stdout)
    except json.JSONDecodeError:
        problems.append("rate printed no JSON")
        return
    expected_rows = sum(1 for k in range(1, RATE_ROWS + 1) if RATE_T_STEP * k >= RATE_T_MIN)
    if doc.get("n_rows") != expected_rows:
        problems.append(f"rate n_rows {doc.get('n_rows')} != {expected_rows}")
    slope = doc.get("slope")
    if not isinstance(slope, float) or abs(slope - RATE_EXPONENT) > SLOPE_TOLERANCE:
        problems.append(f"rate slope {slope!r} not within {SLOPE_TOLERANCE} of "
                        f"{RATE_EXPONENT}")


def _check_sweep(call: Call, optimum: float, problems: list[str]) -> None:
    try:
        with open(os.path.join(call.out, "sweep.json"), "r", encoding="utf-8") as fh:
            doc = json.load(fh)
    except (OSError, json.JSONDecodeError) as exc:
        problems.append(f"sweep.json unreadable: {exc}")
        return
    if doc.get("failed"):
        problems.append(f"{len(doc['failed'])} of {len(call.seeds)} seeds failed")
    if doc.get("seeds") != call.seeds:
        problems.append("sweep.json lists other seeds than requested")
    per_seed = []
    for seed in call.seeds:
        rows = _check_metrics_csv(os.path.join(call.out, f"seed_{seed}.csv"), call,
                                  optimum, problems)
        if rows is None:
            return
        per_seed.append(rows)
    agg = _read_csv(os.path.join(call.out, "aggregate.csv"), AGGREGATE_HEADER, problems)
    if agg is None:
        return
    if [int(r[0]) for r in agg] != _expected_grid(call.steps, call.metrics_every):
        problems.append("aggregate.csv t grid differs")
        return
    for i, agg_row in enumerate(agg):
        for j in range(len(_FLOAT_COLUMNS)):
            mean = math.fsum(rows[i][1 + j] for rows in per_seed) / len(per_seed)
            if not math.isclose(agg_row[1 + 2 * j], mean, rel_tol=1e-9, abs_tol=1e-300):
                problems.append(f"aggregate.csv {_FLOAT_COLUMNS[j]}_mean at row {i + 1} "
                                f"differs from the per-seed mean")
                return


def final_gain(call: Call) -> float:
    """Median over seeds of the last row's L_theta in a learning call's output."""
    paths = ([os.path.join(call.out, "metrics.csv")] if call.command == "train" else
             [os.path.join(call.out, f"seed_{s}.csv") for s in call.seeds])
    finals = []
    for path in paths:
        with open(path, "r", encoding="utf-8") as fh:
            finals.append(float(fh.read().splitlines()[-1].split(",")[_L_THETA]))
    return float(np.median(finals))
