"""avgrl benchmark: one workload, one seed, one JSON result line.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the repository root.  The inputs are generated from the seed, the
CLI runs in a separate workload process with the BLAS thread count pinned to
1, every output is checked, and the last line of stdout is

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

--trace 0 reports the end-to-end metrics, timed at the reference host speed
(reference.py), and --trace 1 the per-layer metrics of a traced run.  A full
report (provenance, input and output hashes, every call and every per-layer
figure) goes to perfbench/out/.  See perfbench/README.md.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import time

import tracer

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
OUT = os.path.join(HERE, "out")
PINNED = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}

SETUP_REPEATS = 7
CALL_TIMEOUT_S = 150

# Printed per-layer metrics: (name, unit).  Times are shares of the traced
# wall time, so a layer that a workload does not use reads 0 rather than an
# undefined figure; absolute times and latency percentiles are in the report.
LAYER_FUNCS_SELF = ["learner.run", "metrics.exact_metrics_row", "mdp.is_irreducible"]
LAYER_FUNCS_TOTAL = [
    "mdp.stationary_distribution", "oracles.critic_fixed_point", "oracles.actor_field_M",
    "features.matrix_A", "metrics.write_metrics_csv", "metrics.aggregate_runs",
    "metrics.read_table", "metrics.windowed_geomean", "metrics.rate_slope",
    "envs.resolve_env", "learner.resolve_uv_radius",
]
COUNTED = [
    "metrics.exact_metrics_row", "mdp.stationary_distribution", "mdp.induced_chain",
    "oracles.critic_fixed_point", "oracles.actor_field_M", "features.matrix_A",
]


def _provenance(workload: str, seed: int, inputs) -> dict:
    import numpy
    import scipy

    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    doc = {
        "workload": workload, "seed": seed, "nproc": os.cpu_count(),
        "python": platform.python_version(), "numpy": numpy.__version__,
        "scipy": scipy.__version__, "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads_env": PINNED, "input_hashes": inputs.hashes,
        "git_rev": None, "git_dirty": None,
    }
    if os.path.isdir(os.path.join(ROOT, ".git")):
        rev = subprocess.run(["git", "-C", ROOT, "rev-parse", "HEAD"],
                             capture_output=True, text=True)
        status = subprocess.run(["git", "-C", ROOT, "status", "--porcelain",
                                 "--untracked-files=no"], capture_output=True, text=True)
        if rev.returncode == 0:
            doc["git_rev"] = rev.stdout.strip()
            doc["git_dirty"] = bool(status.stdout.strip())
    return doc


def _setup_seconds(call) -> tuple[list[float], list[float], list[str]]:
    """Wall times of fresh interpreters that import avgrl.cli and run the
    workload's call up to its first step (setup_probe.py), and of fresh
    interpreters that import only avgrl's dependencies (the reference), timed
    before the first probe and after each."""
    from reference import IMPORT_REFERENCE_ARGV

    os.makedirs(call.out, exist_ok=True)
    argv = [sys.executable, os.path.join(HERE, "setup_probe.py"), json.dumps(call.argv)]
    times, refs, problems = [], [], []

    def time_process(cmd, out):
        start = time.perf_counter()
        proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True,
                              timeout=CALL_TIMEOUT_S)
        out.append(time.perf_counter() - start)
        if proc.returncode != 0:
            problems.append(f"set-up probe exited with {proc.returncode}: "
                            f"{proc.stderr.strip()[-500:]}")

    time_process(IMPORT_REFERENCE_ARGV, refs)
    for _ in range(SETUP_REPEATS):
        time_process(argv, times)
        time_process(IMPORT_REFERENCE_ARGV, refs)
    return times, refs, problems


def _at_reference_speed(walls: list[float], refs: list[float], ref_s: float) -> float:
    """Median of wall times, each scaled by the mean of the two references
    timed before and after it (`refs` has one more entry than `walls`)."""
    return statistics.median(2.0 * w * ref_s / (before + after)
                             for w, before, after in zip(walls, refs, refs[1:]))


def _run_worker(request: dict, workdir: str) -> dict:
    req_path = os.path.join(workdir, "request.json")
    res_path = os.path.join(workdir, "result.json")
    with open(req_path, "w", encoding="utf-8") as fh:
        json.dump(request, fh)
    env = dict(os.environ, TMPDIR=workdir)
    budget = request["seconds"] + CALL_TIMEOUT_S
    # A session of its own, so that a timeout also stops the sweep's pool workers.
    proc = subprocess.Popen([sys.executable, os.path.join(HERE, "worker.py"),
                             req_path, res_path], cwd=ROOT, env=env, start_new_session=True)
    try:
        rc = proc.wait(timeout=budget)
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.wait()
        raise RuntimeError(f"workload process exceeded {budget} s") from None
    if rc != 0:
        raise RuntimeError(f"workload process exited with {rc}")
    with open(res_path, "r", encoding="utf-8") as fh:
        return json.load(fh)


def _check_records(records: list, workloads, optimum) -> list[str]:
    """Check every call; attach each call's output digest to its record."""
    problems = []
    for rec in records:
        if "call" not in rec:
            problems.append(rec["error"])
            continue
        call = workloads.Call(**rec["call"])
        found = workloads.check(call, rec["rc"], rec["stdout"], optimum)
        if rec["error"]:
            found.append(rec["error"].strip().splitlines()[-1])
        rec["problems"] = found
        rec["output_sha256"] = None if found else workloads.output_digest(call, rec["stdout"])
        problems += [f"{rec['kind']} call: {p}" for p in found]
    return problems


def _layer_report(records: list) -> dict:
    """Per-layer figures: medians over the traced calls."""
    traced = [r for r in records if r["kind"] == "traced"]
    untraced = [r["wall_s"] for r in records if r["kind"] == "untraced"]
    jobs = [r["wall_s"] for r in records if r["kind"] == "untraced-jobs"]
    med = statistics.median

    def fn(rec, name, key):
        entry = rec["summary"]["functions"].get(name)
        return entry[key] if entry else 0

    def med_of(get):
        return med([get(r) for r in traced])

    wall = med_of(lambda r: r["wall_s"])
    rows = fn(traced[0], tracer.ROW_SPAN, "calls")
    call = traced[0]["call"]
    steps = call["steps"] * len(call["seeds"])
    report = {
        "trace.wall_s": wall,
        "trace.overhead_frac": wall / med(untraced) - 1.0,
        "trace.coverage_frac": med_of(
            lambda r: sum(r["summary"]["layer_self_ns"].values()) / 1e9 / r["wall_s"]),
    }
    for layer in traced[0]["summary"]["layer_self_ns"]:
        report[f"{layer}.self_frac"] = med_of(
            lambda r: r["summary"]["layer_self_ns"][layer] / 1e9 / r["wall_s"])
        report[f"{layer}.self_s"] = med_of(lambda r: r["summary"]["layer_self_ns"][layer] / 1e9)
    for name in LAYER_FUNCS_SELF:
        report[f"{name}.self_frac"] = med_of(lambda r: fn(r, name, "self_ns") / 1e9 / r["wall_s"])
        report[f"{name}.self_s"] = med_of(lambda r: fn(r, name, "self_ns") / 1e9)
    for name in LAYER_FUNCS_TOTAL:
        report[f"{name}.frac"] = med_of(lambda r: fn(r, name, "total_ns") / 1e9 / r["wall_s"])
        report[f"{name}.s"] = med_of(lambda r: fn(r, name, "total_ns") / 1e9)
    for name in COUNTED:
        report[f"{name}.calls"] = fn(traced[0], name, "calls")
        report[f"{name}.us_p50"] = med_of(lambda r: fn(r, name, "p50_ns") / 1e3) or None
        report[f"{name}.us_p99"] = med_of(lambda r: fn(r, name, "p99_ns") / 1e3) or None
    report["mdp.stationary_distribution.per_row"] = (
        fn(traced[0], "mdp.stationary_distribution", "calls_in_row")
        / rows if rows else 0.0)
    report["learner.steps"] = steps
    frozen = ".frozen" if call["frozen_actor"] else ""
    report[f"learner.us_per_step{frozen}"] = (
        report["learner.run.self_s"] / steps * 1e6 if steps else None)
    report["cli.sweep.speedup_jobs2"] = med(untraced) / med(jobs) if jobs else None
    return report


END_TO_END_PRINTED = [("setup_s", "s"), ("norm_ops_per_s", "1/s"), ("peak_rss_sum_mb", "MB")]
PER_LAYER_PRINTED = (
    [("trace.wall_s", "s"), ("trace.overhead_frac", "frac"), ("trace.coverage_frac", "frac")]
    + [(f"{layer}.self_frac", "frac") for layer in tracer.LAYERS]
    + [(f"{name}.self_frac", "frac") for name in LAYER_FUNCS_SELF]
    + [(f"{name}.frac", "frac") for name in LAYER_FUNCS_TOTAL]
    + [(f"{name}.calls", "count") for name in COUNTED]
    + [("mdp.stationary_distribution.per_row", "ratio")]
)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    os.environ.update(PINNED)  # before numpy is imported, here or in a child
    if not os.path.isfile(os.path.join(SRC, "avgrl", "cli.py")):
        print(f"error: no avgrl sources under {SRC}; run from the repository root",
              file=sys.stderr)
        return 2
    sys.path.insert(0, SRC)
    import reference
    import workloads
    from avgrl import envs, oracles

    if args.workload not in workloads.WORKLOADS:
        print(f"error: unknown workload {args.workload!r}; choose from "
              f"{sorted(workloads.WORKLOADS)}", file=sys.stderr)
        return 2
    os.makedirs(OUT, exist_ok=True)
    tag = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    workdir = os.path.join(OUT, f"work-{os.getpid()}")
    os.makedirs(workdir)
    try:
        inputs = workloads.make_inputs(args.workload, args.seed, workdir)
        provenance = _provenance(args.workload, args.seed, inputs)
        optimum = (None if inputs.env is None else
                   oracles.lp_optimum(envs.resolve_env(inputs.env)[0]))
        setup, setup_refs, problems = ([], [], []) if args.trace else _setup_seconds(
            workloads.make_call(args.workload, args.seed, inputs,
                                os.path.join(workdir, "setup")))
        request = {"workload": args.workload, "seed": args.seed, "seconds": args.seconds,
                   "trace": args.trace, "workdir": workdir,
                   "inputs": vars(inputs), "spans_path": os.path.join(OUT, f"{tag}-spans.jsonl")}
        result = _run_worker(request, workdir)
        records = result["records"]
        failed = len(problems)
        problems += _check_records(records, workloads, optimum)
        calls = [r for r in records if "call" in r]
        failed += sum(1 for r in records if r.get("problems") or "call" not in r)
        attempted = len(setup) + len(setup_refs) + len(records)
        first = next(r for r in calls if r["kind"] != "warmup")
        gain_gap = (optimum - workloads.final_gain(workloads.Call(**first["call"]))
                    if optimum is not None and not first["problems"] else None)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    if args.trace:
        report = _layer_report(records)
        printed = {name: {"value": report[name], "unit": unit}
                   for name, unit in PER_LAYER_PRINTED}
    else:
        walls = [r["wall_s"] for r in calls if r["kind"] == "untraced"]
        ops = workloads.Call(**first["call"]).ops
        spec = workloads.WORKLOADS[args.workload][1]
        jobs = spec["jobs"]
        _, ref_s = reference.for_command(spec["command"])
        # A sum of per-process peaks: a forked pool worker's peak repeats the
        # pages it shares with the workload process.
        pool_kb = result["child_maxrss_kb"] * jobs if jobs > 1 else 0
        report = {
            "setup_s": _at_reference_speed(setup, setup_refs, reference.IMPORT_REFERENCE_S),
            "norm_ops_per_s": ops / _at_reference_speed(walls, result["reference_s"],
                                                        ref_s),
            "peak_rss_sum_mb": (result["self_maxrss_kb"] + pool_kb) / 1024.0,
            "setup_raw_s": statistics.median(setup),
            "ops_per_s": ops / statistics.median(walls),
            "calls": len(walls), "call_s.samples": walls, "setup_s.samples": setup,
            "reference_s.samples": result["reference_s"],
            "setup_reference_s.samples": setup_refs,
        }
        printed = {name: {"value": report[name], "unit": unit}
                   for name, unit in END_TO_END_PRINTED}
    report["gain_gap"] = gain_gap
    report["failed_frac"] = failed / attempted
    with open(os.path.join(OUT, f"{tag}.json"), "w", encoding="utf-8") as fh:
        json.dump({"provenance": provenance, "problems": problems, "report": report,
                   "calls": [{k: r.get(k) for k in ("kind", "rc", "wall_s",
                                                    "output_sha256", "problems")}
                             for r in records]}, fh, indent=1)
        fh.write("\n")
    for p in problems:
        print(f"FAILED CHECK: {p}", file=sys.stderr)
    for name, value in report.items():
        if not name.endswith(".samples"):
            print(f"  {name:48s} {value}", file=sys.stderr)
    print(json.dumps({"correct": not problems, "attempted": attempted,
                      "failed": failed, "metrics": printed}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
