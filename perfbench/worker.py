"""The workload process: imports avgrl once, then times `avgrl.cli.main` calls.

    python3 perfbench/worker.py REQUEST.json RESULT.json

run.py starts this process with the BLAS thread count pinned in its
environment, so the pin holds from the first numpy import.  Set-up is
excluded: avgrl is imported and a short warm-up call runs before timing.

Untraced mode (trace 0): the workload's timed call repeats until the time
budget is spent (at least three times).  Before the first call and after
each call the process times a reference pass that does not use avgrl;
run.py divides the host's speed out with the two that bracket a call.  Traced mode (trace 1): rounds, within the budget and at least
one, of one untraced and one traced call of the full-size argv, plus, for the
sweep, one untraced call at the workload's own --jobs.  The sweep is traced
at --jobs 1 so that no span is lost in a pool worker.
"""

from __future__ import annotations

import contextlib
import dataclasses
import gc
import io
import json
import os
import resource
import sys
import time
import traceback

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, os.path.join(HERE, "..", "src"))

from avgrl import cli  # noqa: E402

import tracer  # noqa: E402
import reference  # noqa: E402
import workloads  # noqa: E402

MIN_CALLS = 3


def timed(call: workloads.Call, kind: str, trace: tracer.Tracer | None = None) -> dict:
    """Run one CLI call with stdout captured; time only the cli.main call."""
    os.makedirs(call.out, exist_ok=True)
    gc.collect()
    buf = io.StringIO()
    error = None
    with contextlib.redirect_stdout(buf), (trace or contextlib.nullcontext()):
        start = time.perf_counter()
        try:
            rc = cli.main(call.argv)
        except SystemExit as exc:  # argparse rejects the argv
            rc = exc.code if isinstance(exc.code, int) else 2
        except Exception:  # noqa: BLE001 - a crash is a failed call, not a crashed run
            rc, error = -1, traceback.format_exc()
        wall = time.perf_counter() - start
    record = {"kind": kind, "call": dataclasses.asdict(call), "rc": rc,
              "wall_s": wall, "stdout": buf.getvalue(), "error": error}
    if trace is not None:
        record["summary"] = tracer.summarize(trace.spans)
    return record


def main(request_path: str, result_path: str) -> None:
    with open(request_path, "r", encoding="utf-8") as fh:
        req = json.load(fh)
    name, seed, workdir = req["workload"], req["seed"], req["workdir"]
    inputs = workloads.Inputs(**req["inputs"])
    count = iter(range(10**9))

    def call(**kwargs) -> workloads.Call:
        out = os.path.join(workdir, f"call{next(count)}")
        return workloads.make_call(name, seed, inputs, out, **kwargs)

    records = [timed(call(), "warmup")]
    deadline = time.perf_counter() + req["seconds"]
    reference_s = []
    last_spans = None
    if not req["trace"]:
        loop, _ = reference.for_command(workloads.WORKLOADS[name][1]["command"])
        reference_s.append(reference.reference_for(records[0]["wall_s"], loop))
        while time.perf_counter() < deadline or len(records) <= MIN_CALLS:
            records.append(timed(call(), "untraced"))
            reference_s.append(reference.reference_for(records[-1]["wall_s"], loop))
    else:
        is_sweep = workloads.WORKLOADS[name][1]["command"] == "sweep"
        round_s = 0.0
        # Start another round only if it should end before the deadline.
        while len(records) == 1 or time.perf_counter() + round_s < deadline:
            round_start = time.perf_counter()
            records.append(timed(call(traced=True, jobs=1), "untraced"))
            trace = tracer.Tracer()
            records.append(timed(call(traced=True, jobs=1), "traced", trace))
            last_spans = trace.spans
            if is_sweep:
                records.append(timed(call(traced=True), "untraced-jobs"))
            round_s = time.perf_counter() - round_start
        leftover = tracer.leftover_wrappers()
        if leftover:
            records.append({"kind": "tracer", "rc": -1, "error":
                            f"wrappers left behind: {leftover}"})
    self_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    child_kb = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    result = {"records": records, "reference_s": reference_s,
              "self_maxrss_kb": self_kb, "child_maxrss_kb": child_kb}
    with open(result_path, "w", encoding="utf-8") as fh:
        json.dump(result, fh)
    if last_spans is not None and req.get("spans_path"):
        with open(req["spans_path"], "w", encoding="utf-8") as fh:
            for span in last_spans:
                fh.write(json.dumps(span) + "\n")


if __name__ == "__main__":
    main(sys.argv[1], sys.argv[2])
